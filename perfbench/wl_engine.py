"""The ``dense`` and ``chain`` workloads: sequences of ``run_ensemble`` calls.

Both run whole *blocks* of calls in a seeded order with seeded engine
seeds: ``dense`` calls each host at each δ, ``chain`` calls each job
once with δ cycling from block to block.  Blocks repeat until the next
one would overrun ``--seconds``, so every run measures the same mix.
Calls go through the ``repro.core.ensemble`` module attribute so that
the traced run's wrapper sees them.  Each call's wall time is scaled by
the host reference read between calls (``common.Reference``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from common import Context, Outcome, median, pct

DELTAS = (0.1, 0.05, 0.02)


@dataclass(frozen=True)
class Job:
    name: str
    graph: object
    replicas: int
    fast: bool | None  # latency class; None: throughput and blocks only
    protocol: object = None
    max_steps: int = 10_000
    fixed_rounds: bool = False


def setup_dense(ctx: Context) -> list[Job]:
    from repro.core import ensemble
    from repro.graphs.generators import random_regular
    from repro.graphs.implicit import RookGraph

    csr = random_regular(8192, 128, seed=[ctx.seed, 8192])
    rook = RookGraph(128)
    jobs = [Job("rook128", rook, 96, fast=False), Job("rr8192", csr, 64, fast=True)]
    for job in jobs:  # warm-up: one small call per host
        ensemble.run_ensemble(job.graph, replicas=4, delta=0.1, seed=0)
    return jobs


def setup_chain(ctx: Context) -> list[Job]:
    from repro.core import ensemble
    from repro.core.protocols import NoisyBestOfK, ZealotBestOfK
    from repro.graphs.implicit import CompleteGraph, CompleteMultipartiteGraph

    r = 10_000
    jobs = [
        Job("K_2^16", CompleteGraph(2**16), r, fast=True),
        Job("K_10^7", CompleteGraph(10**7), r, fast=True),
        Job("K_10^10", CompleteGraph(10**10), r, fast=False),
        Job("noisy0.2_K_2^16", CompleteGraph(2**16), r, fast=None,
            protocol=NoisyBestOfK(0.2), max_steps=80, fixed_rounds=True),
        Job("zealot64_multipartite8x2^13",
            CompleteMultipartiteGraph([2**13] * 8), r, fast=None,
            protocol=ZealotBestOfK(64)),
    ]
    ensemble.run_ensemble(jobs[0].graph, replicas=16, delta=0.1, seed=0)
    return jobs


def _check(job: Job, delta: float, res) -> str | None:
    """Why *res* is wrong, or ``None`` when it passes."""
    from repro.core.opinions import RED
    from repro.core.recursions import consensus_time_bound, ideal_hitting_time

    n = job.graph.num_vertices
    if job.fixed_rounds:
        if not (res.steps == job.max_steps).all():
            return f"{job.name}: noisy run did not keep its {job.max_steps} rounds"
        return None
    if not res.converged.all():
        return f"{job.name} δ={delta}: a replica did not reach consensus"
    # Theorem 1 promises red w.h.p.; at n = 8192 and δ = 0.02 a start
    # can, rarely, sit near 1/2.  Red is required of every replica whose
    # initial red lead is at least 2√n vertices: four standard deviations
    # of one round's sampling noise, so a false alarm is negligible.
    start = np.array([traj[0] for traj in res.blue_trajectories])
    clear = start <= n / 2 - 2 * np.sqrt(n)
    if not (res.winners[clear] == RED).all():
        return f"{job.name} δ={delta}: a replica with a clear red lead did not win red"
    bound = 3 * consensus_time_bound(n, max(job.graph.min_degree, 3), delta)
    if res.steps.max() > bound:
        return f"{job.name} δ={delta}: {res.steps.max()} rounds > 3×Theorem-1 bound {bound}"
    if job.name.startswith("K_"):
        ideal = ideal_hitting_time(0.5 - delta, 0.5 / n)
        if abs(res.steps.mean() - ideal) > 1.5:
            return f"{job.name} δ={delta}: mean steps {res.steps.mean():.2f} vs ideal {ideal}"
    return None


def run(ctx: Context, jobs: list[Job]) -> Outcome:
    from repro.core import ensemble

    rng = np.random.default_rng([ctx.seed, 2])
    dense = ctx.workload == "dense"
    fast, slow, blocks, rates = [], [], [], []
    updates = rounds = 0
    attempted = failed = 0
    routes: dict[str, int] = {}
    notes = []
    ref = ctx.ref
    raw_fast, raw_slow, raw_blocks, raw_rates = [], [], [], []
    start = time.perf_counter()
    last_ref = ref.time()
    while not blocks or time.perf_counter() - start + median(raw_blocks) <= ctx.seconds:
        # dense: each host at each δ; chain: each job once, δ cycling
        # across blocks.  Either way every run sees the same mix.
        b = len(blocks)
        if dense:
            calls = [(job, d) for job in jobs for d in DELTAS]
        else:
            calls = [(job, DELTAS[(b + j) % 3]) for j, job in enumerate(jobs)]
        work0 = updates if dense else rounds
        block = raw_block = 0.0
        for i in rng.permutation(len(calls)):
            job, delta = calls[i]
            seed = int(rng.integers(2**32))
            t0 = time.perf_counter()
            res = ensemble.run_ensemble(
                job.graph, replicas=job.replicas, protocol=job.protocol,
                delta=delta, seed=seed, max_steps=job.max_steps,
                record_trajectories=True,
            )
            wall = time.perf_counter() - t0
            now_ref = ref.time()
            scaled = wall * ref.scale(last_ref, now_ref)
            last_ref = now_ref
            block += scaled
            raw_block += wall
            if job.fast is not None:
                (fast if job.fast else slow).append(scaled * 1e3)
                (raw_fast if job.fast else raw_slow).append(wall * 1e3)
            attempted += 1
            problem = _check(job, delta, res)
            if problem:
                failed += 1
                notes.append(problem)
            steps = int(res.steps.sum())
            rounds += steps
            updates += steps * job.graph.num_vertices
            route = f"{res.method}/threads={res.threads}"
            key = f"{job.name} -> {route}"
            routes[key] = routes.get(key, 0) + 1
        blocks.append(block)
        raw_blocks.append(raw_block)
        rates.append(((updates if dense else rounds) - work0) / block)
        raw_rates.append(((updates if dense else rounds) - work0) / raw_block)
    wall = time.perf_counter() - start
    counts = {"replica_rounds": rounds, "blocks": len(blocks), "calls": attempted}
    if dense:
        counts["vertex_updates"] = updates
        counts["dense_samples"] = 3 * updates
    counts.update({f"route[{k}]": v for k, v in sorted(routes.items())})
    metrics = {
        "throughput_per_s": median(rates),
        "fast_p50_ms": median(fast),
        "fast_p90_ms": pct(fast, 90),
        "slow_p50_ms": median(slow),
        "slow_p90_ms": pct(slow, 90),
        "batch_s": median(blocks),
    }
    raw = {
        "throughput_per_s": median(raw_rates),
        "fast_p50_ms": median(raw_fast),
        "slow_p50_ms": median(raw_slow),
        "batch_s": median(raw_blocks),
    }
    names = {
        "throughput_per_s": ("vertex_updates_per_s" if dense
                             else "replica_rounds_per_s") + ", median over blocks",
        "fast_p50_ms": "CSR-host call p50" if dense else "K_n (n<=10^7) call p50",
        "fast_p90_ms": "CSR-host call p90" if dense else "K_n (n<=10^7) call p90",
        "slow_p50_ms": "rook call p50" if dense else "K_10^10 call p50",
        "slow_p90_ms": "rook call p90" if dense else "K_10^10 call p90",
        "batch_s": "block (every job once) wall",
    }
    extra = {"replica_rounds_per_s (raw, whole run)": rounds / wall}
    if dense:
        extra["vertex_updates_per_s (raw, whole run)"] = updates / wall
    return Outcome(metrics, attempted, failed, counts, names,
                   notes + [f"{k} = {v:.6g}" for k, v in extra.items()], raw)
