"""Ensemble-engine throughput: batched vs loop, count chains vs dense.

Measures replicas/sec for the DESIGN.md §2.3/§2.5 engine ablations:

* **batched vs sequential loop** — the ``(R, n)``-matrix engine against
  the old per-trial Python round loop (:func:`sequential_loop`; same
  protocol, same initial-condition law);
* **count chains vs dense** — the exact count-chain kernels (``K_n``,
  complete multipartite, two-clique bridge) against the per-vertex
  batched simulation, including Theorem 1 verifications at ``n = 10⁷``
  (exact binomials) and ``n = 10¹⁰`` (the Gaussian regime) that are
  simply out of reach for the dense path;
* **protocol count chains vs legacy loops** — the Protocol layer's
  noisy/zealot count-chain executions (DESIGN.md §2.6) against
  one-trial-at-a-time loops like the extension runners they replaced
  (:func:`noisy_loop`, :func:`zealot_loop`; guard: noisy ≥ 50× at
  ``n = 2¹⁴``);
* **flat-take gather** — the dense path's ``np.take``-over-row-offsets
  gather against the fancy-index broadcast it replaced;
* **shared host store** — a warm ``jobs=2`` sweep pool attaching to the
  parent's memory-mapped CSR arrays versus regenerating the quenched
  host per worker (rebuild counts reported).

Run standalone for the full acceptance-size report, or with ``--quick``
(CI) for the smoke sizes; ``--out PATH`` writes the JSON snapshot::

    PYTHONPATH=src python benchmarks/bench_ensemble_throughput.py
    PYTHONPATH=src python benchmarks/bench_ensemble_throughput.py \\
        --quick --out /tmp/BENCH_ensemble_throughput.json

(``benchmarks/run_bench.py`` wraps the same reports and owns the
committed ``BENCH_ensemble_throughput.json``.)

The pytest-benchmark entries at the bottom keep these paths in the timed
suite (`pytest benchmarks/ --benchmark-only`) at small sizes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.dynamics import step_best_of_k
from repro.core.ensemble import run_ensemble, step_best_of_k_batch
from repro.core.opinions import random_opinions
from repro.core.theorem import verify_theorem1
from repro.graphs.generators import two_clique_bridge
from repro.graphs.implicit import (
    CompleteGraph,
    CompleteMultipartiteGraph,
    RookGraph,
)
from repro.util.rng import spawn_generators

__all__ = [
    "sequential_loop",
    "noisy_loop",
    "zealot_loop",
    "bench_batched_vs_loop",
    "bench_count_chain_vs_dense",
    "bench_count_chain_theorem1",
    "bench_kernel_vs_dense",
    "bench_gaussian_theorem1",
    "bench_noisy_count_chain_vs_loop",
    "bench_zealot_count_chain_vs_loop",
    "bench_dense_gather",
    "bench_dense_scaling",
    "bench_host_store",
]


def sequential_loop(graph, *, trials, delta, seed, max_steps=500, k=3):
    """The pre-engine baseline: one double-buffered round loop per trial,
    stepping with :func:`step_best_of_k` until consensus or *max_steps*.
    Returns the number of trials that reached consensus."""
    n = graph.num_vertices
    gens = spawn_generators(seed, 2 * trials)
    converged = 0
    for i in range(trials):
        current = random_opinions(n, delta, rng=gens[2 * i])
        buffer = np.empty_like(current)
        rng = gens[2 * i + 1]
        blue = int(np.count_nonzero(current))
        steps = 0
        while 0 < blue < n and steps < max_steps:
            buffer = step_best_of_k(graph, current, k, rng, out=buffer)
            current, buffer = buffer, current
            blue = int(np.count_nonzero(current))
            steps += 1
        converged += int(blue in (0, n))
    return converged


def noisy_loop(graph, init, eta, *, seed, rounds):
    """The pre-engine noisy yardstick: one ε-noisy Best-of-3 trial as a
    per-round loop.  Returns the stationary (second-half) blue fraction."""
    n = graph.num_vertices
    gen = np.random.default_rng(seed)
    state = np.array(init, dtype=np.uint8)
    trajectory = [int(state.sum())]
    for _ in range(rounds):
        draws = graph.sample_neighbors(graph.vertex_ids, 3, gen)
        state = (state[draws].sum(axis=1, dtype=np.int64) >= 2).astype(np.uint8)
        noisy = gen.random(n) < eta
        m = int(noisy.sum())
        if m:
            state[noisy] = (gen.random(m) < 0.5).astype(np.uint8)
        trajectory.append(int(state.sum()))
    return float(np.mean(trajectory[rounds // 2 :]) / n)


def zealot_loop(graph, init, z, *, seed, max_rounds):
    """The pre-engine zealot yardstick: one Best-of-3 trial with vertices
    ``0..z-1`` pinned blue, looped until the ordinary vertices agree.
    Returns whether they all ended blue."""
    n = graph.num_vertices
    gen = np.random.default_rng(seed)
    state = np.array(init, dtype=np.uint8)
    state[:z] = 1
    for _ in range(max_rounds):
        ordinary_blue = int(state[z:].sum())
        if ordinary_blue in (0, n - z):
            break
        draws = graph.sample_neighbors(graph.vertex_ids, 3, gen)
        state = (state[draws].sum(axis=1, dtype=np.int64) >= 2).astype(np.uint8)
        state[:z] = 1
    return int(state[z:].sum()) == n - z


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


ENGINE_REPEATS = 5
"""Engine calls a speedup-vs-loop ratio divides by are timed as the
median of this many repeats: a count-chain call takes milliseconds, so a
single timing is mostly timer and scheduler noise."""


def _median_timed(fn, repeats: int = ENGINE_REPEATS):
    """Median wall time of *repeats* calls of *fn*, and its last output."""
    times = []
    for _ in range(repeats):
        elapsed, out = _timed(fn)
        times.append(elapsed)
    return float(np.median(times)), out


def bench_batched_vs_loop(
    *, n=2**16, replicas=100, delta=0.1, seed=0, max_steps=500, host="complete"
):
    """Replicas/sec: engine (auto + forced-dense) vs the sequential loop.

    On the complete-graph host the engine's ``auto`` route is the exact
    count chain — the headline speedup — while ``batched`` isolates the
    dense-path gain (shared rounds + compaction + int32 gathers).
    """
    graph = CompleteGraph(n) if host == "complete" else RookGraph(int(np.sqrt(n)))
    n = graph.num_vertices

    t_loop, _ = _timed(
        lambda: sequential_loop(
            graph, trials=replicas, delta=delta, seed=seed, max_steps=max_steps
        )
    )
    t_batched, res_b = _timed(
        lambda: run_ensemble(
            graph, replicas=replicas, delta=delta, seed=seed,
            max_steps=max_steps, record_trajectories=False, method="batched",
        )
    )
    t_auto, res_a = _median_timed(
        lambda: run_ensemble(
            graph, replicas=replicas, delta=delta, seed=seed,
            max_steps=max_steps, record_trajectories=False, method="auto",
        )
    )
    return {
        "host": type(graph).__name__,
        "n": n,
        "replicas": replicas,
        "delta": delta,
        "loop_seconds": t_loop,
        "loop_replicas_per_sec": replicas / t_loop,
        "batched_seconds": t_batched,
        "batched_replicas_per_sec": replicas / t_batched,
        "batched_speedup_vs_loop": t_loop / t_batched,
        "engine_auto_method": res_a.method,
        "engine_auto_seconds": t_auto,
        "engine_auto_replicas_per_sec": replicas / t_auto,
        "engine_auto_speedup_vs_loop": t_loop / t_auto,
        "all_converged": bool(res_b.converged.all() and res_a.converged.all()),
    }


def bench_count_chain_vs_dense(*, n=2**16, replicas=100, delta=0.1, seed=0):
    """Replicas/sec: the exact count chain vs the dense K_n simulation."""
    graph = CompleteGraph(n)
    t_dense, _ = _timed(
        lambda: run_ensemble(
            graph, replicas=replicas, delta=delta, seed=seed,
            max_steps=500, record_trajectories=False, method="batched",
        )
    )
    t_chain, res = _timed(
        lambda: run_ensemble(
            graph, replicas=replicas, delta=delta, seed=seed,
            max_steps=500, record_trajectories=False, method="count_chain",
        )
    )
    return {
        "n": n,
        "replicas": replicas,
        "dense_seconds": t_dense,
        "dense_replicas_per_sec": replicas / t_dense,
        "count_chain_seconds": t_chain,
        "count_chain_replicas_per_sec": replicas / t_chain,
        "count_chain_speedup_vs_dense": t_dense / t_chain,
        "mean_steps": float(res.converged_steps.mean()),
    }


def bench_count_chain_theorem1(*, n=10**7, trials=50, delta=0.1, seed=0):
    """A full Theorem 1 verification at count-chain-only scale."""
    graph = CompleteGraph(n)
    t, verdict = _timed(
        lambda: verify_theorem1(graph, delta, trials=trials, seed=seed)
    )
    return {
        "n": n,
        "trials": trials,
        "delta": delta,
        "seconds": t,
        "replicas_per_sec": trials / t,
        "red_wins": verdict.red_wins,
        "converged": verdict.converged,
        "mean_steps": verdict.mean_steps,
        "max_steps": verdict.max_steps,
    }


def bench_kernel_vs_dense(*, host, replicas=100, delta=0.1, seed=0, max_steps=500):
    """Replicas/sec: a host's exact count-chain kernel vs its dense path.

    The generalised analogue of :func:`bench_count_chain_vs_dense` for
    the non-``K_n`` kernel hosts (complete multipartite, two-clique
    bridge) — the PR 4 headline: these families used to be stuck on the
    bandwidth-bound dense path.
    """
    t_dense, res_d = _timed(
        lambda: run_ensemble(
            host, replicas=replicas, delta=delta, seed=seed,
            max_steps=max_steps, record_trajectories=False, method="batched",
        )
    )
    t_chain, res_c = _timed(
        lambda: run_ensemble(
            host, replicas=replicas, delta=delta, seed=seed,
            max_steps=max_steps, record_trajectories=False,
            method="count_chain",
        )
    )
    return {
        "host": type(host).__name__,
        "kernel": type(host.count_chain_kernel()).__name__,
        "n": host.num_vertices,
        "replicas": replicas,
        "delta": delta,
        "dense_seconds": t_dense,
        "dense_replicas_per_sec": replicas / t_dense,
        "count_chain_seconds": t_chain,
        "count_chain_replicas_per_sec": replicas / t_chain,
        "count_chain_speedup_vs_dense": t_dense / t_chain,
        "dense_converged": res_d.converged_count,
        "count_chain_converged": res_c.converged_count,
    }


def bench_gaussian_theorem1(*, n=10**10, trials=30, delta=0.1, seed=0):
    """A Theorem 1 verification beyond the exact-binomial range.

    At ``n = 10¹⁰`` the chain's counts exceed 2³¹, so every round runs
    through the Gaussian/Poisson regime of
    :func:`repro.core.kernels.binomial_draw` — the whole verification is
    O(R) per round and finishes in milliseconds.
    """
    graph = CompleteGraph(n)
    t, verdict = _timed(
        lambda: verify_theorem1(graph, delta, trials=trials, seed=seed)
    )
    return {
        "n": n,
        "trials": trials,
        "delta": delta,
        "regime": "gaussian",
        "seconds": t,
        "replicas_per_sec": trials / t,
        "red_wins": verdict.red_wins,
        "converged": verdict.converged,
        "mean_steps": verdict.mean_steps,
        "max_steps": verdict.max_steps,
    }


def bench_noisy_count_chain_vs_loop(
    *, n=2**14, trials=50, delta=0.1, eta=0.2, rounds=80, seed=0
):
    """Replicas/sec: the noisy count chain vs the legacy per-trial loop.

    The legacy side is :func:`noisy_loop` driven one trial at a time with
    the historical stream layout; the engine side is
    ``run_ensemble(protocol=NoisyBestOfK(eta))`` on the same complete
    host, which routes to the exact η-mixed count chain.  The acceptance
    guard holds this at ≥ 50× for ``n = 2¹⁴``.
    """
    from repro.core.protocols import NoisyBestOfK

    graph = CompleteGraph(n)

    def loop():
        gens = spawn_generators(seed, 2 * trials)
        return [
            noisy_loop(
                graph, random_opinions(n, delta, rng=gens[2 * j]), eta,
                seed=gens[2 * j + 1], rounds=rounds,
            )
            for j in range(trials)
        ]

    proto = NoisyBestOfK(eta)
    t_loop, _ = _timed(loop)
    t_chain, res = _median_timed(
        lambda: run_ensemble(
            graph, protocol=proto, replicas=trials, delta=delta, seed=seed,
            max_steps=rounds,
        )
    )
    return {
        "host": "CompleteGraph",
        "n": n,
        "trials": trials,
        "eta": eta,
        "rounds": rounds,
        "engine_method": res.method,
        "loop_seconds": t_loop,
        "loop_replicas_per_sec": trials / t_loop,
        "count_chain_seconds": t_chain,
        "count_chain_replicas_per_sec": trials / t_chain,
        "count_chain_speedup_vs_loop": t_loop / t_chain,
        "mean_stationary": float(
            np.mean(proto.summarize(res)["stationary_blue_fraction"])
        ),
    }


def bench_zealot_count_chain_vs_loop(
    *, n=2**14, trials=50, delta=0.1, zealots=None, max_rounds=300, seed=0
):
    """Replicas/sec: the pinned-slot zealot chain vs the legacy loop.

    Legacy side: :func:`zealot_loop` per trial; engine side:
    ``run_ensemble(protocol=ZealotBestOfK(z))`` with zealots as pinned
    count-chain slots.  The default ``z`` sits above the takeover
    threshold, so both sides absorb at all-blue in a handful of rounds
    and the comparison times whole runs.
    """
    from repro.core.protocols import ZealotBestOfK

    graph = CompleteGraph(n)
    z = int(0.08 * n) if zealots is None else zealots

    def loop():
        gens = spawn_generators(seed, 2 * trials)
        return sum(
            zealot_loop(
                graph, random_opinions(n, delta, rng=gens[2 * j]), z,
                seed=gens[2 * j + 1], max_rounds=max_rounds,
            )
            for j in range(trials)
        )

    t_loop, _ = _timed(loop)
    t_chain, res = _median_timed(
        lambda: run_ensemble(
            graph,
            protocol=ZealotBestOfK(z),
            replicas=trials,
            delta=delta,
            seed=seed,
            max_steps=max_rounds,
            record_trajectories=False,
        )
    )
    return {
        "host": "CompleteGraph",
        "n": n,
        "trials": trials,
        "zealots": z,
        "engine_method": res.method,
        "loop_seconds": t_loop,
        "loop_replicas_per_sec": trials / t_loop,
        "count_chain_seconds": t_chain,
        "count_chain_replicas_per_sec": trials / t_chain,
        "count_chain_speedup_vs_loop": t_loop / t_chain,
        "engine_converged": res.converged_count,
    }


def bench_dense_gather(*, n=2**14, replicas=50, k=3, rounds=20, seed=0):
    """The dense path's flat ``np.take`` gather vs the old fancy-index.

    Isolates the stage the satellite task replaced — everything between
    the neighbour draw and the tie handling — on one presampled
    ``(R, n, k)`` id tensor: the old advanced-indexing broadcast
    ``opinions[arange(R)[:, None, None], samples]`` plus allocating
    reductions, against the in-place row-offset shift + flat ``np.take``
    + preallocated reductions the engine now runs.  (Whole rounds are
    sampling-bound, so the end-to-end engine delta is smaller than this
    stage-level ratio; both are recorded in the snapshot via the
    ``batched_*`` entries.)
    """
    graph = RookGraph(int(np.sqrt(n)))
    n = graph.num_vertices
    batch = np.stack(
        [random_opinions(n, 0.1, rng=(seed, i)) for i in range(replicas)]
    )
    half = k // 2
    rng = np.random.default_rng(seed)
    samples = graph.sample_neighbors_batch(graph.vertex_ids, k, rng, replicas)
    flat_ops = batch.reshape(-1)
    offsets = (np.arange(replicas, dtype=samples.dtype) * n)[:, None, None]
    idx_buf = np.empty_like(samples)
    gathered = np.empty((replicas, n, k), dtype=batch.dtype)
    votes = np.empty((replicas, n), dtype=np.uint8)
    out = np.empty_like(batch)

    def legacy_gather():
        for _ in range(rounds):
            g = batch[np.arange(replicas)[:, None, None], samples]
            v = g.sum(axis=2, dtype=np.uint8)
            (v > half)

    def flat_take_gather():
        for _ in range(rounds):
            np.copyto(idx_buf, samples)
            np.add(idx_buf, offsets, out=idx_buf)
            np.take(flat_ops, idx_buf, out=gathered)
            np.sum(gathered, axis=2, dtype=np.uint8, out=votes)
            np.greater(votes, half, out=out)

    legacy_gather()  # warm both paths before timing
    flat_take_gather()
    t_legacy, _ = _timed(legacy_gather)
    t_flat, _ = _timed(flat_take_gather)
    return {
        "host": "RookGraph",
        "n": n,
        "replicas": replicas,
        "k": k,
        "rounds": rounds,
        "fancy_index_seconds": t_legacy,
        "flat_take_seconds": t_flat,
        "flat_take_speedup": t_legacy / t_flat,
    }


def bench_dense_scaling(
    *, n=2**14, replicas=64, delta=0.0, rounds=25, seed=0,
    thread_counts=(1, 2, 4),
):
    """Dense-path scaling: serial vs threaded blocks vs the legacy loop.

    The ISSUE 10 acceptance scenario, on the host family where the dense
    path was the bottleneck (rook — the ``batched_vs_loop_rook`` 0.92×
    regression).  ``delta=0`` starts every replica balanced so almost
    nothing absorbs inside the round budget: each engine advances
    ``replicas × rounds`` near-identical rounds, which makes the
    throughputs directly comparable.  Records, per thread count, whole
    runs through ``run_ensemble(threads=t)``; the serial layout
    (``threads=0``), the pre-engine sequential loop, and the ``auto``
    policy's routing are the baselines.  ``threaded_bit_identical``
    asserts the layout contract (worker count never changes results) in
    the snapshot itself, and ``kernel`` records the dense kernel
    (always ``numpy``).

    CI's ``dense-scaling`` job guards this entry: best-threaded ≥ 2× the
    serial dense path on the 4-core runner, ``auto`` at least as fast
    as the legacy loop, and the serial dense path
    (``serial_speedup_vs_loop``, single-threaded) at least as fast as
    the loop too.
    """
    from repro.core.dense import dense_kernel_name

    graph = RookGraph(int(np.sqrt(n)))
    n = graph.num_vertices
    kw = dict(
        replicas=replicas, delta=delta, seed=seed, max_steps=rounds,
        record_trajectories=False,
    )
    t_loop, _ = _timed(
        lambda: sequential_loop(
            graph, trials=replicas, delta=delta, seed=seed, max_steps=rounds
        )
    )
    t_serial, _ = _timed(
        lambda: run_ensemble(graph, method="batched", threads=0, **kw)
    )
    per_thread: dict[str, dict] = {}
    runs: dict[int, object] = {}
    for t in thread_counts:
        t_run, res = _timed(
            lambda t=t: run_ensemble(graph, method="batched", threads=t, **kw)
        )
        runs[t] = res
        per_thread[str(t)] = {
            "seconds": t_run,
            "replicas_per_sec": replicas / t_run,
            "speedup_vs_serial": t_serial / t_run,
            "speedup_vs_loop": t_loop / t_run,
        }
    base = runs[thread_counts[0]]
    bit_identical = all(
        np.array_equal(base.steps, runs[t].steps)
        and np.array_equal(base.final_totals, runs[t].final_totals)
        for t in thread_counts[1:]
    )
    t_auto, res_auto = _timed(lambda: run_ensemble(graph, **kw))
    best = max(thread_counts, key=lambda t: per_thread[str(t)]["replicas_per_sec"])
    return {
        "host": "RookGraph",
        "n": n,
        "replicas": replicas,
        "rounds": rounds,
        "kernel": dense_kernel_name(),
        "loop_seconds": t_loop,
        "loop_replicas_per_sec": replicas / t_loop,
        "serial_seconds": t_serial,
        "serial_replicas_per_sec": replicas / t_serial,
        "serial_speedup_vs_loop": t_loop / t_serial,
        "threads": per_thread,
        "threaded_bit_identical": bit_identical,
        "best_threads": best,
        "best_speedup_vs_serial": per_thread[str(best)]["speedup_vs_serial"],
        "best_speedup_vs_loop": per_thread[str(best)]["speedup_vs_loop"],
        "auto_method": res_auto.method,
        "auto_threads": res_auto.threads,
        "auto_seconds": t_auto,
        "auto_replicas_per_sec": replicas / t_auto,
        "auto_speedup_vs_loop": t_loop / t_auto,
    }


def bench_host_store(*, n=2048, p=0.1, points=6, trials=4, jobs=2, seed=0):
    """Warm-pool sweep: shared host store vs per-worker regeneration.

    Runs the same quenched-ER grid twice with ``jobs`` workers — first
    with host sharing disabled (every worker regenerates the graph),
    then with the shared memory-mapped store (workers attach zero-copy).
    The rebuild counts are the acceptance metric: with the store, worker
    processes build **zero** quenched hosts.
    """
    from repro.sweeps import (
        HostSpec,
        InitSpec,
        Point,
        ProtocolSpec,
        SweepSpec,
        run_sweep,
    )

    spec = SweepSpec(
        name="bench_host_store",
        points=tuple(
            Point(
                host=HostSpec.of("erdos_renyi", n=n, p=p, seed=(seed, 77)),
                protocol=ProtocolSpec.best_of(3),
                init=InitSpec.iid(0.1),
                trials=trials,
                max_steps=500,
                seed=(seed, i),
            )
            for i in range(points)
        ),
    )
    # Order matters: the no-store run goes first so the parent process
    # has not built (and therefore cannot fork-inherit) the host yet —
    # its workers must regenerate, which is exactly the cost the store
    # removes.
    t_rebuild, no_store = _timed(
        lambda: run_sweep(spec, jobs=jobs, share_hosts=False)
    )
    t_attach, with_store = _timed(lambda: run_sweep(spec, jobs=jobs))
    return {
        "host": f"erdos_renyi(n={n}, p={p})",
        "points": points,
        "jobs": jobs,
        "no_store_seconds": t_rebuild,
        "no_store_worker_rebuilds": no_store.stats.host_builds,
        "store_seconds": t_attach,
        "store_hosts_published": with_store.stats.hosts_published,
        "store_worker_rebuilds": with_store.stats.host_builds,
        "store_worker_attaches": with_store.stats.host_attaches,
    }


def full_report():
    """The acceptance-size measurements (ISSUE 1 criteria)."""
    return {
        "batched_vs_loop_Kn_2e16": bench_batched_vs_loop(
            n=2**16, replicas=100, delta=0.1, seed=0
        ),
        "batched_vs_loop_rook": bench_batched_vs_loop(
            n=2**14, replicas=100, delta=0.1, seed=0, host="rook"
        ),
        "count_chain_vs_dense_Kn_2e16": bench_count_chain_vs_dense(
            n=2**16, replicas=100, delta=0.1, seed=0
        ),
        "count_chain_vs_dense_multipartite": bench_kernel_vs_dense(
            host=CompleteMultipartiteGraph([2**13] * 8), replicas=100, seed=0
        ),
        "count_chain_vs_dense_bridge": bench_kernel_vs_dense(
            host=two_clique_bridge(2**13), replicas=100, seed=0
        ),
        "count_chain_theorem1_1e7": bench_count_chain_theorem1(
            n=10**7, trials=50, delta=0.1, seed=0
        ),
        "gaussian_theorem1_1e10": bench_gaussian_theorem1(
            n=10**10, trials=30, delta=0.1, seed=0
        ),
        "noisy_count_chain_vs_loop": bench_noisy_count_chain_vs_loop(
            n=2**14, trials=50, eta=0.2, rounds=80, seed=0
        ),
        "zealot_count_chain_vs_loop": bench_zealot_count_chain_vs_loop(
            n=2**14, trials=50, seed=0
        ),
        "dense_gather_flat_take": bench_dense_gather(
            n=2**14, replicas=50, rounds=20, seed=0
        ),
        # replicas=96 puts R*n*k past DENSE_AUTO_THREAD_MIN_SAMPLES, so
        # the snapshot records the auto policy actually routing to the
        # threaded layout (auto_threads >= 1).
        "dense_scaling_rook": bench_dense_scaling(
            n=2**14, replicas=96, delta=0.0, rounds=25, seed=0,
            thread_counts=(1, 2, 4),
        ),
        "sweep_host_store": bench_host_store(
            n=2048, p=0.1, points=6, jobs=2, seed=0
        ),
    }


def smoke_report():
    """Small sizes for CI smoke runs (same shape as :func:`full_report`).

    The ``K_n`` engine-vs-loop entry runs at ``n = 2¹⁵`` — large enough
    that the ≥100× count-chain regression guard in CI has real margin
    (the speedup grows with ``n``; at 2¹² it sits near the threshold).
    """
    return {
        "batched_vs_loop_Kn_2e15": bench_batched_vs_loop(
            n=2**15, replicas=50, delta=0.1, seed=0
        ),
        "batched_vs_loop_rook": bench_batched_vs_loop(
            n=2**10, replicas=50, delta=0.1, seed=0, host="rook"
        ),
        "count_chain_vs_dense_Kn_2e12": bench_count_chain_vs_dense(
            n=2**12, replicas=50, delta=0.1, seed=0
        ),
        "count_chain_vs_dense_multipartite": bench_kernel_vs_dense(
            host=CompleteMultipartiteGraph([2**10] * 4), replicas=50, seed=0
        ),
        "count_chain_vs_dense_bridge": bench_kernel_vs_dense(
            host=two_clique_bridge(2**10), replicas=50, seed=0
        ),
        "count_chain_theorem1_1e6": bench_count_chain_theorem1(
            n=10**6, trials=20, delta=0.1, seed=0
        ),
        "gaussian_theorem1_1e10": bench_gaussian_theorem1(
            n=10**10, trials=20, delta=0.1, seed=0
        ),
        # The noisy entry keeps the acceptance size n=2^14 even in smoke
        # mode: the ISSUE 5 CI guard (>= 50x) is stated at that size and
        # the legacy loop is still only ~a second there.
        "noisy_count_chain_vs_loop": bench_noisy_count_chain_vs_loop(
            n=2**14, trials=20, eta=0.2, rounds=40, seed=0
        ),
        "zealot_count_chain_vs_loop": bench_zealot_count_chain_vs_loop(
            n=2**12, trials=20, seed=0
        ),
        "dense_gather_flat_take": bench_dense_gather(
            n=2**12, replicas=50, rounds=20, seed=0
        ),
        # The dense-scaling entry keeps a real per-round workload even in
        # smoke mode (n=2^12 x 15 rounds): the ISSUE 10 CI guard reads
        # best_speedup_vs_serial off this entry on the 4-core runner.
        "dense_scaling_rook": bench_dense_scaling(
            n=2**12, replicas=48, delta=0.0, rounds=15, seed=0,
            thread_counts=(1, 2, 4),
        ),
        "sweep_host_store": bench_host_store(
            n=1024, p=0.1, points=4, jobs=2, seed=0
        ),
    }


# ----------------------------------------------------------------------
# pytest-benchmark entries (small sizes; the suite stays fast)
# ----------------------------------------------------------------------


def test_engine_batched_round_kn(benchmark):
    """One batched Best-of-3 round, 50 replicas on K_{2^14}."""
    from repro.core.ensemble import step_best_of_k_batch

    n, reps = 2**14, 50
    g = CompleteGraph(n)
    batch = np.stack([random_opinions(n, 0.1, rng=i) for i in range(reps)])
    rng = np.random.default_rng(0)
    out = np.empty_like(batch)
    benchmark(lambda: step_best_of_k_batch(g, batch, 3, rng, out=out))


def test_engine_count_chain_round(benchmark):
    """One count-chain round for 10^4 replicas on K_{10^6}."""
    n = 10**6
    rng = np.random.default_rng(1)
    B = rng.integers(1, n, size=(10**4, 1))
    kernel = CompleteGraph(n).count_chain_kernel()
    benchmark(lambda: kernel.step(B, 3, rng))


def test_engine_full_ensemble_auto(benchmark):
    """A 100-replica K_{2^14} consensus ensemble through the auto route."""
    g = CompleteGraph(2**14)
    benchmark(
        lambda: run_ensemble(
            g, replicas=100, delta=0.1, seed=2, record_trajectories=False
        )
    )


def _print(title, stats):
    print(f"\n## {title}")
    for key, val in stats.items():
        print(f"  {key:32s} {val}")


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke sizes (the CI configuration) instead of acceptance sizes",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the report as a JSON snapshot to PATH",
    )
    args = parser.parse_args(argv)
    report = smoke_report() if args.quick else full_report()
    for name, stats in report.items():
        _print(name, stats)
    kn = report[
        "batched_vs_loop_Kn_2e15" if args.quick else "batched_vs_loop_Kn_2e16"
    ]
    t1 = report[
        "count_chain_theorem1_1e6" if args.quick else "count_chain_theorem1_1e7"
    ]
    ds = report["dense_scaling_rook"]
    print(
        f"\nacceptance: engine-vs-loop speedup on K_n: "
        f"{kn['engine_auto_speedup_vs_loop']:.1f}x (CI guard: >= 100x); "
        f"exact-regime Theorem 1: {t1['seconds']:.2f}s; Gaussian-regime "
        f"Theorem 1 at n=10^10: "
        f"{report['gaussian_theorem1_1e10']['seconds']:.3f}s"
    )
    print(
        f"dense scaling (rook, kernel={ds['kernel']}): best "
        f"{ds['best_speedup_vs_serial']:.2f}x vs serial at "
        f"{ds['best_threads']} threads (CI guard on the 4-core runner: "
        f">= 2x); auto vs loop: "
        f"{ds['auto_speedup_vs_loop']:.2f}x (guard: >= 1x); "
        f"bit-identical across thread counts: {ds['threaded_bit_identical']}"
    )
    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        snapshot = {
            "benchmark": "ensemble_throughput",
            "mode": "smoke" if args.quick else "full",
            "results": report,
        }
        out_path.write_text(
            json.dumps(snapshot, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
