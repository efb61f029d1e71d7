"""Sweep-scheduler scaling benchmark: serial vs ``--jobs`` vs warm cache.

Measures the execution regimes of the sweep subsystem on the *actual
harness grids* (the ``sweep_spec`` declarations of the converted
experiments E1/E2/E8/E9/E11/E12/E13/E14/E15 — the same points
``python -m repro report --jobs N`` fans out):

1. **cold serial** — ``jobs=1``, empty cache (the pre-sweep baseline);
2. **cold per-spec pools** — ``jobs=min(4, cpus)``, one
   ``ProcessPoolExecutor`` per spec run sequentially (the pre-ISSUE-3
   report behaviour);
3. **cold global pool** — the same jobs, all specs interleaved through
   one shared pool (``run_sweeps`` — what ``repro report`` now does);
4. **fault_overhead** — the same cold grid through the durable spool
   backend (``spool=...``, ``workers=jobs``: SQLite lease bookkeeping +
   worker subprocesses) on a clean, fault-free run.  The ratio against
   the in-process pool is the price of crash tolerance when nothing
   crashes — CI guards it at ≤ 10% (plus absolute slack for worker
   start-up on tiny quick grids).  Passes 3 and 4 run as 5 alternated
   pairs; the pool and spool times, the ratio and the absolute overhead
   are medians, and the per-pair figures are recorded next to them;
5. **warm re-run** — same specs against the last global run's cache,
   which must skip (almost) every point.

Writes ``BENCH_sweep_scaling.json``::

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py           # quick grids
    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py --full    # report --full grids

The parallel-speedup acceptance target (≥ 2× with 4 jobs) presumes ≥ 4
physical cores; the snapshot records ``cpu_count`` so a 1-core container
run is legible as such rather than as a regression.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

_SPEC_MODULES = [
    "repro.harness.e01_consensus_scaling",
    "repro.harness.e02_delta_dependence",
    "repro.harness.e08_protocol_comparison",
    "repro.harness.e09_density_threshold",
    "repro.harness.e11_best_of_two_conditions",
    "repro.harness.e12_adversarial_placement",
    "repro.harness.e13_noisy_bifurcation",
    "repro.harness.e14_async_equivalence",
    "repro.harness.e15_zealot_threshold",
]


# Alternated cold pool/spool pass pairs behind the overhead medians.
_OVERHEAD_PAIRS = 5


def _specs(quick: bool, seed: int):
    for name in _SPEC_MODULES:
        yield importlib.import_module(name).sweep_spec(quick=quick, seed=seed)


def _run_all(
    specs, *, jobs: int, cache, pool: str = "per_spec"
) -> tuple[float, int, int]:
    """Execute every spec; returns (elapsed_s, points, cache_hits).

    ``pool="per_spec"`` runs one scheduler call (hence one process pool)
    per spec, sequentially; ``pool="global"`` interleaves every spec's
    points through a single ``run_sweeps`` pool.
    """
    from repro.sweeps import run_sweep, run_sweeps

    start = time.perf_counter()
    if pool == "global":
        outcomes = run_sweeps(specs, jobs=jobs, cache=cache)
    else:
        outcomes = [run_sweep(spec, jobs=jobs, cache=cache) for spec in specs]
    points = sum(o.stats.points for o in outcomes)
    hits = sum(o.stats.hits for o in outcomes)
    return time.perf_counter() - start, points, hits


def measure(*, quick: bool = True, seed: int = 0, jobs: int | None = None) -> dict:
    from repro.sweeps import SweepCache
    from repro.sweeps.runner import _build_host_cached

    cpus = os.cpu_count() or 1
    jobs = jobs if jobs is not None else min(4, cpus)
    specs = list(_specs(quick, seed))

    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        serial_s, points, _ = _run_all(specs, jobs=1, cache=SweepCache(Path(tmp) / "a"))

        # Drop memoised hosts between cold passes so each rebuilds them
        # and all cold passes pay identical setup costs.
        _build_host_cached.cache_clear()
        per_spec_s, _, _ = _run_all(
            specs, jobs=jobs, cache=SweepCache(Path(tmp) / "b")
        )

        # Cold global pool against the durable spool (lease/heartbeat
        # bookkeeping + `repro worker` subprocesses, no faults injected),
        # alternated over _OVERHEAD_PAIRS pairs: single pairs of the same
        # code gave spool/pool ratios from 0.92x to 1.26x on a shared
        # 2-core host, so the overhead is the median of the per-pair
        # figures.  Each pass is one
        # run_sweeps call over fresh caches, so the cross-spec dedup
        # matches between the two backends.
        from repro.sweeps import WorkQueue, run_sweeps

        global_runs: list[float] = []
        spool_runs: list[float] = []
        spool_stats = []
        for i in range(_OVERHEAD_PAIRS):
            _build_host_cached.cache_clear()
            global_cache = SweepCache(Path(tmp) / f"c{i}")
            elapsed, _, _ = _run_all(
                specs, jobs=jobs, cache=global_cache, pool="global"
            )
            global_runs.append(elapsed)

            _build_host_cached.cache_clear()
            spool_dir = Path(tmp) / f"spool{i}"
            start = time.perf_counter()
            run_sweeps(
                specs,
                jobs=jobs,
                cache=SweepCache(Path(tmp) / f"d{i}"),
                spool=spool_dir,
                workers=jobs,
            )
            spool_runs.append(time.perf_counter() - start)
            with WorkQueue(spool_dir) as queue:
                spool_stats.append(queue.stats())

        warm_s, warm_points, warm_hits = _run_all(
            specs, jobs=jobs, cache=global_cache, pool="global"
        )

    global_s = statistics.median(global_runs)
    spool_s = statistics.median(spool_runs)
    ratios = [s / g for g, s in zip(global_runs, spool_runs)]
    overheads = [s - g for g, s in zip(global_runs, spool_runs)]
    return {
        "mode": "quick" if quick else "full",
        "experiments": [m.rsplit(".", 1)[1] for m in _SPEC_MODULES],
        "points": points,
        "cpu_count": cpus,
        "jobs": jobs,
        "cold_serial_s": round(serial_s, 3),
        "cold_per_spec_pool_s": round(per_spec_s, 3),
        "cold_global_pool_s": round(global_s, 3),
        "parallel_speedup": round(serial_s / global_s, 3) if global_s else None,
        "global_vs_per_spec_speedup": (
            round(per_spec_s / global_s, 3) if global_s else None
        ),
        "warm_s": round(warm_s, 3),
        "warm_hits": warm_hits,
        "warm_skip_fraction": round(warm_hits / warm_points, 4) if warm_points else 0.0,
        "warm_speedup": round(serial_s / warm_s, 1) if warm_s else None,
        "spool_cold_s": round(spool_s, 3),
        "overhead_pairs": _OVERHEAD_PAIRS,
        "cold_global_pool_runs_s": [round(t, 3) for t in global_runs],
        "spool_cold_runs_s": [round(t, 3) for t in spool_runs],
        "fault_overhead_ratio": round(statistics.median(ratios), 3),
        "fault_overhead_ratio_runs": [round(r, 3) for r in ratios],
        "fault_overhead_abs_s": round(statistics.median(overheads), 3),
        "fault_overhead_abs_runs_s": [round(d, 3) for d in overheads],
        "spool_retries": sum(st.retries for st in spool_stats),
        "spool_requeues": sum(st.requeues for st in spool_stats),
        "spool_poisoned": sum(st.poisoned for st in spool_stats),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="benchmark the report --full grids instead of the quick ones",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=None, help="parallel worker count (default: min(4, cpus))"
    )
    parser.add_argument(
        "--out-dir",
        default=str(REPO),
        help="directory for the BENCH_*.json snapshot (default: repo root)",
    )
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # fail here, not post-run

    import numpy as np

    from repro._version import __version__

    started = time.time()
    results = measure(quick=not args.full, seed=args.seed, jobs=args.jobs)
    snapshot = {
        "benchmark": "sweep_scaling",
        "repro_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "machine": platform.machine(),
        "unix_time": int(started),
        "wall_seconds": round(time.time() - started, 3),
        "results": results,
    }
    out_path = out_dir / "BENCH_sweep_scaling.json"
    out_path.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    print(
        f"  {results['points']} points on {results['cpu_count']} cpu(s): "
        f"serial {results['cold_serial_s']}s, "
        f"jobs={results['jobs']} per-spec pools "
        f"{results['cold_per_spec_pool_s']}s, "
        f"global pool {results['cold_global_pool_s']}s "
        f"({results['global_vs_per_spec_speedup']}x vs per-spec), "
        f"warm {results['warm_s']}s "
        f"(skipped {results['warm_skip_fraction']:.0%}), "
        f"spool {results['spool_cold_s']}s "
        f"(median {results['fault_overhead_ratio']}x pool over "
        f"{results['overhead_pairs']} pairs, "
        f"{results['spool_retries']} retries)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
