"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` wraps the library's layer boundaries (``layers.py``) and
reports the per-layer ledger instead.  Human-readable lines come first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

WORKLOADS = ("dense", "chain", "sweep", "service")


def _workload(name: str):
    """``(setup, run, teardown)`` of the named workload."""
    if name in ("dense", "chain"):
        import wl_engine

        setup = wl_engine.setup_dense if name == "dense" else wl_engine.setup_chain
        return setup, wl_engine.run, lambda state: None
    if name == "sweep":
        import wl_sweep

        return wl_sweep.setup, wl_sweep.run, wl_sweep.teardown
    import wl_service

    return wl_service.setup, wl_service.run, wl_service.teardown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (times setup_s)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout (no src/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work = (root / build / "perfbench" / f"{args.workload}-{os.getpid()}").resolve()
    work.mkdir(parents=True, exist_ok=True)
    ctx = common.Context(args.workload, args.seed, args.seconds,
                         bool(args.trace), root, work)
    setup, run, teardown = _workload(args.workload)
    common.adopt_orphans()
    try:
        if args.setup_only:
            teardown(setup(ctx))
            return 0
        return _measure(ctx, setup, run, teardown)
    finally:
        common.stop_children()
        shutil.rmtree(work, ignore_errors=True)


def _measure(ctx, setup, run, teardown) -> int:
    import tracer

    if ctx.trace:
        import layers

        trace_dir = ctx.work / "trace"
        trace_dir.mkdir()
        tracer.keep_in_memory()
        os.environ[tracer.TRACE_DIR_ENV] = str(trace_dir)
        # Subprocesses the library spawns inherit this environment.
        os.environ["PYTHONPATH"] = common.library_env(ctx)["PYTHONPATH"]
        layers.install()
    t0 = time.perf_counter()
    state = setup(ctx)
    print(f"# in-process setup {time.perf_counter() - t0:.3f} s")
    t0 = time.perf_counter()
    try:
        outcome = run(ctx, state)
    finally:
        teardown(state)
    run_wall = time.perf_counter() - t0
    rss = common.peak_rss_mb()
    env = common.environment()
    print("# env " + json.dumps(env, sort_keys=True))
    raw_setups, setups = common.measure_setup(ctx, ctx.ref)
    print(f"# setup_s raw = {common.median(raw_setups):.6g}")
    metrics = dict(outcome.metrics, setup_s=common.median(setups), peak_rss_mb=rss)
    print(f"# workload {ctx.workload} seed {ctx.seed}: "
          f"{outcome.attempted} attempted, {outcome.failed} failed "
          f"(error_rate {outcome.failed / max(outcome.attempted, 1):.6g})")
    for note in outcome.notes:
        print(f"# {note}")
    e2e_units = dict(common.END_TO_END, **common.TAIL)
    for name, unit in e2e_units.items():
        alias = outcome.names.get(name, name)
        raw = outcome.raw.get(name)
        raw = "" if raw is None else f"raw {raw:.6g}, "
        print(f"#   {name:<18} {metrics[name]:>14.6g} {unit:<5} ({raw}{alias})")
    for name, value in outcome.counts.items():
        print(f"#   count {name} = {value}")
    if not ctx.trace:
        common.emit(outcome.failed == 0, outcome.attempted, outcome.failed,
                    metrics, common.END_TO_END)
        return 0

    spans, counters = tracer.take()
    ctx.collected.append(tracer.collect(os.environ[tracer.TRACE_DIR_ENV]))
    for more_spans, more_counters in ctx.collected:
        spans += more_spans
        for key, value in more_counters.items():
            counters[key] = counters.get(key, 0) + value
    for key, value in outcome.counts.items():
        if key in layers.METRICS:
            counters[key] = value
    ledger = layers.ledger(spans, counters)
    ledger["env.nproc"] = env["nproc"]
    ledger["env.numba"] = int(env["numba"])
    ledger["trace.overhead_share"] = (
        ledger["trace.spans"] * _span_cost_s() / run_wall
    )
    units = dict(layers.METRICS)
    for name, unit in e2e_units.items():
        ledger[f"traced.{name}"] = metrics[name]
        units[f"traced.{name}"] = unit
    for name in layers.METRICS:
        print(f"#   {name:<44} {ledger[name]:>14.6g} {units[name]}")
    common.emit(outcome.failed == 0, outcome.attempted, outcome.failed,
                ledger, units)
    return 0


def _span_cost_s(calls: int = 20_000) -> float:
    """Measured cost of one wrapped call around a no-op, in seconds."""
    import tracer

    wrapped = tracer.timed("calibration", lambda: None)
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    cost = (time.perf_counter() - t0) / calls
    tracer.take()
    return cost


if __name__ == "__main__":
    sys.exit(main())
