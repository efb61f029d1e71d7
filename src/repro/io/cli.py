"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``list``
    Show every registered experiment with its paper claim.
``run E4 E7 ...``
    Run experiments (quick mode by default), print their tables, and
    optionally archive the results as JSON.
``report``
    Regenerate EXPERIMENTS.md (thin wrapper over
    :mod:`repro.harness.report`).
``sweep``
    Run an ad-hoc declarative grid — hosts × sizes × biases × protocols —
    through the sweep scheduler and print the per-point summaries.
    ``--spool DIR`` routes the grid through the durable work queue
    (``--workers N`` spawns that many ``repro worker`` subprocesses),
    surviving worker death with lease/retry semantics; tables are
    byte-identical to ``--jobs 1``.
``worker``
    Drain a spool directory: lease points, execute, write results into
    the shared cache, repeat until every point is terminal.  Run any
    number of these against one spool (from any machine sharing it).
``serve``
    Start the HTTP service (:mod:`repro.service`): synchronous ensemble
    and comparison endpoints with micro-batching over the shared cache,
    plus async sweep jobs backed by the durable work queue.  Configure
    via flags or ``REPRO_SERVICE_*`` / ``REPRO_CACHE_DIR`` environment
    variables.
``lint``
    Run the AST-based invariant checker (:mod:`repro.lint`) over source
    trees: RNG discipline, determinism purity, lock discipline, SQLite
    thread affinity, and protocol-registry completeness.  Exits 0 when
    every finding is covered by the baseline, 1 otherwise.
``demo``
    The quickstart: one Best-of-Three run on a dense host with the
    Theorem 1 certificate.

``run``, ``report``, and ``sweep`` all accept ``--jobs N`` (worker
processes for sweep grids) and share the content-addressed result cache
(``~/.cache/repro-sweeps`` by default; redirect with ``--cache-dir``,
disable with ``--no-cache``, size-bound with ``--cache-max-mb``).
Re-running any of them with the same parameters and library version
skips the already-simulated points.  ``report --jobs N`` executes every
requested experiment's grid through **one** shared process pool;
``sweep --gc`` runs the cache's LRU garbage collector and exits.
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__

__all__ = ["build_parser", "main"]


def _add_sweep_controls(parser: argparse.ArgumentParser) -> None:
    from repro.sweeps import add_sweep_arguments

    add_sweep_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Best-of-Three Voting on Dense Graphs — reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run experiments and print tables")
    run_p.add_argument("ids", nargs="+", help="experiment ids (e.g. E1 E7)")
    run_p.add_argument("--full", action="store_true", help="full sweep sizes")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--save", metavar="PATH", help="archive results as JSON")
    _add_sweep_controls(run_p)

    rep_p = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    rep_p.add_argument("--full", action="store_true")
    rep_p.add_argument("--seed", type=int, default=0)
    rep_p.add_argument("--out", default="EXPERIMENTS.md")
    rep_p.add_argument(
        "--ids", nargs="*", default=None, help="subset of experiment ids"
    )
    _add_sweep_controls(rep_p)

    swp_p = sub.add_parser(
        "sweep", help="run a declarative host/bias/protocol grid"
    )
    swp_p.add_argument(
        "--host",
        default="complete",
        choices=["complete", "rook", "erdos-renyi", "random-regular", "ring-lattice"],
        help="host graph family (default: complete)",
    )
    swp_p.add_argument(
        "--n",
        type=int,
        nargs="+",
        default=[4096],
        help="host sizes in vertices (rook uses the nearest square side)",
    )
    swp_p.add_argument(
        "--delta",
        type=float,
        nargs="+",
        default=[0.1],
        help="initial bias values (i.i.d. opinions with P[blue] = 1/2 - delta)",
    )
    swp_p.add_argument(
        "--protocol",
        nargs="+",
        default=["best-of-3"],
        help="protocols: voter, best-of-K, best-of-K-keep, best-of-K-rand",
    )
    swp_p.add_argument(
        "--er-p", type=float, default=0.25, help="edge probability for erdos-renyi"
    )
    swp_p.add_argument(
        "--degree",
        type=int,
        default=16,
        help="degree for random-regular / ring-lattice hosts",
    )
    swp_p.add_argument("--trials", type=int, default=10)
    swp_p.add_argument("--max-steps", type=int, default=2000)
    swp_p.add_argument("--seed", type=int, default=0)
    swp_p.add_argument("--save", metavar="PATH", help="archive the sweep as JSON")
    swp_p.add_argument(
        "--gc",
        action="store_true",
        help="run the cache garbage collector and exit (no grid is run); "
        "bound the cache with --cache-max-mb",
    )
    swp_p.add_argument(
        "--spool",
        metavar="DIR",
        default=None,
        help="run through the durable work queue spooled in DIR "
        "(lease/retry semantics; survives worker death)",
    )
    swp_p.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="with --spool: spawn N `repro worker` subprocesses to drain "
        "the queue (default: 0, the coordinator drains it itself)",
    )
    swp_p.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="executions a point may consume before quarantine (default: 3)",
    )
    swp_p.add_argument(
        "--lease-ttl",
        type=float,
        default=300.0,
        metavar="S",
        help="spool lease duration in seconds; must exceed the slowest "
        "single point (default: 300)",
    )
    swp_p.add_argument(
        "--spool-stats",
        metavar="PATH",
        default=None,
        help="with --spool: write the queue's retry/requeue snapshot "
        "as JSON after the run",
    )
    _add_sweep_controls(swp_p)

    wrk_p = sub.add_parser(
        "worker", help="drain a sweep spool directory (lease, execute, cache)"
    )
    wrk_p.add_argument("--spool", metavar="DIR", required=True)
    wrk_p.add_argument(
        "--cache-dir",
        default=None,
        help="shared sweep cache the results land in "
        "(default: ~/.cache/repro-sweeps)",
    )
    wrk_p.add_argument("--worker-id", default=None)
    wrk_p.add_argument("--lease-ttl", type=float, default=300.0, metavar="S")
    wrk_p.add_argument(
        "--poll",
        type=float,
        default=0.1,
        metavar="S",
        help="idle wait between lease attempts while others hold work",
    )

    srv_p = sub.add_parser(
        "serve", help="start the HTTP service (ensembles, comparisons, jobs)"
    )
    srv_p.add_argument(
        "--host", default=None, help="bind address (default: 127.0.0.1)"
    )
    srv_p.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (default: 8080; 0 picks an ephemeral port)",
    )
    srv_p.add_argument(
        "--cache-dir",
        default=None,
        help="result cache volume (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-sweeps)",
    )
    srv_p.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size bound for the result cache",
    )
    srv_p.add_argument(
        "--spool-root",
        default=None,
        metavar="DIR",
        help="where job spools live (default: $REPRO_SERVICE_SPOOL or "
        "~/.cache/repro-service-jobs; must not be inside the cache)",
    )
    srv_p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="`repro worker` subprocesses per sweep job (default: 0 — "
        "jobs drain in service threads)",
    )
    srv_p.add_argument(
        "--batch-window-ms",
        type=float,
        default=None,
        metavar="MS",
        help="micro-batch coalescing window for concurrent identical "
        "ensemble requests (default: 2)",
    )

    lint_p = sub.add_parser(
        "lint", help="run the AST invariant checker over source trees"
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_p.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline file of grandfathered findings "
        "(default: lint-baseline.json when it exists)",
    )
    lint_p.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather the current findings into --baseline and exit 0",
    )
    lint_p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    lint_p.add_argument(
        "--no-hints", action="store_true", help="omit fix hints from the report"
    )
    lint_p.add_argument(
        "--rules", action="store_true", help="list the rule catalogue and exit"
    )

    demo_p = sub.add_parser("demo", help="one Best-of-Three run, end to end")
    demo_p.add_argument("--n", type=int, default=100_000)
    demo_p.add_argument("--delta", type=float, default=0.1)
    demo_p.add_argument("--seed", type=int, default=42)
    return parser


def _make_cache(args: argparse.Namespace):
    """The shared sweep cache the flags describe (or ``None``)."""
    from repro.sweeps import cache_from_args

    return cache_from_args(args)


def _cmd_list() -> int:
    from repro.harness.registry import experiment_metadata

    for meta in experiment_metadata():
        print(f"{meta.experiment_id:>4}  {meta.title}")
        print(f"      {meta.paper_claim[:100]}...")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.registry import run_experiment
    from repro.io.results import save_results

    cache = _make_cache(args)
    results = []
    failures = 0
    for eid in args.ids:
        res = run_experiment(
            eid, quick=not args.full, seed=args.seed, jobs=args.jobs, cache=cache
        )
        results.append(res)
        print(res.to_markdown())
        failures += not res.passed
    if args.save:
        save_results(results, args.save)
        print(f"archived {len(results)} result(s) to {args.save}")
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    # Delegate so the cache-construction + render + write sequence lives
    # once, in report.main (also reachable as python -m repro.harness.report).
    from repro.harness.report import main as report_main

    argv = ["--seed", str(args.seed), "--out", args.out, "--jobs", str(args.jobs)]
    if args.full:
        argv.append("--full")
    if args.cache_dir:
        argv.extend(["--cache-dir", args.cache_dir])
    if args.no_cache:
        argv.append("--no-cache")
    if args.cache_max_mb is not None:
        argv.extend(["--cache-max-mb", str(args.cache_max_mb)])
    if args.ids is not None:
        argv.extend(["--ids", *args.ids])
    return report_main(argv)


def _host_spec(family: str, n: int, args: argparse.Namespace):
    from repro.sweeps import HostSpec

    if family == "complete":
        return HostSpec.of("complete", n=n)
    if family == "rook":
        side = max(2, round(n**0.5))
        return HostSpec.of("rook", side=side)
    if family == "erdos-renyi":
        return HostSpec.of("erdos_renyi", n=n, p=args.er_p, seed=(args.seed, 99))
    if family == "random-regular":
        return HostSpec.of("random_regular", n=n, d=args.degree, seed=(args.seed, 99))
    if family == "ring-lattice":
        return HostSpec.of("ring_lattice", n=n, d=args.degree)
    raise ValueError(f"unknown host family {family!r}")  # pragma: no cover


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.tables import (
        SWEEP_SUMMARY_COLUMNS,
        format_table,
        sweep_summary_rows,
    )
    from repro.io.results import ensemble_to_dict
    from repro.sweeps import (
        InitSpec,
        ProtocolSpec,
        SweepError,
        SweepSpec,
        canonical_point,
        point_key,
        run_sweep,
    )

    cache = _make_cache(args)
    if args.gc:
        if cache is None:
            print("error: --gc needs the cache enabled", file=sys.stderr)
            return 2
        before_mb = cache.size_bytes() / 2**20
        stats = cache.gc()
        bound = (
            f"{cache.max_mb:g} MB bound"
            if cache.max_mb is not None
            else "no bound (use --cache-max-mb to evict)"
        )
        print(
            f"cache {cache.root}: {before_mb:.1f} MB before gc ({bound}); "
            f"removed {stats.removed_entries} entries "
            f"({stats.removed_bytes / 2**20:.1f} MB), kept "
            f"{stats.kept_entries} ({stats.kept_bytes / 2**20:.1f} MB)"
        )
        return 0
    try:
        # Spec validation (protocol names, delta range, trial counts)
        # rejects bad input before any simulation; host params that only
        # the graph constructors check (edge probabilities, degree
        # parities) surface from the sweep itself.  Either way the user
        # gets a clean message, not a traceback.
        spec = SweepSpec.grid(
            "cli_sweep",
            hosts=[_host_spec(args.host, n, args) for n in args.n],
            protocols=[ProtocolSpec.parse(p) for p in args.protocol],
            inits=[InitSpec.iid(d) for d in args.delta],
            trials=args.trials,
            max_steps=args.max_steps,
            seed=args.seed,
        )
        # strict=False: a permanently failed point becomes a dashed table
        # row + exit code 1 here, instead of a traceback that hides how
        # much of the grid *did* complete (and is cached).
        outcome = run_sweep(
            spec,
            jobs=args.jobs,
            cache=cache,
            spool=args.spool,
            workers=args.workers,
            strict=False,
            max_attempts=args.max_attempts,
            lease_ttl_s=args.lease_ttl,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # The shared row builder keeps this table byte-identical to the
    # service's job tables for the same points (GET /v1/jobs/{id}/table).
    print(format_table(SWEEP_SUMMARY_COLUMNS, sweep_summary_rows(outcome)))
    st = outcome.stats
    where = str(cache.root) if cache is not None else "off"
    backend = f"spool={args.spool} workers={args.workers}" if args.spool else f"jobs={st.jobs}"
    fault_bits = ""
    if st.retries or st.requeues or st.failures:
        fault_bits = (
            f"; {st.retries} retrie(s), {st.requeues} requeue(s), "
            f"{st.failures} failure(s)"
        )
    print(
        f"\n{st.points} point(s): {st.hits} cached, {st.misses} computed "
        f"in {st.elapsed_s:.2f}s with {backend} (cache: {where}){fault_bits}"
    )
    for err in outcome.errors:
        print(f"failed: {err}", file=sys.stderr)
    if args.spool and args.spool_stats:
        from repro.sweeps import WorkQueue

        queue = WorkQueue(args.spool)
        try:
            snapshot = queue.snapshot()
        finally:
            queue.close()
        with open(args.spool_stats, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
        print(f"spool stats written to {args.spool_stats}")

    if args.save:
        archive = {
            "schema": "repro.sweep_archive/1",
            "library_version": __version__,
            "name": spec.name,
            "points": [
                {
                    "key": point_key(point),
                    "label": point.label,
                    "point": canonical_point(point),
                    "payload": ensemble_to_dict(ens),
                }
                for point, ens in outcome
                if not isinstance(ens, SweepError)
            ],
        }
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(archive, fh, indent=2)
            fh.write("\n")
        print(f"archived {len(archive['points'])} point(s) to {args.save}")
    return 1 if outcome.errors else 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.sweeps import SweepCache, run_worker

    cache = SweepCache(args.cache_dir)
    summary = run_worker(
        args.spool,
        cache,
        worker_id=args.worker_id,
        lease_ttl_s=args.lease_ttl,
        poll_s=args.poll,
    )
    print(
        f"worker {summary['worker_id']}: executed {summary['executed']} "
        f"point(s), failed {summary['failed']} (spool {args.spool})"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, serve

    try:
        config = ServiceConfig.from_env(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            cache_max_mb=args.cache_max_mb,
            spool_root=args.spool_root,
            job_workers=args.workers,
            batch_window_s=(
                args.batch_window_ms / 1000.0
                if args.batch_window_ms is not None
                else None
            ),
        )
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    serve(config)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.lint import (
        apply_baseline,
        load_baseline,
        render_findings,
        rule_catalog,
        run_lint,
        write_baseline,
    )

    if args.rules:
        for entry in rule_catalog():
            print(f"{entry['ids']}  [{entry['family']}]")
            print(f"    {entry['description']}")
        return 0

    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    # Findings are recorded relative to the working directory, so the
    # checked-in baseline stays stable across machines and checkouts.
    findings = run_lint(args.paths, root=os.getcwd())

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists("lint-baseline.json"):
        baseline_path = "lint-baseline.json"
    if args.write_baseline:
        if baseline_path is None:
            baseline_path = "lint-baseline.json"
        write_baseline(findings, baseline_path)
        print(f"grandfathered {len(findings)} finding(s) into {baseline_path}")
        return 0
    baseline: list[dict[str, str]] = []
    if baseline_path is not None and os.path.exists(baseline_path):
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    new, waived, stale = apply_baseline(findings, baseline)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in new],
                    "waived": [f.to_dict() for f in waived],
                    "stale_baseline": stale,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        if new:
            print(render_findings(new, hints=not args.no_hints))
        summary = f"{len(new)} finding(s)"
        if waived:
            summary += f", {len(waived)} waived by baseline"
        if stale:
            summary += f", {len(stale)} stale baseline entr(y/ies)"
        print(("" if not new else "\n") + f"repro lint: {summary}")
        for entry in stale:
            print(
                f"    stale: {entry['rule']} {entry['path']}: {entry['message']}"
            )
    return 1 if new else 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import CompleteGraph, best_of_three, check_hypotheses, random_opinions

    graph = CompleteGraph(args.n)
    cert = check_hypotheses(graph, args.delta)
    print(f"host K_{args.n}, delta={args.delta}")
    print(f"hypotheses met: {cert.hypotheses_met}; budget {cert.predicted_rounds}")
    result = best_of_three(graph).run(
        random_opinions(args.n, args.delta, rng=args.seed), seed=args.seed + 1
    )
    winner = "red" if result.winner == 0 else "blue"
    print(f"consensus: {winner} in {result.steps} rounds")
    print(f"trajectory: {result.blue_trajectory.tolist()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "demo":
        return _cmd_demo(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
