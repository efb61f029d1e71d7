"""Render all experiment results into EXPERIMENTS.md.

Run as a module to regenerate the report::

    python -m repro.harness.report [--full] [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro._version import __version__
from repro.harness.base import ExperimentResult
from repro.harness.registry import all_experiment_ids, run_experiment

__all__ = ["generate_report", "main"]

_HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction report for *“Best-of-Three Voting on Dense Graphs”*
(Kang & Rivera, SPAA 2019).  Every quantitative claim in the paper —
Theorem 1, equations (1)–(5), Lemmas 4–7, Figure 1, Remark 2, and the
introduction's comparative statements — is regenerated by the experiment
ids below (defined in DESIGN.md §3 and implemented in
`src/repro/harness/`).  Absolute constants are not expected to match a
theory paper's asymptotics; the recorded verdicts check the *shape* of
each claim: growth laws, majorization/dominance order, phase boundaries,
and who wins.

Regenerate with `python -m repro.harness.report` (add `--full` for the
larger sweep sizes; the committed report uses `--full` where noted).

The sweep grids behind these tables are also reachable over HTTP:
`python -m repro serve` exposes `POST /v1/ensemble` / `/v1/compare` /
`/v1/sweeps` (async jobs with NDJSON row streaming) on the same
content-addressed cache the report uses, so a grid the report already
computed is warm for the API and vice versa, and a job's
`/table` rendering is byte-identical to `repro sweep`'s (DESIGN.md
§2.8; quickstart in README).

Experiments E13–E16 go *beyond* the paper (noise, asynchrony, zealots,
COBRA cover times) — see DESIGN.md §3.2.  Three reproduction findings
about the paper's constants (Lemma 6's inflation exponent, equation (5)'s
ε-window, and the Best-of-2 tie-rule dichotomy) are documented in
DESIGN.md §3.1 and carried as tests and counterexamples in the code.

## Engine method selection

Every ensemble below runs through `run_ensemble(method="auto")`, which
routes each host family to the fastest *exact* engine path (DESIGN.md
§2.3/§2.5):

| host family | `auto` route | per-round cost |
|---|---|---|
| `complete` (`K_n`) | count chain, 1 slot | O(1) per replica |
| complete bipartite / `complete_multipartite` | per-part count chains | O(parts) per replica |
| `two_clique_bridge` | two clique chains + explicit bridge endpoints | O(1 + bridges) per replica |
| CSR hosts (`erdos_renyi`, `random_regular`, `ring_lattice`, `star_polluted`), `rook` | batched dense rounds | O(n·k) per replica |
| dense hosts past `R·n·k = 2²²` samples/round | threaded replica blocks; bit-identical at any worker count | O(n·k / workers) per replica |

Protocols select the transition on those routes (DESIGN.md §2.6): a
`Protocol` object supplies the batched step, the count-chain adoption
law, and the termination rule, so the extension dynamics reuse the same
engine paths:

| protocol | kernel-host route | dense-host route | stops when |
|---|---|---|---|
| `best_of_k` (incl. voter `k=1`) | exact majority chain | batched rounds | consensus |
| `noisy_best_of_k` (E13) | exact η-mixed chain (`(1−η)·maj + η/2` per slot) | batched rounds + noise overlay | never (full budget; stationary window) |
| `zealot_best_of_k` (E15) | pinned-slot chain (zealots frozen per slot) | batched rounds, zealots re-pinned | ordinary vertices unanimous |
| `async_vs_sync` (E14) | — (sweep granularity) | batched geometric sweeps, paired with sync from shared starts | consensus |
| local majority / plurality (E8 baselines) | — | sparse matmat over replicas / batched ternary counts | fixed point / consensus |

The chain routes are exactly distributed like the dense simulation's
count process (not approximations; equivalence is enforced by
`tests/test_count_chain_kernels.py` and `tests/test_protocols.py`),
switch their binomials to a Gaussian/Poisson regime above counts of 2³¹
(mega-`n` Theorem 1 checks), and are disabled by `keep_final=True`,
which needs per-vertex state and therefore forces the dense path.

"""


def _precompute_outcomes(
    ids: list[str], *, quick: bool, seed: int, jobs: int, cache
) -> dict:
    """Run every spec'd experiment's grid through one shared pool.

    Collects the ``sweep_spec`` of each requested experiment that has
    one and executes all of them with a single
    :func:`~repro.sweeps.run_sweeps` call — one process pool for the
    whole report, points interleaved in work-stealing order, instead of
    one sequential pool per experiment.  Returns ``{experiment_id:
    SweepOutcome}`` for the experiments that participated.
    """
    from repro.harness.registry import get_sweep_spec
    from repro.sweeps import run_sweeps

    spec_ids = []
    specs = []
    for eid in ids:
        spec_fn = get_sweep_spec(eid)
        if spec_fn is not None:
            spec_ids.append(eid)
            specs.append(spec_fn(quick=quick, seed=seed))
    if not specs:
        return {}
    outcomes = run_sweeps(specs, jobs=jobs, cache=cache)
    return dict(zip(spec_ids, outcomes))


def generate_report(
    *,
    quick: bool = True,
    seed: int = 0,
    ids: list[str] | None = None,
    jobs: int = 1,
    cache=None,
) -> str:
    """Run experiments and return the full markdown report.

    ``jobs``/``cache`` (a worker count and an optional
    :class:`~repro.sweeps.cache.SweepCache`) drive the sweep scheduler;
    every experiment with a declared grid is executed up front through
    *one* shared pool (:func:`_precompute_outcomes`) and then handed its
    outcome.  The report content is identical for any ``jobs`` —
    parallelism and caching only change the wall-clock (and the timing
    footnotes).
    """
    # `is None`, not falsiness: an explicitly empty ids list (e.g. an
    # empty shell variable expanding to `--ids`) must not silently run
    # the full — potentially most expensive — report.
    if ids is None:
        ids = all_experiment_ids()
    if not ids:
        raise ValueError("ids must name at least one experiment")
    sections: list[str] = [_HEADER]
    mode = "quick" if quick else "full"
    sections.append(
        f"_Generated by repro {__version__} in `{mode}` mode, seed {seed}._\n"
    )
    sweep_start = time.perf_counter()
    outcomes = _precompute_outcomes(
        ids, quick=quick, seed=seed, jobs=jobs, cache=cache
    )
    sweep_elapsed = time.perf_counter() - sweep_start
    passed = 0
    results: list[ExperimentResult] = []
    for eid in ids:
        start = time.perf_counter()
        res = run_experiment(
            eid,
            quick=quick,
            seed=seed,
            jobs=jobs,
            cache=cache,
            outcome=outcomes.get(eid),
        )
        elapsed = time.perf_counter() - start
        results.append(res)
        passed += res.passed
        sections.append(res.to_markdown())
        sections.append(f"_({elapsed:.1f}s)_\n")
    sections.insert(
        2,
        f"**Scoreboard: {passed}/{len(ids)} experiments match the paper's "
        "shape.**\n",
    )
    if outcomes:
        hits = sum(o.stats.hits for o in outcomes.values())
        points = sum(o.stats.points for o in outcomes.values())
        sections.insert(
            3,
            f"_Sweep grids ({len(outcomes)} experiments, {points} points, "
            f"{hits} cache hits) ran through one shared pool with "
            f"jobs={jobs} in {sweep_elapsed:.1f}s; per-experiment "
            "footnotes below exclude that pooled phase._\n",
        )
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="full sweep sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument("--ids", nargs="*", default=None, help="subset of ids")
    from repro.sweeps import add_sweep_arguments, cache_from_args

    add_sweep_arguments(parser)
    args = parser.parse_args(argv)
    cache = cache_from_args(args)
    # Validate --ids up front so a bad subset gets a clean usage error
    # (not a traceback) — and *only* the validation is guarded, so a
    # genuine failure inside an experiment still surfaces with its
    # stack trace instead of masquerading as a flag typo.
    try:
        if args.ids is not None:
            if not args.ids:
                raise ValueError("ids must name at least one experiment")
            from repro.harness.registry import get_runner

            for eid in args.ids:
                get_runner(eid)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    report = generate_report(
        quick=not args.full,
        seed=args.seed,
        ids=args.ids,
        jobs=args.jobs,
        cache=cache,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
