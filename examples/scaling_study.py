#!/usr/bin/env python
"""Scaling study: is consensus time really O(log log n)?

Sweeps n over four orders of magnitude on two dense families (complete
and rook), measures mean Best-of-Three consensus time over small
ensembles, fits the three growth laws, and prints the table plus an ASCII
plot — a miniature interactive version of experiment E1.

Run:  python examples/scaling_study.py
"""

import numpy as np

from repro.analysis.asciiplot import line_plot
from repro.analysis.experiments import ConsensusEnsemble
from repro.analysis.fitting import fit_growth_models
from repro.analysis.tables import format_table
from repro.core.ensemble import run_ensemble
from repro.core.recursions import consensus_time_bound
from repro.graphs.implicit import CompleteGraph, RookGraph

DELTA = 0.1
TRIALS = 30


def ensemble(graph, seed) -> ConsensusEnsemble:
    """``TRIALS`` Best-of-3 runs from the delta-biased start, summarised."""
    return ConsensusEnsemble.from_ensemble_result(
        run_ensemble(
            graph, replicas=TRIALS, delta=DELTA, seed=seed,
            record_trajectories=False,
        )
    )


def main() -> None:
    rows = []
    sizes, means = [], []
    for exp in (8, 10, 12, 14, 16, 18):
        n = 2**exp
        ens = ensemble(CompleteGraph(n), seed=(1, exp))
        budget = consensus_time_bound(n, n - 1, DELTA)
        rows.append(
            {
                "host": f"K_2^{exp}",
                "n": n,
                "mean T": ens.mean_steps,
                "max T": ens.max_steps,
                "red wins": f"{ens.red_wins}/{ens.trials}",
                "Thm1 budget": budget,
            }
        )
        sizes.append(n)
        means.append(ens.mean_steps)

    for m in (32, 64, 128, 256):
        g = RookGraph(m)
        ens = ensemble(g, seed=(2, m))
        rows.append(
            {
                "host": f"Rook {m}x{m}",
                "n": g.num_vertices,
                "mean T": ens.mean_steps,
                "max T": ens.max_steps,
                "red wins": f"{ens.red_wins}/{ens.trials}",
                "Thm1 budget": consensus_time_bound(
                    g.num_vertices, g.min_degree, DELTA
                ),
            }
        )

    print(format_table(
        ["host", "n", "mean T", "max T", "red wins", "Thm1 budget"], rows
    ))
    print()

    fits = fit_growth_models(np.array(sizes, float), np.array(means))
    print("growth-law fits on the K_n series (lower rmse = better):")
    for name, fit in fits.items():
        print(
            f"  {name:>7}: T ~ {fit.slope:+.3f} * {name}(n) {fit.intercept:+.3f}"
            f"   rmse={fit.rmse:.3f}  R^2={fit.r_squared:.3f}"
        )
    best = min(fits.values(), key=lambda f: f.rmse)
    print(f"best-fitting model: {best.model}")
    print(
        "  (log and loglog are indistinguishable at these n — loglog "
        "varies by < 1 round across the sweep)"
    )
    print()
    # The sharp test of the theorem's shape: the equation (1) recursion's
    # hitting time of the 1/(2n) scale predicts T(n) with no free
    # parameters, and that hitting time is exactly loglog n + log(1/delta).
    from repro.core.recursions import ideal_hitting_time

    print("parameter-free recursion prediction vs measurement:")
    for n, t in zip(sizes, means):
        pred = ideal_hitting_time(0.5 - DELTA, 0.5 / n)
        print(f"  n = {n:>7}: measured {t:5.2f}   predicted {pred}")
    print()
    print(
        line_plot(
            {
                "measured": (np.log2(np.array(sizes, float)), np.array(means)),
                "loglog fit": (
                    np.log2(np.array(sizes, float)),
                    fits["loglog"].predict(np.array(sizes, float)),
                ),
            },
            title="mean consensus time vs log2 n (K_n, delta=0.1)",
            width=64,
            height=14,
        )
    )


if __name__ == "__main__":
    main()
