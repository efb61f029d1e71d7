#!/usr/bin/env python
"""Protocol showdown: every consensus protocol from the paper's intro.

Same dense host, same biased initial condition; compare the voter model,
Best-of-2 (both tie rules), Best-of-3/5/7, q-colour plurality, and
deterministic local majority on speed and on *who wins* — the qualitative
landscape the paper's introduction surveys.  Every protocol runs its
trials as one ensemble through ``run_ensemble``.

Run:  python examples/protocol_showdown.py
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.baselines.plurality import plurality_ensemble
from repro.baselines.voter import voter_win_probability
from repro.core.dynamics import TieRule
from repro.core.ensemble import run_ensemble
from repro.core.opinions import RED, random_opinions
from repro.core.protocols import BestOfK, LocalMajority, Voter
from repro.graphs.generators import erdos_renyi

N, DELTA, TRIALS = 1024, 0.1, 10


def summarise(name, res, *, winner=RED, label="", partial="no"):
    steps = res.converged_steps
    wins = int(np.count_nonzero(res.winners == winner))
    return {
        "protocol": name,
        "red wins": f"{wins}/{TRIALS}{label}",
        "mean T": float(np.mean(steps)) if steps.size else float("nan"),
        "max T": int(np.max(steps)) if steps.size else 0,
        "amplifies majority": "yes" if wins == TRIALS else partial,
    }


def run_protocol(name, graph, protocol, max_steps, seed):
    res = run_ensemble(
        graph, protocol=protocol, replicas=TRIALS, delta=DELTA, seed=seed,
        max_steps=max_steps, record_trajectories=False,
    )
    return summarise(name, res)


def main() -> None:
    graph = erdos_renyi(N, 0.25, seed=0)
    rows = [
        run_protocol("voter (k=1)", graph, Voter(), 100_000, 1),
        run_protocol(
            "best-of-2 (keep)", graph, BestOfK(2, tie_rule=TieRule.KEEP_SELF),
            5_000, 2,
        ),
        run_protocol(
            "best-of-2 (random)", graph, BestOfK(2, tie_rule=TieRule.RANDOM),
            100_000, 3,
        ),
        run_protocol("best-of-3", graph, BestOfK(3), 5_000, 4),
        run_protocol("best-of-5", graph, BestOfK(5), 5_000, 5),
        run_protocol("best-of-7", graph, BestOfK(7), 5_000, 6),
        run_protocol("local majority (det.)", graph, LocalMajority(), 10_000, 7),
    ]

    # Three-colour plurality ([2]'s setting).
    plurality = plurality_ensemble(
        graph, trials=TRIALS, probabilities=np.array([0.45, 0.3, 0.25]),
        seed=8, max_steps=10_000,
    )
    rows.append(
        summarise(
            "plurality q=3 (bo3)", plurality, winner=0, label=" (colour 0)",
            partial="mostly",
        )
    )

    print(f"host: G({N}, 0.25), delta = {DELTA}, {TRIALS} trials/protocol\n")
    print(format_table(
        ["protocol", "red wins", "mean T", "max T", "amplifies majority"], rows
    ))

    init = random_opinions(N, DELTA, rng=99)
    print(
        f"\nvoter-model exact win law for this draw: "
        f"P(red) = d(R0)/d(V) = {voter_win_probability(graph, init):.3f} "
        "(no amplification — the failing Best-of-3 fixes)"
    )


if __name__ == "__main__":
    main()
