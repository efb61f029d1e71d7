"""E6 — Lemma 7: collision-level counts and the root-blue tail.

Samples voting-DAG ensembles at several heights and checks:

1. the empirical distribution of the collision-level count ``C`` is
   stochastically dominated by the paper's ``Bin(h, 9^h/d)`` majorant
   (every tail point, with Monte-Carlo slack);
2. colouring leaves i.i.d. with a ``o(d⁻¹)``-scale blue probability, the
   empirical root-blue frequency stays below the equation (6) bound
   ``P(C ≥ h/2) + P(B ≥ 2^{h/2})`` evaluated with exact binomial tails.
"""

from __future__ import annotations

import numpy as np

from repro.core.collisions import (
    binomial_majorant_p,
    root_blue_bound_exact,
)
from repro.core.voting_dag import VotingDAG
from repro.graphs.implicit import CompleteGraph
from repro.harness.base import ExperimentResult
from repro.util.rng import spawn_generators

EXPERIMENT_ID = "E6"
TITLE = "Collision-count majorant and root-blue tail (Lemma 7)"
PAPER_CLAIM = (
    "Lemma 7: the number C of levels involving a collision is majorised "
    "by Bin(h, 9^h/d); with leaf blue probability o(1/d) the root is "
    "blue with probability at most P(C >= h/2) + P(B >= 2^{h/2}) = o(1/n) "
    "(equations (6)-(9))."
)


def run(*, quick: bool = True, seed: int = 0) -> ExperimentResult:
    from scipy import stats

    n = 32_768
    heights = [2, 3, 4] if quick else [2, 3, 4, 5, 6]
    n_dags = 300 if quick else 1500
    g = CompleteGraph(n)
    d = g.min_degree

    rows = []
    dominance_ok = True
    root_ok = True
    gens = spawn_generators(seed, 2 * len(heights) * n_dags)
    gi = 0
    for h in heights:
        counts = np.empty(n_dags, dtype=np.int64)
        blue_roots = 0
        p_leaf = 0.5 / d  # the o(1/d) scale of Proposition 3's conclusion
        for i in range(n_dags):
            dag = VotingDAG.sample(g, root=i % n, T=h, rng=gens[gi])
            gi += 1
            counts[i] = dag.num_collision_levels
            col = dag.color_leaves_bernoulli(p_leaf, rng=gens[gi])
            gi += 1
            blue_roots += col.root_opinion
        p_major = binomial_majorant_p(h, d)
        # Stochastic dominance: empirical P(C >= j) <= majorant tail + 3 sigma.
        dom = True
        for j in range(1, h + 1):
            emp = float((counts >= j).mean())
            bound = float(stats.binom.sf(j - 1, h, p_major))
            slack = 3.0 * np.sqrt(max(bound * (1 - bound), 1e-12) / n_dags)
            if emp > bound + slack:
                dom = False
        dominance_ok &= dom
        root_freq = blue_roots / n_dags
        root_bound = root_blue_bound_exact(h, d, p_leaf)
        r_ok = root_freq <= root_bound + 3.0 * np.sqrt(
            max(root_bound * (1 - root_bound), 1e-12) / n_dags
        )
        root_ok &= r_ok
        rows.append(
            {
                "h": h,
                "DAGs": n_dags,
                "mean C": float(counts.mean()),
                "majorant h*9^h/d": h * p_major,
                "dominance": dom,
                "P(root blue) emp": root_freq,
                "eq(6) bound": root_bound,
                "root ok": r_ok,
            }
        )

    passed = dominance_ok and root_ok
    summary = [
        "empirical collision-count tails are dominated by Bin(h, 9^h/d) "
        "at every height"
        if dominance_ok
        else "dominance violated at some height",
        "root-blue frequency sits below the equation (6) bound at every "
        "height"
        if root_ok
        else "root-blue frequency exceeded the equation (6) bound",
        f"host K_{n} (d={d}); leaf blue probability 0.5/d",
    ]
    verdict = (
        "SHAPE MATCH: Lemma 7 majorant and equation (6) tail verified"
        if passed
        else "MISMATCH: see summary"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        paper_claim=PAPER_CLAIM,
        columns=[
            "h",
            "DAGs",
            "mean C",
            "majorant h*9^h/d",
            "dominance",
            "P(root blue) emp",
            "eq(6) bound",
            "root ok",
        ],
        rows=rows,
        summary=summary,
        verdict=verdict,
        passed=passed,
    )
