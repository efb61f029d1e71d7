"""Lemma 7: collision-count majorants and root-colour tail bounds (§4).

For a voting-DAG of ``h+1`` levels on a graph with minimum degree ``d``:

* level ``i`` has at most ``3^{h-i}`` vertices, so the probability it
  involves a collision is at most ``m_i²/d ≤ 9^h/d``;
* the number ``C`` of collision levels is stochastically dominated by
  ``Bin(h, 9^h/d)``;
* combining with Lemmas 5/6, ``P(root = B) ≤ P(C ≥ h/2) + P(B ≥ 2^{h/2})``
  (equation (6)) where ``B ~ Bin(3^h, p_leaf)`` counts blue leaves, and the
  paper bounds both tails by ``(2e·9^h/d)^{h/2}`` (equations (7)–(9)).

This module provides both the paper's closed-form bounds and exact
binomial tails so E6 can compare empirical collision statistics against
the majorant rather than only against the (loose) closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.voting_dag import VotingDAG
from repro.util.validation import check_nonnegative_int, check_positive_int, check_probability

__all__ = [
    "level_collision_probability_bound",
    "binomial_majorant_p",
    "collision_tail_exact",
    "collision_tail_paper",
    "blue_leaf_tail_exact",
    "root_blue_bound_exact",
    "root_blue_bound_paper",
    "empirical_collision_counts",
]


def level_collision_probability_bound(level_size: int, d: int) -> float:
    """Per-level collision probability bound ``min(m²/d, 1)`` (Lemma 7).

    Derived in the proof from
    ``1 − (1−1/d)(1−2/d)···(1−(m−1)/d) ≤ m²/d``.
    """
    level_size = check_nonnegative_int(level_size, "level_size")
    d = check_positive_int(d, "d")
    return min(level_size * level_size / d, 1.0)


def binomial_majorant_p(h: int, d: int) -> float:
    """Success probability ``min(9^h/d, 1)`` of the ``Bin(h, ·)`` majorant of
    the collision-level count ``C``."""
    h = check_positive_int(h, "h")
    d = check_positive_int(d, "d")
    if h > 500:
        return 1.0  # 9**h overflows float range long before this
    return min(9.0**h / d, 1.0)


def collision_tail_exact(h: int, d: int, threshold: float) -> float:
    """Exact majorant tail ``P(Bin(h, 9^h/d) > threshold)``."""
    from scipy import stats

    p = binomial_majorant_p(h, d)
    return float(stats.binom.sf(math.floor(threshold), h, p))


def collision_tail_paper(h: int, d: int) -> float:
    """The paper's equation (7) closed form: ``(2e·9^h/d)^{h/2}``.

    Valid (≤ meaningful) when ``2e·9^h/d ≤ 1/2``, which the proof arranges
    by taking ``h = a·log log₂ d``; outside that regime the value may
    exceed 1 and is clipped.
    """
    h = check_positive_int(h, "h")
    d = check_positive_int(d, "d")
    base = 2.0 * math.e * (9.0 ** min(h, 300)) / d
    return min(base ** (h / 2.0), 1.0)


def blue_leaf_tail_exact(h: int, p_leaf: float) -> float:
    """Exact ``P(B ≥ 2^{h/2})`` with ``B ~ Bin(3^h, p_leaf)``.

    The second term of equation (6): too many blue leaves even without
    collision help.
    """
    from scipy import stats

    h = check_positive_int(h, "h")
    p_leaf = check_probability(p_leaf, "p_leaf")
    n_leaves = 3**h
    threshold = 2.0 ** (h / 2.0)
    return float(stats.binom.sf(math.ceil(threshold) - 1, n_leaves, p_leaf))


def root_blue_bound_exact(h: int, d: int, p_leaf: float) -> float:
    """Equation (6) with exact binomial tails:

    ``P(root = B) ≤ P(C ≥ h/2) + P(B ≥ 2^{h/2})``.

    A valid upper bound for the *majorised* process (leaves i.i.d. blue
    w.p. ``p_leaf``); E6 checks empirical root-blue frequencies against
    it.
    """
    return min(
        collision_tail_exact(h, d, h / 2.0 - 1e-12) + blue_leaf_tail_exact(h, p_leaf),
        1.0,
    )


def root_blue_bound_paper(h: int, d: int) -> float:
    """The paper's final closed form: ``2·(2e·9^h/d)^{h/2}``.

    (Sum of the two identical equation (7)/(9) bounds.)
    """
    return min(2.0 * collision_tail_paper(h, d), 1.0)


def empirical_collision_counts(
    graph,
    root: int,
    T: int,
    trials: int,
    seed=None,
) -> np.ndarray:
    """Sample *trials* voting-DAGs and return their collision-level counts.

    Used by E6 to compare the empirical distribution of ``C`` against the
    ``Bin(h, 9^h/d)`` majorant (stochastic dominance check).
    """
    from repro.util.rng import spawn_generators

    trials = check_positive_int(trials, "trials")
    gens = spawn_generators(seed, trials)
    return np.array(
        [
            VotingDAG.sample(graph, root, T, rng=g).num_collision_levels
            for g in gens
        ],
        dtype=np.int64,
    )
