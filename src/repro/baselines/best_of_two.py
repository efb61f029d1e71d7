"""Best-of-2 voting and the sufficient conditions of [4] and [5].

Best-of-2 samples two random neighbours; on disagreement the tie rule
decides (keep own opinion, or flip a fair coin).  The paper's introduction
cites two sufficient conditions for majority consensus in ``O(log n)``
rounds:

* **Cooper–Elsässer–Radzik [4]** (``d``-regular hosts): initial imbalance
  ``|R₀| − |B₀| ≥ K·n·√(1/d + d/n)`` for a large constant ``K``.
* **Cooper–Elsässer–Radzik–Rivera–Shiraga [5]** (general expanders):
  degree-volume imbalance ``d(R₀) − d(B₀) ≥ 4λ₂²·d(V)`` where ``λ₂`` is
  the second largest absolute transition-matrix eigenvalue.

E11 sweeps the initial imbalance through these thresholds and measures
the win-probability transition.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.dynamics import BestOfKDynamics, TieRule
from repro.core.opinions import BLUE, RED
from repro.graphs.base import Graph
from repro.graphs.csr import CSRGraph

__all__ = [
    "best_of_two_dynamics",
    "cooper_imbalance_threshold",
    "satisfies_cooper_condition",
    "satisfies_spectral_condition",
]


def best_of_two_dynamics(
    graph: Graph, *, tie_rule: TieRule = TieRule.KEEP_SELF
) -> BestOfKDynamics:
    """Best-of-2 as a :class:`BestOfKDynamics` with the chosen tie rule."""
    return BestOfKDynamics(graph, k=2, tie_rule=tie_rule)


def cooper_imbalance_threshold(n: int, d: int, *, K: float = 1.0) -> float:
    """The [4] threshold ``K·n·√(1/d + d/n)`` for ``d``-regular graphs.

    [4] prove consensus-to-majority w.h.p. in ``O(log n)`` when the count
    imbalance exceeds this (for a sufficiently large constant ``K``);
    note the threshold is minimised at ``d ≈ √n``, where it is
    ``Θ(n^{3/4})``.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n, d >= 1, got n={n}, d={d}")
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    return K * n * math.sqrt(1.0 / d + d / n)


def satisfies_cooper_condition(
    graph: Graph, opinions: np.ndarray, *, K: float = 1.0
) -> bool:
    """Whether the [4] imbalance condition holds for red vs blue.

    Uses the minimum degree for ``d`` (exact on regular hosts, the [4]
    setting; conservative otherwise).
    """
    n = graph.num_vertices
    opinions = np.asarray(opinions)
    if opinions.shape != (n,):
        raise ValueError(
            f"opinions shape {opinions.shape} does not match graph n={n}"
        )
    reds = int(np.count_nonzero(opinions == RED))
    blues = int(np.count_nonzero(opinions == BLUE))
    return reds - blues >= cooper_imbalance_threshold(n, graph.min_degree, K=K)


def satisfies_spectral_condition(
    graph: CSRGraph, opinions: np.ndarray, *, lambda2: float | None = None
) -> bool:
    """Whether the [5] condition ``d(R₀) − d(B₀) ≥ 4λ₂²·d(V)`` holds.

    Parameters
    ----------
    graph:
        Explicit host (λ₂ needs the adjacency structure).
    opinions:
        Initial opinion vector.
    lambda2:
        Pass a precomputed λ₂ to avoid repeated eigensolves in sweeps.
    """
    from repro.graphs.spectral import second_eigenvalue

    n = graph.num_vertices
    opinions = np.asarray(opinions)
    if opinions.shape != (n,):
        raise ValueError(
            f"opinions shape {opinions.shape} does not match graph n={n}"
        )
    if lambda2 is None:
        lambda2 = second_eigenvalue(graph)
    red_vol = graph.degree_volume(opinions == RED)
    blue_vol = graph.degree_volume(opinions == BLUE)
    return red_vol - blue_vol >= 4.0 * lambda2 * lambda2 * graph.degree_volume()
