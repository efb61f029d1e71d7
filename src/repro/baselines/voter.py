"""Best-of-1: the voter model.

Each vertex adopts the opinion of a single uniformly random neighbour.
Two classical facts the paper's introduction quotes, both reproducible
here:

1. *Degree-proportional winning*: the probability that a colour wins is
   the initial fraction of degree volume it holds,
   ``P(red wins) = d(R₀)/d(V)`` — exact on any connected non-bipartite
   graph (the martingale argument).  So the voter model does **not**
   amplify majorities, the failing Best-of-3 fixes.
2. *Slow consensus*: expected consensus time is governed by coalescing
   random walks (Θ(n) on expanders), versus ``O(log log n)`` for
   Best-of-3 — measured side by side in E8.
"""

from __future__ import annotations

import numpy as np

from repro.core.dynamics import BestOfKDynamics
from repro.core.opinions import RED
from repro.graphs.base import Graph

__all__ = ["voter_dynamics", "voter_win_probability"]


def voter_dynamics(graph: Graph) -> BestOfKDynamics:
    """The voter model as a :class:`BestOfKDynamics` with ``k = 1``."""
    return BestOfKDynamics(graph, k=1)


def voter_win_probability(graph: Graph, opinions: np.ndarray, colour: int = RED) -> float:
    """Exact win probability of *colour* under the voter model.

    ``P(colour wins) = d(X₀)/d(V)`` where ``X₀`` is the set of vertices
    initially holding *colour* (valid for connected non-bipartite hosts;
    on bipartite hosts the synchronous voter model need not converge at
    all).  E8 validates this against simulation and contrasts it with the
    majority-amplifying behaviour of Best-of-3.
    """
    n = graph.num_vertices
    opinions = np.asarray(opinions)
    if opinions.shape != (n,):
        raise ValueError(
            f"opinions shape {opinions.shape} does not match graph n={n}"
        )
    mask = opinions == colour
    return graph.degree_volume(mask) / graph.degree_volume()
