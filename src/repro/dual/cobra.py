"""COBRA walks: coalescing-branching random walks (paper Remark 2).

A COBRA walk with branching factor ``k`` on a graph ``G``: at each step
every particle makes ``k − 1`` copies of itself at its current vertex,
then all particles move independently to uniform random neighbours, and
particles meeting at a vertex coalesce into one.  Equivalently, the
occupied set ``S_{t+1}`` is the union over ``v ∈ S_t`` of ``k`` i.i.d.
uniform neighbour draws of ``v``.

The paper's Remark 2: the random voting-DAG ``H(v₀, T)`` *is* the
trajectory of a ``k = 3`` COBRA walk started at ``v₀`` — level ``T − t``
of ``H`` equals the occupied set at COBRA time ``t``.  The E10 experiment
checks this equality in distribution; the cover-time estimator connects to
the COBRA literature ([3], [6], [9]) cited in the remark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.base import Graph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import (
    check_nonnegative_int,
    check_positive_int,
    check_start_vertices,
)

__all__ = ["CobraTrajectory", "cobra_walk", "cobra_cover_time"]


@dataclass
class CobraTrajectory:
    """Occupied sets of a COBRA walk.

    Attributes
    ----------
    occupied:
        ``occupied[t]`` is the sorted integer array of vertices occupied
        at time ``t`` (``occupied[0]`` is the start set).
    k:
        Branching factor.
    """

    occupied: list[np.ndarray]
    k: int

    @property
    def steps(self) -> int:
        """Number of steps simulated."""
        return len(self.occupied) - 1

    def sizes(self) -> np.ndarray:
        """Occupied-set size per time step."""
        return np.array([s.size for s in self.occupied], dtype=np.int64)

    def matches_dag_levels(self, dag) -> bool:
        """Check the Remark 2 correspondence against a voting-DAG.

        True iff ``occupied[t]`` equals ``dag.levels[T - t]`` for all
        ``t`` (requires the walk and DAG to have been driven by the same
        random draws — see the E10 harness for the coupled construction).
        """
        if self.steps != dag.T:
            return False
        return all(
            np.array_equal(self.occupied[t], dag.levels[dag.T - t])
            for t in range(self.steps + 1)
        )


def cobra_walk(
    graph: Graph,
    start: int | np.ndarray,
    steps: int,
    *,
    k: int = 3,
    rng: SeedLike = None,
) -> CobraTrajectory:
    """Simulate *steps* rounds of a branching-factor-``k`` COBRA walk.

    Each round, every occupied vertex emits ``k`` i.i.d. uniform neighbour
    draws; the union (set) of the draws is the next occupied set — the
    "branch then move then coalesce" dynamics in one vectorised update,
    which is exactly how :meth:`repro.core.voting_dag.VotingDAG.sample`
    builds DAG levels (top-down).
    """
    steps = check_nonnegative_int(steps, "steps")
    k = check_positive_int(k, "k")
    gen = as_generator(rng)
    occupied = [check_start_vertices(start, graph.num_vertices)]
    for _ in range(steps):
        draws = graph.sample_neighbors(occupied[-1], k, gen)
        occupied.append(np.unique(draws).astype(np.int64))
    return CobraTrajectory(occupied=occupied, k=k)


def cobra_cover_time(
    graph: Graph,
    start: int = 0,
    *,
    k: int = 3,
    rng: SeedLike = None,
    max_steps: int = 100_000,
) -> int:
    """Steps until the COBRA walk has visited every vertex at least once.

    The quantity studied by Berenbrink–Giakkoupis–Kling [3], Cooper–
    Radzik–Rivera [6] and Mitzenmacher–Rajaraman–Roche [9]; on expanders
    it is ``O(log n)``.  *start* is a vertex id or a start set, as for
    :func:`cobra_walk`.  Raises :class:`RuntimeError` if the cover time
    exceeds *max_steps* (e.g. disconnected hosts).
    """
    check_positive_int(max_steps, "max_steps")
    gen = as_generator(rng)
    n = graph.num_vertices
    current = check_start_vertices(start, n)
    visited = np.zeros(n, dtype=bool)
    visited[current] = True
    remaining = n - current.size
    if remaining == 0:
        return 0
    for t in range(1, max_steps + 1):
        draws = graph.sample_neighbors(current, k, gen)
        current = np.unique(draws).astype(np.int64)
        newly = current[~visited[current]]
        if newly.size:
            visited[newly] = True
            remaining -= newly.size
            if remaining == 0:
                return t
    raise RuntimeError(
        f"COBRA walk did not cover the graph within {max_steps} steps "
        f"({remaining} vertices unvisited)"
    )
