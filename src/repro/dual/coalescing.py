"""Coalescing random walks: the ``k = 1`` degenerate COBRA walk.

The coalescing random walk is the classical dual of the voter model
(Best-of-1): running one walk backward from each vertex, the voter model's
opinion of ``v`` at time ``T`` is the initial opinion of the vertex where
``v``'s walk sits at time ``T``, and walks that meet move together ever
after.  Consensus time of the voter model is the *coalescence time* — the
time for all ``n`` walks to merge into one — which is Θ(n) on expanders
versus the ``O(log log n)`` of Best-of-3: the quantitative gap E8
measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.base import Graph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int, check_start_vertices

__all__ = ["CoalescingWalkResult", "coalescing_random_walk", "meeting_time"]


@dataclass
class CoalescingWalkResult:
    """Outcome of a coalescing random walk simulation.

    Attributes
    ----------
    coalesced:
        Whether all particles merged within the step budget.
    steps:
        Steps executed (the coalescence time when ``coalesced``).
    cluster_trajectory:
        Number of surviving particles after each step (starts at the
        initial particle count).
    final_positions:
        Positions of the surviving particles at the end.
    """

    coalesced: bool
    steps: int
    cluster_trajectory: np.ndarray
    final_positions: np.ndarray


def coalescing_random_walk(
    graph: Graph,
    *,
    start: np.ndarray | None = None,
    rng: SeedLike = None,
    max_steps: int = 1_000_000,
) -> CoalescingWalkResult:
    """Simulate coalescing random walks until one particle remains.

    Parameters
    ----------
    graph:
        Host graph.
    start:
        Initial particle positions (default: one particle per vertex, the
        voter-model dual configuration).  Duplicates coalesce immediately.
    rng, max_steps:
        Randomness and step budget.
    """
    check_positive_int(max_steps, "max_steps")
    gen = as_generator(rng)
    n = graph.num_vertices
    if start is None:
        current = np.arange(n, dtype=np.int64)
    else:
        current = check_start_vertices(start, n)
    trajectory = [current.size]
    steps = 0
    while current.size > 1 and steps < max_steps:
        moves = graph.sample_neighbors(current, 1, gen)[:, 0]
        current = np.unique(moves)
        trajectory.append(current.size)
        steps += 1
    return CoalescingWalkResult(
        coalesced=current.size == 1,
        steps=steps,
        cluster_trajectory=np.asarray(trajectory, dtype=np.int64),
        final_positions=current,
    )


def meeting_time(
    graph: Graph,
    u: int,
    v: int,
    *,
    rng: SeedLike = None,
    max_steps: int = 1_000_000,
) -> int:
    """Time for two independent walks from *u* and *v* to occupy one vertex.

    (Both walks move simultaneously each step, as in the synchronous dual;
    they "meet" when they are at the same vertex after a step.)

    Raises
    ------
    RuntimeError
        If the walks fail to meet within *max_steps* (e.g. strictly
        bipartite host with out-of-phase starts, where synchronous walks
        can never meet).
    """
    check_positive_int(max_steps, "max_steps")
    gen = as_generator(rng)
    n = graph.num_vertices
    for name, x in (("u", u), ("v", v)):
        if not 0 <= x < n:
            raise ValueError(f"{name}={x} out of range [0, {n})")
    if u == v:
        return 0
    pos = np.array([u, v], dtype=np.int64)
    for t in range(1, max_steps + 1):
        pos = graph.sample_neighbors(pos, 1, gen)[:, 0]
        if pos[0] == pos[1]:
            return t
    raise RuntimeError(
        f"walks from {u} and {v} did not meet within {max_steps} steps"
    )
