"""Deterministic synchronous local majority on the ensemble engine.

``LocalMajority`` stops a replica at any fixed point: consensus rows win
as usual, frozen mixed rows stop with winner ``-1``.  A period-2 cycle
is no fixed point, so a blinking replica runs to its budget and ends
unconverged; the tests below check the alternation itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import run_ensemble
from repro.core.opinions import BLUE, RED
from repro.core.protocols import LocalMajority
from repro.graphs.csr import CSRGraph
from repro.graphs.implicit import CompleteBipartiteGraph, CompleteGraph


def _run(graph, ops, *, max_steps=10_000):
    return run_ensemble(
        graph, protocol=LocalMajority(), replicas=1, initial_opinions=ops,
        seed=0, max_steps=max_steps, keep_final=True,
    )


def _assert_blinks(graph, ops):
    """Period 2: even budgets end on the start row, odd ones on its swap,
    and the run never converges."""
    for budget, expect in ((6, ops), (5, 1 - ops)):
        res = _run(graph, ops, max_steps=budget)
        assert not res.converged[0] and res.winners[0] == -1
        assert res.steps[0] == budget
        np.testing.assert_array_equal(res.final_opinions[0], expect)


class TestOutcomes:
    def test_consensus_from_majority(self):
        g = CompleteGraph(100).to_csr()
        ops = np.zeros(100, dtype=np.uint8)
        ops[:30] = BLUE
        res = _run(g, ops)
        assert res.converged[0]
        assert res.winners[0] == RED
        assert res.steps[0] <= 2

    def test_blue_majority_wins(self):
        g = CompleteGraph(100).to_csr()
        ops = np.ones(100, dtype=np.uint8)
        ops[:30] = RED
        res = _run(g, ops)
        assert res.converged[0] and res.winners[0] == BLUE

    def test_two_cycle_blinker(self):
        """Complete bipartite with opposite-coloured sides blinks forever."""
        g = CompleteBipartiteGraph(4, 4).to_csr()
        _assert_blinks(g, np.array([1] * 4 + [0] * 4, dtype=np.uint8))

    def test_fixed_point_non_consensus(self):
        """Two triangles joined by one edge hold different colours stably."""
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        g = CSRGraph.from_edges(6, edges)
        ops = np.array([0, 0, 0, 1, 1, 1], dtype=np.uint8)
        res = _run(g, ops)
        assert not res.converged[0] and res.winners[0] == -1
        assert res.steps[0] == 1  # the first round reproduces the row
        assert np.array_equal(res.final_opinions[0], ops)

    def test_c4_alternating_blinks(self):
        """C4 alternating: both neighbours of each vertex hold the *other*
        colour, so the whole ring swaps colours every round — a 2-cycle."""
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        _assert_blinks(g, np.array([0, 1, 0, 1], dtype=np.uint8))

    def test_tie_keeps_own(self):
        """Path 0-1-2 with endpoints disagreeing: the middle vertex sees a
        1-1 tie and keeps its colour; endpoints copy the middle.  From
        [1, 0, 0]: middle tie keeps 0, endpoints adopt 0 -> red consensus."""
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        res = _run(g, np.array([1, 0, 0], dtype=np.uint8))
        assert res.converged[0]
        assert res.winners[0] == RED

    def test_consensus_start_is_immediate(self):
        g = CompleteGraph(20).to_csr()
        res = _run(g, np.zeros(20, dtype=np.uint8))
        assert res.converged[0] and res.steps[0] == 0

    def test_implicit_graph_materialised(self):
        # An implicit host works through to_csr().
        res = _run(CompleteGraph(50), np.zeros(50, dtype=np.uint8))
        assert res.converged[0]

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="must have shape"):
            _run(CompleteGraph(5).to_csr(), np.zeros(3, dtype=np.uint8))

    def test_trajectory_recorded(self):
        g = CompleteGraph(60).to_csr()
        ops = np.zeros(60, dtype=np.uint8)
        ops[:20] = BLUE
        res = _run(g, ops)
        assert res.blue_trajectories[0][0] == 20
