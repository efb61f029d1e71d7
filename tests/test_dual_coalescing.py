"""Tests for coalescing random walks (the voter-model dual)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dual.coalescing import coalescing_random_walk, meeting_time
from repro.graphs.csr import CSRGraph
from repro.graphs.implicit import CompleteBipartiteGraph, CompleteGraph


class TestCoalescingWalk:
    def test_full_coalescence_complete_graph(self):
        g = CompleteGraph(64)
        res = coalescing_random_walk(g, rng=1)
        assert res.coalesced
        assert res.final_positions.size == 1
        assert res.cluster_trajectory[0] == 64
        assert res.cluster_trajectory[-1] == 1

    def test_cluster_counts_nonincreasing(self):
        g = CompleteGraph(32)
        res = coalescing_random_walk(g, rng=2)
        assert (np.diff(res.cluster_trajectory) <= 0).all()

    def test_custom_start(self):
        g = CompleteGraph(100)
        res = coalescing_random_walk(g, start=np.array([0, 1, 2]), rng=3)
        assert res.cluster_trajectory[0] == 3
        assert res.coalesced

    def test_single_particle_trivial(self):
        g = CompleteGraph(10)
        res = coalescing_random_walk(g, start=np.array([4]), rng=4)
        assert res.coalesced and res.steps == 0

    def test_duplicates_coalesce_immediately(self):
        g = CompleteGraph(10)
        res = coalescing_random_walk(g, start=np.array([3, 3, 3]), rng=5)
        assert res.cluster_trajectory[0] == 1

    def test_budget_exhaustion_reported(self):
        g = CompleteGraph(256)
        res = coalescing_random_walk(g, rng=6, max_steps=1)
        assert not res.coalesced
        assert res.steps == 1

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            coalescing_random_walk(CompleteGraph(5), start=np.array([], dtype=np.int64))

    @pytest.mark.parametrize(
        "start",
        [np.array([0.5, 1.9]), np.array([True, False, True]), [True, True]],
    )
    def test_non_integer_start_rejected(self, start):
        """Floats would be truncated and a bool mask read as ids 0/1."""
        with pytest.raises(ValueError, match="integers"):
            coalescing_random_walk(CompleteGraph(10), start=start, rng=0)

    def test_coalescence_scale_linear_in_n(self):
        """Coalescence time on K_n is Theta(n): check the scale roughly."""
        times = []
        for n in (64, 256):
            res = coalescing_random_walk(CompleteGraph(n), rng=7)
            times.append(res.steps)
        assert 1.5 <= times[1] / max(times[0], 1) <= 12


class TestMeetingTime:
    def test_same_start_zero(self):
        assert meeting_time(CompleteGraph(10), 3, 3, rng=1) == 0

    def test_meets_on_complete_graph(self):
        t = meeting_time(CompleteGraph(50), 0, 1, rng=2)
        assert 1 <= t <= 5000

    def test_bipartite_out_of_phase_never_meets(self):
        # On K_{a,b} synchronous walks from opposite sides alternate sides
        # forever and can never co-locate.
        g = CompleteBipartiteGraph(5, 5)
        with pytest.raises(RuntimeError, match="did not meet"):
            meeting_time(g, 0, 7, rng=3, max_steps=500)

    def test_vertex_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            meeting_time(CompleteGraph(5), 0, 9)
