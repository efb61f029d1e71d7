"""Tests for COBRA walks and the Remark 2 duality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.voting_dag import VotingDAG
from repro.dual.cobra import cobra_cover_time, cobra_walk
from repro.graphs.implicit import CompleteGraph


class TestCobraWalk:
    def test_trajectory_shapes(self):
        g = CompleteGraph(100)
        tr = cobra_walk(g, 0, 5, rng=1)
        assert tr.steps == 5
        assert len(tr.occupied) == 6
        assert np.array_equal(tr.occupied[0], [0])

    def test_growth_bounded_by_branching(self):
        g = CompleteGraph(10_000)
        tr = cobra_walk(g, 0, 6, k=3, rng=2)
        sizes = tr.sizes()
        for t in range(6):
            assert sizes[t + 1] <= 3 * sizes[t]

    def test_k1_single_particle(self):
        g = CompleteGraph(50)
        tr = cobra_walk(g, 0, 10, k=1, rng=3)
        assert (tr.sizes() == 1).all()

    def test_multi_start(self):
        g = CompleteGraph(100)
        tr = cobra_walk(g, np.array([0, 5, 5, 9]), 3, rng=4)
        assert np.array_equal(tr.occupied[0], [0, 5, 9])

    def test_occupied_sets_sorted_unique(self):
        g = CompleteGraph(40)
        tr = cobra_walk(g, 0, 5, rng=5)
        for occ in tr.occupied:
            assert np.array_equal(occ, np.unique(occ))

    def test_start_validated(self):
        g = CompleteGraph(10)
        with pytest.raises(ValueError, match="start"):
            cobra_walk(g, 10, 2)
        with pytest.raises(ValueError, match="non-empty"):
            cobra_walk(g, np.array([], dtype=np.int64), 2)

    @pytest.mark.parametrize(
        "start",
        [np.array([0.5, 1.9]), np.array([True, False, True]), 1.5, True],
    )
    def test_non_integer_start_rejected(self, start):
        """Floats would be truncated and a bool mask read as ids 0/1."""
        with pytest.raises(ValueError, match="integers"):
            cobra_walk(CompleteGraph(10), start, 1, rng=0)

    def test_zero_steps(self):
        g = CompleteGraph(10)
        tr = cobra_walk(g, 3, 0, rng=6)
        assert tr.steps == 0


class TestRemark2Duality:
    def test_shared_stream_exact_equality(self):
        """Same generator stream => DAG levels == COBRA occupied sets."""
        g = CompleteGraph(200)
        for seed in range(10):
            ss1 = np.random.SeedSequence(seed)
            ss2 = np.random.SeedSequence(seed)
            dag = VotingDAG.sample(
                g, root=seed % 200, T=4, rng=np.random.Generator(np.random.PCG64(ss1))
            )
            walk = cobra_walk(
                g,
                seed % 200,
                4,
                k=3,
                rng=np.random.Generator(np.random.PCG64(ss2)),
            )
            assert walk.matches_dag_levels(dag)

    def test_mismatched_heights_rejected_by_matcher(self):
        g = CompleteGraph(50)
        dag = VotingDAG.sample(g, root=0, T=3, rng=1)
        walk = cobra_walk(g, 0, 2, rng=1)
        assert not walk.matches_dag_levels(dag)


class TestCoverTime:
    def test_complete_graph_cover_fast(self):
        g = CompleteGraph(500)
        t = cobra_cover_time(g, rng=7)
        # Doubling phase ~log3(n) then coupon-ish tail: well under 30.
        assert 5 <= t <= 30

    def test_cover_time_exceeds_budget_raises(self):
        g = CompleteGraph(100)
        with pytest.raises(RuntimeError, match="did not cover"):
            cobra_cover_time(g, rng=8, max_steps=1)

    def test_start_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            cobra_cover_time(CompleteGraph(10), start=10)

    @pytest.mark.parametrize(
        "start", [0.5, 1.9, True, np.array([0.5]), np.array([True, False])]
    )
    def test_non_integer_start_rejected(self, start):
        """``start=0.5`` and ``start=True`` used to run from vertex 0."""
        with pytest.raises(ValueError, match="integers"):
            cobra_cover_time(CompleteGraph(10), start=start, rng=1)

    def test_numpy_integer_start_accepted(self):
        g = CompleteGraph(10)
        assert cobra_cover_time(g, start=np.int32(3), rng=1) == cobra_cover_time(
            g, start=3, rng=1
        )

    def test_start_set_covering_every_vertex_takes_zero_steps(self):
        assert cobra_cover_time(CompleteGraph(3), start=[0, 1, 2], rng=1) == 0
