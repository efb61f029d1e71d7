"""Tests for multi-opinion 3-majority with random tie-breaking ([2])."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.plurality import (
    becchetti_gap_threshold,
    plurality_ensemble,
    random_plurality_opinions,
)
from repro.core.ensemble import run_ensemble
from repro.core.protocols import Plurality
from repro.graphs.implicit import CompleteGraph


class TestInitialisation:
    def test_counts_follow_probabilities(self):
        probs = np.array([0.5, 0.3, 0.2])
        ops = random_plurality_opinions(100_000, probs, rng=1)
        counts = np.bincount(ops, minlength=3) / 100_000
        assert np.allclose(counts, probs, atol=0.01)

    def test_probabilities_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            random_plurality_opinions(10, np.array([0.5, 0.4]))
        with pytest.raises(ValueError, match="two opinion"):
            random_plurality_opinions(10, np.array([1.0]))


def _step(graph, ops, q, rng):
    """One round of the ``Plurality(q)`` protocol for a single opinion row."""
    return Plurality(q).step_batch(graph, ops[None, :], rng)[0]


class TestStep:
    def test_two_colour_step_matches_best_of_three_drift(self):
        """With q=2 the plurality rule has no 3-way ties, so one round
        equals the Best-of-3 drift 3b^2-2b^3."""
        from repro.core.recursions import ideal_step

        n = 200_000
        g = CompleteGraph(n)
        ops = np.zeros(n, dtype=np.int64)
        ops[: int(0.4 * n)] = 1
        np.random.default_rng(2).shuffle(ops)
        out = _step(g, ops, 2, np.random.default_rng(3))
        assert (out == 1).mean() == pytest.approx(ideal_step(0.4), abs=0.005)

    def test_values_stay_in_range(self):
        g = CompleteGraph(1000)
        ops = random_plurality_opinions(1000, np.array([0.4, 0.3, 0.3]), rng=4)
        out = _step(g, ops, 3, np.random.default_rng(5))
        assert out.min() >= 0 and out.max() <= 2

    def test_consensus_absorbing(self):
        g = CompleteGraph(100)
        ops = np.full(100, 2, dtype=np.int64)
        out = _step(g, ops, 3, np.random.default_rng(6))
        assert (out == 2).all()

    def test_tie_picks_sampled_opinion(self):
        """With three distinct sampled opinions the result is one of them —
        over a triangle with colours 0,1,2 every sample containing all
        three is a tie and must return a value in {0,1,2}."""
        from repro.graphs.csr import CSRGraph

        g = CSRGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        ops = np.array([0, 1, 2], dtype=np.int64)
        out = _step(g, ops, 3, np.random.default_rng(7))
        assert set(out.tolist()) <= {0, 1, 2}


def _run(graph, ops, q, *, seed):
    return run_ensemble(
        graph, protocol=Plurality(q), replicas=1, initial_opinions=ops,
        seed=seed,
    )


class TestRun:
    def test_plurality_wins_with_gap(self):
        g = CompleteGraph(4096)
        ops = random_plurality_opinions(
            4096, np.array([0.5, 0.25, 0.25]), rng=8
        )
        res = _run(g, ops, 3, seed=9)
        assert res.converged[0]
        assert res.winners[0] == 0
        assert res.steps[0] <= 60

    def test_count_trajectory_shape(self):
        # The engine's plurality trajectory is the leading-colour count.
        g = CompleteGraph(512)
        ops = random_plurality_opinions(512, np.array([0.6, 0.4]), rng=10)
        res = _run(g, ops, 2, seed=11)
        traj = res.blue_trajectories[0]
        assert traj.size == res.steps[0] + 1
        assert traj[0] == np.bincount(ops).max()
        assert traj[-1] == 512

    def test_q_inferred_and_validated(self):
        g = CompleteGraph(64)
        ops = np.zeros(64, dtype=np.int64)
        ops[0] = 3
        with pytest.raises(ValueError, match="initial_opinions must be"):
            _run(g, ops, 2, seed=12)  # code 3 outside [0, 2)
        # plurality_ensemble takes q from the probability vector.
        res = plurality_ensemble(
            g, trials=2, probabilities=np.array([1.0, 0.0]), seed=13
        )
        assert res.converged.all() and (res.winners == 0).all()


class TestGapThreshold:
    def test_monotone_in_q_small(self):
        # For small q the sqrt(2q) branch is active and grows with q.
        n = 10**6
        assert becchetti_gap_threshold(n, 2) < becchetti_gap_threshold(n, 5)

    def test_large_q_saturates(self):
        n = 10**4
        cap = (n / math.log(n)) ** (1 / 6.0) * math.sqrt(n * math.log(n))
        assert becchetti_gap_threshold(n, 10**6) == pytest.approx(cap)

    def test_scale_below_n(self):
        # The threshold is o(n): plurality tolerates sublinear gaps.
        n = 10**6
        assert becchetti_gap_threshold(n, 3) < n / 10
