"""Tests for the Best-of-k dynamics engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamics import (
    BestOfKDynamics,
    TieRule,
    best_of_three,
    step_best_of_k,
)
from repro.core.opinions import BLUE, RED, exact_count_opinions, random_opinions
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import random_regular
from repro.graphs.implicit import (
    CompleteGraph,
    CompleteMultipartiteGraph,
    RookGraph,
)


class TestStep:
    def test_consensus_absorbing_red(self, rng):
        g = CompleteGraph(50)
        ops = np.zeros(50, dtype=np.uint8)
        out = step_best_of_k(g, ops, 3, rng)
        assert (out == RED).all()

    def test_consensus_absorbing_blue(self, rng):
        g = CompleteGraph(50)
        ops = np.ones(50, dtype=np.uint8)
        out = step_best_of_k(g, ops, 3, rng)
        assert (out == BLUE).all()

    def test_k1_copies_a_neighbor(self, path4, rng):
        # Vertex 0 of the path has only neighbour 1: k=1 copies it.
        ops = np.array([0, 1, 0, 1], dtype=np.uint8)
        out = step_best_of_k(path4, ops, 1, rng)
        assert out[0] == 1
        assert out[3] == 0

    def test_out_buffer_respected(self, rng):
        g = CompleteGraph(20)
        ops = random_opinions(20, 0.1, rng=1)
        buf = np.empty(20, dtype=np.uint8)
        out = step_best_of_k(g, ops, 3, rng, out=buf)
        assert out is buf

    def test_aliased_out_rejected(self, rng):
        g = CompleteGraph(20)
        ops = random_opinions(20, 0.1, rng=1)
        with pytest.raises(ValueError, match="alias"):
            step_best_of_k(g, ops, 3, rng, out=ops)

    @pytest.mark.parametrize("batched", [False, True])
    def test_view_aliased_out_rejected(self, batched):
        """``out=x[:]`` is a new array object over the same memory; a
        round writing into it would read half-updated opinions."""
        from repro.core.dense import step_best_of_k_batch
        from repro.graphs.implicit import RookGraph

        g = RookGraph(16)
        x = random_opinions(256, 0.0, rng=3)
        if batched:
            x = np.stack([x, x[::-1]])
        step = step_best_of_k_batch if batched else step_best_of_k
        with pytest.raises(ValueError, match="alias"):
            step(g, x, 2, np.random.default_rng(4),
                 tie_rule=TieRule.KEEP_SELF, out=x[:])

    def test_input_not_mutated(self, rng):
        g = CompleteGraph(30)
        ops = random_opinions(30, 0.0, rng=2)
        before = ops.copy()
        step_best_of_k(g, ops, 3, rng)
        assert np.array_equal(ops, before)

    def test_shape_mismatch_rejected(self, rng):
        g = CompleteGraph(10)
        with pytest.raises(ValueError, match="does not match"):
            step_best_of_k(g, np.zeros(5, dtype=np.uint8), 3, rng)

    def test_drift_matches_recursion_statistically(self, rng):
        # One K_n round from exact fraction b: E[new blue fraction] = 3b^2-2b^3.
        from repro.core.recursions import ideal_step

        n = 100_000
        g = CompleteGraph(n)
        b = 0.4
        ops = exact_count_opinions(n, int(b * n), rng=3)
        out = step_best_of_k(g, ops, 3, rng)
        expected = ideal_step(b)
        assert out.mean() == pytest.approx(expected, abs=5 / np.sqrt(n))


class TestTieRules:
    def _two_regular_disagreeing(self):
        # C4 with alternating colours: every vertex sees one blue, one red.
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        ops = np.array([0, 1, 0, 1], dtype=np.uint8)
        return g, ops

    def test_keep_self_preserves_on_tie(self, rng):
        g, ops = self._two_regular_disagreeing()
        # With k=2 on C4-alternating, each sample is {blue, red} or
        # {blue, blue} or {red, red}; under KEEP_SELF ties keep colour.
        out = step_best_of_k(g, ops, 2, rng, tie_rule=TieRule.KEEP_SELF)
        # Any vertex that tied must have kept its own opinion; verify by
        # re-running with a forced-tie construction: both neighbours of
        # vertex 0 are blue or red depending on the draw, so just check
        # the update is a valid opinion vector.
        assert set(np.unique(out)) <= {0, 1}

    def test_keep_self_deterministic_tie_case(self, rng):
        # Star-like: vertex 0 adjacent to 1 (blue) and 2 (red); force k=2
        # ties statistically: over many rounds, when a tie happens opinion
        # is kept. We verify via the exact distribution: P(new=blue for
        # vertex0) = P(both blue) + P(tie)*[own==blue] = 1/4 since own=red.
        g = CSRGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        wins = 0
        trials = 4000
        gen = np.random.default_rng(9)
        ops = np.array([0, 1, 0], dtype=np.uint8)
        for _ in range(trials):
            out = step_best_of_k(g, ops, 2, gen, tie_rule=TieRule.KEEP_SELF)
            wins += int(out[0] == BLUE)
        assert wins / trials == pytest.approx(0.25, abs=0.03)

    def test_random_tie_is_fair(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        gen = np.random.default_rng(10)
        ops = np.array([0, 1, 0], dtype=np.uint8)
        wins = 0
        trials = 4000
        for _ in range(trials):
            out = step_best_of_k(g, ops, 2, gen, tie_rule=TieRule.RANDOM)
            wins += int(out[0] == BLUE)
        # P(blue) = P(both blue) + P(tie)/2 = 1/4 + 1/4 = 1/2.
        assert wins / trials == pytest.approx(0.5, abs=0.03)


class TestRun:
    def test_red_wins_with_bias(self):
        g = CompleteGraph(2000)
        dyn = best_of_three(g)
        res = dyn.run(random_opinions(2000, 0.15, rng=1), seed=2)
        assert res.converged and res.winner == RED and res.red_wins

    def test_blue_wins_with_reverse_bias(self):
        g = CompleteGraph(2000)
        dyn = best_of_three(g)
        init = 1 - random_opinions(2000, 0.15, rng=3)  # blue majority
        res = dyn.run(init.astype(np.uint8), seed=4)
        assert res.converged and res.winner == BLUE

    def test_trajectory_consistency(self):
        g = CompleteGraph(500)
        res = best_of_three(g).run(random_opinions(500, 0.1, rng=5), seed=6)
        assert res.blue_trajectory.size == res.steps + 1
        assert res.blue_trajectory[-1] in (0, 500)
        assert res.final_opinions is not None
        assert res.blue_trajectory[-1] == res.final_opinions.sum()

    def test_max_steps_respected(self):
        g = CompleteGraph(500)
        res = best_of_three(g).run(
            random_opinions(500, 0.0, rng=7), seed=8, max_steps=1
        )
        assert res.steps <= 1
        if not res.converged:
            assert res.winner is None

    def test_keep_final_false(self):
        g = CompleteGraph(100)
        res = best_of_three(g).run(
            random_opinions(100, 0.2, rng=9), seed=10, keep_final=False
        )
        assert res.final_opinions is None

    def test_already_consensus_zero_steps(self):
        g = CompleteGraph(100)
        res = best_of_three(g).run(np.zeros(100, dtype=np.uint8), seed=11)
        assert res.converged and res.steps == 0

    def test_determinism_same_seed(self):
        g = CompleteGraph(300)
        init = random_opinions(300, 0.05, rng=12)
        a = best_of_three(g).run(init, seed=13)
        b = best_of_three(g).run(init, seed=13)
        assert a.steps == b.steps
        assert np.array_equal(a.blue_trajectory, b.blue_trajectory)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            BestOfKDynamics(CompleteGraph(10), k=0)

    def test_blue_fractions_without_final(self):
        """n is stored on the result, so fractions work with keep_final=False."""
        g = CompleteGraph(50)
        res = best_of_three(g).run(
            random_opinions(50, 0.2, rng=14), seed=15, keep_final=False
        )
        assert res.final_opinions is None
        assert res.n == 50
        assert res.blue_fractions[0] == res.blue_trajectory[0] / 50
        assert res.blue_fractions[-1] in (0.0, 1.0)

    def test_blue_fractions(self):
        g = CompleteGraph(50)
        res = best_of_three(g).run(random_opinions(50, 0.2, rng=16), seed=17)
        assert res.blue_fractions[0] == res.blue_trajectory[0] / 50


@settings(max_examples=20, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3, 5]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_update_is_valid_opinion_vector(k, seed):
    """Any step from any state yields a {0,1} vector of the right shape."""
    g = CompleteGraph(64)
    gen = np.random.default_rng(seed)
    ops = (gen.random(64) < gen.random()).astype(np.uint8)
    out = step_best_of_k(g, ops, k, gen)
    assert out.shape == (64,)
    assert set(np.unique(out)) <= {0, 1}


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_monotone_coupling_in_initial_blues(seed):
    """Adding blue vertices (same randomness) cannot decrease blueness.

    Majority-of-sample is a monotone function of the sampled opinions, so
    coupling two initial states x <= y through identical neighbour draws
    must preserve the order after one step.
    """
    n = 128
    g = CompleteGraph(n)
    gen = np.random.default_rng(seed)
    x = (gen.random(n) < 0.3).astype(np.uint8)
    y = np.maximum(x, (gen.random(n) < 0.2).astype(np.uint8))
    ss = np.random.SeedSequence(seed)
    out_x = step_best_of_k(g, x, 3, np.random.default_rng(ss))
    out_y = step_best_of_k(g, y, 3, np.random.default_rng(ss))
    assert (out_x <= out_y).all()


def sequential_reference_run(graph, init, k, tie_rule, seed, max_steps):
    """One Best-of-k run as a bare double-buffered loop over
    :func:`step_best_of_k` (the single-run loop ``run`` used to own,
    kept as test code).  Returns ``(steps, trajectory, final, winner)``."""
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    current = init.astype(np.uint8, copy=True)
    buffer = np.empty_like(current)
    trajectory = [int(np.count_nonzero(current))]
    steps = 0
    while 0 < trajectory[-1] < n and steps < max_steps:
        buffer = step_best_of_k(
            graph, current, k, rng, tie_rule=tie_rule, out=buffer
        )
        current, buffer = buffer, current
        trajectory.append(int(np.count_nonzero(current)))
        steps += 1
    blue = trajectory[-1]
    winner = None if 0 < blue < n else (BLUE if blue == n else RED)
    return steps, trajectory, current, winner


_REFERENCE_HOSTS = {
    "csr": random_regular(96, 8, seed=3),
    "rook": RookGraph(9),
    "complete": CompleteGraph(120),
    "multipartite": CompleteMultipartiteGraph([20, 30, 45]),
}


@settings(max_examples=60, deadline=None)
@given(
    host=st.sampled_from(sorted(_REFERENCE_HOSTS)),
    k=st.sampled_from([1, 2, 3, 4]),
    tie_rule=st.sampled_from(list(TieRule)),
    start=st.one_of(st.floats(0.0, 0.2), st.sampled_from(["red", "blue"])),
    max_steps=st.sampled_from([1, 2, 50]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_run_equals_the_sequential_loop(
    host, k, tie_rule, start, max_steps, seed
):
    """``run`` is one replica of the engine's dense loop, so it draws
    exactly what the bare loop draws: same steps, trajectory, final row
    and winner, consensus starts included."""
    g = _REFERENCE_HOSTS[host]
    n = g.num_vertices
    if isinstance(start, float):
        init = random_opinions(n, start, rng=seed)
    else:
        init = np.full(n, BLUE if start == "blue" else RED, dtype=np.uint8)
    steps, trajectory, final, winner = sequential_reference_run(
        g, init, k, tie_rule, seed, max_steps
    )
    res = BestOfKDynamics(g, k, tie_rule=tie_rule).run(
        init, seed=seed, max_steps=max_steps
    )
    assert res.steps == steps
    assert res.blue_trajectory.tolist() == trajectory
    assert np.array_equal(res.final_opinions, final)
    assert res.winner == winner
    assert res.converged == (winner is not None)
