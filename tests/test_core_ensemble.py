"""Tests for the batched ensemble engine (DESIGN.md §2.3).

Three equivalence claims are load-bearing and covered here:

1. the batched dense path is distributionally equivalent to the
   sequential per-trial loop (win rates, consensus-time distributions);
2. the ``K_n`` count-chain fast path is distributionally equivalent to
   the batched dense path (it is *exact*, not an approximation);
3. absorbed-replica compaction preserves per-replica trajectories and
   bookkeeping (steps/winners stay aligned with replica indices).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamics import TieRule, step_best_of_k
from repro.core.ensemble import (
    EnsembleResult,
    build_initial_matrix,
    majority_win_probability,
    run_ensemble,
    step_best_of_k_batch,
)
from repro.core.opinions import BLUE, RED, exact_count_opinions, random_opinions
from repro.graphs.generators import erdos_renyi
from repro.core.protocols import Plurality
from repro.graphs.implicit import (
    CompleteBipartiteGraph,
    CompleteGraph,
    CompleteMultipartiteGraph,
    RookGraph,
)
from repro.util.rng import spawn_generators


def _reference_step(graph, opinions, k, rng, tie_rule=TieRule.KEEP_SELF):
    """Independent per-trial Best-of-k round: the body ``step_best_of_k``
    had before it became one row of the batched round (per-vertex sample
    matrix, fancy-index gather, int64 row sum), kept here so the batched
    round is checked against code it does not share."""
    samples = graph.sample_neighbors(graph.vertex_ids, k, rng)
    blue_votes = opinions[samples].sum(axis=1, dtype=np.int64)
    twice = blue_votes * 2
    out = (twice > k).astype(np.uint8)
    if k % 2 == 0:
        tied = twice == k
        if tie_rule is TieRule.KEEP_SELF:
            out[tied] = opinions[tied]
        else:
            n_tied = int(np.count_nonzero(tied))
            if n_tied:
                out[tied] = (rng.random(n_tied) < 0.5).astype(np.uint8)
    return out


def _reference_run(graph, init, k, rng, max_steps=10_000):
    """``(steps, winner)`` of a per-trial loop of :func:`_reference_step`."""
    n = graph.num_vertices
    x = init.astype(np.uint8)
    steps = 0
    while 0 < np.count_nonzero(x) < n and steps < max_steps:
        x = _reference_step(graph, x, k, rng)
        steps += 1
    return steps, int(x[0]) if np.all(x == x[0]) else None


class TestMajorityWinProbability:
    def test_k3_closed_form(self):
        p = np.linspace(0.0, 1.0, 21)
        expected = 3 * p**2 - 2 * p**3
        assert np.allclose(majority_win_probability(p, 3), expected)

    def test_k1_identity(self):
        p = np.linspace(0.0, 1.0, 11)
        assert np.allclose(majority_win_probability(p, 1), p)

    def test_k2_tie_rules(self):
        p = np.array([0.3])
        # strict majority = p^2; tie prob = 2p(1-p)
        strict = p**2
        tie = 2 * p * (1 - p)
        blue_keep = majority_win_probability(
            p, 2, tie_rule=TieRule.KEEP_SELF, own=BLUE
        )
        red_keep = majority_win_probability(
            p, 2, tie_rule=TieRule.KEEP_SELF, own=RED
        )
        rand = majority_win_probability(p, 2, tie_rule=TieRule.RANDOM)
        assert np.allclose(blue_keep, strict + tie)
        assert np.allclose(red_keep, strict)
        assert np.allclose(rand, strict + 0.5 * tie)

    def test_k2_keep_self_needs_own(self):
        with pytest.raises(ValueError, match="own"):
            majority_win_probability(0.5, 2, tie_rule=TieRule.KEEP_SELF)

    def test_scalar_input(self):
        out = majority_win_probability(0.5, 3)
        assert out.shape == ()
        assert np.isclose(float(out), 0.5)


def count_chain_step(blue_counts, n, k, rng):
    """One ``K_n`` count-chain round over a replica axis of blue counts."""
    B = np.asarray(blue_counts, dtype=np.int64)
    return CompleteGraph(n).count_chain_kernel().step(B[:, None], k, rng)[:, 0]


class TestCountChainStep:
    def test_absorbing_states_fixed(self):
        rng = np.random.default_rng(0)
        n = 100
        B = np.array([0, n], dtype=np.int64)
        out = count_chain_step(B, n, 3, rng)
        assert out[0] == 0 and out[1] == n

    def test_drift_matches_recursion(self):
        """E[B'/n] tracks 3b^2-2b^3 up to the O(1/n) self-exclusion shift."""
        rng = np.random.default_rng(1)
        n = 10_000
        b = 0.4
        B = np.full(2000, int(b * n), dtype=np.int64)
        out = count_chain_step(B, n, 3, rng)
        ideal = 3 * b**2 - 2 * b**3
        assert abs(out.mean() / n - ideal) < 4e-3

    def test_output_in_range(self):
        rng = np.random.default_rng(2)
        n = 50
        B = rng.integers(0, n + 1, size=100)
        out = count_chain_step(B, n, 3, rng)
        assert out.min() >= 0 and out.max() <= n


class TestBatchedSampling:
    def test_complete_graph_no_self_and_dtype(self):
        g = CompleteGraph(1000)
        rng = np.random.default_rng(3)
        s = g.sample_neighbors_batch(g.vertex_ids, 3, rng, 4)
        assert s.shape == (4, 1000, 3)
        assert s.dtype == np.int32
        assert (s != g.vertex_ids[None, :, None]).all()
        assert s.min() >= 0 and s.max() < 1000

    def test_csr_samples_are_neighbors(self):
        g = erdos_renyi(200, 0.1, seed=4)
        rng = np.random.default_rng(5)
        s = g.sample_neighbors_batch(g.vertex_ids, 3, rng, 3)
        neigh = [set(g.neighbors(v).tolist()) for v in range(200)]
        for r in range(3):
            for v in range(0, 200, 17):
                assert set(s[r, v].tolist()) <= neigh[v]

    def test_generic_fallback_shape(self):
        # K_{a,b} has no batch override: the base class's tiled path.
        g = CompleteBipartiteGraph(24, 40)
        rng = np.random.default_rng(6)
        s = g.sample_neighbors_batch(g.vertex_ids, 2, rng, 5)
        assert s.shape == (5, 64, 2)

    def test_replicas_validated(self):
        g = CompleteGraph(10)
        with pytest.raises(ValueError, match="replicas"):
            g.sample_neighbors_batch(g.vertex_ids, 3, np.random.default_rng(0), 0)


class TestBatchedStep:
    def test_matches_sequential_drift(self):
        """One batched round has the same drift as R sequential rounds."""
        n, reps = 2000, 40
        g = CompleteGraph(n)
        init = exact_count_opinions(n, 800, rng=7)
        rng = np.random.default_rng(8)
        batch = np.broadcast_to(init, (reps, n)).copy()
        out = step_best_of_k_batch(g, batch, 3, rng)
        seq_means = [
            _reference_step(g, init, 3, rng).mean() for _ in range(reps)
        ]
        se = np.std(seq_means) / np.sqrt(reps)
        assert abs(out.mean() - np.mean(seq_means)) <= 5 * se + 1e-3

    @pytest.mark.parametrize("tie_rule", list(TieRule))
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "graph",
        [RookGraph(8), CompleteBipartiteGraph(9, 14), erdos_renyi(70, 0.2, seed=3)],
        ids=["rook", "bipartite", "er"],
    )
    def test_single_replica_round_equals_reference(self, graph, k, tie_rule):
        """The per-trial round, an R = 1 batch, gives the reference bytes."""
        x = random_opinions(graph.num_vertices, 0.0, rng=k)
        got = step_best_of_k(
            graph, x, k, np.random.default_rng(5), tie_rule=tie_rule
        )
        want = _reference_step(graph, x, k, np.random.default_rng(5), tie_rule)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)

    def test_chunked_equals_unchunked_semantics(self):
        """Tiny chunks must still produce valid synchronous updates."""
        n = 256
        g = CompleteGraph(n)
        batch = np.stack(
            [random_opinions(n, 0.1, rng=i) for i in range(6)]
        )
        rng = np.random.default_rng(9)
        out = step_best_of_k_batch(g, batch, 3, rng, max_batch_bytes=1)
        assert out.shape == batch.shape
        assert set(np.unique(out)) <= {0, 1}

    @pytest.mark.parametrize("k", [1, 3, 17, 301])
    def test_votes_count_every_sample(self, k):
        """The round is the strict majority of the ``k`` gathered samples."""
        g = RookGraph(8)
        batch = np.stack([random_opinions(64, 0.0, rng=i) for i in range(3)])
        out = step_best_of_k_batch(g, batch, k, np.random.default_rng(12))
        samples = g.sample_neighbors_batch(
            g.vertex_ids, k, np.random.default_rng(12), 3
        )
        votes = np.stack([batch[r][samples[r]] for r in range(3)])
        want = votes.sum(axis=2, dtype=np.int64) > k // 2
        np.testing.assert_array_equal(out, want.astype(np.uint8))

    def test_out_aliasing_rejected(self):
        g = CompleteGraph(64)
        batch = np.zeros((2, 64), dtype=np.uint8)
        with pytest.raises(ValueError, match="alias"):
            step_best_of_k_batch(
                g, batch, 3, np.random.default_rng(0), out=batch
            )

    def test_even_k_keep_self_absorbing(self):
        """All-red stays all-red under k=2 KEEP_SELF (ties keep own)."""
        g = CompleteGraph(128)
        batch = np.zeros((3, 128), dtype=np.uint8)
        out = step_best_of_k_batch(
            g, batch, 2, np.random.default_rng(10), tie_rule=TieRule.KEEP_SELF
        )
        assert not out.any()


class TestEngineEquivalence:
    def test_batched_matches_sequential_loop(self):
        """Win rate and consensus-time distribution match the old loop."""
        n, trials = 1024, 60
        g = RookGraph(32)  # dense non-complete host -> batched path
        ens = run_ensemble(
            g, replicas=trials, delta=0.12, seed=11, record_trajectories=False
        )
        assert ens.method == "batched"
        gens = spawn_generators(12, 2 * trials)
        seq_steps, seq_red = [], 0
        for i in range(trials):
            init = random_opinions(n, 0.12, rng=gens[2 * i])
            steps, winner = _reference_run(g, init, 3, gens[2 * i + 1])
            seq_steps.append(steps)
            seq_red += int(winner == RED)
        assert ens.converged_count == trials
        assert ens.red_wins == seq_red == trials
        # Consensus-time distributions: means within joint standard error.
        a, b = ens.converged_steps.astype(float), np.asarray(seq_steps, float)
        se = np.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) <= 4 * se + 0.5

    def test_count_chain_matches_dense(self):
        """The K_n fast path reproduces the dense path's distributions."""
        n, trials = 1024, 80
        g = CompleteGraph(n)
        chain = run_ensemble(
            g, replicas=trials, delta=0.1, seed=13, record_trajectories=False
        )
        dense = run_ensemble(
            g, replicas=trials, delta=0.1, seed=14,
            record_trajectories=False, method="batched",
        )
        assert chain.method == "count_chain"
        assert dense.method == "batched"
        assert chain.red_wins == dense.red_wins == trials
        a = chain.converged_steps.astype(float)
        b = dense.converged_steps.astype(float)
        se = np.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) <= 4 * se + 0.5
        # Spread matches too (both are the same Markov chain).
        assert abs(a.std() - b.std()) <= 1.0

    def test_count_chain_small_bias_matches_win_rate(self):
        """Near-symmetric start: win rates agree between the two paths."""
        n, trials = 256, 150
        g = CompleteGraph(n)
        chain = run_ensemble(
            g, replicas=trials, delta=0.02, seed=15, record_trajectories=False
        )
        dense = run_ensemble(
            g, replicas=trials, delta=0.02, seed=16,
            record_trajectories=False, method="batched",
        )
        rate_a = chain.red_wins / trials
        rate_b = dense.red_wins / trials
        se = np.sqrt(rate_a * (1 - rate_a) / trials + rate_b * (1 - rate_b) / trials)
        assert abs(rate_a - rate_b) <= 4 * se + 0.02


class TestCompaction:
    def test_trajectories_preserved_across_absorption(self):
        """Replica bookkeeping survives compaction: each trajectory starts
        at its replica's initial count, ends absorbed, and its length
        matches the recorded steps."""
        n, trials = 512, 30
        g = CompleteGraph(n)
        ens = run_ensemble(
            g, replicas=trials, delta=0.15, seed=17,
            record_trajectories=True, method="batched", keep_final=True,
        )
        assert ens.converged.all()
        for i in range(trials):
            traj = ens.blue_trajectories[i]
            assert traj.size == ens.steps[i] + 1
            assert traj[-1] in (0, n)
            winner = BLUE if traj[-1] == n else RED
            assert ens.winners[i] == winner
            assert ens.final_opinions[i].sum() == traj[-1]
            # interior points are strictly unabsorbed (the run stopped at
            # the first absorption, so compaction removed it exactly then)
            assert np.all((traj[:-1] > 0) & (traj[:-1] < n))

    def test_pre_absorbed_replicas(self):
        """Replicas that start at consensus cost zero rounds."""
        n = 128
        g = CompleteGraph(n)
        inits = np.zeros((4, n), dtype=np.uint8)
        inits[1] = 1  # all blue
        inits[2, :40] = 1  # mixed
        ens = run_ensemble(
            g, replicas=4, seed=18, initial_opinions=inits, method="batched"
        )
        assert ens.steps[0] == 0 and ens.winners[0] == RED
        assert ens.steps[1] == 0 and ens.winners[1] == BLUE
        assert ens.steps[2] > 0
        assert ens.blue_trajectories[3].size == 1

    def test_unconverged_budget(self):
        g = CompleteGraph(4096)
        ens = run_ensemble(g, replicas=5, delta=0.01, seed=19, max_steps=1)
        assert ens.unconverged == 5
        assert (ens.steps == 1).all()
        assert (ens.winners == -1).all()


class TestEngineApi:
    def test_auto_routing(self):
        chain = run_ensemble(CompleteGraph(256), replicas=3, delta=0.1, seed=20)
        dense = run_ensemble(RookGraph(16), replicas=3, delta=0.1, seed=20)
        assert chain.method == "count_chain"
        assert dense.method == "batched"

    def test_keep_final_forces_dense(self):
        ens = run_ensemble(
            CompleteGraph(256), replicas=3, delta=0.1, seed=21,
            keep_final=True, method="auto",
        )
        assert ens.method == "batched"
        assert ens.final_opinions.shape == (3, 256)

    def test_count_chain_rejects_non_complete(self):
        with pytest.raises(ValueError, match="CompleteGraph"):
            run_ensemble(
                RookGraph(8), replicas=2, delta=0.1, method="count_chain"
            )

    def test_count_chain_rejects_keep_final(self):
        with pytest.raises(ValueError, match="keep_final"):
            run_ensemble(
                CompleteGraph(64), replicas=2, delta=0.1,
                method="count_chain", keep_final=True,
            )

    def test_exactly_one_init_source(self):
        g = CompleteGraph(64)
        with pytest.raises(ValueError, match="exactly one"):
            run_ensemble(g, replicas=2)
        with pytest.raises(ValueError, match="exactly one"):
            run_ensemble(g, replicas=2, delta=0.1, initial_blue_counts=5)

    @pytest.mark.parametrize("shape", [(63,), (2, 64), (3, 63)])
    @pytest.mark.parametrize("method", ["batched", "count_chain"])
    def test_bad_initial_opinions_shape(self, method, shape):
        # Both paths raise the library's own message, not numpy's
        # broadcast error.
        with pytest.raises(ValueError, match="initial_opinions must have shape"):
            run_ensemble(
                CompleteGraph(64), replicas=3, method=method,
                initial_opinions=np.zeros(shape, dtype=np.uint8),
            )

    @pytest.mark.parametrize("method", ["batched", "count_chain"])
    @pytest.mark.parametrize("bad", [2, -1, 256])
    def test_explicit_opinions_outside_the_colours_rejected(self, method, bad):
        # 2 used to run on the dense path with totals stuck at 5; -1 and
        # 256 would wrap into valid uint8 codes.
        with pytest.raises(ValueError, match=r"must be 0 \(red\) or 1 \(blue\)"):
            run_ensemble(
                CompleteMultipartiteGraph([5, 5]), replicas=2, method=method,
                initial_opinions=[bad] * 5 + [0] * 5, max_steps=5,
            )

    @pytest.mark.parametrize("method", ["batched", "count_chain"])
    def test_initializer_rows_outside_the_colours_rejected(self, method):
        # Colour 2 used to count as blue on the dense path, which then
        # reported consensus.
        with pytest.raises(ValueError, match=r"must be 0 \(red\) or 1 \(blue\)"):
            run_ensemble(
                CompleteGraph(10), replicas=2, method=method, max_steps=5,
                initializer=lambda n, g: g.integers(0, 3, n),
            )

    def test_build_initial_matrix_rejects_codes_its_dtype_would_wrap(self):
        # 256 used to become a valid 0 in the uint8 matrix.
        with pytest.raises(ValueError, match=r"opinion codes in \[0, 256\)"):
            build_initial_matrix(
                4, 1, seed=0, initializer=lambda n, g: np.full(n, 256)
            )
        wide = build_initial_matrix(
            4, 1, seed=0, initializer=lambda n, g: np.full(n, 256),
            dtype=np.int64,
        )
        np.testing.assert_array_equal(wide, [[256] * 4])

    def test_plurality_start_uses_its_own_colours(self):
        ens = run_ensemble(
            CompleteGraph(30), replicas=3, protocol=Plurality(3), seed=4,
            initializer=lambda n, g: g.integers(0, 3, n), max_steps=200,
        )
        assert ens.converged.all()
        assert set(ens.winners.tolist()) <= {0, 1, 2}

    def test_plurality_start_outside_its_colours_rejected(self):
        with pytest.raises(ValueError, match=r"opinion codes in \[0, 3\)"):
            run_ensemble(
                CompleteGraph(30), replicas=3, protocol=Plurality(3),
                initial_opinions=np.arange(30) % 4,
            )

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_ensemble(
                CompleteGraph(64), replicas=2, delta=0.1, method="magic"
            )

    def test_deterministic_given_seed(self):
        g = CompleteGraph(512)
        a = run_ensemble(g, replicas=8, delta=0.1, seed=22)
        b = run_ensemble(g, replicas=8, delta=0.1, seed=22)
        assert np.array_equal(a.steps, b.steps)
        assert np.array_equal(a.winners, b.winners)

    def test_initial_blue_counts_scalar_and_array(self):
        g = CompleteGraph(128)
        a = run_ensemble(g, replicas=3, initial_blue_counts=40, seed=23)
        assert (np.array([t[0] for t in a.blue_trajectories]) == 40).all()
        b = run_ensemble(
            g, replicas=3, initial_blue_counts=np.array([0, 64, 128]), seed=24
        )
        assert b.steps[0] == 0 and b.winners[0] == RED
        assert b.winners[2] == BLUE

    def test_initializer_called_per_replica(self):
        calls = []

        def init(n, rng):
            calls.append(n)
            return np.zeros(n, dtype=np.uint8)

        ens = run_ensemble(
            CompleteGraph(64), replicas=4, initializer=init, seed=25
        )
        assert len(calls) == 4
        assert (ens.winners == RED).all()

    def test_fraction_matrix_requires_trajectories(self):
        ens = run_ensemble(
            CompleteGraph(64), replicas=2, delta=0.1, seed=26,
            record_trajectories=False,
        )
        with pytest.raises(ValueError, match="record_trajectories"):
            ens.fraction_matrix(5)

    def test_fraction_matrix_padding(self):
        ens = run_ensemble(CompleteGraph(256), replicas=5, delta=0.2, seed=27)
        m = ens.fraction_matrix(40)
        assert m.shape == (5, 41)
        assert np.all(np.isin(m[:, -1], [0.0, 1.0]))
