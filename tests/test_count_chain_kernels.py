"""Tests for the host-generic count-chain layer (DESIGN.md §2.5).

Load-bearing claims:

1. each kernel's one-round blue-total law is *identical in distribution*
   to the batched dense simulation on its host (``K_n``, a 3-part
   multipartite host, the two-clique bridge) — the chains are exact, not
   approximations (KS over large one-round ensembles);
2. full-run statistics (win rates, consensus-time distributions,
   metastability of adversarial bridge packings) agree between the two
   engine paths — this is also the distribution-equivalence evidence for
   regenerating the bridge rows of ``tests/golden/e12_table.md``;
3. the Gaussian/Poisson regime of ``binomial_draw`` agrees with the
   exact binomial sampler on overlapping ``n`` (KS + fraction
   tolerance), stays exact below its threshold bit-for-bit, and carries
   ``run_ensemble`` to ``n = 10¹⁰``;
4. kernel state bookkeeping (slot projection, hypergeometric count
   splits, absorption, auto-routing) is correct.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core.dynamics import TieRule
from repro.core.kernels import (
    GAUSSIAN_REGIME_THRESHOLD,
    CompleteKernel,
    CountChainKernel,
    MultipartiteKernel,
    TwoCliqueBridgeKernel,
    binomial_draw,
)
from repro.core.ensemble import run_ensemble
from repro.core.meanfield import best_of_k_map_parts
from repro.graphs.generators import two_clique_bridge
from repro.graphs.implicit import (
    CompleteBipartiteGraph,
    CompleteGraph,
    CompleteMultipartiteGraph,
    RookGraph,
)

KS_ALPHA = 1e-3  # deterministic seeds: failures mean real drift, not noise


def _one_round_totals(graph, method, *, replicas, blue0, seed):
    """First-round blue totals of *replicas* ensembles from count blue0."""
    res = run_ensemble(
        graph,
        replicas=replicas,
        initial_blue_counts=blue0,
        seed=seed,
        max_steps=1,
        record_trajectories=True,
        method=method,
    )
    return np.array([traj[-1] for traj in res.blue_trajectories])


class TestOneRoundEquivalence:
    """Kernel vs dense one-round distributions (claim 1)."""

    @pytest.mark.parametrize(
        "graph",
        [
            CompleteGraph(96),
            CompleteMultipartiteGraph([24, 32, 40]),
            two_clique_bridge(48, bridges=2),
        ],
        ids=["K_n", "multipartite", "bridge"],
    )
    def test_blue_total_law_matches_dense(self, graph):
        n = graph.num_vertices
        chain = _one_round_totals(
            graph, "count_chain", replicas=4000, blue0=int(0.4 * n), seed=1
        )
        dense = _one_round_totals(
            graph, "batched", replicas=4000, blue0=int(0.4 * n), seed=2
        )
        assert stats.ks_2samp(chain, dense).pvalue > KS_ALPHA
        # Conditioned moments agree too (tighter than KS on its own).
        assert abs(chain.mean() - dense.mean()) < 4 * dense.std() / np.sqrt(
            dense.size
        ) + 1e-9

    @pytest.mark.parametrize("k,tie_rule", [(2, TieRule.KEEP_SELF), (2, TieRule.RANDOM), (4, TieRule.KEEP_SELF)])
    def test_even_k_tie_rules_match_dense(self, k, tie_rule):
        graph = CompleteMultipartiteGraph([40, 40])
        n = graph.num_vertices
        mk = {}
        for method, seed in (("count_chain", 3), ("batched", 4)):
            res = run_ensemble(
                graph,
                replicas=3000,
                k=k,
                tie_rule=tie_rule,
                initial_blue_counts=n // 2,
                seed=seed,
                max_steps=1,
                record_trajectories=True,
                method=method,
            )
            mk[method] = np.array([t[-1] for t in res.blue_trajectories])
        assert (
            stats.ks_2samp(mk["count_chain"], mk["batched"]).pvalue > KS_ALPHA
        )


class TestFullRunEquivalence:
    """Kernel vs dense whole-ensemble statistics (claim 2)."""

    def test_bridge_consensus_statistics(self):
        graph = two_clique_bridge(64)
        chain = run_ensemble(
            graph, replicas=400, delta=0.1, seed=11, max_steps=200,
            record_trajectories=False, method="count_chain",
        )
        dense = run_ensemble(
            graph, replicas=400, delta=0.1, seed=12, max_steps=200,
            record_trajectories=False, method="batched",
        )
        # Convergence and win rates within binomial noise of each other.
        p_pool = (chain.converged_count + dense.converged_count) / 800
        margin = 4 * np.sqrt(2 * p_pool * (1 - p_pool) / 400)
        assert abs(chain.converged_count - dense.converged_count) / 400 <= margin
        assert (
            stats.ks_2samp(
                chain.converged_steps, dense.converged_steps
            ).pvalue
            > KS_ALPHA
        )

    def test_multipartite_consensus_statistics(self):
        graph = CompleteMultipartiteGraph([96, 128, 160])
        chain = run_ensemble(
            graph, replicas=300, delta=0.1, seed=13, max_steps=200,
            record_trajectories=False, method="count_chain",
        )
        dense = run_ensemble(
            graph, replicas=300, delta=0.1, seed=14, max_steps=200,
            record_trajectories=False, method="batched",
        )
        assert chain.converged_count == dense.converged_count == 300
        assert (
            stats.ks_2samp(
                chain.converged_steps, dense.converged_steps
            ).pvalue
            > KS_ALPHA
        )

    def test_bridge_packed_metastability(self):
        """The E12 adversarial packing stalls under the kernel exactly as
        it does under the dense simulation (the golden-regeneration
        justification: same qualitative physics, same statistics)."""
        half = 96
        graph = two_clique_bridge(half)
        n = graph.num_vertices
        packed = np.zeros(n, dtype=np.uint8)
        packed[: int(0.4 * n)] = 1  # all blue in the left clique
        for method in ("count_chain", "batched"):
            res = run_ensemble(
                graph,
                replicas=12,
                initial_opinions=packed,
                seed=15,
                max_steps=300,
                record_trajectories=True,
                method=method,
            )
            assert res.converged_count == 0, method
            # The left clique flips blue, the right stays red: totals sit
            # at ~half for the whole budget.
            finals = np.array([t[-1] for t in res.blue_trajectories])
            assert (np.abs(finals - half) <= half // 8).all(), method

    def test_multipartite_drift_matches_meanfield_map(self):
        """Large-part kernel rounds concentrate on the cross-part map."""
        sizes = np.array([20_000, 30_000, 50_000])
        kernel = MultipartiteKernel(sizes)
        fractions = np.array([0.8, 0.45, 0.3])
        state = np.broadcast_to(
            (sizes * fractions).astype(np.int64), (600, 3)
        ).copy()
        rng = np.random.default_rng(16)
        new = kernel.step(state, 3, rng)
        expected = best_of_k_map_parts(fractions, sizes, 3)
        assert np.allclose(new.mean(axis=0) / sizes, expected, atol=2e-3)


class TestBinomialDraw:
    """The Gaussian/Poisson mega-count regime (claim 3)."""

    def test_below_threshold_is_bit_identical(self):
        counts = np.array([0, 5, 1000, 2**20], dtype=np.int64)
        p = np.array([0.0, 0.3, 0.5, 0.9])
        a = binomial_draw(np.random.default_rng(0), counts, p)
        b = np.random.default_rng(0).binomial(counts, p)
        np.testing.assert_array_equal(a, b)

    def test_gaussian_matches_binomial_on_overlapping_n(self):
        """Forced-Gaussian draws vs exact draws at the same (n, p)."""
        n, p, size = 10**7, 0.37, 4000
        rng = np.random.default_rng(1)
        gauss = binomial_draw(
            rng, np.full(size, n, dtype=np.int64), p, threshold=10**4
        )
        exact = np.random.default_rng(2).binomial(n, p, size=size)
        assert stats.ks_2samp(gauss, exact).pvalue > KS_ALPHA
        # Fractions agree to float tolerance: every draw within the
        # concentration window, means within Monte-Carlo error.
        sd = np.sqrt(n * p * (1 - p))
        assert np.abs(gauss - n * p).max() < 6 * sd
        assert abs(gauss.mean() - exact.mean()) < 5 * sd / np.sqrt(size)

    def test_poisson_low_tail(self):
        n, lam = 10**12, 50.0
        rng = np.random.default_rng(3)
        draws = binomial_draw(
            rng, np.full(5000, n, dtype=np.int64), lam / n, threshold=10**6
        )
        ref = np.random.default_rng(4).poisson(lam, size=5000)
        assert stats.ks_2samp(draws, ref).pvalue > KS_ALPHA

    def test_poisson_high_tail_and_degenerate_p(self):
        n = 10**12
        rng = np.random.default_rng(5)
        hi = binomial_draw(
            rng, np.full(2000, n, dtype=np.int64), 1 - 5e-11, threshold=10**6
        )
        assert ((n - hi) >= 0).all()
        assert abs((n - hi).mean() - 50.0) < 5 * np.sqrt(50.0 / 2000) * 10
        assert (
            binomial_draw(rng, np.array([n]), 0.0, threshold=10**6)[0] == 0
        )
        assert (
            binomial_draw(rng, np.array([n]), 1.0, threshold=10**6)[0] == n
        )

    def test_mixed_regimes_in_one_call(self):
        counts = np.array([10, 10**12, 10**12, 10**12], dtype=np.int64)
        p = np.array([0.5, 1e-11, 0.5, 1 - 1e-11])
        out = binomial_draw(
            np.random.default_rng(6), counts, p, threshold=10**6
        )
        assert out.shape == counts.shape
        assert 0 <= out[0] <= 10
        assert out[1] < 10**3
        assert abs(out[2] - 5 * 10**11) < 10**8
        assert (10**12 - out[3]) < 10**3

    def test_default_threshold_is_int32_boundary(self):
        assert GAUSSIAN_REGIME_THRESHOLD == 2**31 - 1

    def test_mega_n_ensemble_runs(self):
        res = run_ensemble(
            CompleteGraph(10**10), replicas=6, delta=0.1, seed=7,
            record_trajectories=False,
        )
        assert res.method == "count_chain"
        assert res.converged.all()
        assert (res.winners == 0).all()  # RED
        assert res.steps.max() < 30


class TestKernelBookkeeping:
    """Slot projection, count splits, absorption, routing (claim 4)."""

    def test_complete_kernel_matches_legacy_layout(self):
        kernel = CompleteGraph(100).count_chain_kernel()
        assert isinstance(kernel, CompleteKernel)
        assert kernel.num_slots == 1
        ops = np.zeros((3, 100), dtype=np.uint8)
        ops[1, :17] = 1
        ops[2, :] = 1
        np.testing.assert_array_equal(
            kernel.state_from_opinions(ops)[:, 0], [0, 17, 100]
        )

    def test_multipartite_projection_and_split(self):
        kernel = CompleteMultipartiteGraph([3, 4, 5]).count_chain_kernel()
        ops = np.zeros((2, 12), dtype=np.uint8)
        ops[0, [0, 3, 4, 11]] = 1  # 1 in part0, 2 in part1, 1 in part2
        np.testing.assert_array_equal(
            kernel.state_from_opinions(ops), [[1, 2, 1], [0, 0, 0]]
        )
        state = kernel.initial_state(
            500, np.random.SeedSequence(0), blue_counts=7
        )
        assert (state.sum(axis=1) == 7).all()
        assert (state <= np.array([3, 4, 5])).all() and (state >= 0).all()

    def test_bridge_projection_layout(self):
        kernel = two_clique_bridge(5, bridges=2).count_chain_kernel()
        assert isinstance(kernel, TwoCliqueBridgeKernel)
        assert kernel.num_slots == 2 + 4
        ops = np.zeros((1, 10), dtype=np.uint8)
        # left bridge vertices: 0,1; left non-bridge: 2,3,4
        # right bridge vertices: 5,6; right non-bridge: 7,8,9
        ops[0, [0, 2, 3, 6, 9]] = 1
        np.testing.assert_array_equal(
            kernel.state_from_opinions(ops), [[2, 1, 1, 0, 0, 1]]
        )

    @pytest.mark.parametrize(
        "graph",
        [
            CompleteGraph(9),
            CompleteBipartiteGraph(3, 5),
            CompleteMultipartiteGraph([3, 4, 5]),
            two_clique_bridge(6, bridges=1),
            two_clique_bridge(6, bridges=3),
        ],
        ids=["K9", "K3,5", "K3,4,5", "bridge1", "bridge3"],
    )
    def test_layout_matches_host_adjacency(self, graph):
        """The exactness claim attach_count_chain_kernel leaves to its
        caller: every vertex sees, slot by slot, what the layout says."""
        kernel = graph.count_chain_kernel()
        n = graph.num_vertices
        assert kernel.n == n
        slot_of = np.empty(n, dtype=np.int64)
        for i, (start, size) in enumerate(
            zip(kernel.slot_starts, kernel.slot_sizes)
        ):
            slot_of[start : start + size] = i
        csr = graph.to_csr()
        for v in range(n):
            nbrs = csr.indices[csr.indptr[v] : csr.indptr[v + 1]]
            seen = np.bincount(slot_of[nbrs], minlength=kernel.num_slots)
            own = slot_of[v]
            expected = kernel.adjacency[own] * kernel.slot_sizes
            expected[own] -= kernel.self_seen[own]
            np.testing.assert_array_equal(seen, expected, err_msg=f"v={v}")
            assert kernel.degrees[own] == nbrs.size
        ops = (np.random.default_rng(5).random((7, n)) < 0.5).astype(np.uint8)
        sums = np.stack(
            [ops[:, slot_of == i].sum(axis=1) for i in range(kernel.num_slots)],
            axis=1,
        )
        np.testing.assert_array_equal(kernel.state_from_opinions(ops), sums)

    def test_projection_rejects_non_binary_opinions(self):
        ops = np.array([2] * 5 + [0] * 5, dtype=np.uint8)
        for graph in (CompleteGraph(10), CompleteMultipartiteGraph([5, 5])):
            with pytest.raises(ValueError, match=r"0 \(red\) or 1"):
                run_ensemble(graph, replicas=2, initial_opinions=ops, seed=1)

    def test_bridge_count_split_is_uniform_placement(self):
        kernel = TwoCliqueBridgeKernel(6, bridges=1)
        state = kernel.initial_state(
            4000, np.random.SeedSequence(1), blue_counts=5
        )
        assert (state.sum(axis=1) == 5).all()
        # Each bridge endpoint is blue with probability 5/12 under
        # uniform placement of 5 blues on 12 vertices.
        for col in (2, 3):
            rate = state[:, col].mean()
            assert abs(rate - 5 / 12) < 4 * np.sqrt(
                (5 / 12) * (7 / 12) / 4000
            )

    def test_absorbing_totals_stay_absorbed(self):
        for graph in (
            CompleteMultipartiteGraph([8, 8, 8]),
            two_clique_bridge(8),
        ):
            n = graph.num_vertices
            res = run_ensemble(
                graph,
                replicas=3,
                initial_blue_counts=np.array([0, n, 0]),
                seed=8,
                max_steps=50,
            )
            assert res.converged.all()
            assert (res.steps == 0).all()
            np.testing.assert_array_equal(res.winners, [0, 1, 0])

    def test_auto_routing_for_kernel_hosts(self):
        for graph in (
            CompleteBipartiteGraph(32, 48),
            CompleteMultipartiteGraph([16, 16, 32]),
            two_clique_bridge(24),
        ):
            res = run_ensemble(graph, replicas=3, delta=0.1, seed=9)
            assert res.method == "count_chain", type(graph).__name__

    def test_keep_final_and_kernelless_hosts(self):
        res = run_ensemble(
            two_clique_bridge(16), replicas=2, delta=0.1, seed=10,
            keep_final=True,
        )
        assert res.method == "batched"
        assert RookGraph(8).count_chain_kernel() is None
        with pytest.raises(ValueError, match="count-chain kernel"):
            run_ensemble(
                RookGraph(8), replicas=2, delta=0.1, method="count_chain"
            )

    def test_kernel_deterministic_given_seed(self):
        graph = CompleteMultipartiteGraph([32, 32])
        a = run_ensemble(graph, replicas=5, delta=0.1, seed=42)
        b = run_ensemble(graph, replicas=5, delta=0.1, seed=42)
        np.testing.assert_array_equal(a.steps, b.steps)
        np.testing.assert_array_equal(a.winners, b.winners)

    def test_kernel_validation(self):
        with pytest.raises(ValueError, match="two parts"):
            MultipartiteKernel([5])
        with pytest.raises(ValueError, match="bridges"):
            TwoCliqueBridgeKernel(4, bridges=5)
        with pytest.raises(ValueError, match="tile"):
            CountChainKernel([2, 2], [0, 3], 1 - np.eye(2), [0, 0])
        with pytest.raises(ValueError, match=r"\[0, 24\]"):
            CompleteGraph(24).count_chain_kernel().initial_state(
                2, np.random.SeedSequence(0), blue_counts=25
            )

    def test_exact_count_start_beyond_hypergeometric_limit(self):
        """NumPy's hypergeometric split stops below 10^9 vertices."""
        ss = np.random.SeedSequence(0)
        kernel = CompleteMultipartiteGraph(
            [30, 50, 3 * 10**9]
        ).count_chain_kernel()
        with pytest.raises(ValueError, match=r"n < 10\^9.*delta start"):
            kernel.initial_state(40, ss, blue_counts=17)
        assert kernel.initial_state(40, ss, delta=0.1).shape == (40, 3)
        mega = CompleteGraph(10**10).count_chain_kernel()
        with pytest.raises(ValueError, match=r"n < 10\^9"):
            mega.initial_state(3, ss, blue_counts=17, pinned=np.array([5]))
        # The unpinned K_n exact count draws nothing, so it has no limit.
        np.testing.assert_array_equal(
            mega.initial_state(3, ss, blue_counts=17), [[17]] * 3
        )

    def test_implicit_degree_stats_closed_form(self):
        """Mega-n hosts must not materialise O(n) degree arrays."""
        g = CompleteGraph(10**10)
        assert g.min_degree == g.max_degree == 10**10 - 1
        m = CompleteMultipartiteGraph([10**9, 2 * 10**9, 3 * 10**9])
        assert m.min_degree == 3 * 10**9
        assert m.max_degree == 5 * 10**9
        small = CompleteMultipartiteGraph([3, 4, 5])
        np.testing.assert_array_equal(
            small.degrees, 12 - np.array([3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5])
        )
        assert small.num_edges == (12 * 12 - (9 + 16 + 25)) // 2
