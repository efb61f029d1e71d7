"""Tests for the host-graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    erdos_renyi,
    from_networkx,
    powerlaw_degree_graph,
    random_regular,
    ring_lattice,
    star_polluted,
    two_clique_bridge,
)


class TestErdosRenyi:
    def test_edge_count_concentration(self):
        n, p = 300, 0.3
        g = erdos_renyi(n, p, seed=1)
        expected = p * n * (n - 1) / 2
        assert abs(g.num_edges - expected) < 5 * np.sqrt(expected)

    def test_deterministic_given_seed(self):
        a = erdos_renyi(100, 0.2, seed=5)
        b = erdos_renyi(100, 0.2, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_validates_as_simple_graph(self):
        g = erdos_renyi(120, 0.4, seed=2)
        CSRGraph(g.indptr, g.indices)  # re-validate explicitly

    def test_isolated_repair(self):
        # p tiny: isolated vertices certain; repair must keep min degree >= 1.
        g = erdos_renyi(60, 0.02, seed=3)
        assert g.min_degree >= 1

    def test_p_too_small_raises(self):
        with pytest.raises(ValueError, match="too small"):
            erdos_renyi(10, 0.0, seed=4)

    def test_block_boundary_consistency(self):
        # Forcing tiny blocks must not change the sampled distribution law:
        # check basic invariants rather than exact equality.
        g = erdos_renyi(100, 0.3, seed=6, _block_rows=7)
        assert g.num_vertices == 100
        CSRGraph(g.indptr, g.indices)


class TestRandomRegular:
    @pytest.mark.parametrize("n,d", [(50, 3), (100, 10), (64, 16)])
    def test_exactly_regular(self, n, d):
        g = random_regular(n, d, seed=11)
        assert (g.degrees == d).all()

    def test_simple_graph(self):
        g = random_regular(80, 12, seed=12)
        CSRGraph(g.indptr, g.indices)

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError, match="even"):
            random_regular(5, 3)

    def test_d_too_large_rejected(self):
        with pytest.raises(ValueError, match="d must be < n"):
            random_regular(5, 5)

    def test_deterministic(self):
        a = random_regular(60, 6, seed=13)
        b = random_regular(60, 6, seed=13)
        assert np.array_equal(a.indices, b.indices)


class TestPowerlaw:
    def test_degree_bounds(self):
        g = powerlaw_degree_graph(300, gamma=2.5, d_min=4, seed=21)
        assert g.min_degree >= 4
        assert g.max_degree <= int(np.sqrt(300)) + 1  # +1 for parity bump

    def test_simple_graph(self):
        g = powerlaw_degree_graph(200, gamma=2.2, d_min=3, seed=22)
        CSRGraph(g.indptr, g.indices)

    def test_heavy_tail_present(self):
        g = powerlaw_degree_graph(2000, gamma=2.0, d_min=3, seed=23)
        assert g.max_degree >= 3 * g.min_degree

    def test_gamma_validated(self):
        with pytest.raises(ValueError, match="gamma"):
            powerlaw_degree_graph(100, gamma=1.0)

    def test_dmax_validated(self):
        with pytest.raises(ValueError, match="d_max"):
            powerlaw_degree_graph(100, d_min=10, d_max=5)


class TestRingLattice:
    def test_structure(self):
        g = ring_lattice(10, 4)
        assert (g.degrees == 4).all()
        nbrs = set(int(x) for x in g.neighbors(0))
        assert nbrs == {1, 2, 8, 9}

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ring_lattice(10, 3)

    def test_alpha_decays_with_n(self):
        small = ring_lattice(64, 4)
        large = ring_lattice(4096, 4)
        assert large.alpha < small.alpha


class TestTwoCliqueBridge:
    def test_structure(self):
        g = two_clique_bridge(5, bridges=2)
        assert g.num_vertices == 10
        # Each clique contributes C(5,2)=10 edges, plus 2 bridges.
        assert g.num_edges == 22
        assert set(int(x) for x in g.neighbors(0)) == {1, 2, 3, 4, 5}

    def test_bridge_limit(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            two_clique_bridge(3, bridges=4)

    def test_is_connected(self):
        import networkx as nx

        g = two_clique_bridge(6).to_networkx()
        assert nx.is_connected(g)


class TestStarPolluted:
    def test_structure(self):
        g = star_polluted(10, 4)
        assert g.num_vertices == 14
        assert g.min_degree == 1
        # Pendant 0 (vertex 10) hangs off core vertex 0.
        assert set(int(x) for x in g.neighbors(10)) == {0}

    def test_core_degrees(self):
        g = star_polluted(6, 2)
        # Core vertices 0 and 1 have one pendant each: degree 5+1.
        assert g.degrees[0] == 6
        assert g.degrees[5] == 5

    def test_small_core_rejected(self):
        with pytest.raises(ValueError, match=">= 3"):
            star_polluted(2, 1)


def _build_peak(build):
    import tracemalloc

    tracemalloc.start()
    try:
        graph = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return graph, peak


@pytest.mark.parametrize(
    "build",
    [lambda: star_polluted(2048, 256), lambda: two_clique_bridge(1024, bridges=3)],
    ids=["star", "bridge"],
)
def test_clique_hosts_build_in_their_csr_bytes(build):
    """Written row by row: no edge list (~15x the CSR bytes) or sort."""
    graph, peak = _build_peak(build)
    assert graph.indices.dtype == np.int32
    assert peak <= 1.5 * (graph.indptr.nbytes + graph.indices.nbytes)


class TestFromNetworkx:
    def test_petersen(self):
        import networkx as nx

        g = from_networkx(nx.petersen_graph())
        assert g.num_vertices == 10
        assert (g.degrees == 3).all()


class TestIsolatedRepairDedup:
    def test_mutual_isolated_choice_produces_simple_graph(self):
        """Force the corner: isolated vertices that pick each other must
        not create a parallel edge (regression for repair dedup)."""
        from repro.graphs.generators import _repair_isolated

        rng = np.random.default_rng(0)
        # Graph on 4 vertices with one edge (0,1); 2 and 3 isolated.
        base = np.array([[0, 1]], dtype=np.int64)
        for seed in range(200):
            out = _repair_isolated(4, base, np.random.default_rng(seed))
            canon = np.sort(out, axis=1)
            uniq = np.unique(canon, axis=0)
            assert uniq.shape == canon.shape, f"dup edge at seed {seed}"
            g = CSRGraph.from_edges(4, out)  # full validation
            assert g.min_degree >= 1
