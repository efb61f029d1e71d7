"""Tests for repro.graphs.csr: construction, validation, sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph


class TestConstruction:
    def test_from_edges_triangle(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3
        assert np.array_equal(triangle.degrees, [2, 2, 2])

    def test_from_edges_path(self, path4):
        assert path4.num_edges == 3
        assert np.array_equal(np.sort(path4.degrees), [1, 1, 2, 2])

    def test_neighbors_view(self, triangle):
        nbrs = np.sort(triangle.neighbors(0))
        assert np.array_equal(nbrs, [1, 2])

    def test_neighbors_out_of_range(self, triangle):
        with pytest.raises(ValueError, match="out of range"):
            triangle.neighbors(3)

    def test_empty_edges_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            CSRGraph.from_edges(3, np.empty((0, 2), dtype=np.int64))

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
            CSRGraph.from_edges(3, np.array([[0, 1, 2]]))

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            CSRGraph.from_edges(3, [(0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            CSRGraph.from_edges(2, [(0, 0), (0, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CSRGraph.from_edges(2, [(0, 1), (1, 0)])

    # An id >= n is rejected before bincount would size its counters by
    # it, and before the int32 partner array would wrap 2**40 + 2 to 2.
    @pytest.mark.parametrize("bad", [3, 2**40, 2**40 + 2, -1])
    def test_out_of_range_id_rejected_before_counting(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \[0, 3\)"):
            CSRGraph.from_edges(3, np.array([[0, 1], [1, bad]]), validate=False)

    def test_non_integer_ids_rejected(self):
        with pytest.raises(TypeError, match="integers"):
            CSRGraph.from_edges(3, np.array([[0.0, 1.0], [1.0, 2.0]]))

    def test_from_edges_builds_narrow_without_int64_copies(self):
        import tracemalloc

        from repro.graphs.generators import random_regular

        g = random_regular(2048, 64, seed=0)
        src = np.repeat(np.arange(2048), g.degrees)
        upper = src < g.indices
        pairs = np.stack([src[upper], g.indices[upper].astype(np.int64)], axis=1)
        tracemalloc.start()
        try:
            rebuilt = CSRGraph.from_edges(2048, pairs, validate=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rebuilt.indices.dtype == np.int32
        np.testing.assert_array_equal(rebuilt.indptr, g.indptr)
        # Concatenating int64 src/dst and gathering int64 partners
        # peaked at 72.8 bytes per edge (4.77 MB here); the narrow
        # build holds a uint16 key, the intp order and two int32
        # partner arrays.
        assert peak <= 0.6 * 4.77e6
        assert peak <= 0.6 * 72.8 * pairs.shape[0]

    def test_asymmetric_raw_arrays_rejected(self):
        # 0 -> 1 present but 1 -> 0 missing.
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1, 2]), np.array([1, 1]))

    def test_indptr_mismatch_rejected(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph(np.array([0, 1, 3]), np.array([1, 0]))


class TestNetworkxRoundTrip:
    def test_round_trip(self):
        import networkx as nx

        g = nx.petersen_graph()
        csr = CSRGraph.from_networkx(g)
        back = csr.to_networkx()
        assert nx.is_isomorphic(g, back)

    def test_directed_rejected(self):
        import networkx as nx

        with pytest.raises(ValueError, match="undirected"):
            CSRGraph.from_networkx(nx.DiGraph([(0, 1)]))

    def test_string_nodes_relabelled(self):
        import networkx as nx

        g = nx.Graph([("a", "b"), ("b", "c")])
        csr = CSRGraph.from_networkx(g)
        assert csr.num_vertices == 3
        assert csr.num_edges == 2


class TestSampling:
    def test_shape(self, triangle, rng):
        out = triangle.sample_neighbors(np.array([0, 1, 2]), 3, rng)
        assert out.shape == (3, 3)

    def test_samples_are_neighbors(self, path4, rng):
        vertices = np.array([0, 1, 2, 3, 1, 2])
        out = path4.sample_neighbors(vertices, 5, rng)
        for row, v in enumerate(vertices):
            nbrs = set(int(w) for w in path4.neighbors(int(v)))
            assert set(int(x) for x in out[row]) <= nbrs

    def test_degree_one_always_same(self, path4, rng):
        out = path4.sample_neighbors(np.array([0]), 10, rng)
        assert (out == 1).all()

    def test_uniformity_chi_squared(self, k5, rng):
        # Vertex 0 of K5 has neighbours {1,2,3,4}; check draw frequencies.
        from scipy import stats

        out = k5.sample_neighbors(np.zeros(4000, dtype=np.int64), 1, rng)
        counts = np.bincount(out[:, 0], minlength=5)[1:]
        _, p = stats.chisquare(counts)
        assert p > 1e-4

    def test_k_zero_rejected(self, triangle, rng):
        with pytest.raises(ValueError, match="k must be >= 1"):
            triangle.sample_neighbors(np.array([0]), 0, rng)

    def test_vertex_out_of_range_rejected(self, triangle, rng):
        with pytest.raises(ValueError, match="vertex ids"):
            triangle.sample_neighbors(np.array([5]), 1, rng)

    def test_2d_vertices_rejected(self, triangle, rng):
        with pytest.raises(ValueError, match="1-D"):
            triangle.sample_neighbors(np.zeros((2, 2), dtype=np.int64), 1, rng)

    def test_empty_vertices_ok(self, triangle, rng):
        out = triangle.sample_neighbors(np.array([], dtype=np.int64), 3, rng)
        assert out.shape == (0, 3)


class TestDerivedProperties:
    def test_degree_volume_full(self, triangle):
        assert triangle.degree_volume() == 6

    def test_degree_volume_mask(self, path4):
        mask = np.array([True, False, False, True])
        assert path4.degree_volume(mask) == 2

    def test_degree_volume_indices(self, path4):
        assert path4.degree_volume(np.array([1, 2])) == 4

    def test_degree_volume_bad_mask_shape(self, path4):
        with pytest.raises(ValueError, match="boolean mask"):
            path4.degree_volume(np.array([True, False]))

    def test_alpha(self, k5):
        # K5: d = 4, n = 5 -> alpha = log4/log5.
        assert k5.alpha == pytest.approx(np.log(4) / np.log(5))

    def test_adjacency_scipy_symmetric(self, er_medium):
        a = er_medium.adjacency_scipy()
        assert (a != a.T).nnz == 0
        assert a.sum() == 2 * er_medium.num_edges


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_random_graph_construction_invariants(n, seed):
    """Property: any random simple graph round-trips through from_edges
    with consistent degrees and passes full validation."""
    rng = np.random.default_rng(seed)
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not possible:
        return
    keep = rng.random(len(possible)) < 0.6
    edges = [e for e, k in zip(possible, keep) if k]
    deg = np.zeros(n, dtype=int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if not edges or deg.min() == 0:
        return
    g = CSRGraph.from_edges(n, np.array(edges))
    assert g.num_edges == len(edges)
    assert np.array_equal(g.degrees, deg)
    for v in range(n):
        assert np.all(np.diff(np.sort(g.neighbors(v))) > 0)
