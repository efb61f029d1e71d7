"""Tests for implicit dense families.

The central contract: an implicit host's sampling distribution must match
the explicit CSR materialisation's *exactly* (same support, uniform).  We
check support inclusion deterministically and uniformity statistically.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.graphs.implicit import (
    CompleteBipartiteGraph,
    CompleteGraph,
    CompleteMultipartiteGraph,
    RookGraph,
)


def _support_check(graph, rng, draws=200):
    """All samples of every vertex must be CSR-neighbours of it."""
    csr = graph.to_csr()
    n = graph.num_vertices
    vertices = np.arange(n, dtype=np.int64)
    out = graph.sample_neighbors(vertices, draws, rng)
    for v in range(n):
        nbrs = set(int(w) for w in csr.neighbors(v))
        got = set(int(x) for x in out[v])
        assert got <= nbrs, f"vertex {v}: sampled {got - nbrs} outside neighbourhood"


def _uniformity_check(graph, vertex, rng, draws=6000):
    """Chi-squared uniformity of single-vertex draws over its CSR row."""
    csr = graph.to_csr()
    nbrs = np.sort(csr.neighbors(vertex))
    out = graph.sample_neighbors(np.full(draws, vertex, dtype=np.int64), 1, rng)
    counts = np.array([(out[:, 0] == w).sum() for w in nbrs])
    _, p = stats.chisquare(counts)
    assert p > 1e-4, f"vertex {vertex}: non-uniform draw frequencies (p={p})"


class TestCompleteGraph:
    def test_basic_properties(self):
        g = CompleteGraph(10)
        assert g.num_vertices == 10
        assert g.num_edges == 45
        assert g.min_degree == 9
        assert g.alpha == pytest.approx(np.log(9) / np.log(10))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError, match="n >= 2"):
            CompleteGraph(1)

    def test_never_samples_self(self, rng):
        g = CompleteGraph(50)
        vertices = np.arange(50, dtype=np.int64)
        out = g.sample_neighbors(vertices, 40, rng)
        assert not np.any(out == vertices[:, None])

    def test_support(self, rng):
        _support_check(CompleteGraph(8), rng)

    def test_uniformity(self, rng):
        _uniformity_check(CompleteGraph(9), 4, rng)

    def test_materialisation_cap(self):
        with pytest.raises(ValueError, match="refusing"):
            CompleteGraph(5000).to_csr()

    def test_csr_matches(self):
        csr = CompleteGraph(6).to_csr()
        assert csr.num_edges == 15
        assert np.array_equal(csr.degrees, np.full(6, 5))


class TestCompleteBipartite:
    def test_degrees(self):
        g = CompleteBipartiteGraph(3, 7)
        assert np.array_equal(g.degrees[:3], [7, 7, 7])
        assert np.array_equal(g.degrees[3:], [3] * 7)
        assert g.num_edges == 21

    def test_sides_respected(self, rng):
        g = CompleteBipartiteGraph(4, 6)
        left = g.sample_neighbors(np.arange(4, dtype=np.int64), 30, rng)
        right = g.sample_neighbors(np.arange(4, 10, dtype=np.int64), 30, rng)
        assert (left >= 4).all() and (left < 10).all()
        assert (right < 4).all()

    def test_support(self, rng):
        _support_check(CompleteBipartiteGraph(3, 4), rng)

    def test_uniformity(self, rng):
        _uniformity_check(CompleteBipartiteGraph(5, 8), 2, rng)

    def test_part_sizes(self):
        assert CompleteBipartiteGraph(2, 9).part_sizes == (2, 9)


class TestCompleteMultipartite:
    def test_degrees(self):
        g = CompleteMultipartiteGraph([2, 3, 5])
        assert g.num_vertices == 10
        assert np.array_equal(g.degrees[:2], [8, 8])
        assert np.array_equal(g.degrees[2:5], [7, 7, 7])
        assert np.array_equal(g.degrees[5:], [5] * 5)

    def test_never_samples_own_part(self, rng):
        g = CompleteMultipartiteGraph([4, 4, 4])
        out = g.sample_neighbors(np.arange(12, dtype=np.int64), 50, rng)
        part = np.repeat([0, 1, 2], 4)
        for v in range(12):
            assert not np.any(part[out[v]] == part[v])

    def test_support(self, rng):
        _support_check(CompleteMultipartiteGraph([2, 3, 4]), rng)

    def test_uniformity(self, rng):
        _uniformity_check(CompleteMultipartiteGraph([3, 3, 3]), 1, rng)

    def test_single_part_rejected(self):
        with pytest.raises(ValueError, match="two parts"):
            CompleteMultipartiteGraph([5])

    def test_zero_size_part_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            CompleteMultipartiteGraph([3, 0])

    def test_two_parts_equals_bipartite(self, rng):
        multi = CompleteMultipartiteGraph([3, 4])
        bi = CompleteBipartiteGraph(3, 4)
        assert np.array_equal(multi.degrees, bi.degrees)
        assert multi.to_csr().num_edges == bi.to_csr().num_edges


class TestRookGraph:
    def test_regularity(self):
        g = RookGraph(5)
        assert g.num_vertices == 25
        assert (g.degrees == 8).all()
        assert g.num_edges == 100

    def test_samples_share_row_or_column(self, rng):
        m = 6
        g = RookGraph(m)
        vertices = np.arange(m * m, dtype=np.int64)
        out = g.sample_neighbors(vertices, 30, rng)
        row, col = vertices // m, vertices % m
        orow, ocol = out // m, out % m
        same_row = orow == row[:, None]
        same_col = ocol == col[:, None]
        assert np.all(same_row | same_col)
        assert not np.any(same_row & same_col)  # never self

    def test_support(self, rng):
        _support_check(RookGraph(4), rng)

    def test_uniformity(self, rng):
        _uniformity_check(RookGraph(4), 5, rng)

    def test_alpha_near_half(self):
        # d = 2(m-1) ~ 2 sqrt(n): alpha = 1/2 + log(2)/log(n) + o(1).
        g = RookGraph(64)
        assert 0.5 < g.alpha < 0.62
        assert RookGraph(256).alpha < g.alpha  # decreasing toward 1/2

    def test_board_too_small(self):
        with pytest.raises(ValueError, match="m >= 2"):
            RookGraph(1)


def _rook_vertex_sets(m):
    n = m * m
    rng = np.random.default_rng(m)
    return {
        "all": np.arange(n),
        # repeated and unsorted ids, both ends of the board included
        "subset": np.concatenate(
            [[n - 1, 0, n - 1], rng.integers(0, n, size=11), [0]]
        ),
    }


def _rook_reference(m, vertices, k, rng, replicas):
    """The generic tiled path with the original int64 ``np.where`` mapping.

    Written out here because ``Graph.sample_neighbors_batch`` would call
    back into ``RookGraph.sample_neighbors``, i.e. the code under test.
    """
    flat = np.tile(np.asarray(vertices, dtype=np.int64), replicas)
    row, col = flat // m, flat % m
    draws = rng.integers(0, 2 * (m - 1), size=(flat.size, k), dtype=np.int64)
    new_col = draws + (draws >= col[:, None])
    new_row = draws - (m - 1)
    new_row = new_row + (new_row >= row[:, None])
    out = np.where(
        draws < (m - 1), row[:, None] * m + new_col, new_row * m + col[:, None]
    )
    return out.reshape(replicas, len(vertices), k)


class TestRookBatchSampler:
    """The rook override against the generic tiled int64 path."""

    @pytest.mark.parametrize("m", [2, 3, 5, 14, 128])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("replicas", [1, 4])
    def test_bytes_equal_generic_path(self, m, k, replicas):
        g = RookGraph(m)
        for vertices in _rook_vertex_sets(m).values():
            got = g.sample_neighbors_batch(
                vertices, k, np.random.default_rng(9), replicas
            )
            want = _rook_reference(
                m, vertices, k, np.random.default_rng(9), replicas
            )
            assert got.dtype == np.int32
            assert got.shape == (replicas, vertices.size, k)
            np.testing.assert_array_equal(got, want)

    def test_single_sample_call_is_batch_slice(self):
        g = RookGraph(7)
        vertices = _rook_vertex_sets(7)["subset"]
        one = g.sample_neighbors(vertices, 3, np.random.default_rng(4))
        batch = g.sample_neighbors_batch(vertices, 3, np.random.default_rng(4), 1)
        assert one.dtype == np.int64
        np.testing.assert_array_equal(one, batch[0])

    def test_widest_int32_board(self):
        g = RookGraph(46340)  # widest int32 board: n = 46340**2 < 2**31
        n = g.num_vertices
        assert g.index_dtype == np.int32
        vertices = np.array([0, n - 1, 46339, n - 46340, 12_345_678])
        got = g.sample_neighbors_batch(vertices, 50, np.random.default_rng(3), 3)
        want = _rook_reference(
            g.board_size, vertices, 50, np.random.default_rng(3), 3
        )
        np.testing.assert_array_equal(got, want)

    def test_int64_fallback_past_int32_ids(self):
        g = RookGraph(46341)  # n = 46341**2 >= 2**31
        n = g.num_vertices
        assert n >= 2**31 and g.index_dtype == np.int64
        vertices = np.array([0, n - 1])
        got = g.sample_neighbors_batch(vertices, 3, np.random.default_rng(2), 4)
        want = _rook_reference(
            g.board_size, vertices, 3, np.random.default_rng(2), 4
        )
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        m = g.board_size
        row, col = got // m, got % m
        same_row = row == (vertices // m)[None, :, None]
        same_col = col == (vertices % m)[None, :, None]
        assert np.all(same_row ^ same_col)

    def test_empty_vertices_and_validation(self):
        g = RookGraph(4)
        rng = np.random.default_rng(0)
        empty = g.sample_neighbors_batch(np.array([], int), 3, rng, 2)
        assert empty.shape == (2, 0, 3)
        with pytest.raises(ValueError, match="replicas"):
            g.sample_neighbors_batch(g.vertex_ids, 3, rng, 0)
        with pytest.raises(ValueError, match="k must be"):
            g.sample_neighbors_batch(g.vertex_ids, 0, rng, 1)
        with pytest.raises(ValueError, match="vertex ids"):
            g.sample_neighbors_batch(np.array([16]), 3, rng, 1)


@pytest.mark.parametrize(
    "graph",
    [CompleteGraph(10), CompleteBipartiteGraph(4, 6),
     CompleteMultipartiteGraph([3, 3, 4]), RookGraph(4),
     CompleteGraph(5).to_csr()],
    ids=lambda g: type(g).__name__,
)
@pytest.mark.parametrize(
    "ids", [np.array([0.5, 1.9]), np.array([True, False])],
    ids=["float", "bool"],
)
def test_non_integer_vertex_ids_rejected(graph, ids):
    """Float ids used to be truncated and a bool mask read as ids 1/0."""
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="must be integers"):
        graph.sample_neighbors(ids, 3, rng)
    with pytest.raises(ValueError, match="must be integers"):
        graph.sample_neighbors_batch(ids, 3, rng, 2)
    # An empty list has no ids to misread (its default dtype is float).
    assert graph.sample_neighbors(np.array([]), 3, rng).shape == (0, 3)
