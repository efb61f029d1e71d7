"""Byte pins for the flat per-sample passes against the code they replaced.

The CSR and complete samplers, the even-``k`` tie writes of the dense
round, the async sweep's gather and vote count, the CSR host build and
the pairing repair's bad-pair mask were rewritten as flat, mask-free
numpy passes (DESIGN.md §2.10).  Each test here runs the current code
next to a test-local copy of the previous code on the same seeds and
requires equal bytes, equal dtypes and an equally advanced stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dense import step_best_of_k_batch
from repro.core.dynamics import TieRule
from repro.core.opinions import BLUE, OPINION_DTYPE, RED
from repro.core.protocols import AsyncSweepBestOfK
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import _bad_pair_mask, erdos_renyi, random_regular
from repro.graphs.implicit import (
    CompleteBipartiteGraph,
    CompleteGraph,
    CompleteMultipartiteGraph,
    RookGraph,
)

# ----------------------------------------------------------------------
# The previous implementations, copied verbatim into the test
# ----------------------------------------------------------------------


def _old_csr_sample(g, vertices, k, rng, replicas):
    vertices = np.asarray(vertices).astype(np.int64, copy=False)
    pos_dtype = g.indices.dtype
    deg = g.degrees[vertices].astype(np.float64)
    starts = g.indptr[vertices].astype(pos_dtype)
    u = rng.random((replicas, vertices.size, k))
    np.multiply(u, deg[None, :, None], out=u)
    offsets = u.astype(pos_dtype)
    offsets += starts[None, :, None]
    return g.indices[offsets]


def _old_complete_sample(g, vertices, k, rng, replicas):
    vertices = np.asarray(vertices).astype(np.int64, copy=False)
    draws = rng.integers(
        0, g.num_vertices - 1, size=(replicas, vertices.size, k),
        dtype=g.index_dtype,
    )
    draws += draws >= vertices[None, :, None]
    return draws


def _old_step(graph, opinions, k, rng, *, tie_rule, out, max_batch_bytes):
    n = graph.num_vertices
    replicas = opinions.shape[0]
    vertices = graph.vertex_ids
    vote_dtype = np.uint8 if k < 256 else np.int64
    half = k // 2
    chunk = min(max(1, int(max_batch_bytes) // max(n * k * 13, 1)), replicas)
    flat_ops = np.ascontiguousarray(opinions).reshape(-1)
    gathered = np.empty((chunk, n, k), dtype=OPINION_DTYPE)
    votes = np.empty((chunk, n), dtype=vote_dtype)
    for lo in range(0, replicas, chunk):
        hi = min(lo + chunk, replicas)
        rows = hi - lo
        samples = graph.sample_neighbors_batch(vertices, k, rng, rows)
        samples += (np.arange(lo, hi, dtype=np.int32) * n)[:, None, None]
        np.take(flat_ops, samples, out=gathered[:rows])
        np.sum(gathered[:rows], axis=2, out=votes[:rows])
        np.greater(votes[:rows], half, out=out[lo:hi])
        tied = votes[:rows] == half
        if tie_rule is TieRule.KEEP_SELF:
            out[lo:hi][tied] = opinions[lo:hi][tied]
        else:
            n_tied = int(np.count_nonzero(tied))
            if n_tied:
                out[lo:hi][tied] = (rng.random(n_tied) < 0.5).astype(
                    OPINION_DTYPE
                )
    return out


def _old_async_sweep(graph, opinions, k, rng, batch):
    n = graph.num_vertices
    replicas = opinions.shape[0]
    work = opinions.copy()
    flat = work.reshape(-1)
    offsets = np.arange(replicas, dtype=np.int64) * n
    off_col = offsets[:, None]
    done = 0
    while done < n:
        m = min(batch, n - done)
        verts = rng.integers(0, n, size=(replicas, m), dtype=np.int64)
        draws = graph.sample_neighbors(verts.reshape(-1), k, rng)
        idx = draws.astype(np.int64, copy=False) + np.repeat(offsets, m)[
            :, None
        ]
        votes = flat[idx].sum(axis=1, dtype=np.int64)
        targets = (verts + off_col).reshape(-1)
        if k % 2 == 1:
            new_vals = (votes * 2 > k).astype(OPINION_DTYPE)
        else:
            new_vals = np.where(
                votes * 2 > k,
                np.uint8(BLUE),
                np.where(votes * 2 < k, np.uint8(RED), flat[targets]),
            ).astype(OPINION_DTYPE)
        flat[targets] = new_vals
        done += m
    return work


def _old_from_edges(n, edge_arr):
    u, v = edge_arr[:, 0], edge_arr[:, 1]
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst


def _old_bad_pair_mask(pairs):
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    self_loop = lo == hi
    key = lo * (pairs.max() + 2) + hi
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    dup_sorted = np.zeros(pairs.shape[0], dtype=bool)
    dup_sorted[1:] = sorted_key[1:] == sorted_key[:-1]
    dup = np.zeros(pairs.shape[0], dtype=bool)
    dup[order] = dup_sorted
    return self_loop | dup


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

SAMPLED_HOSTS = {
    "rr": lambda: random_regular(60, 8, seed=5),
    # Unequal degrees: the repeated degree operand must line up per vertex.
    "er": lambda: erdos_renyi(80, 0.15, seed=7),
    "complete": lambda: CompleteGraph(40),
}

ALL_HOSTS = {
    **SAMPLED_HOSTS,
    "bipartite": lambda: CompleteBipartiteGraph(12, 20),
    "multipartite": lambda: CompleteMultipartiteGraph([7, 11, 13]),
    "rook": lambda: RookGraph(6),
}

SUBSETS = {
    "repeats": np.array([5, 0, 5, 29, 3, 3, 1, 17, 5], dtype=np.int64),
    "int32_all": np.arange(40, dtype=np.int32)[::-1],
    "empty": np.array([], dtype=np.int64),
}


def _old_sampler(g):
    return _old_complete_sample if isinstance(g, CompleteGraph) else _old_csr_sample


def _assert_same_stream(rng_a, rng_b):
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


# ----------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("replicas", [1, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("subset", sorted(SUBSETS))
@pytest.mark.parametrize("host", sorted(SAMPLED_HOSTS))
def test_sampler_matches_previous_code(host, subset, k, replicas):
    g = SAMPLED_HOSTS[host]()
    vertices = SUBSETS[subset]
    rng_new, rng_old = np.random.default_rng(91), np.random.default_rng(91)
    new = g.sample_neighbors_batch(vertices, k, rng_new, replicas)
    old = _old_sampler(g)(g, vertices, k, rng_old, replicas)
    assert new.shape == (replicas, vertices.size, k)
    assert new.dtype == old.dtype
    np.testing.assert_array_equal(new, old)
    _assert_same_stream(rng_new, rng_old)


# ----------------------------------------------------------------------
# Even-k ties in the dense round
# ----------------------------------------------------------------------


@pytest.mark.parametrize("contiguous_out", [True, False])
@pytest.mark.parametrize("tie_rule", [TieRule.KEEP_SELF, TieRule.RANDOM])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("host", sorted(SAMPLED_HOSTS))
def test_even_k_round_matches_previous_code(host, k, tie_rule, contiguous_out):
    g = SAMPLED_HOSTS[host]()
    n, replicas = g.num_vertices, 7
    max_batch_bytes = 2 * n * k * 13  # two-row chunks: four of them
    assert -(-replicas // 2) >= 3
    x = (np.random.default_rng(5).random((replicas, n)) < 0.5).astype(np.uint8)
    out = (
        np.empty((replicas, n), dtype=np.uint8)
        if contiguous_out
        else np.empty((n, replicas), dtype=np.uint8).T
    )
    rng_new, rng_old = np.random.default_rng(17), np.random.default_rng(17)
    got = step_best_of_k_batch(
        g, x, k, rng_new, tie_rule=tie_rule, out=out,
        max_batch_bytes=max_batch_bytes,
    )
    want = _old_step(
        g, x, k, rng_old, tie_rule=tie_rule,
        out=np.empty((replicas, n), dtype=np.uint8),
        max_batch_bytes=max_batch_bytes,
    )
    assert got is out
    np.testing.assert_array_equal(got, want)
    _assert_same_stream(rng_new, rng_old)


# ----------------------------------------------------------------------
# Async sweep
# ----------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("host", sorted(SAMPLED_HOSTS))
def test_async_sweep_matches_previous_code(host, k):
    g = SAMPLED_HOSTS[host]()
    n, replicas, batch = g.num_vertices, 5, 7
    x = (np.random.default_rng(8).random((replicas, n)) < 0.5).astype(np.uint8)
    proto = AsyncSweepBestOfK(k, batch=batch)
    rng_new, rng_old = np.random.default_rng(23), np.random.default_rng(23)
    new, old = x, x
    for _ in range(3):
        new = proto.step_batch(g, new, rng_new)
        old = _old_async_sweep(g, old, k, rng_old, batch)
        np.testing.assert_array_equal(new, old)
    _assert_same_stream(rng_new, rng_old)
    assert 0 < int(new.sum()) < new.size  # still mixed: votes were counted


# ----------------------------------------------------------------------
# Host builds
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [50, 300, 70_000])
def test_from_edges_matches_previous_code(n):
    # Few distinct sources, so the stable order among equal keys matters.
    rng = np.random.default_rng(n)
    m = 4000
    u = rng.integers(0, min(n, 40), size=m)
    u[:10] = n - 1
    edges = np.stack([u, rng.integers(0, n, size=m)], axis=1)
    g = CSRGraph.from_edges(n, edges, validate=False)
    indptr, indices = _old_from_edges(n, edges)
    np.testing.assert_array_equal(g.indptr, indptr)
    np.testing.assert_array_equal(g.indices, indices)


def test_from_edges_still_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        CSRGraph.from_edges(3, np.array([[0, 1], [1, 5]]), validate=False)
    with pytest.raises(ValueError):
        CSRGraph.from_edges(3, np.array([[0, 1], [1, -1]]), validate=False)


@pytest.mark.parametrize("n", [30, 2000, 70_000])
def test_bad_pair_mask_matches_previous_code(n):
    rng = np.random.default_rng(n)
    stubs = rng.integers(0, n, size=6000)
    stubs[:200] = stubs[200:400]  # many repeated pairs, in both orientations
    stubs[400:600:2] = stubs[401:601:2]  # and self-loops
    pairs = stubs.reshape(-1, 2)
    pairs[150:200] = pairs[150:200, ::-1]
    got = _bad_pair_mask(pairs)
    want = _old_bad_pair_mask(pairs)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, want)
    assert want.sum() > 100


# ----------------------------------------------------------------------
# Sampler argument validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("host", sorted(ALL_HOSTS))
class TestSampleArgValidation:
    def _call(self, host, k=3, replicas=2):
        g = ALL_HOSTS[host]()
        return g.sample_neighbors_batch(
            np.array([0, 1]), k, np.random.default_rng(0), replicas
        )

    @pytest.mark.parametrize("replicas", [2.7, 2.0, True, "2"])
    def test_non_integer_replicas_raise_type_error(self, host, replicas):
        with pytest.raises(TypeError, match="replicas must be an integer"):
            self._call(host, replicas=replicas)

    @pytest.mark.parametrize("k", [True, 2.0, 3.5])
    def test_non_integer_k_raises_type_error(self, host, k):
        with pytest.raises(TypeError, match="k must be an integer"):
            self._call(host, k=k)

    @pytest.mark.parametrize("field", ["k", "replicas"])
    def test_values_below_one_raise_value_error(self, host, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            self._call(host, **{field: 0})

    def test_numpy_integers_are_accepted(self, host):
        out = self._call(host, k=np.int64(3), replicas=np.int64(2))
        assert out.shape == (2, 2, 3)
