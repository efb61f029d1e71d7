"""Explicit graphs in compressed-sparse-row (CSR) form.

CSR is the cache-friendly layout for the one operation the dynamics needs:
for each vertex ``v``, draw uniform entries of the contiguous slice
``indices[indptr[v]:indptr[v+1]]``.  The whole per-round sampling step is a
few flat passes and one ``np.take`` gather over an ``(R, n·k)`` offset
matrix — no Python-level loop touches a vertex (optimisation guide:
*vectorizing for loops*, *views not copies*).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graphs.base import Graph

__all__ = ["CSRGraph", "index_dtype"]


def index_dtype(n: int, arcs: int) -> np.dtype:
    """The CSR neighbour dtype: int32 when *n* and *arcs* both fit.

    Builders that fill ``indices`` themselves allocate it in this dtype,
    so the constructor keeps their array without a converting copy.
    """
    limit = np.iinfo(np.int32).max
    return np.dtype(np.int32 if n < limit and arcs < limit else np.int64)


class CSRGraph(Graph):
    """A simple undirected graph stored as CSR adjacency.

    Parameters
    ----------
    indptr:
        Integer array of shape ``(n+1,)``; the neighbours of vertex ``v``
        are ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        Flat neighbour array of length ``2|E|`` (each undirected edge is
        stored in both endpoints' slices).
    validate:
        When ``True`` (default) the constructor verifies structural
        invariants: monotone ``indptr``, ids in range, no self-loops,
        symmetry, and no isolated vertices.  Pass ``False`` only for data
        produced by this library's own generators on hot paths.

    Notes
    -----
    Neighbour lists need not be sorted; symmetry validation sorts copies.
    The index dtype is chosen automatically (int32 when it fits) to halve
    memory traffic on large dense graphs — see the cache-effects section of
    the optimisation guide.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if indptr.size < 2:
            raise ValueError("graph must have at least one vertex")
        if int(indptr[0]) != 0 or int(indptr[-1]) != indices.size:
            raise ValueError(
                "indptr must start at 0 and end at len(indices) "
                f"(got {indptr[0]}..{indptr[-1]} with {indices.size} indices)"
            )
        self._indptr = indptr.astype(np.int64, copy=False)
        self._indices = indices.astype(
            index_dtype(indptr.size - 1, indices.size), copy=False
        )
        self._degrees = np.diff(self._indptr)
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray, *, validate: bool = True
    ) -> "CSRGraph":
        """Build from an iterable of undirected edges ``(u, v)``.

        Row ``v`` lists ``v``'s partners in edge order: first the edges
        where ``v`` is the first endpoint, then those where it is the
        second.  Ids outside ``[0, n)`` raise ``ValueError``; duplicate
        edges and self-loops are rejected during validation.
        """
        edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_arr.size == 0:
            raise ValueError("graph must have at least one edge")
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edge_arr.shape}")
        if not np.issubdtype(edge_arr.dtype, np.integer):
            raise TypeError(f"edge ids must be integers, got {edge_arr.dtype}")
        lo, hi = int(edge_arr.min()), int(edge_arr.max())
        if lo < 0 or hi >= n:
            raise ValueError(
                f"edge ids must lie in [0, {n}), got ids from {lo} to {hi}"
            )
        m = edge_arr.shape[0]
        # Ids now lie in [0, n), so the narrowest key that holds n - 1
        # sorts to the same stable order (a radix sort up to 16 bits),
        # and the partners fit the CSR dtype: neither needs an int64
        # copy of the edges.
        src = np.empty(2 * m, dtype=np.min_scalar_type(n - 1))
        src[:m] = edge_arr[:, 0]
        src[m:] = edge_arr[:, 1]
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(src, kind="stable")
        del src
        dst = np.empty(2 * m, dtype=index_dtype(n, 2 * m))
        dst[:m] = edge_arr[:, 1]
        dst[m:] = edge_arr[:, 0]
        return cls(indptr, dst[order], validate=validate)

    @classmethod
    def from_networkx(cls, g, *, validate: bool = True) -> "CSRGraph":
        """Build from a :class:`networkx.Graph` (nodes relabelled ``0..n-1``).

        Node order follows ``g.nodes()`` iteration order.
        """
        import networkx as nx

        if g.is_directed():
            raise ValueError("only undirected networkx graphs are supported")
        if g.number_of_nodes() == 0:
            raise ValueError("graph must have at least one vertex")
        mapping = {node: i for i, node in enumerate(g.nodes())}
        relabelled = nx.relabel_nodes(g, mapping, copy=True)
        edges = np.array(
            [(u, v) for u, v in relabelled.edges() if u != v], dtype=np.int64
        )
        if edges.size == 0:
            raise ValueError("graph must have at least one non-loop edge")
        return cls.from_edges(g.number_of_nodes(), edges, validate=validate)

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (small graphs / debugging)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        for v in range(self.num_vertices):
            start, stop = self._indptr[v], self._indptr[v + 1]
            for w in self._indices[start:stop]:
                if v < int(w):
                    g.add_edge(v, int(w))
        return g

    # ------------------------------------------------------------------
    # Graph interface
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._indptr.size - 1

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def indptr(self) -> np.ndarray:
        """Read-only view of the CSR row-pointer array."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only view of the flat CSR neighbour array."""
        return self._indices

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour slice of vertex *v* (a view, not a copy)."""
        if not 0 <= v < self.num_vertices:
            raise ValueError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def sample_neighbors_batch(
        self,
        vertices: np.ndarray,
        k: int,
        rng: np.random.Generator,
        replicas: int,
    ) -> np.ndarray:
        """Batched CSR sampling: one uniform draw serves all replicas.

        The flat position ``indptr[v] + floor(U * deg(v))`` is formed in
        the CSR storage dtype (``int32`` when the arc count permits), and
        the ids come back in that dtype.  ``np.take`` converts int32
        positions to ``intp`` internally, so the narrow dtype halves the
        position buffer, not the gather's traffic; ``intp`` positions
        measured no faster (1.1 ms either way per ``(6, 8192, 3)`` chunk
        of ``random_regular(8192, 128)``, 2-vCPU host).  The degree and
        row-start operands are repeated once per call to flat
        ``(|V|·k,)`` arrays, so the scale and the shift each run as one
        contiguous pass over the ``(R, |V|·k)`` draw instead of one
        length-``k`` inner loop per (replica, vertex).
        """
        vertices, replicas = self._check_sample_args(vertices, k, replicas)
        pos_dtype = self._indices.dtype
        deg = np.repeat(self._degrees[vertices].astype(np.float64), k)
        starts = np.repeat(self._indptr[vertices].astype(pos_dtype), k)
        # In-place scale of the uniform draw: one (R, |V|, k) float64
        # allocation instead of two (the engine's chunk loop calls this
        # per chunk, so the saving is per round, not per ensemble).
        u = rng.random((replicas, vertices.size, k))
        flat = u.reshape(replicas, -1)
        flat *= deg
        offsets = u.astype(pos_dtype)
        flat_offsets = offsets.reshape(replicas, -1)
        flat_offsets += starts
        return np.take(self._indices, offsets)

    def to_csr(self) -> "CSRGraph":
        return self

    # ------------------------------------------------------------------
    # Sparse-matrix export (spectral analysis)
    # ------------------------------------------------------------------

    def adjacency_scipy(self):
        """Return the adjacency matrix as ``scipy.sparse.csr_matrix``."""
        import scipy.sparse as sp

        data = np.ones(self._indices.size, dtype=np.float64)
        return sp.csr_matrix(
            (data, self._indices.astype(np.int64), self._indptr),
            shape=(self.num_vertices, self.num_vertices),
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        n = self.num_vertices
        if np.any(np.diff(self._indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self._indices.size:
            lo, hi = int(self._indices.min()), int(self._indices.max())
            if lo < 0 or hi >= n:
                raise ValueError(
                    f"neighbour ids must lie in [0, {n}), got [{lo}, {hi}]"
                )
        if int(self._degrees.min()) < 1:
            isolated = int(np.argmin(self._degrees))
            raise ValueError(
                f"graph has an isolated vertex (e.g. {isolated}); the "
                "Best-of-k dynamics requires minimum degree >= 1"
            )
        # Self-loops.
        for v in range(n):
            row = self._indices[self._indptr[v] : self._indptr[v + 1]]
            if np.any(row == v):
                raise ValueError(f"self-loop at vertex {v}")
        # Multi-edges within a row.
        for v in range(n):
            row = self._indices[self._indptr[v] : self._indptr[v + 1]]
            if np.unique(row).size != row.size:
                raise ValueError(f"duplicate neighbour entries at vertex {v}")
        # Symmetry: the multiset of directed arcs must be closed under swap.
        src = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
        dst = self._indices.astype(np.int64)
        fwd = np.stack([src, dst], axis=1)
        bwd = np.stack([dst, src], axis=1)
        fwd_sorted = fwd[np.lexsort((fwd[:, 1], fwd[:, 0]))]
        bwd_sorted = bwd[np.lexsort((bwd[:, 1], bwd[:, 0]))]
        if not np.array_equal(fwd_sorted, bwd_sorted):
            raise ValueError("adjacency structure is not symmetric")
