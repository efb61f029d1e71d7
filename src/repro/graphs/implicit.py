"""Implicit O(1)-memory dense graph families.

The paper's regime is *dense* graphs — minimum degree ``d = n^α``.  At
``n = 10⁶`` a complete graph has ~5·10¹¹ edges; materialising it is out of
the question, yet the dynamics only needs uniform neighbour draws, which
these families admit in closed form.  Each class below implements
rejection-free sampling with a constant number of vectorised operations per
round, independent of the edge count.

This is the library's main answer to the calibration note that a naive
networkx reproduction is "slow on dense large graphs" (DESIGN.md §1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.base import Graph
from repro.graphs.csr import CSRGraph
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.kernels import CompleteKernel, MultipartiteKernel

__all__ = [
    "CompleteGraph",
    "CompleteBipartiteGraph",
    "CompleteMultipartiteGraph",
    "RookGraph",
]


class CompleteGraph(Graph):
    """The complete graph ``K_n`` without adjacency storage.

    Sampling trick: a uniform neighbour of ``v`` is a uniform element of
    ``{0..n-1} \\ {v}``; draw ``r`` uniform on ``[0, n-2]`` and shift
    ``r >= v`` up by one.  Exact, rejection-free, branch-free.

    ``K_n`` is the host of the Becchetti et al. [2] and Ghaffari–Lengler
    [8] analyses the introduction compares against, and the natural
    ``α → 1`` extreme of Theorem 1.
    """

    def __init__(self, n: int) -> None:
        n = check_positive_int(n, "n")
        if n < 2:
            raise ValueError(f"K_n needs n >= 2 to have edges, got n={n}")
        self._n = n

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def degrees(self) -> np.ndarray:
        return np.full(self._n, self._n - 1, dtype=np.int64)

    # Closed-form degree statistics: the O(n) ``degrees`` array must never
    # be materialised on the count-chain path (n can exceed 10^10 there).
    @property
    def min_degree(self) -> int:
        return self._n - 1

    @property
    def max_degree(self) -> int:
        return self._n - 1

    @property
    def num_edges(self) -> int:
        return self._n * (self._n - 1) // 2

    def _build_count_chain_kernel(self) -> "CompleteKernel":
        from repro.core.kernels import CompleteKernel

        return CompleteKernel(self._n)

    def sample_neighbors_batch(
        self,
        vertices: np.ndarray,
        k: int,
        rng: np.random.Generator,
        replicas: int,
    ) -> np.ndarray:
        """Batched skip-self sampling in the narrow index dtype.

        One ``integers`` draw of shape ``(R, m, k)`` plus the shift — no
        per-replica work at all, and ``int32`` ids whenever ``n < 2**31``.
        The shift compares against the vertex ids repeated to one flat
        ``(m·k,)`` operand, a contiguous pass over the ``(R, m·k)`` draw.
        """
        vertices, replicas = self._check_sample_args(vertices, k, replicas)
        dtype = self.index_dtype
        draws = rng.integers(
            0, self._n - 1, size=(replicas, vertices.size, k), dtype=dtype
        )
        flat = draws.reshape(replicas, -1)
        flat += flat >= np.repeat(vertices.astype(dtype), k)
        return draws

    def to_csr(self) -> CSRGraph:
        n = self._n
        if n > 4096:
            raise ValueError(
                f"refusing to materialise K_{n} ({n * (n - 1)} arcs); "
                "materialisation is intended for tests at small n"
            )
        indptr = np.arange(n + 1, dtype=np.int64) * (n - 1)
        base = np.arange(n, dtype=np.int64)
        rows = [np.delete(base, v) for v in range(n)]
        return CSRGraph(indptr, np.concatenate(rows), validate=False)


class CompleteBipartiteGraph(Graph):
    """The complete bipartite graph ``K_{a,b}``.

    Left part is ``0..a-1``, right part ``a..a+b-1``.  Note ``K_{a,b}`` is
    bipartite: the *voter* model does not converge on it in general (the
    paper's introduction restricts Best-of-1 consensus to non-bipartite
    graphs), which makes it a useful contrast host; Best-of-3 from i.i.d.
    opinions still converges because both parts share the same drift.
    """

    def __init__(self, a: int, b: int) -> None:
        self._a = check_positive_int(a, "a")
        self._b = check_positive_int(b, "b")

    @property
    def part_sizes(self) -> tuple[int, int]:
        """Sizes ``(a, b)`` of the two parts."""
        return self._a, self._b

    @property
    def num_vertices(self) -> int:
        return self._a + self._b

    @property
    def degrees(self) -> np.ndarray:
        deg = np.empty(self._a + self._b, dtype=np.int64)
        deg[: self._a] = self._b
        deg[self._a :] = self._a
        return deg

    @property
    def min_degree(self) -> int:
        return min(self._a, self._b)

    @property
    def max_degree(self) -> int:
        return max(self._a, self._b)

    @property
    def num_edges(self) -> int:
        return self._a * self._b

    def _build_count_chain_kernel(self) -> "MultipartiteKernel":
        from repro.core.kernels import MultipartiteKernel

        return MultipartiteKernel((self._a, self._b))

    def sample_neighbors_batch(
        self,
        vertices: np.ndarray,
        k: int,
        rng: np.random.Generator,
        replicas: int,
    ) -> np.ndarray:
        vertices, replicas = self._check_sample_args(vertices, k, replicas)
        a, b = self._a, self._b
        u = rng.random((replicas, vertices.size, k))
        # Left vertices sample the right part and vice versa.
        return np.where(
            (vertices < a)[:, None],
            a + (u * b).astype(np.int64),
            (u * a).astype(np.int64),
        )

    def to_csr(self) -> CSRGraph:
        a, b = self._a, self._b
        if a * b > 2**22:
            raise ValueError(
                f"refusing to materialise K_{{{a},{b}}}; intended for small n"
            )
        left = np.arange(a, dtype=np.int64)
        right = np.arange(a, a + b, dtype=np.int64)
        edges = np.stack(
            [np.repeat(left, b), np.tile(right, a)], axis=1
        )
        return CSRGraph.from_edges(a + b, edges, validate=False)


class CompleteMultipartiteGraph(Graph):
    """Complete multipartite graph with given part sizes.

    Vertex ``v`` is adjacent to every vertex outside its own part.  A
    uniform neighbour is a uniform element of ``{0..n-1}`` minus a
    contiguous block (its part), sampled by drawing on ``[0, n - s_i)``
    and shifting draws past the part's offset.

    With ``q`` equal parts of size ``n/q`` the minimum degree is
    ``n(1 - 1/q)``, i.e. ``α ≈ 1``: a dense non-complete host with
    heterogeneous local structure, good for stressing Theorem 1 beyond
    ``K_n``.
    """

    def __init__(self, sizes: list[int] | tuple[int, ...] | np.ndarray) -> None:
        sizes_arr = np.asarray(sizes, dtype=np.int64)
        if sizes_arr.ndim != 1 or sizes_arr.size < 2:
            raise ValueError("need at least two parts")
        if np.any(sizes_arr < 1):
            raise ValueError(f"part sizes must be >= 1, got {sizes_arr.tolist()}")
        self._sizes = sizes_arr
        self._offsets = np.concatenate([[0], np.cumsum(sizes_arr)])
        self._n = int(self._offsets[-1])
        self._part_of_cache: np.ndarray | None = None

    @property
    def _part_of(self) -> np.ndarray:
        """Part id of each vertex — the only O(n) state, built lazily so
        count-chain-only hosts (mega-``n``) never allocate it."""
        if self._part_of_cache is None:
            self._part_of_cache = np.repeat(
                np.arange(self._sizes.size, dtype=np.int64), self._sizes
            )
        return self._part_of_cache

    @property
    def part_sizes(self) -> np.ndarray:
        """Copy of the part-size array."""
        return self._sizes.copy()

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def degrees(self) -> np.ndarray:
        return self._n - self._sizes[self._part_of]

    @property
    def min_degree(self) -> int:
        return self._n - int(self._sizes.max())

    @property
    def max_degree(self) -> int:
        return self._n - int(self._sizes.min())

    @property
    def num_edges(self) -> int:
        # Python ints, not int64: sum(s_i^2) overflows numpy arithmetic
        # at the mega-n part sizes the count-chain path unlocks.
        return (self._n * self._n - sum(int(s) * int(s) for s in self._sizes)) // 2

    def _build_count_chain_kernel(self) -> "MultipartiteKernel":
        from repro.core.kernels import MultipartiteKernel

        return MultipartiteKernel(self._sizes)

    def sample_neighbors_batch(
        self,
        vertices: np.ndarray,
        k: int,
        rng: np.random.Generator,
        replicas: int,
    ) -> np.ndarray:
        vertices, replicas = self._check_sample_args(vertices, k, replicas)
        part = self._part_of[vertices]
        size = self._sizes[part][:, None]
        offset = self._offsets[part][:, None]
        draws = (
            rng.random((replicas, vertices.size, k)) * (self._n - size)
        ).astype(np.int64)
        # Draws at or past the excluded block jump over it.
        draws += np.where(draws >= offset, size, 0)
        return draws

    def to_csr(self) -> CSRGraph:
        if self._n > 3000:
            raise ValueError("materialisation intended for small n only")
        edges = []
        for v in range(self._n):
            pv = self._part_of[v]
            for w in range(v + 1, self._n):
                if self._part_of[w] != pv:
                    edges.append((v, w))
        return CSRGraph.from_edges(self._n, np.array(edges), validate=False)


class RookGraph(Graph):
    """The rook's graph on an ``m × m`` board (``n = m²``).

    Vertex ``(r, c)`` (encoded ``r·m + c``) is adjacent to all cells in the
    same row or column; the graph is ``2(m-1)``-regular, so
    ``d ≈ 2√n`` and ``α ≈ 1/2`` — a structured dense host sitting midway
    between expanders and ``K_n``, exercising Theorem 1 at a non-trivial
    density exponent.

    Sampling draws uniform on ``[0, 2(m-1))``: the first ``m-1`` values
    index row-neighbours, the rest column-neighbours; both use the
    skip-self shift of :class:`CompleteGraph` within the row/column.
    """

    def __init__(self, m: int) -> None:
        m = check_positive_int(m, "m")
        if m < 2:
            raise ValueError(f"rook graph needs board size m >= 2, got {m}")
        self._m = m

    @property
    def board_size(self) -> int:
        """Side length ``m`` of the board."""
        return self._m

    @property
    def num_vertices(self) -> int:
        return self._m * self._m

    @property
    def degrees(self) -> np.ndarray:
        return np.full(self._m * self._m, 2 * (self._m - 1), dtype=np.int64)

    def sample_neighbors_batch(
        self,
        vertices: np.ndarray,
        k: int,
        rng: np.random.Generator,
        replicas: int,
    ) -> np.ndarray:
        """Batched row/column skip-self sampling in the narrow index dtype.

        One ``integers`` draw of shape ``(R, |V|, k)``, mapped to
        neighbour ids in place with branch-free arithmetic: 4-byte ids
        whenever ``n < 2**31``.  A draw below ``2**32`` yields the same
        values in ``int32`` and ``int64``, so the ids equal an ``int64``
        draw's byte for byte.

        Peak scratch is about ``10 + 12/R`` bytes per sample in int32:
        the draw (which becomes the ids), one int32 and two bool
        temporaries, plus three repeated per-(vertex, draw) operands
        shared by the ``R`` replicas.
        """
        vertices, replicas = self._check_sample_args(vertices, k, replicas)
        m = self._m
        dtype = self.index_dtype
        row, col = np.divmod(vertices.astype(dtype), m)
        # Per-sample operands, flat over (vertex, draw): contiguous
        # elementwise passes instead of a length-k broadcast loop.
        row_base = np.repeat(row * m, k)
        row, col = np.repeat(row, k), np.repeat(col, k)
        draws = rng.integers(
            0, 2 * (m - 1), size=(replicas, vertices.size, k), dtype=dtype
        )
        flat = draws.reshape(replicas, vertices.size * k)
        in_row = flat < (m - 1)
        # Row move: new column index with self skipped.
        row_move = flat + (flat >= col)
        row_move += row_base
        # Column move, in place: re-base to [0, m-1) then skip self row.
        flat -= m - 1
        flat += flat >= row
        flat *= m
        flat += col
        # Blend arithmetically: a masked select on random draws is ~10x
        # slower than these passes (branch mispredictions).  Both ids lie
        # in [0, n), so the difference fits the index dtype.
        row_move -= flat
        row_move *= in_row
        flat += row_move
        return draws

    def to_csr(self) -> CSRGraph:
        m = self._m
        if m > 80:
            raise ValueError("materialisation intended for small boards only")
        edges = []
        for r in range(m):
            for c in range(m):
                v = r * m + c
                for c2 in range(c + 1, m):
                    edges.append((v, r * m + c2))
                for r2 in range(r + 1, m):
                    edges.append((v, r2 * m + c))
        return CSRGraph.from_edges(m * m, np.array(edges), validate=False)
