"""The :class:`Graph` interface every voting host must implement.

Design note (DESIGN.md §2.1): the Best-of-k dynamics, the voting-DAG dual,
the COBRA walk, and all baselines touch the graph *only* through uniform
with-replacement neighbour sampling.  Making that the interface — rather
than adjacency iteration — is what allows `O(1)`-memory implicit dense
hosts, which in turn is what makes the paper's "dense graphs" regime
(minimum degree ``n^α``) tractable at large ``n`` in pure Python/NumPy.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.graphs.csr import CSRGraph

__all__ = ["Graph"]


class Graph(abc.ABC):
    """Abstract host graph for sampling-based voting dynamics.

    Concrete subclasses must be *simple* undirected graphs (no self-loops,
    no multi-edges) with minimum degree >= 1, matching the paper's setting
    where every vertex can always draw three neighbours.
    """

    # ------------------------------------------------------------------
    # Abstract surface
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def num_vertices(self) -> int:
        """Number of vertices ``n``; vertices are labelled ``0 .. n-1``."""

    @property
    @abc.abstractmethod
    def degrees(self) -> np.ndarray:
        """Integer array of shape ``(n,)`` with the degree of each vertex."""

    @abc.abstractmethod
    def sample_neighbors_batch(
        self,
        vertices: np.ndarray,
        k: int,
        rng: np.random.Generator,
        replicas: int,
    ) -> np.ndarray:
        """Sample ``k`` neighbours uniformly *with replacement* per vertex,
        for *replicas* independent runs — the one sampling method a host
        implements.

        Parameters
        ----------
        vertices:
            1-D integer array of vertex ids, shared by all replicas (may
            repeat; repeats get independent samples).
        k:
            Number of draws per vertex (the paper's ``k = 3``).
        rng:
            Source of randomness (one stream serves the whole batch).
        replicas:
            Number of independent replicas ``R``.

        Returns
        -------
        numpy.ndarray
            Integer array of shape ``(replicas, len(vertices), k)``; entry
            ``[r, i]`` holds ``k`` i.i.d. uniform draws from the
            neighbourhood of ``vertices[i]``, independent across ``r`` and
            ``i``.  The dtype may be ``int32`` when vertex ids fit (the
            engine's reduced-memory-traffic index path).  Implementations
            validate their arguments with :meth:`_check_sample_args`.
        """

    def sample_neighbors(
        self, vertices: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """One replica of :meth:`sample_neighbors_batch`, as ``int64``.

        Returns the ``(len(vertices), k)`` slice ``[0]`` of an ``R = 1``
        batch: the per-trial paths (the duals, the async sweep) consume
        the stream exactly as a one-replica ensemble round does.
        """
        return self.sample_neighbors_batch(vertices, k, rng, 1)[0].astype(
            np.int64, copy=False
        )

    @property
    def vertex_ids(self) -> np.ndarray:
        """Cached ``arange(n)`` vertex-id array (do not mutate).

        The per-round dynamics previously allocated a fresh ``np.arange(n)``
        every step; hot loops should use this shared array instead.
        """
        ids = getattr(self, "_vertex_ids_cache", None)
        if ids is None or ids.size != self.num_vertices:
            ids = np.arange(self.num_vertices, dtype=np.int64)
            ids.setflags(write=False)
            self._vertex_ids_cache = ids
        return ids

    # ------------------------------------------------------------------
    # Exact count-chain kernels (the ensemble engine's O(parts) path)
    # ------------------------------------------------------------------

    def count_chain_kernel(self):
        """The host's exact count-chain kernel, or ``None``.

        Hosts made of exchangeable parts (DESIGN.md §2.5) return a
        :class:`~repro.core.kernels.CountChainKernel` here and
        :func:`~repro.core.ensemble.run_ensemble`'s ``method="auto"``
        routes their ensembles onto it — O(parts) work per round instead
        of O(n·k).  The default is ``None`` (no exchangeable structure):
        generic hosts use the batched dense path.  Subclasses with a
        kernel override :meth:`_build_count_chain_kernel` (memoised
        here); generators that *know* their output's structure (e.g. the
        two-clique bridge, which materialises as a plain CSR graph)
        attach one explicitly via :meth:`attach_count_chain_kernel`.
        """
        kernel = getattr(self, "_count_chain_kernel", None)
        if kernel is None:
            kernel = self._build_count_chain_kernel()
            if kernel is not None:
                self._count_chain_kernel = kernel
        return kernel

    def _build_count_chain_kernel(self):
        """Construct this host's kernel, or ``None`` (the default)."""
        return None

    def attach_count_chain_kernel(self, kernel) -> None:
        """Declare *kernel* as this instance's exact count chain.

        The caller asserts exactness: the kernel's slot counts must be a
        sufficient statistic for this graph's Best-of-k update law.
        """
        self._count_chain_kernel = kernel

    @property
    def index_dtype(self) -> type:
        """Narrowest integer dtype that can hold every vertex id.

        ``int32`` for ``n < 2**31`` halves gather/index memory traffic in
        the batched engine; ``int64`` otherwise.
        """
        return (
            np.int32
            if self.num_vertices < np.iinfo(np.int32).max
            else np.int64
        )

    # ------------------------------------------------------------------
    # Derived quantities shared by all hosts
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|`` (= sum of degrees / 2)."""
        return int(self.degrees.sum()) // 2

    @property
    def min_degree(self) -> int:
        """Minimum degree ``d`` — the paper's density parameter."""
        return int(self.degrees.min())

    @property
    def max_degree(self) -> int:
        """Maximum degree."""
        return int(self.degrees.max())

    @property
    def alpha(self) -> float:
        """The paper's density exponent ``α`` with ``d = n^α``.

        Computed as ``log(min_degree)/log(n)``.  Theorem 1 requires
        ``α = Ω(1/log log n)``; see
        :func:`repro.graphs.properties.is_dense_for_theorem1`.
        """
        n = self.num_vertices
        if n <= 1:
            raise ValueError("alpha is undefined for graphs with n <= 1")
        d = self.min_degree
        if d < 1:
            raise ValueError("alpha is undefined for graphs with isolated vertices")
        return math.log(d) / math.log(n)

    def degree_volume(self, subset: np.ndarray | None = None) -> int:
        """Sum of degrees ``d(X)`` over *subset* (all of ``V`` if ``None``).

        This is the quantity the voter-model win probability and the [5]
        spectral condition are stated in terms of.
        """
        if subset is None:
            return int(self.degrees.sum())
        subset = np.asarray(subset)
        if subset.dtype == np.bool_:
            if subset.shape != (self.num_vertices,):
                raise ValueError(
                    f"boolean mask must have shape ({self.num_vertices},), "
                    f"got {subset.shape}"
                )
            return int(self.degrees[subset].sum())
        return int(self.degrees[subset].sum())

    # ------------------------------------------------------------------
    # Optional materialisation (implicit hosts override; small-n only)
    # ------------------------------------------------------------------

    def to_csr(self) -> "CSRGraph":
        """Materialise the graph as an explicit :class:`CSRGraph`.

        Implicit hosts provide this for testing/spectral analysis at small
        ``n``; the default raises because a generic ``Graph`` exposes no
        adjacency enumeration.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support materialisation to CSR"
        )

    # ------------------------------------------------------------------
    # Shared validation helpers for subclasses
    # ------------------------------------------------------------------

    def _check_sample_args(
        self, vertices: np.ndarray, k: int, replicas: int
    ) -> tuple[np.ndarray, int]:
        """Validate a :meth:`sample_neighbors_batch` call; returns the
        vertex ids as ``int64`` and the replica count.

        *k* and *replicas* must be integers >= 1: a bool or a float
        raises ``TypeError`` rather than being truncated."""
        replicas = check_positive_int(replicas, "replicas")
        vertices = np.asarray(vertices)
        if vertices.ndim != 1:
            raise ValueError(
                f"vertices must be a 1-D array, got shape {vertices.shape}"
            )
        # A float or bool array would be truncated or read as 0/1 ids.
        if vertices.size and vertices.dtype.kind not in "iu":
            raise ValueError(
                f"vertex ids must be integers, got dtype {vertices.dtype}"
            )
        if vertices.size and (
            vertices.min() < 0 or vertices.max() >= self.num_vertices
        ):
            raise ValueError(
                f"vertex ids must lie in [0, {self.num_vertices}), got range "
                f"[{vertices.min()}, {vertices.max()}]"
            )
        check_positive_int(k, "k")
        return vertices.astype(np.int64, copy=False), replicas

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.num_vertices}, m={self.num_edges}, "
            f"d_min={self.min_degree})"
        )
