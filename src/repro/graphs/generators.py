"""Random and structured host-graph generators.

These produce the explicit hosts used across the experiment suite
(DESIGN.md §3): dense Erdős–Rényi and random-regular graphs for the main
Theorem 1 sweeps, power-law hosts for heterogeneous-degree stress tests,
ring lattices and polluted stars as *sparse controls* that violate the
minimum-degree hypothesis (E9), and a two-clique bridge as the adversarial
placement host (E12).

The random hosts and the ring lattice assemble an edge list with NumPy
block operations, never per-edge Python loops (optimisation guide:
*vectorizing for loops*), and hand it to :meth:`CSRGraph.from_edges`.
The two clique hosts write ``indptr``/``indices`` directly, one slice
per row and in the row order ``from_edges`` gives their edge lists:
their ``Θ(n²)`` edge list and its sort would cost ~15× the CSR bytes.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph, index_dtype
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int, check_probability

__all__ = [
    "erdos_renyi",
    "random_regular",
    "powerlaw_degree_graph",
    "ring_lattice",
    "two_clique_bridge",
    "star_polluted",
    "from_networkx",
]


def erdos_renyi(
    n: int,
    p: float,
    *,
    seed: SeedLike = None,
    ensure_connected_min_degree: bool = True,
    _block_rows: int = 512,
) -> CSRGraph:
    """Sample ``G(n, p)`` with dense-friendly blockwise edge generation.

    For the dense regime the paper targets (``p`` well above the
    connectivity threshold), ``G(n,p)`` has minimum degree concentrated at
    ``np`` and satisfies the Theorem 1 density hypothesis for
    ``p = n^{α-1}``.

    Parameters
    ----------
    n, p:
        Vertex count and edge probability.
    seed:
        Randomness (see :func:`repro.util.rng.as_generator`).
    ensure_connected_min_degree:
        If ``True`` (default), any isolated vertex — possible only far
        below the dense regime — is repaired by attaching one uniform
        random edge, keeping the dynamics well-defined.  The repair is
        recorded nowhere because in the experiment regimes it fires with
        probability ``< n·(1-p)^{n-1} ≈ 0``.
    _block_rows:
        Row-block size for the Bernoulli sweep; memory use is
        ``O(_block_rows · n)`` independent of the edge count.
    """
    n = check_positive_int(n, "n")
    p = check_probability(p, "p")
    if n < 2:
        raise ValueError(f"need n >= 2 vertices, got {n}")
    rng = as_generator(seed)
    chunks: list[np.ndarray] = []
    for start in range(0, n, _block_rows):
        stop = min(start + _block_rows, n)
        rows = np.arange(start, stop, dtype=np.int64)
        # Upper-triangle mask for this block: columns strictly greater
        # than the row index.
        u = rng.random((stop - start, n))
        mask = u < p
        cols = np.arange(n, dtype=np.int64)
        mask &= cols[None, :] > rows[:, None]
        r, c = np.nonzero(mask)
        if r.size:
            chunks.append(np.stack([rows[r], cols[c]], axis=1))
    if not chunks:
        raise ValueError(
            f"G(n={n}, p={p}) sample came out empty; p is too small for a "
            "usable voting host"
        )
    edges = np.concatenate(chunks, axis=0)
    if ensure_connected_min_degree:
        edges = _repair_isolated(n, edges, rng)
    return CSRGraph.from_edges(n, edges, validate=False)


def _repair_isolated(n: int, edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Attach one random edge to every degree-0 vertex in *edges*.

    The repair edges are deduplicated against each other (two isolated
    vertices may pick one another, which would otherwise create a
    parallel edge); they cannot duplicate existing edges because their
    isolated endpoint has none.
    """
    deg = np.bincount(edges.ravel(), minlength=n)
    isolated = np.nonzero(deg == 0)[0]
    if isolated.size == 0:
        return edges
    partners = rng.integers(0, n - 1, size=isolated.size)
    partners += partners >= isolated
    extra = np.stack(
        [np.minimum(isolated, partners), np.maximum(isolated, partners)], axis=1
    )
    extra = np.unique(extra, axis=0)
    return np.concatenate([edges, extra], axis=0)


def random_regular(
    n: int,
    d: int,
    *,
    seed: SeedLike = None,
    max_repair_rounds: int = 200,
) -> CSRGraph:
    """Sample a simple ``d``-regular graph via configuration-model repair.

    The pairing (configuration) model matches ``n·d`` half-edge stubs
    uniformly; self-loops and multi-edges are then removed by re-shuffling
    the offending stubs together with an equal number of randomly chosen
    good stubs, which preserves uniformity asymptotically and terminates
    quickly for ``d = o(√n)``.  Random ``d``-regular graphs are the host of
    the Cooper–Elsässer–Radzik Best-of-2 analysis [4] and a standard dense
    host for Theorem 1 with ``α = log d / log n``.

    Raises
    ------
    ValueError
        If ``n·d`` is odd or ``d >= n``.
    RuntimeError
        If repair fails to converge (pathologically dense requests).
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    if d >= n:
        raise ValueError(f"d must be < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = as_generator(seed)

    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)

    for _ in range(max_repair_rounds):
        bad = _bad_pair_mask(pairs)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return CSRGraph.from_edges(n, pairs, validate=False)
        # Reshuffle bad pairs together with as many random good pairs.
        good_idx = np.nonzero(~bad)[0]
        take = min(good_idx.size, max(n_bad, 16))
        chosen_good = rng.choice(good_idx, size=take, replace=False)
        recycle_idx = np.concatenate([np.nonzero(bad)[0], chosen_good])
        pool = pairs[recycle_idx].ravel()
        rng.shuffle(pool)
        pairs[recycle_idx] = pool.reshape(-1, 2)
    # Dense requests (d a large fraction of n) can make stub-reshuffling
    # thrash; fall back to networkx's pairing-with-restart generator, which
    # is slower but certain.
    import networkx as nx

    nx_seed = int(rng.integers(0, 2**31 - 1))
    g = nx.random_regular_graph(d, n, seed=nx_seed)
    return CSRGraph.from_networkx(g, validate=False)


def _bad_pair_mask(pairs: np.ndarray) -> np.ndarray:
    """Mark pairs that are self-loops or duplicates of an earlier pair.

    The first occurrence of each unordered pair is the smallest index in
    its run of equal keys, so an unstable sort serves.  The key
    ``lo·width + hi`` is built in the narrowest unsigned dtype that holds
    ``width² - 1``, which never overflows.
    """
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    width = int(pairs.max()) + 1
    key = lo.astype(np.min_scalar_type(width * width - 1))
    key *= width
    key += hi.astype(key.dtype)
    order = np.argsort(key)
    sorted_key = key[order]
    run_starts = np.flatnonzero(
        np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
    )
    bad = np.ones(pairs.shape[0], dtype=bool)
    bad[np.minimum.reduceat(order, run_starts)] = False
    bad |= lo == hi
    return bad


def powerlaw_degree_graph(
    n: int,
    *,
    gamma: float = 2.5,
    d_min: int = 4,
    d_max: int | None = None,
    seed: SeedLike = None,
) -> CSRGraph:
    """Sample a graph with (truncated) power-law degrees via pairing repair.

    Degrees are drawn from ``P(D = x) ∝ x^{-gamma}`` on
    ``[d_min, d_max]`` (default cap ``⌊√n⌋`` keeps the pairing model
    simple-graph friendly), the total is evened, and the same repair
    procedure as :func:`random_regular` produces a simple graph.

    With ``d_min = n^α`` this family meets the Theorem 1 hypothesis while
    exhibiting heavy-tailed heterogeneity — the qualitative contrast with
    the bounded-average-degree setting of Abdullah–Draief [1].
    """
    n = check_positive_int(n, "n")
    d_min = check_positive_int(d_min, "d_min")
    if gamma <= 1.0:
        raise ValueError(f"gamma must be > 1 for a normalisable tail, got {gamma}")
    if d_max is None:
        d_max = max(d_min, int(np.sqrt(n)))
    d_max = check_positive_int(d_max, "d_max")
    if d_max < d_min:
        raise ValueError(f"d_max={d_max} must be >= d_min={d_min}")
    if d_max >= n:
        raise ValueError(f"d_max={d_max} must be < n={n}")
    rng = as_generator(seed)

    support = np.arange(d_min, d_max + 1, dtype=np.float64)
    weights = support**-gamma
    weights /= weights.sum()
    degrees = rng.choice(
        np.arange(d_min, d_max + 1, dtype=np.int64), size=n, p=weights
    )
    if int(degrees.sum()) % 2 == 1:
        degrees[int(rng.integers(0, n))] += 1

    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    for _ in range(400):
        bad = _bad_pair_mask(pairs)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return CSRGraph.from_edges(n, pairs, validate=False)
        good_idx = np.nonzero(~bad)[0]
        take = min(good_idx.size, max(n_bad, 16))
        chosen_good = rng.choice(good_idx, size=take, replace=False)
        recycle_idx = np.concatenate([np.nonzero(bad)[0], chosen_good])
        pool = pairs[recycle_idx].ravel()
        rng.shuffle(pool)
        pairs[recycle_idx] = pool.reshape(-1, 2)
    raise RuntimeError(
        f"power-law pairing repair did not converge (n={n}, gamma={gamma})"
    )


def ring_lattice(n: int, d: int) -> CSRGraph:
    """The circulant ring lattice: each vertex joined to ``d/2`` on each side.

    Constant degree means ``α = log d / log n → 0``: this host *violates*
    the Theorem 1 density hypothesis and is the sparse control in the
    density-threshold experiment (E9) — consensus still happens but far
    slower than doubly-logarithmically.
    """
    n = check_positive_int(n, "n")
    d = check_positive_int(d, "d")
    if d % 2 != 0:
        raise ValueError(f"ring lattice degree must be even, got {d}")
    if d >= n:
        raise ValueError(f"d must be < n, got d={d}, n={n}")
    base = np.arange(n, dtype=np.int64)
    offsets = np.arange(1, d // 2 + 1, dtype=np.int64)
    u = np.repeat(base, offsets.size)
    v = (u + np.tile(offsets, n)) % n
    return CSRGraph.from_edges(n, np.stack([u, v], axis=1), validate=False)


def two_clique_bridge(half: int, *, bridges: int = 1) -> CSRGraph:
    """Two disjoint cliques of size *half* joined by *bridges* edges.

    The canonical bad host for *adversarial* opinion placement: putting all
    blue vertices in one clique stalls majority dynamics at the bridge.
    Used by E12 to contrast the paper's i.i.d. hypothesis with the
    adversarial setting of Cooper et al. [5].

    Bridge ``i`` connects vertex ``i`` of the left clique to vertex ``i``
    of the right clique.
    """
    half = check_positive_int(half, "half")
    bridges = check_positive_int(bridges, "bridges")
    if half < 2:
        raise ValueError(f"clique size must be >= 2, got {half}")
    if bridges > half:
        raise ValueError(f"bridges={bridges} cannot exceed clique size {half}")
    n = 2 * half
    partners = np.arange(bridges, dtype=np.int64)
    degrees = np.full(n, half - 1, dtype=np.int64)
    degrees[partners] += 1
    degrees[half + partners] += 1
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    indices = np.empty(int(indptr[-1]), dtype=index_dtype(n, int(indptr[-1])))
    # Left row x: higher ids, its bridge partner half + x, lower ids.
    # Right row half + x: higher ids, lower ids, then its partner x.
    _clique_rows(indices, indptr[:half], 0, degrees[:half] - (half - 1))
    _clique_rows(indices, indptr[half:n], half, np.zeros(half, dtype=np.int64))
    indices[indptr[partners] + (half - 1 - partners)] = half + partners
    indices[indptr[half + partners + 1] - 1] = partners
    graph = CSRGraph(indptr, indices, validate=False)
    # The generator knows the structure the CSR arrays no longer show:
    # two exchangeable cliques plus 2·bridges special endpoints.  Attach
    # the exact count-chain kernel so run_ensemble(method="auto") can
    # advance whole ensembles in O(1) slots per round (DESIGN.md §2.5).
    from repro.core.kernels import TwoCliqueBridgeKernel

    graph.attach_count_chain_kernel(TwoCliqueBridgeKernel(half, bridges))
    return graph


def star_polluted(core: int, pendants: int) -> CSRGraph:
    """A clique of size *core* with *pendants* degree-1 vertices attached.

    Pendant ``j`` hangs off core vertex ``j % core``.  The pendants force
    ``min_degree = 1`` hence ``α ≈ 0`` regardless of the dense core — the
    second sparse control for E9, showing the minimum-degree hypothesis
    (not average density) is what Theorem 1 consumes.
    """
    core = check_positive_int(core, "core")
    pendants = check_positive_int(pendants, "pendants")
    if core < 3:
        raise ValueError(f"core clique must have >= 3 vertices, got {core}")
    n = core + pendants
    pend = np.arange(pendants, dtype=np.int64)
    anchors = pend % core
    degrees = np.ones(n, dtype=np.int64)
    degrees[:core] = core - 1 + np.bincount(anchors, minlength=core)
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    indices = np.empty(int(indptr[-1]), dtype=index_dtype(n, int(indptr[-1])))
    # Core row x: higher core ids, x's pendants ascending, lower core
    # ids; pendant j is the (j // core)-th of its anchor's pendants.
    _clique_rows(indices, indptr[:core], 0, degrees[:core] - (core - 1))
    indices[indptr[anchors] + (core - 1 - anchors) + pend // core] = core + pend
    indices[indptr[core:n]] = anchors
    return CSRGraph(indptr, indices, validate=False)


def _clique_rows(
    indices: np.ndarray, starts: np.ndarray, first: int, gaps: np.ndarray
) -> None:
    """Write the rows of the clique on ids ``first .. first + size - 1``.

    Row ``i`` (``size = len(starts)`` rows) starts at ``starts[i]``: the
    clique ids above ``first + i`` ascending, then ``gaps[i]`` slots left
    for the caller, then the ids below ``first + i`` ascending.  That is
    the order :meth:`CSRGraph.from_edges` gives the clique's
    upper-triangle edge list, with the caller's edges listed after it.
    One row at a time, so no temporary outgrows ``ids``.
    """
    size = len(starts)
    ids = np.arange(first, first + size, dtype=indices.dtype)
    for i, (start, gap) in enumerate(zip(starts.tolist(), gaps.tolist())):
        mid = start + size - 1 - i
        indices[start:mid] = ids[i + 1 :]
        indices[mid + gap : mid + gap + i] = ids[:i]


def from_networkx(g) -> CSRGraph:
    """Convert any simple undirected :class:`networkx.Graph` to CSR."""
    return CSRGraph.from_networkx(g)
