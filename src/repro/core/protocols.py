"""First-class voting protocols: one object per dynamics (DESIGN.md §2.6).

Before this layer, only plain Best-of-k could ride the batched ``(R, n)``
engine and the exact count-chain kernels; the robustness extensions
(noise, zealots, asynchrony) and the comparison baselines (voter, local
majority, plurality) each carried a bespoke one-trial-at-a-time runner.
A :class:`Protocol` bundles everything the ensemble engine needs to
drive a dynamics through either path:

* a **vectorised batch step** — ``(R, n) states → (R, n) states`` via the
  shared neighbour sampler (:meth:`Protocol.step_batch`);
* an optional **count-chain transition** — an
  :class:`~repro.core.kernels.AdoptionLaw` (plus per-slot pinned-blue
  counts for zealots) handed to the host's
  :class:`~repro.core.kernels.CountChainKernel`, so exchangeable hosts
  advance the whole ensemble in O(slots) per round
  (:meth:`Protocol.kernel_step`);
* an optional **mean-field map** (:meth:`Protocol.meanfield_map`) — the
  deterministic drift the harness experiments check simulations against;
* **termination semantics** (:meth:`Protocol.absorbed` /
  :meth:`Protocol.winners`) — consensus for Best-of-k, never for noisy
  dynamics, ordinary-unanimity for zealots, fixed points for
  deterministic local majority;
* **payload summarisation** (:meth:`Protocol.summarize`) — the
  JSON-native per-trial arrays the sweep cache and the harness tables
  consume.

Compositions that used to be impossible fall out of the bundle: noise
and zealots are *both* adoption-law/pinned-slot overlays, so
``NoisyBestOfK(eta, zealots=z)`` runs exactly — on the dense path for
any host, and on the count chains for exchangeable hosts (including
multipartite zealots).

The engine entry point is ``run_ensemble(graph, protocol=..., ...)``
(:func:`repro.core.ensemble.run_ensemble`); passing ``k``/``tie_rule``
instead builds the default :class:`BestOfK` and is unchanged
draw-for-draw from the pre-Protocol engine.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.dense import _count_votes
from repro.core.dynamics import TieRule
from repro.core.kernels import (
    AdoptionLaw,
    CountChainKernel,
    MajorityLaw,
    NoisyLaw,
)
from repro.core.opinions import BLUE, OPINION_DTYPE, RED
from repro.graphs.base import Graph
from repro.util.validation import (
    check_nonnegative_int,
    check_positive_int,
    check_probability,
)

__all__ = [
    "Protocol",
    "BestOfK",
    "Voter",
    "NoisyBestOfK",
    "ZealotBestOfK",
    "NoisyZealotBestOfK",
    "AsyncSweepBestOfK",
    "LocalMajority",
    "Plurality",
]


class Protocol(abc.ABC):
    """One voting dynamics, packaged for the batched ensemble engine.

    Subclasses must provide :meth:`step_batch`; everything else has
    consensus-dynamics defaults (two colours, absorption at unanimity,
    no count-chain support, no mean-field map).  See the module
    docstring for the contract and DESIGN.md §2.6 for the design notes.
    """

    name: str = "protocol"
    opinion_dtype: np.dtype = OPINION_DTYPE
    colours: int = 2
    """Opinion codes are ``0 .. colours - 1``; the engine rejects an
    explicit or initializer start holding any other value."""
    steps_key: str = "steps"
    """Name of the per-trial round counter in dict payloads (``"sweeps"``
    for sweep-granular dynamics)."""
    record_trajectories: bool = False
    """Whether sweep-point execution needs per-round count trajectories
    (the noisy protocols summarise stationary levels from them)."""

    # ------------------------------------------------------------------
    # Dense batched path
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def step_batch(
        self,
        graph: Graph,
        opinions: np.ndarray,
        rng: np.random.Generator,
        *,
        out: np.ndarray | None = None,
        max_batch_bytes: int | None = None,
    ) -> np.ndarray:
        """One synchronous round (or sweep) for a whole ``(R, n)`` batch."""

    def prepare_state(self, opinions: np.ndarray) -> np.ndarray:
        """Adjust a freshly initialised ``(R, n)`` matrix (e.g. pin
        zealots).  May mutate and return *opinions*."""
        return opinions

    # ------------------------------------------------------------------
    # Count-chain path
    # ------------------------------------------------------------------

    def supports_kernel(self, kernel: CountChainKernel) -> bool:
        """Whether this dynamics factorises over *kernel*'s slot counts."""
        return False

    def kernel_pinned(self, kernel: CountChainKernel) -> np.ndarray | None:
        """Per-slot pinned-blue counts on *kernel* (``None`` = none)."""
        return None

    def kernel_step(
        self,
        kernel: CountChainKernel,
        state: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One exact count-chain round for every replica."""
        raise NotImplementedError(
            f"{type(self).__name__} has no count-chain transition"
        )

    # ------------------------------------------------------------------
    # Termination semantics
    # ------------------------------------------------------------------

    def totals(self, opinions: np.ndarray) -> np.ndarray:
        """Per-replica progress statistic of a dense ``(R, n)`` state.

        The default is the blue count — the trajectory/absorption
        statistic of every two-colour dynamics.  Multi-colour protocols
        override (plurality reports the leading-colour count).
        """
        return np.count_nonzero(opinions, axis=1).astype(np.int64)

    def absorbed(
        self,
        totals: np.ndarray,
        n: int,
        *,
        state: np.ndarray | None = None,
        prev: np.ndarray | None = None,
    ) -> np.ndarray:
        """Mask of replicas that stop stepping.

        *state*/*prev* are the dense matrices after/before the round
        (``None`` on the count-chain path and at round 0) — deterministic
        dynamics use them for fixed-point detection.
        """
        return (totals == 0) | (totals == n)

    def winners(
        self,
        totals: np.ndarray,
        n: int,
        *,
        state: np.ndarray | None = None,
    ) -> np.ndarray:
        """Winner codes for stopped replicas (``-1`` = no consensus)."""
        return np.where(totals == n, BLUE, RED).astype(np.int64)

    # ------------------------------------------------------------------
    # Mean-field map
    # ------------------------------------------------------------------

    def meanfield_map(self, b, n: int | None = None):
        """One deterministic mean-field round from blue fraction *b*.

        Dense-host drift used by the harness shape checks; *n* is needed
        only by protocols whose map depends on the population split
        (zealots).  Raises for protocols without a useful map.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no mean-field map"
        )

    # ------------------------------------------------------------------
    # Payload summarisation
    # ------------------------------------------------------------------

    def summarize(self, result):
        """Sweep-point payload of an :class:`EnsembleResult`.

        The default passes the result through; the sweep runner wraps it
        into a :class:`~repro.analysis.experiments.ConsensusEnsemble`.
        Extension protocols return the JSON-native per-trial dicts their
        harness tables historically consumed.
        """
        return result

    def summarize_component(self, result) -> dict:
        """This protocol's share of a paired-run dict payload.

        Used when several protocols run from shared initial
        configurations (E14's sync/async comparison): per-trial
        convergence flags, round counters (under :attr:`steps_key`), and
        winner codes (``None`` where unconverged).
        """
        return {
            "converged": [bool(c) for c in result.converged],
            self.steps_key: [int(s) for s in result.steps],
            "winners": [
                int(w) if w >= 0 else None for w in result.winners
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _flat_row_gather(opinions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major flat view + per-replica offsets for cross-row indexing."""
    replicas, n = opinions.shape
    flat = np.ascontiguousarray(opinions).reshape(-1)
    offsets = np.arange(replicas, dtype=np.int64) * n
    return flat, offsets


# ----------------------------------------------------------------------
# The Best-of-k family (voter = k 1, the paper's protocol = k 3)
# ----------------------------------------------------------------------


class BestOfK(Protocol):
    """The paper's synchronous Best-of-k (sample ``k``, adopt majority).

    The engine default: its batch step is
    :func:`~repro.core.ensemble.step_best_of_k_batch` and its kernel
    transition the plain :class:`~repro.core.kernels.MajorityLaw`, both
    draw-for-draw identical to the pre-Protocol engine, so seeded
    results are unchanged.
    """

    name = "best_of_k"

    def __init__(
        self, k: int = 3, *, tie_rule: TieRule = TieRule.KEEP_SELF
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.tie_rule = tie_rule

    def adoption_law(self) -> AdoptionLaw:
        """The count-chain transition (protocol-supplied; DESIGN.md §2.6)."""
        return MajorityLaw(self.k, self.tie_rule)

    def step_batch(self, graph, opinions, rng, *, out=None, max_batch_bytes=None):
        from repro.core.ensemble import DEFAULT_BATCH_BYTES, step_best_of_k_batch

        return step_best_of_k_batch(
            graph, opinions, self.k, rng, tie_rule=self.tie_rule, out=out,
            max_batch_bytes=(
                DEFAULT_BATCH_BYTES if max_batch_bytes is None else max_batch_bytes
            ),
        )

    def supports_kernel(self, kernel):
        return True

    def kernel_step(self, kernel, state, rng):
        return kernel.step(
            state, self.k, rng, tie_rule=self.tie_rule,
            transition=self.adoption_law(),
            pinned=self.kernel_pinned(kernel),
        )

    def meanfield_map(self, b, n=None):
        from repro.core.meanfield import best_of_k_map

        return best_of_k_map(b, self.k, tie_rule=self.tie_rule)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(k={self.k}, tie_rule={self.tie_rule})"


def Voter() -> BestOfK:
    """The voter model: :class:`BestOfK` with ``k = 1``."""
    return BestOfK(1)


class NoisyBestOfK(BestOfK):
    """ε-noisy Best-of-k: follow the sample majority w.p. ``1 − eta``,
    else adopt a fair coin (E13's bifurcation dynamics).

    Consensus stops being absorbing for ``eta > 0``, and noisy ensembles
    always use their full round budget, so the stationary second-half
    statistics are comparable across replicas.  The count-chain transition is the exact η-mixed
    :class:`~repro.core.kernels.NoisyLaw`, making E13-style grids on
    exchangeable hosts O(1) per round.
    """

    name = "noisy_best_of_k"
    record_trajectories = True

    def __init__(
        self,
        eta: float,
        *,
        k: int = 3,
        tie_rule: TieRule = TieRule.KEEP_SELF,
    ) -> None:
        super().__init__(k, tie_rule=tie_rule)
        self.eta = check_probability(eta, "eta")

    def adoption_law(self) -> AdoptionLaw:
        return NoisyLaw(self.k, self.eta, self.tie_rule)

    def step_batch(self, graph, opinions, rng, *, out=None, max_batch_bytes=None):
        out = super().step_batch(
            graph, opinions, rng, out=out, max_batch_bytes=max_batch_bytes
        )
        noisy = rng.random(out.shape) < self.eta
        m = int(np.count_nonzero(noisy))
        if m:
            out[noisy] = (rng.random(m) < 0.5).astype(OPINION_DTYPE)
        return out

    def absorbed(self, totals, n, *, state=None, prev=None):
        # Never, even at eta = 0: the whole budget is what makes
        # traj[budget/2:] a stationary window for every replica.
        return np.zeros(totals.shape, dtype=bool)

    def meanfield_map(self, b, n=None):
        from repro.core.meanfield import noisy_best_of_k_map

        return noisy_best_of_k_map(b, self.eta, self.k, tie_rule=self.tie_rule)

    def summarize(self, result) -> dict:
        if result.blue_trajectories is None:
            raise ValueError(
                "noisy payloads need recorded trajectories "
                "(record_trajectories=True)"
            )
        n = result.n
        stationary: list[float] = []
        preserved: list[bool] = []
        for traj in result.blue_trajectories:
            traj = np.asarray(traj)
            level = float(traj[(traj.size - 1) // 2 :].mean() / n)
            stationary.append(level)
            preserved.append(bool((level < 0.5) == (int(traj[0]) * 2 < n)))
        return {
            "stationary_blue_fraction": stationary,
            "majority_preserved": preserved,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(eta={self.eta}, k={self.k})"


class ZealotBestOfK(BestOfK):
    """Best-of-k with ``z`` pinned-blue zealots (E15's takeover probe).

    Zealots are the first ``z`` vertices (the library convention); they
    are forced BLUE at initialisation and never update, while ordinary
    vertices sample them like anyone else.  On the dense path they are
    re-pinned after every round; on the count chains they become
    per-slot pinned masses — the same explicit-slot trick
    :class:`~repro.core.kernels.TwoCliqueBridgeKernel` uses for bridge
    endpoints, so zealots compose with *any* kernel host (``K_n``,
    multipartite parts, the bridge).  A run stops when the ordinary
    vertices are unanimous: winner BLUE at total ``n``, RED at total
    ``z`` (ordinary all red).
    """

    name = "zealot_best_of_k"

    def __init__(
        self,
        zealots: int,
        *,
        k: int = 3,
        tie_rule: TieRule = TieRule.KEEP_SELF,
    ) -> None:
        super().__init__(k, tie_rule=tie_rule)
        self.zealots = check_nonnegative_int(int(zealots), "zealots")

    def _repin(self, opinions: np.ndarray) -> np.ndarray:
        """Force the zealot vertices BLUE — the one pinning convention
        (first ``z`` vertices) shared by every dense-path consumer."""
        z = self.zealots
        if z > opinions.shape[1]:
            raise ValueError(
                f"zealot count {z} exceeds n={opinions.shape[1]}"
            )
        if z:
            opinions[:, :z] = BLUE
        return opinions

    def prepare_state(self, opinions):
        return self._repin(opinions)

    def step_batch(self, graph, opinions, rng, *, out=None, max_batch_bytes=None):
        out = super().step_batch(
            graph, opinions, rng, out=out, max_batch_bytes=max_batch_bytes
        )
        return self._repin(out)

    def kernel_pinned(self, kernel):
        if not self.zealots:
            return None
        if self.zealots > kernel.n:
            raise ValueError(
                f"zealot count {self.zealots} exceeds n={kernel.n}"
            )
        return kernel.first_vertex_counts(self.zealots)

    def absorbed(self, totals, n, *, state=None, prev=None):
        # Ordinary-vertex unanimity: all blue (total n) or all red
        # (total = pinned mass).
        return (totals == n) | (totals == self.zealots)

    def meanfield_map(self, b, n=None):
        from repro.core.meanfield import zealot_best_of_k_map

        if n is None:
            raise ValueError(
                "the zealot mean-field map needs n (zeta = zealots/n)"
            )
        return zealot_best_of_k_map(
            b, self.zealots / n, self.k, tie_rule=self.tie_rule
        )

    def summarize(self, result) -> dict:
        if result.final_totals is None:
            raise ValueError("zealot payloads need final blue totals")
        z = self.zealots
        outcomes: list[str] = []
        for conv, w in zip(result.converged, result.winners):
            if conv:
                outcomes.append("all_blue" if w == BLUE else "all_red")
            else:
                outcomes.append("mixed")
        return {
            "ordinary_outcome": outcomes,
            "final_ordinary_blue": [
                int(t) - z for t in result.final_totals
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(zealots={self.zealots}, k={self.k})"


class NoisyZealotBestOfK(NoisyBestOfK):
    """Noise *and* zealots at once — a composition the pre-Protocol
    runners could not express.  The adoption law is the η-mix, the
    pinned slots are the zealots; both paths (dense and count-chain)
    stay exact.  Termination follows the noisy convention (full budget:
    zealot consensus is not absorbing under noise either)."""

    name = "noisy_zealot_best_of_k"

    def __init__(
        self,
        eta: float,
        zealots: int,
        *,
        k: int = 3,
        tie_rule: TieRule = TieRule.KEEP_SELF,
    ) -> None:
        super().__init__(eta, k=k, tie_rule=tie_rule)
        self._zealot = ZealotBestOfK(zealots, k=k, tie_rule=tie_rule)

    @property
    def zealots(self) -> int:
        return self._zealot.zealots

    def prepare_state(self, opinions):
        return self._zealot.prepare_state(opinions)

    def step_batch(self, graph, opinions, rng, *, out=None, max_batch_bytes=None):
        out = super().step_batch(
            graph, opinions, rng, out=out, max_batch_bytes=max_batch_bytes
        )
        return self._zealot._repin(out)

    def kernel_pinned(self, kernel):
        return self._zealot.kernel_pinned(kernel)

    def meanfield_map(self, b, n=None):
        from repro.core.meanfield import noisy_best_of_k_map

        if n is None:
            raise ValueError("the zealot mean-field map needs n")
        # Noise applies to ordinary vertices only: (1 − ζ) of the mass
        # runs the η-mixed map, ζ stays pinned blue.
        zeta = self.zealots / n
        return (1.0 - zeta) * noisy_best_of_k_map(
            b, self.eta, self.k, tie_rule=self.tie_rule
        ) + zeta


# ----------------------------------------------------------------------
# Asynchronous sweeps
# ----------------------------------------------------------------------


class AsyncSweepBestOfK(Protocol):
    """Sequential Best-of-k in batched geometric sweeps (E14's dynamics).

    One :meth:`step_batch` call is one *sweep*: ``n`` single-vertex
    ticks per replica, processed in sub-batches of ``batch`` uniformly
    random vertices computed against the state at sub-batch start
    (``batch = 1`` recovers the exact sequential chain; the default is
    ``n/16``, where reads rarely race on dense hosts).  Each replica
    draws its own tick vertices, so replicas stay independent.  Even
    ``k`` keeps the vertex's own opinion on ties (the only rule the
    sequential chain defines).

    A sweep has no per-vertex product law (later ticks read earlier
    writes), so the one-round oracle does not apply; the tests check it
    against a one-trial reference loop kept in ``tests/``.
    """

    name = "async_best_of_k"
    steps_key = "sweeps"

    def __init__(self, k: int = 3, *, batch: int | None = None) -> None:
        self.k = check_positive_int(k, "k")
        if batch is not None:
            batch = check_positive_int(batch, "batch")
        self.batch = batch
        self.tie_rule = TieRule.KEEP_SELF

    def step_batch(self, graph, opinions, rng, *, out=None, max_batch_bytes=None):
        n = graph.num_vertices
        replicas, width = opinions.shape
        if width != n:
            raise ValueError(
                f"opinions must have shape (R, {n}), got {opinions.shape}"
            )
        k = self.k
        if out is None:
            out = np.empty(opinions.shape, dtype=opinions.dtype)
        # The sweep writes through a flat row-major view, so work in a
        # contiguous buffer (a non-contiguous ``out`` would silently
        # receive no updates via ``ascontiguousarray``'s copy).
        work = (
            out
            if out.flags.c_contiguous
            else np.empty(opinions.shape, dtype=opinions.dtype)
        )
        if work is not opinions:
            np.copyto(work, opinions)
        flat = work.reshape(-1)
        off_col = np.arange(replicas, dtype=np.int64)[:, None] * n
        vote_dtype = np.uint8 if k < 256 else np.int64
        half = k // 2  # votes > half <=> strict blue majority
        batch = self.batch if self.batch is not None else max(n // 16, 1)
        done = 0
        while done < n:
            m = min(batch, n - done)
            verts = rng.integers(0, n, size=(replicas, m), dtype=np.int64)
            draws = graph.sample_neighbors(verts.reshape(-1), k, rng)
            # Replica r's m·k draws are one contiguous row: the row offset
            # is an outer operand, never broadcast along the length-k axis.
            idx = draws.reshape(replicas, m * k)
            idx += off_col
            gathered = np.take(flat, idx).reshape(replicas * m, k)
            votes = np.empty(replicas * m, dtype=vote_dtype)
            _count_votes(gathered, votes)
            targets = (verts + off_col).reshape(-1)
            new_vals = (votes > half).astype(OPINION_DTYPE)
            if k % 2 == 0:
                new_vals += (votes == half) * flat[targets]
            flat[targets] = new_vals
            done += m
        if work is not out:
            np.copyto(out, work)
        return out

    def meanfield_map(self, b, n=None):
        # Per-sweep drift equals the synchronous round drift (the E14
        # premise: equation (1) is per-vertex, not per-round).
        from repro.core.meanfield import best_of_k_map

        return best_of_k_map(b, self.k)


# ----------------------------------------------------------------------
# Comparison baselines
# ----------------------------------------------------------------------


class LocalMajority(Protocol):
    """Deterministic synchronous full-neighbourhood majority (baseline).

    Every vertex simultaneously adopts its entire neighbourhood's
    majority, keeping its own opinion on ties; one batched round is one
    sparse adjacency matmat over the ``(R, n)`` matrix (vectorised over
    replicas — the per-run loop's matvec was the old path).  The engine
    stops a replica at any fixed point: consensus rows win as usual,
    frozen non-unanimous rows stop with winner ``-1`` (counted
    unconverged).  Period-2 cycles (the Goles–Olivos alternative to a
    fixed point, e.g. the blinker on a complete bipartite graph) are not
    detected: such a replica runs to ``max_steps`` and ends unconverged,
    so cap ``max_steps`` accordingly on bipartite-ish hosts.
    """

    name = "local_majority"

    def __init__(self) -> None:
        # Single-slot memo (graph, adj, deg): avoids rebuilding the
        # scipy adjacency every round without pinning every host the
        # protocol instance ever stepped.
        self._adj_memo: tuple[Graph, object, np.ndarray] | None = None

    def _adjacency(self, graph: Graph):
        memo = self._adj_memo
        if memo is not None and memo[0] is graph:
            return memo[1], memo[2]
        from repro.graphs.csr import CSRGraph

        csr = graph if isinstance(graph, CSRGraph) else graph.to_csr()
        adj = csr.adjacency_scipy()
        deg = csr.degrees.astype(np.int64)
        self._adj_memo = (graph, adj, deg)
        return adj, deg

    def step_batch(self, graph, opinions, rng, *, out=None, max_batch_bytes=None):
        adj, deg = self._adjacency(graph)
        blue_neighbors = adj @ opinions.T.astype(np.float64)  # (n, R)
        twice = 2 * blue_neighbors.astype(np.int64)
        nxt = np.where(
            twice > deg[:, None],
            np.uint8(BLUE),
            np.where(twice < deg[:, None], np.uint8(RED), opinions.T),
        ).T
        if out is None:
            out = np.empty_like(opinions)
        np.copyto(out, nxt.astype(OPINION_DTYPE, copy=False))
        return out

    def absorbed(self, totals, n, *, state=None, prev=None):
        done = (totals == 0) | (totals == n)
        if state is not None and prev is not None:
            done = done | (state == prev).all(axis=1)
        return done

    def winners(self, totals, n, *, state=None):
        return np.where(
            totals == n,
            np.int64(BLUE),
            np.where(totals == 0, np.int64(RED), np.int64(-1)),
        )


class Plurality(Protocol):
    """q-colour 3-majority with random tie-breaking ([2]; baseline).

    Opinion codes ``0..q-1`` in an ``int64`` matrix; one batched round
    sorts each vertex's three sampled opinions for every replica at once
    (the repeated value is the median) and resolves three-distinct ties
    with one uniform pick per tied vertex.  The engine's progress
    statistic (:meth:`totals`, hence ``blue_trajectories``) is the
    *leading-colour count*, absorbing at ``n``; winners are the
    consensus colour code.  The ``q = 2`` special case is
    distributionally Best-of-3.
    """

    name = "plurality"
    opinion_dtype = np.dtype(np.int64)

    def __init__(self, q: int) -> None:
        self.q = check_positive_int(q, "q")
        if q < 2:
            raise ValueError(f"plurality needs q >= 2 colours, got {q}")
        self.colours = self.q
        self.k = 3  # the [2] protocol is 3-sample by definition

    def step_batch(self, graph, opinions, rng, *, out=None, max_batch_bytes=None):
        n = graph.num_vertices
        replicas = opinions.shape[0]
        samples = graph.sample_neighbors_batch(
            graph.vertex_ids, 3, rng, replicas
        )
        flat, offsets = _flat_row_gather(opinions)
        idx = samples.astype(np.int64, copy=False) + offsets[:, None, None]
        vals = np.sort(flat[idx.reshape(-1)].reshape(replicas, n, 3), axis=2)
        if out is None:
            out = np.empty_like(opinions)
        np.copyto(out, vals[:, :, 1])  # the median is the repeated value
        tie = (vals[:, :, 0] != vals[:, :, 1]) & (
            vals[:, :, 1] != vals[:, :, 2]
        )
        rows, cols = np.nonzero(tie)
        if rows.size:
            pick = rng.integers(0, 3, size=rows.size)
            out[rows, cols] = vals[rows, cols, pick]
        return out

    def totals(self, opinions):
        counts = np.stack(
            [(opinions == c).sum(axis=1) for c in range(self.q)]
        )
        return counts.max(axis=0).astype(np.int64)

    def winners(self, totals, n, *, state=None):
        if state is None:
            raise ValueError("plurality winners need the opinion matrix")
        # A stopped replica is unanimous, so any column names the winner.
        return np.where(
            totals == n, state[:, 0].astype(np.int64), np.int64(-1)
        )

    def meanfield_map(self, b, n=None):
        from repro.core.meanfield import plurality_map

        return plurality_map(b)
