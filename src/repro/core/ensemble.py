"""Batched ensemble engine: ``R`` replicas per round, not ``R`` run loops.

This module is the library's one way into the dynamics: the experiment
harness, Theorem 1 verification, the sweep runner, the service and
:meth:`repro.core.dynamics.BestOfKDynamics.run` (one replica of the dense
loop below) all advance their replicas through it (DESIGN.md §2.3):

* **Batched dense path** — the ensemble state is one ``(R, n)`` ``uint8``
  matrix; one round is one batched neighbour draw
  (:meth:`repro.graphs.Graph.sample_neighbors_batch`), one flat
  ``np.take`` gather over precomputed row offsets, and one row reduction
  for *all* live replicas.  Absorbed replicas are compacted out of the
  matrix so finished runs stop costing work; the sample tensor is chunked
  along the replica axis (with an ``int32`` index path for ``n < 2**31``)
  to bound peak memory at large ``n·k·R``, and the per-chunk scratch
  (sample ids, gathered opinions, vote counts) is preallocated once per
  round and reused across chunks.
* **Exact count-chain fast path** — hosts made of exchangeable parts
  (``K_n``, complete multipartite families, the two-clique bridge with
  its explicitly tracked bridge endpoints) advertise a
  :class:`~repro.core.kernels.CountChainKernel`: conditioned on the
  per-part blue counts the configuration is irrelevant, so one round of
  ``R`` replicas is a handful of vectorised binomial operations — O(parts)
  work per replica per round instead of O(n·k) memory traffic.  The
  chains are *exactly* distributed like the dense simulation's count
  process (not an approximation), and their binomials switch to
  :func:`~repro.core.kernels.binomial_draw`'s Gaussian/Poisson regime
  above 2³¹, which makes ``n = 10¹⁰``-scale Theorem 1 sweeps feasible.

Since the Protocol layer (DESIGN.md §2.6) the engine is dynamics-generic:
``run_ensemble(protocol=...)`` drives any :class:`repro.core.protocols.
Protocol` — noisy/zealot/async Best-of-k, the voter model, deterministic
local majority, q-colour plurality — through the same two paths.  The
protocol supplies the batched step, the count-chain transition (an
adoption law plus optional pinned slots), and the termination semantics;
the engine owns the loop, compaction, and bookkeeping.  Passing
``k``/``tie_rule`` instead of a protocol builds the default ``BestOfK``
and is unchanged draw-for-draw from the pre-Protocol engine.

Randomness: ``run_ensemble`` spawns separate initial-state and dynamics
streams from its seed and consumes one dynamics generator for the whole
batch, so results are deterministic given a seed but not bitwise-identical
to ``R`` independent single runs; equivalence is distributional (covered
by ``tests/test_core_ensemble.py``, ``tests/test_count_chain_kernels.py``
and ``tests/test_protocols.py``).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from repro.core.dense import (
    DEFAULT_BATCH_BYTES,
    replica_blocks,
    resolve_dense_threads,
    step_best_of_k_batch,
)
from repro.core.dynamics import TieRule
from repro.core.kernels import (
    CountChainKernel,
    binomial_draw,
    majority_win_probability,
)
from repro.core.opinions import (
    BLUE,
    OPINION_DTYPE,
    RED,
    exact_count_opinions,
    random_opinions,
)
from repro.graphs.base import Graph
from repro.util.rng import (
    SeedLike,
    as_generator,
    replica_streams,
    spawn_generators,
)
from repro.util.validation import check_in_range, check_positive_int

__all__ = [
    "DEFAULT_BATCH_BYTES",
    "EnsembleResult",
    "majority_win_probability",
    "binomial_draw",
    "step_best_of_k_batch",
    "build_initial_matrix",
    "run_ensemble",
]

# ``DEFAULT_BATCH_BYTES`` and ``step_best_of_k_batch`` moved to
# :mod:`repro.core.dense` in 1.8 (the dense hot-path module);
# re-exported here because the public import path predates the split.

EnsembleMethod = Literal["auto", "batched", "count_chain"]

ThreadsLike = int | str | None
"""``threads`` accepts ``None`` (auto policy: thread only above the
dense-path workload threshold), ``"auto"`` (always thread,
``min(cores, 16)`` workers), ``"serial"``/``0`` (the legacy
single-stream layout, byte-identical to pre-1.8 results), or an int ≥ 1
(threaded block layout with that many workers — results are identical
for every count ≥ 1)."""


# ----------------------------------------------------------------------
# Result type
# ----------------------------------------------------------------------


@dataclass
class EnsembleResult:
    """Outcome of a batched ensemble run.

    Attributes
    ----------
    n:
        Number of vertices of the host graph.
    replicas:
        Number of replicas ``R`` simulated.
    steps:
        ``(R,)`` rounds executed per replica (the consensus time where
        ``converged``; the round budget otherwise).
    winners:
        ``(R,)`` winner codes (``RED``/``BLUE``); ``-1`` for replicas that
        did not absorb within the budget.
    converged:
        ``(R,)`` boolean absorption mask.
    method:
        Engine path used (``"batched"`` or ``"count_chain"``).
    blue_trajectories:
        Per-replica blue-count trajectories ``[B_0, …, B_steps]`` (ragged
        list, present when recording was requested).  For multi-colour
        protocols this is the protocol's progress statistic (plurality:
        the leading-colour count).
    final_opinions:
        ``(R, n)`` terminal opinion matrix (dense path with
        ``keep_final=True`` only).
    final_totals:
        ``(R,)`` terminal blue totals (progress statistic), recorded on
        both paths — the zealot payloads read ordinary-blue counts off
        it without needing trajectories.
    threads:
        Dense-path worker count this run executed with (``0`` for the
        legacy serial stream layout — always the case on the
        count-chain path, where the engine is already O(parts)/round).
    """

    n: int
    replicas: int
    steps: np.ndarray
    winners: np.ndarray
    converged: np.ndarray
    method: str
    blue_trajectories: list[np.ndarray] | None = field(default=None, repr=False)
    final_opinions: np.ndarray | None = field(default=None, repr=False)
    final_totals: np.ndarray | None = field(default=None, repr=False)
    threads: int = 0

    @property
    def converged_count(self) -> int:
        return int(np.count_nonzero(self.converged))

    @property
    def unconverged(self) -> int:
        return self.replicas - self.converged_count

    @property
    def red_wins(self) -> int:
        return int(np.count_nonzero(self.winners == RED))

    @property
    def blue_wins(self) -> int:
        return int(np.count_nonzero(self.winners == BLUE))

    @property
    def converged_steps(self) -> np.ndarray:
        """Consensus times of the converged replicas only."""
        return self.steps[self.converged]

    def fraction_matrix(self, horizon: int) -> np.ndarray:
        """Aligned ``(R, horizon + 1)`` blue-*fraction* matrix.

        Absorbed replicas are padded with their terminal value; replicas
        that ran past *horizon* are truncated there.  Requires recorded
        trajectories.
        """
        if self.blue_trajectories is None:
            raise ValueError(
                "fraction_matrix requires the run to record trajectories "
                "(record_trajectories=True)"
            )
        horizon = check_positive_int(horizon, "horizon")
        out = np.empty((self.replicas, horizon + 1), dtype=np.float64)
        for i, traj in enumerate(self.blue_trajectories):
            frac = traj[: horizon + 1] / self.n
            out[i, : frac.size] = frac
            if frac.size <= horizon:
                out[i, frac.size :] = frac[-1]
        return out


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


def run_ensemble(
    graph: Graph,
    *,
    replicas: int,
    protocol=None,
    k: int = 3,
    tie_rule: TieRule = TieRule.KEEP_SELF,
    seed: SeedLike = None,
    max_steps: int = 10_000,
    delta: float | None = None,
    initializer: Callable[[int, np.random.Generator], np.ndarray] | None = None,
    initial_opinions: np.ndarray | None = None,
    initial_blue_counts: np.ndarray | int | None = None,
    record_trajectories: bool = True,
    keep_final: bool = False,
    method: EnsembleMethod = "auto",
    max_batch_bytes: int = DEFAULT_BATCH_BYTES,
    threads: ThreadsLike = None,
) -> EnsembleResult:
    """Run *replicas* independent dynamics runs as one batched simulation.

    *protocol* is any :class:`repro.core.protocols.Protocol` (noisy /
    zealot / async Best-of-k, voter, local majority, plurality, …);
    omitting it builds the default ``BestOfK(k, tie_rule=tie_rule)`` —
    the paper's protocol, draw-for-draw identical to the pre-Protocol
    engine (``k``/``tie_rule`` are ignored when *protocol* is given).

    Exactly one initial-condition source must be given:

    * ``delta`` — the paper's i.i.d. configuration (blue w.p. ``1/2 − δ``),
      drawn per replica from independent spawned streams;
    * ``initializer`` — ``(n, rng) -> opinions``, called once per replica
      with its own spawned stream; the Generator is valid only during
      the call (one Generator object is re-seeded for every replica);
    * ``initial_opinions`` — an explicit ``(R, n)`` (or broadcastable
      ``(n,)``) opinion matrix;
    * ``initial_blue_counts`` — exact initial counts (scalar or ``(R,)``);
      uniform placement on the dense path, split across a kernel's slots
      by the uniform-placement law on the chain path.

    The protocol's :meth:`~repro.core.protocols.Protocol.prepare_state`
    runs after initialisation (zealots pin their vertices BLUE here).

    ``method="auto"`` routes any host that advertises a
    :meth:`~repro.graphs.Graph.count_chain_kernel` (``K_n``, complete
    bipartite/multipartite families, the two-clique bridge) to its exact
    count chain when the protocol supports it (Best-of-k and its noisy /
    zealot overlays do) and per-vertex output (``keep_final``) is not
    requested; everything else uses the batched dense path.  The routing
    is lossless for counts, consensus times, and winners: conditioned on
    the kernel's slot counts, the host's update law does not depend on
    the placement within slots, whatever the initial condition.

    ``threads`` controls the dense path only (DESIGN.md §2.10).  The
    default ``None`` keeps the legacy serial stream for small workloads
    (seeded results stay byte-identical to 1.7) and switches to the
    threaded replica-block layout once the per-round sample count
    ``R·n·k`` clears :data:`repro.core.dense.DENSE_AUTO_THREAD_MIN_SAMPLES`.
    The threaded layout partitions replicas into fixed blocks — a pure
    function of the workload, never of the worker count — and gives each
    block its own spawned generator, so ``threads=1``, ``2``, and ``4``
    produce bit-identical results (and serial vs threaded differ only in
    stream layout: same distribution, KS-guarded in the tests).  The
    count-chain path ignores ``threads``.
    """
    from repro.core.protocols import BestOfK

    replicas = check_positive_int(replicas, "replicas")
    max_steps = check_positive_int(max_steps, "max_steps")
    if protocol is None:
        protocol = BestOfK(k, tie_rule=tie_rule)
    n = graph.num_vertices
    given = [
        name
        for name, val in (
            ("delta", delta),
            ("initializer", initializer),
            ("initial_opinions", initial_opinions),
            ("initial_blue_counts", initial_blue_counts),
        )
        if val is not None
    ]
    if len(given) != 1:
        raise ValueError(
            "provide exactly one of delta, initializer, initial_opinions, "
            f"initial_blue_counts (got {given or 'none'})"
        )
    if delta is not None:
        delta = check_in_range(delta, "delta", 0.0, 0.5)

    init_ss, dyn_ss = spawn_generators(seed, 2)
    rng = as_generator(dyn_ss)

    kernel = graph.count_chain_kernel()
    chain_ok = kernel is not None and protocol.supports_kernel(kernel)
    if method == "auto":
        method = "count_chain" if chain_ok and not keep_final else "batched"
    if method == "count_chain":
        if kernel is None:
            raise ValueError(
                f"{type(graph).__name__} advertises no exact count-chain "
                "kernel (only exchangeable-part hosts such as CompleteGraph, "
                "complete multipartite families, and the two-clique bridge "
                "do); use method='batched'"
            )
        if not chain_ok:
            raise ValueError(
                f"{type(protocol).__name__} has no count-chain transition "
                "on this host; use method='batched'"
            )
        if keep_final:
            raise ValueError(
                "the count-chain path tracks counts only; keep_final "
                "requires method='batched'"
            )
        state0 = _initial_kernel_state(
            kernel, protocol, replicas, init_ss, delta, initializer,
            initial_opinions, initial_blue_counts,
        )
        return _drive(
            protocol, n, state0,
            lambda state: protocol.kernel_step(kernel, state, rng),
            kernel.blue_totals,
            method="count_chain", max_steps=max_steps,
            record_trajectories=record_trajectories,
        )
    if method != "batched":
        raise ValueError(
            f"unknown method {method!r}; expected 'auto', 'batched', or "
            "'count_chain'"
        )
    init_matrix = _initial_matrix(
        n, replicas, init_ss, delta, initializer, initial_opinions,
        initial_blue_counts, colours=protocol.colours,
        dtype=protocol.opinion_dtype,
    )
    init_matrix = protocol.prepare_state(init_matrix)
    k_eff = int(getattr(protocol, "k", 1))
    workers = resolve_dense_threads(n, k_eff, replicas, threads)
    if workers >= 1:
        return _run_batched_threaded(
            graph, protocol, init_matrix, rng, max_steps,
            record_trajectories, keep_final, max_batch_bytes, workers, k_eff,
        )
    return _run_batched(
        graph, protocol, init_matrix, rng, max_steps,
        record_trajectories, keep_final, max_batch_bytes,
    )


def build_initial_matrix(
    n: int,
    replicas: int,
    seed: SeedLike = None,
    *,
    delta: float | None = None,
    initializer: Callable[[int, np.random.Generator], np.ndarray] | None = None,
    initial_blue_counts: np.ndarray | int | None = None,
    dtype=OPINION_DTYPE,
) -> np.ndarray:
    """Materialise the ``(R, n)`` initial matrix an engine run would use.

    Public for paired executions (E14's sync/async comparison): build
    the shared initial configurations once from *seed*'s init stream,
    then hand the same matrix to several ``run_ensemble(protocol=...)``
    calls via ``initial_opinions``.  Initializer codes must fit *dtype*
    here; ``run_ensemble`` checks them against its protocol's colours.
    """
    init_ss = spawn_generators(seed, 1)[0]
    return _initial_matrix(
        n, replicas, init_ss, delta, initializer, None, initial_blue_counts,
        colours=int(np.iinfo(dtype).max) + 1, dtype=dtype,
    )


def _check_codes(values: np.ndarray, colours: int, what: str) -> np.ndarray:
    """Reject opinion codes outside ``[0, colours)``.

    Runs before any cast to the opinion dtype, where ``-1`` or ``256``
    would wrap into a valid-looking code.
    """
    if values.size:
        lo, hi = values.min(), values.max()
        if lo < 0 or hi >= colours:
            codes = (
                "0 (red) or 1 (blue)" if colours == 2
                else f"opinion codes in [0, {colours})"
            )
            raise ValueError(
                f"{what} must be {codes}, got values from {lo} to {hi}"
            )
    return values


def _explicit_opinions(
    initial_opinions, replicas: int, n: int, colours: int
) -> np.ndarray:
    """Validate an explicit ``(R, n)`` or shared ``(n,)`` initial matrix."""
    mat = np.asarray(initial_opinions)
    if mat.shape not in ((replicas, n), (n,)):
        raise ValueError(
            f"initial_opinions must have shape ({replicas}, {n}) or "
            f"({n},), got {mat.shape}"
        )
    return _check_codes(mat, colours, "initial_opinions")


def _initializer_row(
    initializer, n: int, gen: np.random.Generator, colours: int
) -> np.ndarray:
    """One replica's initializer output, validated to shape ``(n,)``."""
    row = np.asarray(initializer(n, gen))
    if row.shape != (n,):
        raise ValueError(
            f"initializer returned shape {row.shape}, expected ({n},)"
        )
    return _check_codes(row, colours, "initializer rows")


def _initial_matrix(
    n: int,
    replicas: int,
    init_ss,
    delta,
    initializer,
    initial_opinions,
    initial_blue_counts,
    *,
    colours: int,
    dtype=OPINION_DTYPE,
) -> np.ndarray:
    """Materialise the ``(R, n)`` initial opinion matrix.

    Explicit and initializer opinions must be codes ``0 .. colours - 1``;
    the ``delta`` and exact-count starts draw 0/1 only.
    """
    if initial_opinions is not None:
        mat = _explicit_opinions(initial_opinions, replicas, n, colours)
        return np.array(
            np.broadcast_to(mat, (replicas, n)), dtype=dtype, order="C"
        )
    gens = replica_streams(init_ss, replicas)
    mat = np.empty((replicas, n), dtype=dtype)
    if delta is not None:
        for i, gen in enumerate(gens):
            mat[i] = random_opinions(n, delta, rng=gen)
    elif initializer is not None:
        for i, gen in enumerate(gens):
            mat[i] = _initializer_row(initializer, n, gen, colours).astype(
                dtype, copy=False
            )
    else:
        counts = np.broadcast_to(
            np.asarray(initial_blue_counts, dtype=np.int64), (replicas,)
        )
        for i, gen in enumerate(gens):
            mat[i] = exact_count_opinions(n, int(counts[i]), rng=gen)
    return mat


def _initial_kernel_state(
    kernel: CountChainKernel,
    protocol,
    replicas: int,
    init_ss,
    delta,
    initializer,
    initial_opinions,
    initial_blue_counts,
) -> np.ndarray:
    """Initial ``(R, slots)`` kernel state, avoiding O(R·n) memory when
    possible (the whole point of the chain path at large ``n``).

    The protocol's pinned slots (zealots) flow into the count laws —
    slot-count draws reproduce "initialise, then pin BLUE" exactly;
    materialised rows go through ``prepare_state`` before projection.
    """
    pinned = protocol.kernel_pinned(kernel)
    if delta is not None or initial_blue_counts is not None:
        return kernel.initial_state(
            replicas, init_ss, delta=delta, blue_counts=initial_blue_counts,
            pinned=pinned,
        )
    n = kernel.n
    if initial_opinions is not None:
        mat = _explicit_opinions(initial_opinions, replicas, n, protocol.colours)
        if mat.ndim == 1:
            # Shared row: project once, repeat — never materialise (R, n).
            row = protocol.prepare_state(
                mat[None, :].astype(protocol.opinion_dtype, copy=True)
            )
            return np.repeat(
                kernel.state_from_opinions(row), replicas, axis=0
            )
        mat = protocol.prepare_state(
            mat.astype(protocol.opinion_dtype, copy=True)
        )
        return kernel.state_from_opinions(mat)
    # Initialiser: materialise one replica row at a time and project; the
    # chain is exact conditioned on any placement's slot counts.
    gens = replica_streams(init_ss, replicas)
    state = np.empty((replicas, kernel.num_slots), dtype=np.int64)
    for i, gen in enumerate(gens):
        row = _initializer_row(initializer, n, gen, protocol.colours)
        row = protocol.prepare_state(
            row[None, :].astype(protocol.opinion_dtype, copy=True)
        )
        state[i] = kernel.state_from_opinions(row)[0]
    return state


_HISTORY_ROWS = 32
"""Initial row capacity of the trajectory buffer (doubled when full)."""


def _drive(
    protocol,
    n: int,
    state: np.ndarray,
    step: Callable[[np.ndarray], np.ndarray],
    totals: Callable[[np.ndarray], np.ndarray],
    *,
    method: str,
    max_steps: int,
    record_trajectories: bool,
    keep_final: bool = False,
) -> EnsembleResult:
    """The engine's round loop, shared by the count chain and the dense path.

    *state* is the ``(R, ·)`` ensemble state (kernel slot counts on the
    count chain, the opinion matrix on the dense path), ``step(state)``
    advances every row by one round and ``totals(state)`` gives the
    per-replica progress statistic.  Replicas the protocol reports
    absorbed are recorded and compacted out, so finished runs stop
    costing work.  On the dense path (``method="batched"``) the protocol
    also sees the opinion matrices after/before each round, and
    *keep_final* keeps every replica's terminal row.

    Trajectories go into one ``(rounds, R)`` buffer that doubles when
    full — never ``max_steps`` rows up front.
    """
    dense = method == "batched"
    replicas = state.shape[0]
    steps = np.zeros(replicas, dtype=np.int64)
    winners = np.full(replicas, -1, dtype=np.int64)
    converged = np.zeros(replicas, dtype=bool)
    final = np.empty_like(state) if keep_final else None
    cur = totals(state)
    final_totals = np.asarray(cur, dtype=np.int64).copy()
    history = None
    if record_trajectories:
        history = np.empty(
            (min(max_steps + 1, _HISTORY_ROWS), replicas), dtype=np.int64
        )
        history[0] = cur
    live = np.arange(replicas)
    prev = None
    t = 0
    while True:
        done = protocol.absorbed(
            cur, n, state=state if dense else None, prev=prev
        )
        if done.any():
            hit = live[done]
            w = protocol.winners(
                cur[done], n, state=state[done] if dense else None
            )
            converged[hit] = w >= 0
            steps[hit] = t
            winners[hit] = w
            final_totals[hit] = cur[done]
            if final is not None:
                final[hit] = state[done]
            keep = ~done
            live, state, cur = live[keep], state[keep], cur[keep]
        if not live.size or t >= max_steps:
            break
        prev = state if dense else None
        state = step(state)
        cur = totals(state)
        t += 1
        if history is not None:
            if t == history.shape[0]:
                grown = np.empty(
                    (min(2 * t, max_steps + 1), replicas), dtype=np.int64
                )
                grown[:t] = history
                history = grown
            history[t, live] = cur
    steps[live] = t
    final_totals[live] = cur
    if final is not None:
        final[live] = state
    trajectories = None
    if history is not None:
        rows = np.ascontiguousarray(history[: t + 1].T)
        trajectories = [
            rows[i, : s + 1].copy() for i, s in enumerate(steps.tolist())
        ]
    return EnsembleResult(
        n=n,
        replicas=replicas,
        steps=steps,
        winners=winners,
        converged=converged,
        method=method,
        blue_trajectories=trajectories,
        final_opinions=final,
        final_totals=final_totals,
    )


def _run_batched(
    graph: Graph,
    protocol,
    init_matrix: np.ndarray,
    rng: np.random.Generator,
    max_steps: int,
    record_trajectories: bool,
    keep_final: bool,
    max_batch_bytes: int,
) -> EnsembleResult:
    """The dense path: :func:`_drive` over a double-buffered
    ``protocol.step_batch``.  Each round writes into the matrix the
    previous round read, so rounds allocate nothing beyond compaction;
    *init_matrix* is owned by the engine and gets overwritten."""
    spare = np.empty_like(init_matrix)

    def step(ops: np.ndarray) -> np.ndarray:
        nonlocal spare
        out = spare[: ops.shape[0]]
        protocol.step_batch(
            graph, ops, rng, out=out, max_batch_bytes=max_batch_bytes
        )
        spare = ops
        return out

    return _drive(
        protocol, graph.num_vertices, init_matrix, step, protocol.totals,
        method="batched", max_steps=max_steps,
        record_trajectories=record_trajectories, keep_final=keep_final,
    )


def _run_batched_threaded(
    graph: Graph,
    protocol,
    init_matrix: np.ndarray,
    rng: np.random.Generator,
    max_steps: int,
    record_trajectories: bool,
    keep_final: bool,
    max_batch_bytes: int,
    workers: int,
    k: int,
) -> EnsembleResult:
    """Dense path over fixed replica blocks dispatched to a thread pool.

    Each block is an independent sub-ensemble — its own spawned stream,
    its own compaction and bookkeeping — over a contiguous ``[lo, hi)``
    row range of the initial matrix, so the merge is a concatenation in
    block order.  The block partition and the per-block streams depend
    only on the workload (:func:`repro.core.dense.replica_blocks`), never
    on *workers*: any worker count ≥ 1 computes bit-identical results,
    and the pool merely decides how many blocks advance at once.  The
    heavy per-round kernels (uniform draw, flat take, axis reduction)
    release the GIL inside numpy, which is where the multi-core scaling
    comes from.
    """
    n = graph.num_vertices
    replicas = init_matrix.shape[0]
    blocks = replica_blocks(replicas, n, k, max_batch_bytes)
    gens = spawn_generators(rng, len(blocks))
    # Touch the shared vertex-id cache once before fan-out so worker
    # threads only read it (other per-graph protocol memos are filled by
    # a single atomic tuple assignment — benign if two blocks race).
    _ = graph.vertex_ids

    def run_block(i: int) -> EnsembleResult:
        lo, hi = blocks[i]
        return _run_batched(
            graph, protocol, init_matrix[lo:hi], gens[i], max_steps,
            record_trajectories, keep_final, max_batch_bytes,
        )

    if workers == 1 or len(blocks) == 1:
        parts = [run_block(i) for i in range(len(blocks))]
    else:
        with ThreadPoolExecutor(
            max_workers=min(workers, len(blocks))
        ) as pool:
            parts = list(pool.map(run_block, range(len(blocks))))
    traj: list[np.ndarray] | None = None
    if record_trajectories:
        traj = [t for part in parts for t in part.blue_trajectories]
    return EnsembleResult(
        n=n,
        replicas=replicas,
        steps=np.concatenate([p.steps for p in parts]),
        winners=np.concatenate([p.winners for p in parts]),
        converged=np.concatenate([p.converged for p in parts]),
        method="batched",
        blue_trajectories=traj,
        final_opinions=(
            np.concatenate([p.final_opinions for p in parts])
            if keep_final
            else None
        ),
        final_totals=np.concatenate([p.final_totals for p in parts]),
        threads=workers,
    )
