"""The dense-path hot loop: batched Best-of-k rounds (DESIGN.md §2.10).

This module is the library's dense inner kernel, split out of
:mod:`repro.core.ensemble` so the hot path has exactly one home.  It is
plain numpy.  Two layers live here:

* :func:`step_best_of_k_batch` — one synchronous Best-of-k round for a
  whole ``(R, n)`` batch, chunked along the replica axis so per-chunk
  scratch stays cache-resident;
* the **threading policy** — :func:`resolve_dense_threads` and
  :func:`replica_blocks` decide when the engine dispatches replica
  blocks over a thread pool and how replicas partition into blocks.
  The partition is a pure function of the workload (never of the thread
  count), which is what makes threaded results bit-identical for every
  worker count ≥ 1.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.dynamics import TieRule
from repro.core.opinions import OPINION_DTYPE
from repro.util.validation import check_positive_int

__all__ = [
    "DEFAULT_BATCH_BYTES",
    "DENSE_AUTO_THREAD_MIN_SAMPLES",
    "DENSE_BLOCKS_TARGET",
    "MAX_AUTO_THREADS",
    "dense_kernel_name",
    "replica_blocks",
    "resolve_dense_threads",
    "step_best_of_k_batch",
]

DEFAULT_BATCH_BYTES = 2 * 2**20
"""Default cap on the per-round sample-tensor footprint (bytes).

The dense path chunks the replica axis so that one chunk's scratch
(uniform draws + neighbour ids + gathered opinions, ~13 bytes per sample)
stays under this.  Two jobs at once: it bounds peak memory at large
``n·k·R``, and — measured, not theoretical — it keeps each chunk's
multi-pass kernels (draw, shift, gather, reduce) cache-resident instead
of streaming 100s of MB through DRAM per pass: a 64 MB cap is ~30× slower
than this one on a ``(100, 2¹⁴)`` rook round.  At small ``n`` the cap is
far above ``n·k·R`` and whole ensembles advance in one fully-vectorised
chunk, which is where batching beats the per-trial loop outright (the
per-call overhead regime).
"""

# A partition constant, not a measurement: it fixes the chunk and block
# sizes, hence the seeded streams, so it stays 13 (float64 draw + int32
# id + uint8 gather) whatever the samplers actually allocate.
_BYTES_PER_SAMPLE = 13

DENSE_AUTO_THREAD_MIN_SAMPLES = 1 << 22
"""Per-round sample count ``R·n·k`` above which ``threads=None`` engages
the threaded layout.

Below it the engine keeps the legacy serial stream (small seeded runs —
the harness grids, the goldens — stay byte-stable); above it the round
is DRAM-bound enough that per-block streams and a thread pool win.  The
auto policy was re-tuned when the serial dense path measured *slower*
than the per-trial loop on rook-like hosts (``batched_vs_loop_rook``,
0.92× at v1.4.0).  Serial rook now runs ~1.3× the loop, whose round
is this module's ``R = 1`` round (``serial_speedup_vs_loop`` of
``bench_dense_scaling``, ``n = 2¹⁴``, ``R = 96``, median of 5 on a
2-vCPU host); threading past this threshold is for the extra cores, not
to dodge a slow serial path.  The
threshold is a pure function of the workload, so the decision — and
therefore the result bytes — is machine-independent: a one-core host
runs the threaded layout with one worker, paying the block overhead
(rook-128 at ``R = 96``: up to ~1.2× the serial layout's time) so that it
writes the same bytes under a cache key as every other host.
"""

DENSE_BLOCKS_TARGET = 16
"""Minimum block count the partition aims for when ``R`` permits, so an
``R``-replica ensemble exposes enough parallelism for every worker count
the auto policy can pick without tying the partition to the pool size."""

MAX_AUTO_THREADS = 16
"""Cap on ``threads="auto"`` workers (diminishing returns past the
memory bandwidth of one socket)."""


# ----------------------------------------------------------------------
# Threading policy
# ----------------------------------------------------------------------


def _auto_workers() -> int:
    return max(1, min(os.cpu_count() or 1, MAX_AUTO_THREADS))


def resolve_dense_threads(
    n: int, k: int, replicas: int, threads=None
) -> int:
    """Resolve a ``threads`` request to a worker count.

    Returns ``0`` for the legacy serial layout (one stream consumed
    in-order, byte-identical to the pre-1.8 engine) or ``>= 1`` for the
    threaded layout (fixed replica blocks, one spawned stream per block
    — bit-identical for every worker count ≥ 1, so ``threads=1`` is the
    single-worker execution of exactly what ``threads=4`` computes).

    Booleans are rejected: ``True`` is not a worker count.

    ``None`` is the auto policy: thread exactly when the per-round
    sample count ``R·n·k`` reaches :data:`DENSE_AUTO_THREAD_MIN_SAMPLES`,
    with ``min(cores, MAX_AUTO_THREADS)`` workers — one on a one-core
    host.  The layout, and with it the result bytes, is a function of
    the workload alone; only the worker count follows the machine.
    ``"auto"`` always threads, with that many workers; ``"serial"`` or
    ``0`` forces the legacy layout; an integer ≥ 1 threads with that
    many workers.
    """
    if threads is None:
        if n * k * replicas >= DENSE_AUTO_THREAD_MIN_SAMPLES:
            return _auto_workers()
        return 0
    if threads == "auto":
        return _auto_workers()
    if threads == "serial":
        return 0
    count = int(threads)
    if isinstance(threads, bool) or count < 0 or (
        not isinstance(threads, int) and threads != count
    ):
        raise ValueError(
            f"threads must be None, 'auto', 'serial', or an int >= 0; "
            f"got {threads!r}"
        )
    return count


def replica_blocks(
    replicas: int, n: int, k: int, max_batch_bytes: int = DEFAULT_BATCH_BYTES
) -> list[tuple[int, int]]:
    """Deterministic ``[lo, hi)`` replica blocks for the threaded layout.

    Block size is the serial path's cache-resident chunk size, further
    split so at least :data:`DENSE_BLOCKS_TARGET` blocks exist when
    ``R`` permits.  A pure function of the workload — thread count never
    enters — so block → replica assignment (and with it every spawned
    stream) is invariant under the worker count.
    """
    bytes_chunk = max(1, int(max_batch_bytes) // max(n * k * _BYTES_PER_SAMPLE, 1))
    target_chunk = max(1, -(-replicas // DENSE_BLOCKS_TARGET))
    block = max(1, min(bytes_chunk, target_chunk))
    return [(lo, min(lo + block, replicas)) for lo in range(0, replicas, block)]


def dense_kernel_name() -> str:
    """The dense kernel in use; always ``"numpy"`` (benchmark metadata)."""
    return "numpy"


# ----------------------------------------------------------------------
# Batched dense round
# ----------------------------------------------------------------------


def _count_votes(gathered, votes):
    """``votes = gathered.sum(axis=-1)`` in ``votes.dtype``, same bytes.

    Adds the ``k`` sample slices one by one: several times faster than
    ``np.sum(axis=-1)`` on the ``(..., k)`` tensor (0.11 against
    1.0 ms on a ``(3, 2¹⁴, 3)`` chunk)."""
    np.copyto(votes, gathered[..., 0])
    for j in range(1, gathered.shape[-1]):
        np.add(votes, gathered[..., j], out=votes)


def step_best_of_k_batch(
    graph,
    opinions,
    k: int,
    rng,
    *,
    tie_rule: TieRule = TieRule.KEEP_SELF,
    out=None,
    max_batch_bytes: int = DEFAULT_BATCH_BYTES,
):
    """One synchronous Best-of-k round for a whole ``(R, n)`` batch.

    Row ``r`` of *opinions* is one replica's opinion vector; rows advance
    independently (each gets its own neighbour draws) but in one set of
    vectorised kernels.  The sample tensor is processed in replica chunks
    sized so the per-chunk scratch stays under *max_batch_bytes*.

    The per-chunk gather is a flat ``take`` over the row-major opinion
    buffer: sample ids are shifted by precomputed row offsets *in place*
    (reusing the sample buffer as the flat-index buffer), and the
    gathered opinions and vote counts land in scratch buffers allocated
    once per call and reused across chunks.
    """
    n = graph.num_vertices
    if opinions.ndim != 2 or opinions.shape[1] != n:
        raise ValueError(
            f"opinions must have shape (R, {n}), got {opinions.shape}"
        )
    k = check_positive_int(k, "k")
    replicas = opinions.shape[0]
    if out is None:
        out = np.empty_like(opinions)
    elif np.shares_memory(out, opinions):
        raise ValueError("out must not alias opinions (synchronous update)")
    elif out.shape != opinions.shape:
        raise ValueError(
            f"out shape {out.shape} does not match opinions {opinions.shape}"
        )
    vertices = graph.vertex_ids
    vote_dtype = np.uint8 if k < 256 else np.int64
    half = k // 2  # votes > half <=> strict blue majority, for any parity
    chunk = max(1, int(max_batch_bytes) // max(n * k * _BYTES_PER_SAMPLE, 1))
    chunk = min(chunk, replicas)
    # Flat row-major view for the flat-take gather (copies only when the
    # caller passed a non-contiguous matrix; the engine's buffers are
    # contiguous).
    flat_ops = np.ascontiguousarray(opinions).reshape(-1)
    # Row offsets can exceed int32 when R·n does even though ids fit.
    offset_dtype = (
        np.int64 if replicas * n > np.iinfo(np.int32).max else np.int32
    )
    gathered = np.empty((chunk, n, k), dtype=OPINION_DTYPE)
    votes = np.empty((chunk, n), dtype=vote_dtype)
    if k % 2 == 0:
        tied_buf = np.empty((chunk, n), dtype=bool)
        kept_buf = np.empty((chunk, n), dtype=out.dtype)
    for lo in range(0, replicas, chunk):
        hi = min(lo + chunk, replicas)
        rows = hi - lo
        samples = graph.sample_neighbors_batch(vertices, k, rng, rows)
        offsets = np.arange(lo, hi, dtype=offset_dtype) * n
        if np.can_cast(offset_dtype, samples.dtype):
            samples += offsets[:, None, None].astype(samples.dtype)
            flat_idx = samples
        else:
            flat_idx = samples.astype(offset_dtype)
            flat_idx += offsets[:, None, None]
        np.take(flat_ops, flat_idx, out=gathered[:rows])
        _count_votes(gathered[:rows], votes[:rows])
        np.greater(votes[:rows], half, out=out[lo:hi])
        if k % 2 == 0:
            # A tied entry is 0 in ``out`` here (votes == half is not
            # > half).  Neither rule assigns through the tie mask: a
            # masked write on random draws is branch-bound.
            tied = np.equal(votes[:rows], half, out=tied_buf[:rows])
            if tie_rule is TieRule.KEEP_SELF:
                # out += tied * opinions: the same bytes, branch-free.
                kept = np.multiply(
                    tied, opinions[lo:hi], out=kept_buf[:rows], casting="unsafe"
                )
                np.add(out[lo:hi], kept, out=out[lo:hi])
            elif tie_rule is TieRule.RANDOM:
                # The same n_tied coins, written at the tied positions in
                # C order.  ``np.put`` writes through a non-contiguous
                # ``out``, where ``reshape(-1)`` would return a copy.
                pos = np.flatnonzero(tied)
                if pos.size:
                    coins = (rng.random(pos.size) < 0.5).astype(OPINION_DTYPE)
                    np.put(out[lo:hi], pos, coins)
            else:  # pragma: no cover - exhaustiveness guard
                raise ValueError(f"unknown tie rule {tie_rule!r}")
    return out
