"""Deterministic random-stream management.

Every stochastic entry point in the library accepts either an integer seed,
a :class:`numpy.random.SeedSequence`, a :class:`numpy.random.Generator`, or
``None``.  :func:`as_generator` normalises all of those into a
:class:`~numpy.random.Generator` backed by PCG64.

For ensembles of independent trials we never reuse or increment seeds by
hand; instead :func:`spawn_generators` fans a root seed out into
statistically independent child streams via ``SeedSequence.spawn`` — the
idiom NumPy documents for parallel and repeated stochastic work.  This
matters for the reproduction: the paper's statements are about ensembles of
independent runs, and correlated trial streams would silently bias the
measured consensus-time distributions.

:func:`replica_streams` yields exactly the streams ``spawn_generators``
would, but derives every child's PCG64 state in one numpy pass and
re-seeds one reused generator per child: the engine's per-replica
initial states read ``10⁴`` streams per call, and building three Python
objects per stream would dominate a large count-chain call.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

import numpy as np

SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]

__all__ = [
    "SeedLike",
    "as_generator",
    "spawn_generators",
    "replica_streams",
    "RngStreams",
]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Normalise *seed* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` or sequence of ints (used as
        a :class:`~numpy.random.SeedSequence` entropy pool), an existing
        ``SeedSequence``, or an existing ``Generator`` (returned as-is so
        callers can thread one stream through a pipeline).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.

    Examples
    --------
    >>> g = as_generator(123)
    >>> h = as_generator(123)
    >>> bool((g.random(4) == h.random(4)).all())
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn_generators(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Create *n* statistically independent generators from one root seed.

    Uses ``SeedSequence.spawn`` so children are independent regardless of
    the root entropy.  If *seed* is already a ``Generator`` its underlying
    bit generator's seed sequence is spawned, so the parent stream is not
    consumed.

    Raises
    ------
    ValueError
        If ``n`` is negative.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators (n={n})")
    ss = _seed_sequence_of(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(n)]


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and the
# 128-bit PCG64 multiplier; replica_streams replays both in numpy.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _entropy_words(value) -> int:
    """Number of uint32 words ``SeedSequence`` coerces *value* into."""
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return value.size
    if isinstance(value, str):  # NumPy accepts "0x..." hex seed words
        value = int(value, 16)
    if isinstance(value, (int, np.integer)):
        return max(1, -(-int(value).bit_length() // 32))
    return sum(_entropy_words(v) for v in value)


def _hash(
    words: np.ndarray, hash_const: int, mult: int
) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step over an array of words, all at the same
    hash position; returns the hashed words and the next constant."""
    value = words ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value *= np.uint32(hash_const)
    value ^= value >> np.uint32(16)
    return value, hash_const


def _child_seed_words(ss: np.random.SeedSequence, n: int) -> np.ndarray:
    """``(n, 4)`` uint64 ``generate_state(4, uint64)`` of ``ss.spawn(n)``.

    A child's entropy is the parent's (run entropy zero-padded to the
    pool size, then its spawn key) plus one last word, the child index.
    Mixing is sequential and the parent's pool is that prefix already
    mixed, so each child is the parent pool mixed with its index at the
    parent's hash position: one vectorised step for all children.
    """
    start = ss.n_children_spawned
    if start + n > 1 << 32:
        raise ValueError("replica_streams needs child indices below 2**32")
    size = ss.pool_size
    prefix = max(_entropy_words(ss.entropy), size)
    prefix += _entropy_words(ss.spawn_key)
    hash_const = _INIT_A * pow(_MULT_A, size * prefix, 1 << 32) & _MASK32
    index = np.arange(start, start + n, dtype=np.uint32)
    pool = np.empty((n, size), dtype=np.uint32)
    for dst, word in enumerate(ss.pool.tolist()):
        mixed, hash_const = _hash(index, hash_const, _MULT_A)
        left = np.uint32(_MIX_MULT_L * word & _MASK32)
        col = left - np.uint32(_MIX_MULT_R) * mixed
        col ^= col >> np.uint32(16)
        pool[:, dst] = col
    # generate_state: eight words cycled from the pool, hashed with the
    # INIT_B/MULT_B constants, read as four little-endian uint64.
    state = np.empty((n, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for dst in range(8):
        state[:, dst], hash_const = _hash(
            pool[:, dst % size], hash_const, _MULT_B
        )
    return state.astype("<u4").view("<u8").astype(np.uint64)


def replica_streams(seed: SeedLike, n: int) -> Iterator[np.random.Generator]:
    """Iterate the *n* streams of ``spawn_generators(seed, n)``, byte for byte.

    All *n* children's PCG64 seeds are derived in one numpy pass (the
    children differ only in the last word of their spawn key) and each
    is loaded into **one reused** Generator in turn, instead of building
    a ``SeedSequence``, a ``PCG64`` and a ``Generator`` per child.

    Two differences from :func:`spawn_generators`, both by design:

    * the yielded Generator is the same object every time — draw from
      it before advancing the iterator, and keep no reference to it;
    * NumPy keeps ``SeedSequence.n_children_spawned`` read-only, so the
      children start at the parent's counter, as ``spawn`` does, but the
      counter is **not** advanced.  Calling this twice on one parent
      yields the same streams twice, where ``spawn`` would move on.  Use
      it only on a seed sequence spawned from exactly once (the engine's
      per-call init stream).

    Raises
    ------
    ValueError
        If ``n`` is negative.
    """
    if n < 0:
        raise ValueError(
            f"cannot spawn a negative number of generators (n={n})"
        )
    return _reseeded(_child_seed_words(_seed_sequence_of(seed), n))


def _reseeded(words: np.ndarray) -> Iterator[np.random.Generator]:
    """One Generator, loaded with each row's PCG64 seed words in turn."""
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    for hi_seed, lo_seed, hi_inc, lo_inc in words.tolist():
        # pcg64_set_seed: inc = 2·initseq + 1, state = (inc + seed)·M + inc.
        inc = (((hi_inc << 64) | lo_inc) << 1 | 1) & _MASK128
        state = (inc + ((hi_seed << 64) | lo_seed)) * _PCG64_MULT + inc
        state &= _MASK128
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


def _seed_sequence_of(seed: SeedLike) -> np.random.SeedSequence:
    """Extract/construct the ``SeedSequence`` behind *seed*."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        ss = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if isinstance(ss, np.random.SeedSequence):
            return ss
        raise TypeError(
            "Generator's bit generator does not expose a SeedSequence; "
            "pass an int or SeedSequence instead"
        )
    return np.random.SeedSequence(seed)


class RngStreams:
    """A replayable, lazily-spawned family of independent random streams.

    The harness uses one ``RngStreams`` per experiment so that trial ``i``
    of experiment ``e`` always sees the same randomness, independent of how
    many other trials ran before it — essential for debugging individual
    trajectories out of a large ensemble.

    Parameters
    ----------
    seed:
        Root entropy (any :data:`SeedLike`).

    Examples
    --------
    >>> streams = RngStreams(7)
    >>> a0 = streams.generator(0).random()
    >>> b0 = RngStreams(7).generator(0).random()
    >>> a0 == b0
    True
    """

    def __init__(self, seed: SeedLike = None) -> None:
        self._root = _seed_sequence_of(seed)
        self._children: list[np.random.SeedSequence] = []

    @property
    def root_entropy(self) -> "int | Sequence[int] | None":
        """Entropy pool of the root seed sequence (replay token)."""
        return self._root.entropy

    def _ensure(self, index: int) -> None:
        while len(self._children) <= index:
            self._children.extend(self._root.spawn(max(8, index + 1 - len(self._children))))

    def generator(self, index: int) -> np.random.Generator:
        """Return the generator for stream *index* (deterministic per root)."""
        if index < 0:
            raise ValueError(f"stream index must be >= 0, got {index}")
        self._ensure(index)
        return np.random.Generator(np.random.PCG64(self._children[index]))

    def generators(self, n: int) -> Iterator[np.random.Generator]:
        """Yield the first *n* streams in order."""
        for i in range(n):
            yield self.generator(i)
