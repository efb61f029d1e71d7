"""Exact count-chain kernels for hosts built from exchangeable slots.

PR 1 special-cased ``K_n``: conditioned on the blue count, every vertex
updates independently with a law that depends only on its colour, so one
Best-of-k round of ``R`` replicas is a handful of vectorised binomial
draws — O(1) work per replica per round instead of O(n·k) memory
traffic.  :class:`CountChainKernel` generalises that observation to any
host whose vertices split into **slots**, where a vertex of slot ``i``
sees every vertex of the slots ``adjacency[i]`` marks, minus itself
(DESIGN.md §2.5).  The future law of the per-slot blue counts then
depends on the configuration only through those counts.  Three layouts
ship:

* ``K_n`` — one slot that sees itself;
* a complete multipartite host — one slot per part, each seeing all the
  others;
* the two-clique bridge — two clique interiors plus ``2·bridges``
  size-1 endpoint slots, each endpoint also seeing its partner.

Protocol-supplied transitions
-----------------------------
Since the Protocol layer (DESIGN.md §2.6) the kernels no longer hardwire
the plain Best-of-k adoption law: each ``step`` accepts

* a *transition* — an :class:`AdoptionLaw` mapping a slot's sample-blue
  probability ``p`` (and the vertex's own colour, for even-``k``
  KEEP_SELF ties) to its blue-adoption probability.  The default
  :class:`MajorityLaw` reproduces the historical behaviour draw-for-draw;
  :class:`NoisyLaw` is the exact η-mixed layer of ε-noisy Best-of-k
  (noise coins are i.i.d. per vertex, so conditioning on slot counts
  still factorises — the chain stays exact);
* an optional *pinned* vector — per-slot counts of vertices frozen at
  BLUE (zealots, in the same explicit-slot spirit as the bridge
  endpoints).  Pinned mass is excluded from the update draws but fully
  visible to everyone's samples.

State contract
--------------
A kernel's ensemble state is one ``(R, num_slots)`` ``int64`` matrix.
Each column is a slot's blue count (a size-1 slot's is one vertex's
colour), so

* the blue **total** of replica ``r`` is ``state[r].sum()`` (absorption
  is ``total in {0, n}``), and
* replica compaction is plain boolean row selection —

which lets :func:`repro.core.ensemble.run_ensemble` drive every kernel
through one generic loop.

Mega-``n`` rounds
-----------------
The chains' only per-round cost that grows with ``n`` is the binomial
sampler.  :func:`binomial_draw` keeps rounds exact-to-float beyond the
32-bit count range (where NumPy's exact samplers historically cap out)
by switching per element to moment-matched Gaussian draws, with Poisson
tails where the normal approximation degrades — unlocking Theorem 1
checks at ``n = 10¹⁰`` and beyond.
"""

from __future__ import annotations

import abc
from math import comb
from typing import Iterable

import numpy as np

from repro.core.dynamics import TieRule
from repro.core.opinions import BLUE, RED
from repro.util.rng import replica_streams
from repro.util.validation import check_positive_int

__all__ = [
    "GAUSSIAN_REGIME_THRESHOLD",
    "binomial_draw",
    "majority_win_probability",
    "AdoptionLaw",
    "MajorityLaw",
    "NoisyLaw",
    "CountChainKernel",
    "CompleteKernel",
    "MultipartiteKernel",
    "TwoCliqueBridgeKernel",
]


GAUSSIAN_REGIME_THRESHOLD = 2**31 - 1
"""Largest per-draw count handed to NumPy's exact binomial sampler.

Counts above this switch to the Gaussian/Poisson regime of
:func:`binomial_draw`.  The default is the 32-bit boundary where exact
binomial sampling historically stops being portable; lowering it (tests
do) forces the approximate regime onto ranges where the exact sampler
still works, which is how the two are checked against each other.
"""

_POISSON_TAIL_MEAN = 1e4
"""Mean below which a mega-count binomial tail uses Poisson, not Gauss.

With ``n > 2³¹`` and ``n·p ≤ 10⁴`` the binomial is within total
variation ``O(p·n·p) ≈ 10⁴/n < 10⁻⁵`` of Poisson(``n·p``), while the
normal approximation's skew error is still visible; above it the CLT
error ``O(1/√(n·p·(1−p)))`` is below ``1%`` and shrinking."""


def binomial_draw(
    rng: np.random.Generator,
    counts: np.ndarray | int,
    p: np.ndarray | float,
    *,
    threshold: int = GAUSSIAN_REGIME_THRESHOLD,
) -> np.ndarray:
    """``Bin(counts, p)`` draws that stay exact-to-float at mega counts.

    Elementwise over broadcast ``counts``/``p``:

    * ``counts <= threshold`` — NumPy's exact sampler, bit-identical to
      calling ``rng.binomial`` directly (the whole call collapses to one
      such draw when no element exceeds the threshold, so pre-existing
      streams are unchanged);
    * ``counts > threshold`` with ``counts·p ≤ 10⁴`` — Poisson(``n·p``)
      (low tail), or ``counts − Poisson(n·(1−p))`` (high tail);
    * otherwise — ``round(n·p + √(n·p·(1−p))·Z)`` clipped to
      ``[0, counts]``.

    The approximate regimes match the binomial to float64 resolution in
    the only statistics the chains consume (all moments that are
    resolvable against the ``√(npq) ≈ 10⁴·n/2³¹`` noise floor), which is
    what makes mega-``n`` rounds "exact-to-float".
    """
    counts_any = np.asarray(counts)
    if counts_any.size == 0 or int(counts_any.max(initial=0)) <= threshold:
        return rng.binomial(counts, p)
    plan = _BinomialRegimes(counts, p, threshold)
    raw = np.empty((1, plan.width))
    plan.variates(rng, raw[0])
    return plan.finish(raw)[0]


def _replica_binomials(
    streams: Iterable[np.random.Generator],
    counts: np.ndarray | int,
    p: float,
) -> np.ndarray:
    """``(R, *shape)`` rows ``binomial_draw(stream_i, counts, p)``.

    Every replica shares ``counts`` and ``p``, so the regime split is
    made once: each stream draws exactly the variates ``binomial_draw``
    would draw from it, in the same order, and the Poisson/Gaussian
    transform runs once over the whole ``(R, slots)`` matrix.
    """
    plan = _BinomialRegimes(counts, p, GAUSSIAN_REGIME_THRESHOLD)
    # One scalar call per variate: NumPy's array-argument samplers spend
    # ~10 µs validating their inputs, against ~1 µs for a scalar draw,
    # and a scalar draw takes the same variate as that element of the
    # array call.
    draws = plan.scalar_draws()
    rows = [[draw(gen, *args) for draw, args in draws] for gen in streams]
    raw = np.array(rows, dtype=np.float64).reshape(len(rows), plan.width)
    return plan.finish(raw)


class _BinomialRegimes:
    """:func:`binomial_draw`'s regime split of one ``(counts, p)`` call.

    Elements (in C order) fall into four regimes: exact binomial,
    Poisson low tail, Poisson high tail and Gaussian.  :meth:`variates`
    draws one stream's raw variates into a ``width``-long row, regime by
    regime; :meth:`scalar_draws` lists the same variates as one scalar
    sampler call each; :meth:`finish` maps stacked rows to counts.  Every
    step is elementwise, so a row's counts do not depend on how many
    rows are finished together.
    """

    def __init__(self, counts, p, threshold: int) -> None:
        counts_b, p_b = np.broadcast_arrays(
            np.asarray(counts, dtype=np.int64),
            np.asarray(p, dtype=np.float64),
        )
        self.shape = counts_b.shape
        counts_f, p_f = counts_b.ravel(), p_b.ravel()
        self.small = counts_f <= threshold
        self.small_counts = counts_f[self.small]
        self.small_p = p_f[self.small]
        self.n_big = counts_f[~self.small]
        self.n_f = self.n_big.astype(np.float64)
        p_big = np.clip(p_f[~self.small], 0.0, 1.0)
        mean = self.n_f * p_big
        comp = self.n_f - mean  # n·(1−p)
        self.lo = mean <= _POISSON_TAIL_MEAN
        self.hi = (comp <= _POISSON_TAIL_MEAN) & ~self.lo
        self.mid = ~(self.lo | self.hi)
        self.lo_mean = mean[self.lo]
        self.hi_comp = comp[self.hi]
        self.mid_mean = mean[self.mid]
        self.mid_std = np.sqrt(self.mid_mean * (1.0 - p_big[self.mid]))
        self.cuts = np.cumsum(
            [self.small_counts.size, self.lo_mean.size, self.hi_comp.size,
             self.mid_mean.size]
        ).tolist()
        self.width = self.cuts[-1]

    def variates(self, rng: np.random.Generator, row: np.ndarray) -> None:
        """Draw one stream's raw variates into *row* (exact counts and
        Poisson values are integers, exact in float64)."""
        a, b, c, d = self.cuts
        if a:
            row[:a] = rng.binomial(self.small_counts, self.small_p)
        if b > a:
            row[a:b] = rng.poisson(self.lo_mean)
        if c > b:
            row[b:c] = rng.poisson(self.hi_comp)
        if d > c:
            row[c:d] = rng.standard_normal(d - c)

    def scalar_draws(self) -> list[tuple]:
        """``(sampler, args)`` per variate, in :meth:`variates`' order."""
        gen = np.random.Generator
        small = zip(self.small_counts.tolist(), self.small_p.tolist())
        return (
            [(gen.binomial, (n, q)) for n, q in small]
            + [(gen.poisson, (m,)) for m in self.lo_mean.tolist()]
            + [(gen.poisson, (m,)) for m in self.hi_comp.tolist()]
            + [(gen.standard_normal, ())] * self.mid_mean.size
        )

    def finish(self, raw: np.ndarray) -> np.ndarray:
        """``(L, *shape)`` int64 counts from ``(L, width)`` raw rows."""
        a, b, c, _ = self.cuts
        out = np.empty((raw.shape[0], self.small.size), dtype=np.int64)
        out[:, self.small] = raw[:, :a]
        n_big = self.n_big
        vals = np.empty((raw.shape[0], n_big.size), dtype=np.int64)
        vals[:, self.lo] = np.minimum(
            raw[:, a:b].astype(np.int64), n_big[self.lo]
        )
        vals[:, self.hi] = n_big[self.hi] - np.minimum(
            raw[:, b:c].astype(np.int64), n_big[self.hi]
        )
        draw = np.rint(self.mid_mean + self.mid_std * raw[:, c:])
        np.clip(draw, 0.0, self.n_f[self.mid], out=draw)
        vals[:, self.mid] = draw.astype(np.int64)
        out[:, ~self.small] = vals
        return out.reshape((raw.shape[0], *self.shape))


def majority_win_probability(
    p: np.ndarray | float,
    k: int,
    *,
    tie_rule: TieRule = TieRule.KEEP_SELF,
    own: int | None = None,
) -> np.ndarray:
    """P(a vertex turns blue | each of its ``k`` draws is blue w.p. ``p``).

    The Best-of-k update seen from one vertex: the blue-vote count is
    ``V ~ Bin(k, p)`` and the vertex adopts blue iff ``2V > k``, plus the
    tie contribution at ``2V = k`` for even ``k`` (``own`` — the vertex's
    current colour — decides ties under ``KEEP_SELF``).  Vectorised over
    ``p``; exact for any ``k`` via the binomial mass sum (``k`` is tiny in
    every protocol, so the loop over vote counts is O(k) scalar work).
    """
    k = check_positive_int(k, "k")
    p_arr = np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0)
    q_arr = 1.0 - p_arr
    total = np.zeros_like(p_arr)
    for j in range(k // 2 + 1, k + 1):
        total += comb(k, j) * p_arr**j * q_arr ** (k - j)
    if k % 2 == 0:
        tie = comb(k, k // 2) * p_arr ** (k // 2) * q_arr ** (k // 2)
        if tie_rule is TieRule.RANDOM:
            total += 0.5 * tie
        elif tie_rule is TieRule.KEEP_SELF:
            if own is None:
                raise ValueError(
                    "even k with KEEP_SELF ties needs the vertex's own "
                    "colour (own=RED or own=BLUE)"
                )
            if own == BLUE:
                total += tie
        else:  # pragma: no cover - exhaustiveness guard
            raise ValueError(f"unknown tie rule {tie_rule!r}")
    return total


class AdoptionLaw(abc.ABC):
    """Per-vertex blue-adoption probability, seen from one sample law.

    The protocol-supplied *transition* of a count-chain round
    (DESIGN.md §2.6): given the probability ``p`` that one of a vertex's
    draws is blue, :meth:`adopt` returns the probability that the vertex
    is blue after the round.  Conditioning on slot counts factorises for
    any law in which vertices act independently given their sample
    probabilities — which is what keeps the chains exact under noise,
    zealots, and any future per-vertex overlay.
    """

    @abc.abstractmethod
    def adopt(self, p: np.ndarray | float, own: int) -> np.ndarray:
        """P(vertex ends the round blue | each draw blue w.p. ``p``).

        ``own`` is the vertex's current colour; it only matters for
        even-``k`` KEEP_SELF ties (see :attr:`own_matters`).
        """

    @property
    def own_matters(self) -> bool:
        """Whether :meth:`adopt` depends on ``own`` (even-k KEEP_SELF)."""
        return True


class MajorityLaw(AdoptionLaw):
    """The plain Best-of-k adoption law (the historical default).

    ``adopt`` is exactly :func:`majority_win_probability`, so kernels
    driven by this law are draw-for-draw identical to the pre-Protocol
    implementation.
    """

    def __init__(self, k: int, tie_rule: TieRule = TieRule.KEEP_SELF) -> None:
        self.k = check_positive_int(k, "k")
        self.tie_rule = tie_rule

    def adopt(self, p, own):
        return majority_win_probability(
            p, self.k, tie_rule=self.tie_rule, own=own
        )

    @property
    def own_matters(self) -> bool:
        return self.k % 2 == 0 and self.tie_rule is TieRule.KEEP_SELF


class NoisyLaw(MajorityLaw):
    """ε-noisy Best-of-k: follow the majority w.p. ``1 − eta``, else flip
    a fair coin.  Noise coins are independent per vertex, so the mixed
    law ``(1−eta)·majority + eta/2`` is the *exact* conditional adoption
    probability — not a mean-field approximation."""

    def __init__(
        self, k: int, eta: float, tie_rule: TieRule = TieRule.KEEP_SELF
    ) -> None:
        super().__init__(k, tie_rule)
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        self.eta = float(eta)

    def adopt(self, p, own):
        return (1.0 - self.eta) * super().adopt(p, own) + self.eta / 2.0


# ----------------------------------------------------------------------
# The slot-adjacency kernel
# ----------------------------------------------------------------------


def _broadcast_counts(blue_counts, replicas: int, n: int) -> np.ndarray:
    """Validate and broadcast an ``initial_blue_counts`` value to ``(R,)``."""
    counts = np.broadcast_to(
        np.asarray(blue_counts, dtype=np.int64), (replicas,)
    ).copy()
    if counts.min() < 0 or counts.max() > n:
        raise ValueError(
            f"initial blue counts must lie in [0, {n}], got range "
            f"[{counts.min()}, {counts.max()}]"
        )
    return counts


class CountChainKernel:
    """Exact O(slots)-per-round ensemble chain of a host built from slots.

    The vertices split into ``num_slots`` slots, each a contiguous run of
    ``slot_sizes[i]`` ids from ``slot_starts[i]`` (slots may be listed in
    any order).  A vertex of slot ``i`` sees every vertex of slot ``j``
    when ``adjacency[i, j] = 1``, minus itself when ``self_seen[i] = 1``,
    and nothing else; its degree is ``(adjacency · slot_sizes)_i −
    self_seen_i``.  Conditioned on the per-slot blue counts ``B``, each of
    its draws is blue with probability
    ``((adjacency · B)_i − self_seen_i · own)/deg_i``, where ``own`` is
    the vertex's colour — the same for every vertex of the slot up to
    that colour — so one
    round is two binomials per slot (:meth:`step`).  The engine
    (:func:`repro.core.ensemble.run_ensemble`) owns the generic loop; see
    the module docstring for the state contract.

    The chain is exact for **any** initial placement: conditioned on the
    slot values, the host's one-round update law does not depend on
    which vertices within a slot are blue, so projecting an explicit
    opinion matrix through :meth:`state_from_opinions` loses nothing.
    """

    def __init__(self, slot_sizes, slot_starts, adjacency, self_seen) -> None:
        self.slot_sizes = np.asarray(slot_sizes, dtype=np.int64)
        self.slot_starts = np.asarray(slot_starts, dtype=np.int64)
        self.adjacency = np.asarray(adjacency, dtype=np.int64)
        self.self_seen = np.asarray(self_seen, dtype=np.int64)
        self.num_slots = int(self.slot_sizes.size)
        self.n = int(self.slot_sizes.sum())
        self.degrees = self.adjacency @ self.slot_sizes - self.self_seen
        order = np.argsort(self.slot_starts, kind="stable")
        sizes = self.slot_sizes[order]
        if not np.array_equal(self.slot_starts[order], np.cumsum(sizes) - sizes):
            raise ValueError("slots must tile the vertex ids 0 .. n - 1")
        # Non-empty slots in id order: the runs state_from_opinions sums.
        self._runs = order[sizes > 0]

    def first_vertex_counts(self, z: int) -> np.ndarray:
        """Per-slot counts of the vertices ``0 .. z − 1`` in O(slots).

        The zealot convention pins the first ``z`` vertices; this is
        their projection through :meth:`state_from_opinions` without
        building an ``n``-long indicator.
        """
        return np.clip(z - self.slot_starts, 0, self.slot_sizes)

    def check_pinned(self, pinned: np.ndarray | None) -> np.ndarray | None:
        """Validate a per-slot pinned-blue vector against the layout."""
        if pinned is None:
            return None
        pinned = np.asarray(pinned, dtype=np.int64)
        sizes = self.slot_sizes
        if pinned.shape != sizes.shape:
            raise ValueError(
                f"pinned must have shape {sizes.shape}, got {pinned.shape}"
            )
        if (pinned < 0).any() or (pinned > sizes).any():
            raise ValueError(
                "pinned counts must lie in [0, slot size] per slot; got "
                f"{pinned.tolist()} for sizes {sizes.tolist()}"
            )
        return pinned

    def initial_state(
        self,
        replicas: int,
        init_ss,
        *,
        delta: float | None = None,
        blue_counts: np.ndarray | int | None = None,
        pinned: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(R, num_slots)`` initial state without materialising opinions.

        Exactly one of *delta* and *blue_counts* is given:

        * i.i.d. *delta* (the paper's law): slot ``j`` draws
          ``Bin(size_j − pinned_j, 1/2 − δ)``, the regime split made once
          for all replicas;
        * an exact *blue_counts* total, placed uniformly over all ``n``
          vertices by a multivariate hypergeometric over the slot sizes.
          A one-slot host without pins takes the count as its state, so
          ``K_n`` needs no draw at all.

        Replica ``i`` draws from stream ``i`` of
        ``spawn_generators(init_ss, replicas)`` — the same stream layout
        the dense path's per-replica initialisers consume — read through
        :func:`~repro.util.rng.replica_streams`, which derives all the
        streams in one numpy pass but leaves *init_ss*'s spawn counter
        where it was: pass a seed sequence that nothing else spawns from
        (the engine hands each call's own init stream).

        *pinned* (per-slot pinned-blue counts) reproduces "draw the
        configuration, then force the pinned vertices BLUE": free vertices
        keep their drawn law and pinned mass is added on top; under
        *blue_counts*, blues landing on pinned positions are absorbed by
        them — the hypergeometric splits over the interleaved
        ``(pinned, free)`` sub-slot sizes.
        """
        pinned = self.check_pinned(pinned)
        unpinned = pinned is None or not pinned.any()
        if blue_counts is not None and unpinned and self.num_slots == 1:
            return _broadcast_counts(blue_counts, replicas, self.n)[:, None]
        if blue_counts is not None and self.n >= 10**9:
            raise ValueError(
                f"an exact blue-count start needs n < 10^9 on this host "
                f"(n = {self.n}): NumPy's multivariate hypergeometric "
                "cannot split more; use the i.i.d. delta start instead"
            )
        sizes = self.slot_sizes
        if unpinned:
            pinned, free, split, keep = 0, sizes, sizes, slice(None)
        else:
            free = sizes - pinned
            split = np.empty(2 * sizes.size, dtype=np.int64)
            split[0::2] = pinned
            split[1::2] = free
            keep = slice(1, None, 2)
        streams = replica_streams(init_ss, replicas)
        if blue_counts is None:
            return pinned + _replica_binomials(streams, free, 0.5 - delta)
        counts = _broadcast_counts(blue_counts, replicas, self.n)
        state = np.empty((replicas, sizes.size), dtype=np.int64)
        for i, gen in enumerate(streams):
            state[i] = gen.multivariate_hypergeometric(
                split, int(counts[i])
            )[keep]
        return pinned + state

    def state_from_opinions(self, opinions: np.ndarray) -> np.ndarray:
        """Project an explicit ``(R, n)`` 0/1 opinion matrix onto slot
        counts."""
        opinions = np.asarray(opinions)
        if opinions.size and (opinions.min() < 0 or opinions.max() > 1):
            raise ValueError("count-chain opinions must be 0 (red) or 1 (blue)")
        out = np.zeros((opinions.shape[0], self.num_slots), dtype=np.int64)
        out[:, self._runs] = np.add.reduceat(
            opinions, self.slot_starts[self._runs], axis=1, dtype=np.int64
        )
        return out

    def adoption(
        self, state: np.ndarray, law: AdoptionLaw
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(q_blue, q_red)``: each slot's blue-adoption probability for
        a blue and for a red vertex, ``(R, num_slots)`` each.

        A slot's probabilities can leave ``[0, 1]`` only when the colour
        class they serve is empty (its binomial count is 0);
        :func:`majority_win_probability` clips, so those draws are vacuous.
        """
        visible = state @ self.adjacency.T
        q_blue = law.adopt((visible - self.self_seen) / self.degrees, BLUE)
        q_red = law.adopt(visible / self.degrees, RED)
        return q_blue, q_red

    def step(
        self,
        state: np.ndarray,
        k: int,
        rng: np.random.Generator,
        *,
        tie_rule: TieRule = TieRule.KEEP_SELF,
        transition: AdoptionLaw | None = None,
        pinned: np.ndarray | None = None,
    ) -> np.ndarray:
        """One synchronous round for every replica (new array): a blue
        binomial over the ``(R, slots)`` counts, then a red one.

        *transition* supplies the adoption law (default
        :class:`MajorityLaw` built from ``k``/``tie_rule`` — the
        historical Best-of-k behaviour, draw-for-draw); *pinned* holds
        per-slot pinned-blue counts excluded from the update.
        """
        law = transition if transition is not None else MajorityLaw(k, tie_rule)
        pinned = self.check_pinned(pinned)
        frozen = 0 if pinned is None else pinned
        q_blue, q_red = self.adoption(state, law)
        return (
            frozen
            + binomial_draw(rng, state - frozen, q_blue)
            + binomial_draw(rng, self.slot_sizes - state, q_red)
        )

    def blue_totals(self, state: np.ndarray) -> np.ndarray:
        """Per-replica blue totals — the absorption/trajectory statistic."""
        return state.sum(axis=1)


class CompleteKernel(CountChainKernel):
    """``K_n``: one slot that sees itself minus the vertex.

    Draw-for-draw the PR 1 blue-count chain: conditioned on the count
    ``B``, a blue vertex samples blue with probability ``(B−1)/(n−1)`` and
    a red one with ``B/(n−1)``, so ``B' = Bin(B, q_blue) + Bin(n−B,
    q_red)``.
    """

    def __init__(self, n: int) -> None:
        n = int(n)
        if n < 2:
            raise ValueError(f"K_n kernel needs n >= 2, got {n}")
        super().__init__([n], [0], [[1]], [1])


class MultipartiteKernel(CountChainKernel):
    """A complete multipartite host: one slot per part, each seeing all
    the others (the complete bipartite graph is the two-part case)."""

    def __init__(self, sizes) -> None:
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.ndim != 1 or sizes.size < 2:
            raise ValueError("multipartite kernel needs at least two parts")
        if np.any(sizes < 1):
            raise ValueError(f"part sizes must be >= 1, got {sizes.tolist()}")
        parts = sizes.size
        super().__init__(
            sizes, np.cumsum(sizes) - sizes,
            1 - np.eye(parts, dtype=np.int64), np.zeros(parts, dtype=np.int64),
        )


class TwoCliqueBridgeKernel(CountChainKernel):
    """The E12 host: two cliques of size ``half`` whose first *bridges*
    vertices are pairwise joined
    (:func:`repro.graphs.generators.two_clique_bridge`).

    Slot layout: ``[left non-bridge, right non-bridge, left endpoints
    (bridges), right endpoints (bridges)]``.  Every slot sees its own
    clique minus the vertex; an endpoint also sees its partner, so the
    ``2·bridges`` endpoints are size-1 slots holding one vertex's colour.
    """

    def __init__(self, half: int, bridges: int = 1) -> None:
        half = int(half)
        bridges = int(bridges)
        if half < 2:
            raise ValueError(f"clique size must be >= 2, got {half}")
        if not 1 <= bridges <= half:
            raise ValueError(
                f"bridges must lie in [1, {half}], got {bridges}"
            )
        ends = np.arange(bridges, dtype=np.int64)
        side = np.repeat([0, 1, 0, 1], [1, 1, bridges, bridges])
        adjacency = (side[:, None] == side[None, :]).astype(np.int64)
        adjacency[2 + ends, 2 + bridges + ends] = 1
        adjacency[2 + bridges + ends, 2 + ends] = 1
        super().__init__(
            [half - bridges] * 2 + [1] * (2 * bridges),
            np.concatenate([[bridges, half + bridges], ends, half + ends]),
            adjacency, np.ones(2 + 2 * bridges, dtype=np.int64),
        )

    def step(
        self, state, k, rng, *, tie_rule=TieRule.KEEP_SELF, transition=None,
        pinned=None,
    ):
        # E12's seeded draw order, not the generic one: each clique's blue
        # then red binomial, then one uniform per replica for each
        # unpinned endpoint, in slot order.
        law = transition if transition is not None else MajorityLaw(k, tie_rule)
        pinned = self.check_pinned(pinned)
        if pinned is None:
            pinned = np.zeros(self.num_slots, dtype=np.int64)
        q_blue, q_red = self.adoption(state, law)
        out = np.empty_like(state)
        for col in (0, 1):
            blue = state[:, col]
            out[:, col] = (
                pinned[col]
                + binomial_draw(rng, blue - pinned[col], q_blue[:, col])
                + binomial_draw(rng, self.slot_sizes[col] - blue, q_red[:, col])
            )
        for col in range(2, self.num_slots):
            q = np.where(state[:, col] == BLUE, q_blue[:, col], q_red[:, col])
            out[:, col] = 1 if pinned[col] else rng.random(len(state)) < q
        return out
