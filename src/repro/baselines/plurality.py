"""Multi-opinion 3-majority with random tie-breaking: Becchetti et al. [2].

[2] study Best-of-3 on the complete graph with ``q`` initial opinions:
each vertex samples three neighbours and adopts the majority of the
sample, breaking three-way ties by adopting a uniformly random one of the
three sampled opinions.  They prove plurality consensus w.h.p. in
``O(min{q, (n/log n)^{1/3}}·log n)`` rounds when the initial gap between
the top two opinions is
``Ω(min{√(2q), (n/log n)^{1/6}}·√(n·log n))``.

The dynamics is the :class:`~repro.core.protocols.Plurality` protocol
(opinion codes ``0..q-1``); :func:`plurality_ensemble` drives many
trials through the ensemble engine at once from i.i.d. colours drawn by
:func:`random_plurality_opinions`.  :func:`becchetti_gap_threshold`
provides the [2] threshold for the E8 comparison harness.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.ensemble import EnsembleResult, run_ensemble
from repro.core.protocols import Plurality
from repro.graphs.base import Graph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive_int

__all__ = [
    "random_plurality_opinions",
    "plurality_ensemble",
    "becchetti_gap_threshold",
]


def random_plurality_opinions(
    n: int, probabilities: np.ndarray, rng: SeedLike = None
) -> np.ndarray:
    """I.i.d. initial opinions over ``q`` colours with given probabilities."""
    n = check_positive_int(n, "n")
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 1 or probs.size < 2:
        raise ValueError("need at least two opinion probabilities")
    if np.any(probs < 0) or not math.isclose(float(probs.sum()), 1.0, rel_tol=1e-9):
        raise ValueError(f"probabilities must be non-negative and sum to 1, got {probs}")
    gen = as_generator(rng)
    return gen.choice(probs.size, size=n, p=probs).astype(np.int64)


def plurality_ensemble(
    graph: Graph,
    *,
    trials: int,
    probabilities: np.ndarray,
    seed: SeedLike = None,
    max_steps: int = 10_000,
) -> EnsembleResult:
    """Batched q-colour plurality ensemble from i.i.d. initial opinions.

    All trials advance together through the ensemble engine with the
    :class:`~repro.core.protocols.Plurality` protocol — per-round counts
    are batched over the replica axis (``blue_trajectories`` holds each
    trial's *leading-colour* count, winners the consensus colour code).
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    proto = Plurality(probs.size)

    def initializer(
        n: int, rng: np.random.Generator
    ) -> np.ndarray:
        return random_plurality_opinions(n, probs, rng=rng)

    return run_ensemble(
        graph,
        protocol=proto,
        replicas=trials,
        seed=seed,
        max_steps=max_steps,
        initializer=initializer,
        record_trajectories=False,
    )


def becchetti_gap_threshold(n: int, q: int) -> float:
    """The [2] initial-gap scale ``min{√(2q), (n/log n)^{1/6}}·√(n·log n)``.

    [2] prove plurality consensus w.h.p. when the count gap between the
    largest and second-largest initial opinions is a sufficiently large
    constant times this (complete-graph hosts).
    """
    n = check_positive_int(n, "n")
    q = check_positive_int(q, "q")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    log_n = math.log(n)
    return min(math.sqrt(2.0 * q), (n / log_n) ** (1.0 / 6.0)) * math.sqrt(n * log_n)
