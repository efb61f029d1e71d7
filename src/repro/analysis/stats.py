"""Statistical helpers for Monte-Carlo verdicts.

The paper's statements are "with high probability" claims; finite trial
ensembles verify them through proportion confidence intervals (Wilson
score — well-behaved at the 0/1 boundary where our ensembles usually sit),
bootstrap intervals for consensus-time means, and exact binomial /
Chernoff tails matching the bounds used in §4.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = [
    "wilson_interval",
    "clopper_pearson_interval",
    "bootstrap_mean_ci",
    "empirical_survival",
    "binomial_upper_tail",
    "chernoff_binomial_tail",
]


def wilson_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because experiment ensembles
    routinely observe 0 or 100% success (e.g. "red always wins"), where
    Wald intervals collapse to zero width.
    """
    from scipy import stats

    successes = check_nonnegative_int(successes, "successes")
    trials = check_positive_int(trials, "trials")
    if successes > trials:
        raise ValueError(f"successes={successes} exceeds trials={trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0,1), got {confidence}")
    z = stats.norm.ppf(0.5 + confidence / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    lo = max(0.0, centre - half)
    hi = min(1.0, centre + half)
    # Pin the boundary ends exactly (float round-off otherwise leaves
    # 1e-17-scale residues that break `lo <= rate <= hi` at 0 and 1).
    if successes == 0:
        lo = 0.0
    if successes == trials:
        hi = 1.0
    return (float(lo), float(hi))


def clopper_pearson_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> tuple[float, float]:
    """Exact (conservative) Clopper–Pearson binomial interval."""
    from scipy import stats

    successes = check_nonnegative_int(successes, "successes")
    trials = check_positive_int(trials, "trials")
    if successes > trials:
        raise ValueError(f"successes={successes} exceeds trials={trials}")
    alpha = 1.0 - confidence
    lo = (
        0.0
        if successes == 0
        else float(stats.beta.ppf(alpha / 2, successes, trials - successes + 1))
    )
    hi = (
        1.0
        if successes == trials
        else float(stats.beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    )
    return (lo, hi)


def bootstrap_mean_ci(
    samples: np.ndarray,
    *,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: SeedLike = None,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean of *samples*."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0,1), got {confidence}")
    n_resamples = check_positive_int(n_resamples, "n_resamples")
    gen = as_generator(seed)
    idx = gen.integers(0, samples.size, size=(n_resamples, samples.size))
    means = samples[idx].mean(axis=1)
    alpha = 1.0 - confidence
    return (
        float(np.quantile(means, alpha / 2)),
        float(np.quantile(means, 1 - alpha / 2)),
    )


def empirical_survival(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival function ``(x, P(X > x))`` of integer samples.

    Used for consensus-time tail plots (e.g. E1's per-``n`` distribution).
    """
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    xs = np.unique(samples)
    surv = np.array([(samples > x).mean() for x in xs], dtype=np.float64)
    return xs, surv


def binomial_upper_tail(n: int, p: float, threshold: float) -> float:
    """Exact ``P(Bin(n, p) ≥ threshold)``."""
    from scipy import stats

    n = check_positive_int(n, "n")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    k = math.ceil(threshold)
    if k <= 0:
        return 1.0
    return float(stats.binom.sf(k - 1, n, p))


def chernoff_binomial_tail(n: int, p: float, threshold: float) -> float:
    """Chernoff bound ``P(Bin(n,p) ≥ a) ≤ exp(-n·KL(a/n || p))``.

    The style of bound underlying the paper's equations (7)–(9); always
    ≥ the exact tail (sanity-checked in tests).
    """
    n = check_positive_int(n, "n")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    a = threshold / n
    if a <= p:
        return 1.0
    if a > 1.0:
        return 0.0
    if p == 0.0:
        return 0.0
    if a >= 1.0:
        # KL(1 || p) = -log p, giving exactly P(Bin(n,p) = n) = p^n.
        return p**n
    kl = a * math.log(a / p) + (1 - a) * math.log((1 - a) / (1 - p))
    return math.exp(-n * kl)
