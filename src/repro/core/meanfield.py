"""Mean-field maps for general Best-of-k dynamics.

Equation (1) is the ``k = 3`` member of a family: on a dense host with
blue fraction ``b``, the one-round blue-update probability of Best-of-k
is

* odd ``k``:   ``g_k(b) = P(Bin(k, b) > k/2)``;
* even ``k``, KEEP_SELF: ``g(b) = P(Bin > k/2) + P(Bin = k/2)·b``
  (the tie mass stays with the current colour, which is blue with
  probability ``b`` for a uniformly chosen vertex);
* even ``k``, RANDOM: ``g(b) = P(Bin > k/2) + P(Bin = k/2)/2``.

Classical structure reproduced here and used by E8/E13:

* every odd-``k`` map has fixed points 0, 1/2, 1 with 1/2 repelling, and
  the repulsion strengthens with ``k`` (``g_k'(1/2) = Θ(√k)``);
* Best-of-2 KEEP_SELF has the *same* map as Best-of-3 — the paper's
  protocols [4] and the present one coincide at mean-field level, which
  is why their consensus-time separation is a *fluctuation/structure*
  phenomenon, not a drift one;
* Best-of-2 RANDOM is the identity map (martingale).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.dynamics import TieRule
from repro.util.validation import check_positive_int, check_probability

__all__ = [
    "best_of_k_map",
    "best_of_k_map_parts",
    "best_of_k_trajectory",
    "best_of_k_hitting_time",
    "noisy_best_of_k_map",
    "zealot_best_of_k_map",
    "plurality_map",
    "map_derivative_at_half",
    "fixed_points",
]


def best_of_k_map(
    b: float, k: int, *, tie_rule: TieRule = TieRule.KEEP_SELF
) -> float:
    """One mean-field round of Best-of-k from blue fraction *b*.

    For odd ``k`` this is ``P(Bin(k, b) ≥ (k+1)/2)``; for even ``k`` the
    tie mass ``P(Bin(k, b) = k/2)`` is assigned per *tie_rule* (see module
    docstring).  ``k = 3`` reproduces
    :func:`repro.core.recursions.ideal_step` exactly (tested).
    """
    from scipy import stats

    b = check_probability(b, "b")
    k = check_positive_int(k, "k")
    if b < 1e-300:
        b = 0.0  # scipy's binom overflows on subnormal p; the map is 0 there
    if k % 2 == 1:
        return float(stats.binom.sf(k // 2, k, b))
    win = float(stats.binom.sf(k // 2, k, b))
    tie = float(stats.binom.pmf(k // 2, k, b))
    if tie_rule is TieRule.KEEP_SELF:
        return win + tie * b
    if tie_rule is TieRule.RANDOM:
        return win + tie / 2.0
    raise ValueError(f"unknown tie rule {tie_rule!r}")  # pragma: no cover


def best_of_k_map_parts(
    fractions: np.ndarray,
    sizes: np.ndarray,
    k: int = 3,
    *,
    tie_rule: TieRule = TieRule.KEEP_SELF,
) -> np.ndarray:
    """One mean-field Best-of-k round of per-part blue fractions.

    The complete multipartite analogue of :func:`best_of_k_map` — the
    deterministic map the :class:`~repro.core.kernels.MultipartiteKernel`
    chain concentrates on as part sizes grow.  A vertex of part ``i``
    samples only *outside* its part, so each of its ``k`` draws is blue
    with the cross-part majority probability

        ``p_i = (Σ_j s_j b_j − s_i b_i) / (n − s_i)``,

    and the part's next blue fraction is ``P(Bin(k, p_i) > k/2)`` plus
    the even-``k`` tie mass assigned per *tie_rule* (``KEEP_SELF`` mixes
    by the part's own current fraction ``b_i``).  Vectorised over parts;
    with one part per "class" of a bipartite host this reproduces the
    classical two-population majority map.
    """
    from scipy import stats

    k = check_positive_int(k, "k")
    b = np.asarray(fractions, dtype=np.float64)
    s = np.asarray(sizes, dtype=np.float64)
    if b.shape != s.shape:
        raise ValueError(
            f"fractions shape {b.shape} does not match sizes shape {s.shape}"
        )
    if np.any((b < 0.0) | (b > 1.0)):
        raise ValueError("per-part fractions must lie in [0, 1]")
    if np.any(s < 1):
        raise ValueError("part sizes must be >= 1")
    n = s.sum()
    p = np.clip((s * b).sum() - s * b, 0.0, None) / (n - s)
    win = stats.binom.sf(k // 2, k, p)
    if k % 2 == 1:
        return np.asarray(win, dtype=np.float64)
    tie = stats.binom.pmf(k // 2, k, p)
    if tie_rule is TieRule.KEEP_SELF:
        return np.asarray(win + tie * b, dtype=np.float64)
    if tie_rule is TieRule.RANDOM:
        return np.asarray(win + tie / 2.0, dtype=np.float64)
    raise ValueError(f"unknown tie rule {tie_rule!r}")  # pragma: no cover


def _unit_interval(value: float, name: str) -> float:
    """`check_probability` with float-iteration tolerance.

    Iterated maps can overshoot the endpoints by a few ulps
    (``(1−ζ)g(b) + ζ`` at ``b = 1`` rounds to ``1 + 2⁻⁵²``); clamp those
    instead of failing mid-bisection.
    """
    if -1e-9 <= value <= 1.0 + 1e-9:
        return min(max(float(value), 0.0), 1.0)
    return check_probability(value, name)


def noisy_best_of_k_map(
    b: float, eta: float, k: int = 3, *, tie_rule: TieRule = TieRule.KEEP_SELF
) -> float:
    """One mean-field round of ε-noisy Best-of-k from blue fraction *b*.

    With probability ``eta`` a vertex ignores its sample and adopts a
    fair coin, so the map is the η-mixture
    ``(1 − eta)·g_k(b) + eta/2`` of :func:`best_of_k_map` with the
    symmetric point.  ``k = 3`` is the E13 bifurcation map: its fixed
    points undergo a pitchfork at ``b = 1/2`` where
    ``(1 − eta)·g′(1/2) = 1``, i.e. ``eta* = 1/3``
    (:mod:`repro.extensions.noisy_dynamics`).
    """
    b = _unit_interval(b, "b")
    eta = check_probability(eta, "eta")
    if k == 3:
        # The closed form (equation (1) mixed with the coin) — cheaper
        # and free of scipy rounding at the bifurcation tangency.
        return (1.0 - eta) * (3.0 * b * b - 2.0 * b**3) + eta / 2.0
    return (1.0 - eta) * best_of_k_map(b, k, tie_rule=tie_rule) + eta / 2.0


def zealot_best_of_k_map(
    b: float, zeta: float, k: int = 3, *, tie_rule: TieRule = TieRule.KEEP_SELF
) -> float:
    """One mean-field round of Best-of-k with a pinned-blue fraction.

    ``zeta = z/n`` of the population never updates and holds BLUE; the
    remaining ``1 − zeta`` runs Best-of-k against the *total* blue
    fraction ``b`` (zealots are sampled like anyone else), so the map on
    the total fraction is ``(1 − zeta)·g_k(b) + zeta``.  ``k = 3`` is the
    E15 takeover map whose basin boundary locates the effective zealot
    threshold.
    """
    b = _unit_interval(b, "b")
    zeta = check_probability(zeta, "zeta")
    if k == 3:
        return (1.0 - zeta) * (3.0 * b * b - 2.0 * b**3) + zeta
    return (1.0 - zeta) * best_of_k_map(b, k, tie_rule=tie_rule) + zeta


def plurality_map(fractions: np.ndarray) -> np.ndarray:
    """One mean-field round of q-colour 3-majority with random ties.

    The [2] protocol (:mod:`repro.baselines.plurality`): sample three,
    adopt the repeated value, break three-distinct ties by adopting a
    uniform choice of the sample.  For colour ``i`` with fraction
    ``p_i`` the adoption probability is

        ``p_i³ + 3·p_i²(1 − p_i) + 2·p_i·e2(p \\ i)``

    where ``e2(p \\ i)`` is the second elementary symmetric function of
    the *other* fractions (each three-distinct sample containing ``i``
    has probability ``3!·p_i·p_j·p_l`` and hands ``i`` the tie with
    probability 1/3).  With ``q = 2`` the tie term vanishes and each
    colour follows the Best-of-3 drift ``3b² − 2b³``.
    """
    p = np.asarray(fractions, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("need at least two colour fractions")
    if np.any(p < 0) or not math.isclose(float(p.sum()), 1.0, rel_tol=1e-9):
        raise ValueError(
            f"fractions must be non-negative and sum to 1, got {p}"
        )
    e2_all = (1.0 - np.dot(p, p)) / 2.0  # Σ_{j<l} p_j p_l with Σp = 1
    e2_excl = e2_all - p * (1.0 - p)
    return p * p * (3.0 - 2.0 * p) + 2.0 * p * e2_excl


def best_of_k_trajectory(
    b0: float, k: int, steps: int, *, tie_rule: TieRule = TieRule.KEEP_SELF
) -> np.ndarray:
    """Iterate :func:`best_of_k_map`; returns ``steps + 1`` values."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    out = np.empty(steps + 1, dtype=np.float64)
    out[0] = check_probability(b0, "b0")
    for t in range(steps):
        out[t + 1] = best_of_k_map(out[t], k, tie_rule=tie_rule)
    return out


def best_of_k_hitting_time(
    b0: float,
    k: int,
    target: float,
    *,
    tie_rule: TieRule = TieRule.KEEP_SELF,
    max_steps: int = 10_000,
) -> int:
    """First ``t`` with ``b_t < target`` under the Best-of-k map.

    The E8 speed ordering in analytic form: larger odd ``k`` hits any
    target (weakly) sooner from the same start.
    """
    b0 = check_probability(b0, "b0")
    target = check_probability(target, "target")
    b = b0
    for t in range(max_steps + 1):
        if b < target:
            return t
        nxt = best_of_k_map(b, k, tie_rule=tie_rule)
        if nxt >= b and b >= target:
            # Stalled (e.g. the RANDOM-tie martingale): never hits.
            raise RuntimeError(
                f"Best-of-{k} map does not progress below {target} from "
                f"b0={b0} (stalled at {b})"
            )
        b = nxt
    raise RuntimeError(
        f"did not reach {target} within {max_steps} steps"
    )  # pragma: no cover - k>=2 amplifying maps converge fast


def map_derivative_at_half(k: int, *, tie_rule: TieRule = TieRule.KEEP_SELF) -> float:
    """Numerical derivative ``g'(1/2)`` of the Best-of-k map.

    Values > 1 mean 1/2 is repelling (majority amplification); the value
    grows like ``√(2k/π)`` for odd ``k`` (central binomial asymptotics),
    quantifying "larger samples amplify harder".
    """
    h = 1e-6
    return (
        best_of_k_map(0.5 + h, k, tie_rule=tie_rule)
        - best_of_k_map(0.5 - h, k, tie_rule=tie_rule)
    ) / (2 * h)


def fixed_points(
    k: int, *, tie_rule: TieRule = TieRule.KEEP_SELF, resolution: int = 20_001
) -> list[float]:
    """All fixed points of the Best-of-k map in ``[0, 1]`` (grid + refine).

    For the amplifying rules this is ``[0, 1/2, 1]``; for the RANDOM-tie
    even maps every point is fixed and the full grid would be returned,
    so that case raises instead.
    """
    k = check_positive_int(k, "k")
    if k % 2 == 0 and tie_rule is TieRule.RANDOM:
        raise ValueError(
            "the RANDOM-tie even-k map is the identity: every point is fixed"
        )
    grid = np.linspace(0.0, 1.0, resolution)
    vals = np.array([best_of_k_map(float(b), k, tie_rule=tie_rule) for b in grid])
    resid = vals - grid
    roots: list[float] = []
    for i in range(resolution - 1):
        if resid[i] == 0.0:
            roots.append(float(grid[i]))
        elif resid[i] * resid[i + 1] < 0:
            lo, hi = float(grid[i]), float(grid[i + 1])
            for _ in range(60):  # bisection
                mid = (lo + hi) / 2
                r = best_of_k_map(mid, k, tie_rule=tie_rule) - mid
                if r == 0:
                    break
                if (best_of_k_map(lo, k, tie_rule=tie_rule) - lo) * r < 0:
                    hi = mid
                else:
                    lo = mid
            roots.append((lo + hi) / 2)
    if resid[-1] == 0.0:
        roots.append(1.0)
    # Deduplicate within grid tolerance.
    out: list[float] = []
    for r in roots:
        if not out or abs(r - out[-1]) > 2.0 / resolution:
            out.append(r)
    return out
