"""ε-noisy Best-of-Three: the mean-field bifurcation E13 checks against.

With probability ``eta`` a vertex ignores its sample and adopts a
uniform random opinion; otherwise it follows the Best-of-3 majority.
Consensus states stop being absorbing, so the process has a genuine
stationary regime.  The mean-field map is

    ``f(b) = (1 − eta)·g(b) + eta/2``   with   ``g(b) = 3b² − 2b³``.

``b = 1/2`` is always fixed.  Writing ``b = 1/2 + x`` gives
``g(1/2 + x) = 1/2 + (3/2)x − 2x³``, so the other fixed points solve
``(1 − eta)(3/2 − 2x²) = 1``.  They exist, symmetric about 1/2, exactly
while ``(1 − eta)·g′(1/2) = (1 − eta)·3/2 > 1``: a pitchfork at
``b = 1/2`` with critical noise ``eta* = 1/3``.  Below it the dynamics
keeps a metastable level on the initial majority's side (the lower
point is 0.311 at ``eta = 0.30`` and 0.494 at ``eta = 0.3333``); above
it only ``b = 1/2`` survives and the majority signal is destroyed.

The map itself is :func:`repro.core.meanfield.noisy_best_of_k_map`; the
dynamics runs through ``run_ensemble(protocol=NoisyBestOfK(eta), ...)``
(:mod:`repro.core.protocols`), which on exchangeable hosts is the exact
η-mixed count chain.
"""

from __future__ import annotations

import math

from repro.util.validation import check_probability

__all__ = ["CRITICAL_NOISE", "noisy_fixed_points"]

CRITICAL_NOISE: float = 1.0 / 3.0
"""Critical noise rate: below it the mean-field map retains metastable
near-consensus fixed points; above it only b = 1/2 is stable."""


def noisy_fixed_points(eta: float) -> list[float]:
    """All fixed points of the noisy map in ``[0, 1]``, sorted.

    ``b = 1/2`` is always a fixed point; the other two exist iff
    ``eta < 1/3`` and are ``1/2 ± x`` with ``(1 − eta)(3/2 − 2x²) = 1``,
    i.e. ``x = √(1 − 3eta) / (2√(1 − eta))``.
    """
    eta = check_probability(eta, "eta")
    points = [0.5]
    if eta < CRITICAL_NOISE and eta < 1.0:
        offset = math.sqrt(1.0 - 3.0 * eta) / (2.0 * math.sqrt(1.0 - eta))
        points.extend([0.5 - offset, 0.5 + offset])
    return sorted(points)
