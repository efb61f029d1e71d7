"""Trajectory-ensemble analysis: aligned means, bands, and hitting times.

E3-style experiments compare a *single* trajectory against the recursion;
this module supports the ensemble view: trajectories from one
``run_ensemble(..., max_steps=horizon, record_trajectories=True)`` call,
aligned on round index by :meth:`EnsembleResult.fraction_matrix`
(absorbed runs padded with their terminal value), then pointwise
means/quantile bands plus empirical hitting-time distributions — the
format used for trajectory figures and the noisy-dynamics stationarity
analysis (E13)::

    bundle = TrajectoryBundle(ens.fraction_matrix(horizon))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TrajectoryBundle", "hitting_times"]


@dataclass
class TrajectoryBundle:
    """An aligned ensemble of blue-fraction trajectories.

    Attributes
    ----------
    fractions:
        Array of shape ``(trials, horizon + 1)``; row ``i`` is trial
        ``i``'s blue fraction per round, padded after absorption with the
        terminal value (0 or 1), so columns are comparable.
    """

    fractions: np.ndarray

    @property
    def trials(self) -> int:
        return self.fractions.shape[0]

    @property
    def horizon(self) -> int:
        return self.fractions.shape[1] - 1

    def mean(self) -> np.ndarray:
        """Pointwise mean trajectory."""
        return self.fractions.mean(axis=0)

    def band(self, lower: float = 0.1, upper: float = 0.9) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise quantile band ``(q_lower, q_upper)``."""
        if not 0 <= lower < upper <= 1:
            raise ValueError(f"need 0 <= lower < upper <= 1, got {lower}, {upper}")
        return (
            np.quantile(self.fractions, lower, axis=0),
            np.quantile(self.fractions, upper, axis=0),
        )

    def sup_gap_to(self, reference: np.ndarray) -> float:
        """Sup-norm gap between the mean trajectory and *reference*.

        *reference* must have length ``horizon + 1`` (e.g. recursion
        iterates started at the same ``b₀``).
        """
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != (self.horizon + 1,):
            raise ValueError(
                f"reference must have length {self.horizon + 1}, got "
                f"{reference.shape}"
            )
        return float(np.max(np.abs(self.mean() - reference)))


def hitting_times(bundle: TrajectoryBundle, threshold: float) -> np.ndarray:
    """Per-trial first round with blue fraction below *threshold*.

    Trials that never cross within the horizon get ``horizon + 1``
    (right-censored), so the output is suitable for survival analysis via
    :func:`repro.analysis.stats.empirical_survival`.
    """
    if not 0 <= threshold <= 1:
        raise ValueError(f"threshold must be a fraction, got {threshold}")
    below = bundle.fractions < threshold
    out = np.full(bundle.trials, bundle.horizon + 1, dtype=np.int64)
    any_below = below.any(axis=1)
    out[any_below] = below[any_below].argmax(axis=1)
    return out
