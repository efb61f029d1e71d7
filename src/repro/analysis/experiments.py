"""Ensemble summaries: many independent dynamics trials, summarised.

A *trial* = fresh initial opinions + fresh dynamics randomness, both from
spawned independent streams.  The ensemble summary carries everything the
experiment harness reports: win counts with Wilson intervals, consensus-
time statistics, and the full per-trial arrays for downstream fitting.

The trials themselves run in one :func:`repro.core.ensemble.run_ensemble`
call, which advances all live replicas per round (and collapses
complete-graph hosts to the exact O(1)-per-round count chain);
:meth:`ConsensusEnsemble.from_ensemble_result` summarises its result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ensemble import EnsembleResult
from repro.core.opinions import BLUE, RED

__all__ = ["ConsensusEnsemble"]


@dataclass
class ConsensusEnsemble:
    """Summary of an ensemble of dynamics runs.

    Attributes
    ----------
    trials:
        Number of runs.
    steps:
        Consensus times of converged runs (length ≤ trials).
    winners:
        Winner codes of converged runs, aligned with ``steps``.
    unconverged:
        Runs that hit the step cap.
    """

    trials: int
    steps: np.ndarray
    winners: np.ndarray
    unconverged: int

    @classmethod
    def from_ensemble_result(cls, result: EnsembleResult) -> "ConsensusEnsemble":
        """Summarise a batched-engine :class:`EnsembleResult`.

        The converged-trial filtering convention lives here, once, for
        every consumer of the engine (the sweep runner, the harness,
        scripts that call ``run_ensemble`` directly).
        """
        conv = result.converged
        return cls(
            trials=result.replicas,
            steps=result.steps[conv],
            winners=result.winners[conv],
            unconverged=result.unconverged,
        )

    @property
    def converged(self) -> int:
        return self.trials - self.unconverged

    @property
    def red_wins(self) -> int:
        return int(np.count_nonzero(self.winners == RED))

    @property
    def blue_wins(self) -> int:
        return int(np.count_nonzero(self.winners == BLUE))

    @property
    def red_win_rate(self) -> float:
        """Red wins over *all* trials (unconverged count as non-red)."""
        return self.red_wins / self.trials

    def red_win_interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Wilson interval for the red-win probability."""
        from repro.analysis.stats import wilson_interval

        return wilson_interval(self.red_wins, self.trials, confidence=confidence)

    @property
    def mean_steps(self) -> float:
        return float(self.steps.mean()) if self.steps.size else float("nan")

    @property
    def median_steps(self) -> float:
        return float(np.median(self.steps)) if self.steps.size else float("nan")

    @property
    def max_steps(self) -> int:
        return int(self.steps.max()) if self.steps.size else 0

    @property
    def std_steps(self) -> float:
        return float(self.steps.std(ddof=1)) if self.steps.size > 1 else 0.0
