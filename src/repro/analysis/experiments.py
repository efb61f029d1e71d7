"""Ensemble runners: many independent dynamics trials, summarised.

A *trial* = fresh initial opinions + fresh dynamics randomness, both from
spawned independent streams.  The ensemble summary carries everything the
experiment harness reports: win counts with Wilson intervals, consensus-
time statistics, and the full per-trial arrays for downstream fitting.

Since the batched-engine rewire (DESIGN.md §2.3) the trials are *not* run
one at a time: they go through :func:`repro.core.ensemble.run_ensemble`,
which advances all live replicas per round (and collapses complete-graph
hosts to the exact O(1)-per-round count chain).  The summary statistics
are distributionally identical to the old per-trial loop; only the stream
consumption pattern differs, so per-seed values changed once at the
rewire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.dynamics import BestOfKDynamics
from repro.core.ensemble import EnsembleResult, run_ensemble
from repro.core.opinions import BLUE, RED
from repro.graphs.base import Graph
from repro.util.rng import SeedLike
from repro.util.validation import check_positive_int

__all__ = ["ConsensusEnsemble", "run_consensus_ensemble"]


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
        every consumer of the engine (the ensemble wrappers below, the
        sweep runner).
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


def run_consensus_ensemble(
    graph: Graph,
    *,
    trials: int,
    seed: SeedLike = None,
    dynamics_factory: Callable[[Graph], BestOfKDynamics] | None = None,
    initializer: Callable[[int, np.random.Generator], np.ndarray] | None = None,
    delta: float | None = None,
    max_steps: int = 10_000,
) -> ConsensusEnsemble:
    """Run *trials* independent dynamics runs on *graph* and summarise.

    Parameters
    ----------
    graph:
        Host graph (shared across trials; only the randomness varies, as
        in the paper's quenched-graph setting).
    trials, seed, max_steps:
        Ensemble controls.
    dynamics_factory:
        Builds the protocol from the graph (default: Best-of-3); must
        return a plain :class:`BestOfKDynamics`, whose ``k`` and
        ``tie_rule`` configure the engine.
    initializer:
        ``(n, rng) -> opinions``; default draws the paper's i.i.d.
        configuration with bias *delta* (which must then be given).
    delta:
        Bias for the default initializer.
    """
    trials = check_positive_int(trials, "trials")
    if initializer is None and delta is None:
        raise ValueError("provide either initializer or delta")

    if dynamics_factory is None:
        def dynamics_factory(g: Graph) -> BestOfKDynamics:
            return BestOfKDynamics(g, k=3)

    dyn = dynamics_factory(graph)
    # Exact type check, not isinstance: a subclass may override run()/step()
    # with different dynamics, which the engine would silently ignore.
    if type(dyn) is not BestOfKDynamics:
        raise TypeError(
            "dynamics_factory must return a BestOfKDynamics (not a "
            f"subclass), got {type(dyn).__name__}"
        )
    # One engine call simulates every trial (and CompleteGraph hosts
    # collapse to the exact count chain).
    ens = run_ensemble(
        dyn.graph,
        replicas=trials,
        k=dyn.k,
        tie_rule=dyn.tie_rule,
        seed=seed,
        max_steps=max_steps,
        delta=delta if initializer is None else None,
        initializer=initializer,
        record_trajectories=False,
    )
    return ConsensusEnsemble.from_ensemble_result(ens)
