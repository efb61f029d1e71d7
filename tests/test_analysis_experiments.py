"""Tests for the ensemble summary over engine runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import ConsensusEnsemble
from repro.core.ensemble import run_ensemble
from repro.core.opinions import RED
from repro.graphs.implicit import CompleteGraph


def run_consensus_ensemble(graph, *, trials, seed, **kw) -> ConsensusEnsemble:
    """*trials* Best-of-3 runs through the engine, summarised."""
    return ConsensusEnsemble.from_ensemble_result(
        run_ensemble(
            graph, replicas=trials, seed=seed, record_trajectories=False, **kw
        )
    )


class TestEnsemble:
    def test_basic_summary(self):
        g = CompleteGraph(1024)
        ens = run_consensus_ensemble(g, trials=8, delta=0.15, seed=1)
        assert ens.trials == 8
        assert ens.converged == 8
        assert ens.unconverged == 0
        assert ens.red_wins == 8
        assert ens.red_win_rate == 1.0
        assert ens.steps.shape == (8,)
        assert ens.mean_steps <= ens.max_steps

    def test_reproducible(self):
        g = CompleteGraph(512)
        a = run_consensus_ensemble(g, trials=5, delta=0.1, seed=2)
        b = run_consensus_ensemble(g, trials=5, delta=0.1, seed=2)
        assert np.array_equal(a.steps, b.steps)
        assert np.array_equal(a.winners, b.winners)

    def test_trials_independent(self):
        g = CompleteGraph(512)
        ens = run_consensus_ensemble(g, trials=20, delta=0.02, seed=3)
        # With a tiny bias, consensus times vary between trials.
        assert len(set(ens.steps.tolist())) > 1

    def test_custom_initializer(self):
        g = CompleteGraph(256)
        calls = []

        def init(n, rng):
            calls.append(n)
            return np.zeros(n, dtype=np.uint8)

        ens = run_consensus_ensemble(g, trials=3, initializer=init, seed=4)
        assert len(calls) == 3
        assert (ens.steps == 0).all()
        assert (ens.winners == RED).all()

    def test_unconverged_counted(self):
        g = CompleteGraph(4096)
        ens = run_consensus_ensemble(g, trials=4, delta=0.01, seed=6, max_steps=1)
        assert ens.unconverged == 4
        assert ens.steps.size == 0
        assert np.isnan(ens.mean_steps)
        assert ens.max_steps == 0

    def test_missing_delta_and_initializer_rejected(self):
        with pytest.raises(ValueError, match="exactly one of delta, initializer"):
            run_consensus_ensemble(CompleteGraph(64), trials=2, seed=7)

    def test_win_interval(self):
        g = CompleteGraph(1024)
        ens = run_consensus_ensemble(g, trials=10, delta=0.2, seed=8)
        lo, hi = ens.red_win_interval()
        assert lo <= ens.red_win_rate <= hi
