"""Tests for trajectory-ensemble analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.trajectories import TrajectoryBundle, hitting_times
from repro.core.ensemble import run_ensemble
from repro.core.recursions import ideal_trajectory
from repro.graphs.implicit import CompleteGraph


def collect_trajectories(graph, *, trials, horizon, seed=None, **init):
    """*trials* Best-of-3 trajectories of *horizon* rounds, aligned."""
    ens = run_ensemble(
        graph, replicas=trials, seed=seed, max_steps=horizon,
        record_trajectories=True, **init,
    )
    return TrajectoryBundle(ens.fraction_matrix(horizon))


class TestCollect:
    def test_shapes_and_padding(self):
        g = CompleteGraph(1024)
        bundle = collect_trajectories(g, trials=6, horizon=30, delta=0.15, seed=1)
        assert bundle.fractions.shape == (6, 31)
        assert bundle.trials == 6 and bundle.horizon == 30
        # Absorbed runs are padded with the terminal value.
        assert np.all(np.isin(bundle.fractions[:, -1], [0.0, 1.0]))

    def test_mean_tracks_recursion(self):
        g = CompleteGraph(50_000)
        bundle = collect_trajectories(g, trials=4, horizon=15, delta=0.1, seed=2)
        b0 = float(bundle.fractions[:, 0].mean())
        ref = ideal_trajectory(b0, 15)
        assert bundle.sup_gap_to(ref) < 0.02

    def test_band_ordering(self):
        g = CompleteGraph(512)
        bundle = collect_trajectories(g, trials=10, horizon=20, delta=0.1, seed=3)
        lo, hi = bundle.band(0.25, 0.75)
        assert (lo <= hi + 1e-12).all()
        mean = bundle.mean()
        assert (lo <= mean + 1e-9).all() or True  # mean can exit IQR; no strict claim

    def test_band_validated(self):
        bundle = TrajectoryBundle(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="lower < upper"):
            bundle.band(0.9, 0.1)

    def test_sup_gap_shape_validated(self):
        bundle = TrajectoryBundle(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="length"):
            bundle.sup_gap_to(np.zeros(3))

    def test_custom_initializer(self):
        g = CompleteGraph(128)
        bundle = collect_trajectories(
            g,
            trials=3,
            horizon=5,
            seed=4,
            initializer=lambda n, rng: np.zeros(n, dtype=np.uint8),
        )
        assert (bundle.fractions == 0).all()

    def test_missing_delta_rejected(self):
        with pytest.raises(ValueError, match="exactly one of delta, initializer"):
            collect_trajectories(CompleteGraph(64), trials=2, horizon=3)


class TestHittingTimes:
    def test_values(self):
        fr = np.array(
            [
                [0.4, 0.2, 0.05, 0.0],
                [0.4, 0.3, 0.2, 0.15],
            ]
        )
        bundle = TrajectoryBundle(fr)
        ht = hitting_times(bundle, 0.1)
        assert ht[0] == 2
        assert ht[1] == 4  # censored at horizon + 1

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            hitting_times(TrajectoryBundle(np.zeros((1, 2))), 1.5)

    def test_consistent_with_consensus_times(self):
        g = CompleteGraph(2048)
        bundle = collect_trajectories(g, trials=8, horizon=40, delta=0.15, seed=5)
        ht = hitting_times(bundle, 1.0 / 2048)  # below one vertex = extinct
        assert (ht <= 40).all()
        # Survival curve is monotone.
        from repro.analysis.stats import empirical_survival

        xs, surv = empirical_survival(ht)
        assert (np.diff(surv) <= 1e-12).all()
