"""Tests for ε-noisy Best-of-Three and its bifurcation structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble import run_ensemble
from repro.core.meanfield import map_derivative_at_half, noisy_best_of_k_map
from repro.core.opinions import random_opinions
from repro.core.protocols import NoisyBestOfK
from repro.extensions.noisy_dynamics import CRITICAL_NOISE, noisy_fixed_points
from repro.graphs.implicit import CompleteGraph


def _stationary(graph, init, eta, *, seed, rounds):
    proto = NoisyBestOfK(eta)
    res = run_ensemble(
        graph, protocol=proto, replicas=1, initial_opinions=init, seed=seed,
        max_steps=rounds,
    )
    return res, proto.summarize(res)


class TestNoisyMap:
    def test_reduces_to_ideal_at_zero_noise(self):
        from repro.core.recursions import ideal_step

        for b in (0.1, 0.3, 0.45):
            assert noisy_best_of_k_map(b, 0.0) == pytest.approx(ideal_step(b))

    def test_full_noise_is_fair_coin(self):
        for b in (0.0, 0.2, 0.9):
            assert noisy_best_of_k_map(b, 1.0) == pytest.approx(0.5)

    def test_half_is_always_fixed(self):
        for eta in (0.0, 0.1, 0.5, 0.9):
            assert noisy_best_of_k_map(0.5, eta) == pytest.approx(0.5)

    @given(
        b=st.floats(min_value=0, max_value=1),
        eta=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=60)
    def test_property_stays_probability(self, b, eta):
        assert 0.0 <= noisy_best_of_k_map(b, eta) <= 1.0

    def test_symmetry(self):
        # Colour-swap symmetry survives the noise.
        for b, eta in [(0.2, 0.1), (0.4, 0.3)]:
            assert noisy_best_of_k_map(1 - b, eta) == pytest.approx(
                1 - noisy_best_of_k_map(b, eta)
            )


class TestFixedPoints:
    def test_subcritical_three_points(self):
        pts = noisy_fixed_points(0.1)
        assert len(pts) == 3
        for p in pts:
            assert noisy_best_of_k_map(p, 0.1) == pytest.approx(p, abs=1e-12)

    def test_supercritical_only_half(self):
        assert noisy_fixed_points(0.5) == [0.5]
        assert noisy_fixed_points(CRITICAL_NOISE) == [0.5]

    def test_points_merge_at_critical_noise(self):
        lo_pts = noisy_fixed_points(CRITICAL_NOISE - 1e-6)
        assert len(lo_pts) == 3
        assert lo_pts[0] == pytest.approx(0.5, abs=0.01)

    def test_zero_noise_recovers_consensus_points(self):
        assert noisy_fixed_points(0.0) == pytest.approx([0.0, 0.5, 1.0])

    def test_critical_noise_is_the_pitchfork_at_half(self):
        # (1 − η*)·g′(1/2) = 1.  map_derivative_at_half is a central
        # difference with step 1e-6, exact here to ~1e-10.
        assert (1 - CRITICAL_NOISE) * map_derivative_at_half(3) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_lower_point_approaches_half_below_critical_noise(self):
        assert noisy_fixed_points(0.30)[0] == pytest.approx(0.311, abs=5e-4)
        assert noisy_fixed_points(0.3333)[0] == pytest.approx(0.494, abs=5e-4)


class TestSimulation:
    def test_subcritical_metastability_matches_fixed_point(self):
        g = CompleteGraph(20_000)
        eta = 0.1
        _, payload = _stationary(
            g, random_opinions(20_000, 0.1, rng=1), eta, seed=2, rounds=60
        )
        predicted = noisy_fixed_points(eta)[0]
        level = payload["stationary_blue_fraction"][0]
        assert level == pytest.approx(predicted, abs=0.02)
        assert payload["majority_preserved"][0]

    def test_supercritical_noise_erases_majority(self):
        g = CompleteGraph(20_000)
        _, payload = _stationary(
            g, random_opinions(20_000, 0.1, rng=3), 0.6, seed=4, rounds=60
        )
        assert payload["stationary_blue_fraction"][0] == pytest.approx(
            0.5, abs=0.03
        )

    def test_never_absorbs(self):
        g = CompleteGraph(2000)
        res, _ = _stationary(
            g, random_opinions(2000, 0.2, rng=5), 0.2, seed=6, rounds=40
        )
        assert res.blue_trajectories[0].size == 41  # full budget used

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="must have shape"):
            _stationary(
                CompleteGraph(10), np.zeros(5, dtype=np.uint8), 0.1,
                seed=0, rounds=10,
            )

    def test_eta_validated(self):
        with pytest.raises(ValueError):
            NoisyBestOfK(1.5)
