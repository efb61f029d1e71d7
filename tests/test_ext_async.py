"""Asynchronous Best-of-k on the ensemble engine (one trial per call).

``AsyncSweepBestOfK`` is the sweep dynamics E14 runs; these tests drive
it through ``run_ensemble`` with one replica, the way a single run is
made.  Its distribution is checked against a one-trial reference loop in
``tests/test_protocols.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import run_ensemble
from repro.core.opinions import BLUE, RED, random_opinions
from repro.core.protocols import AsyncSweepBestOfK
from repro.graphs.implicit import CompleteGraph


def _run(graph, init, *, seed, protocol=None, max_sweeps=10_000):
    return run_ensemble(
        graph, protocol=protocol or AsyncSweepBestOfK(), replicas=1,
        initial_opinions=init, seed=seed, max_steps=max_sweeps,
    )


class TestAsyncRun:
    def test_converges_to_majority(self):
        g = CompleteGraph(2000)
        res = _run(g, random_opinions(2000, 0.15, rng=1), seed=2)
        assert res.converged[0] and res.winners[0] == RED

    def test_sweep_accounting(self):
        g = CompleteGraph(500)
        res = _run(g, random_opinions(500, 0.2, rng=3), seed=4)
        assert res.blue_trajectories[0].size == res.steps[0] + 1

    def test_consensus_absorbing(self):
        g = CompleteGraph(300)
        res = _run(g, np.zeros(300, dtype=np.uint8), seed=5)
        assert res.converged[0] and res.steps[0] == 0

    def test_exact_sequential_chain(self):
        """batch=1 (the exact chain) also converges; just slower to run."""
        g = CompleteGraph(200)
        res = _run(
            g, random_opinions(200, 0.2, rng=6), seed=7,
            protocol=AsyncSweepBestOfK(batch=1), max_sweeps=200,
        )
        assert res.converged[0] and res.winners[0] == RED

    def test_sweeps_comparable_to_sync_rounds(self):
        """Async sweeps track synchronous rounds within a small factor."""
        from repro.core.dynamics import best_of_three

        g = CompleteGraph(4096)
        init = random_opinions(4096, 0.1, rng=8)
        sync = best_of_three(g).run(init, seed=9, keep_final=False)
        asyn = _run(g, init, seed=10)
        assert asyn.converged[0] and sync.converged
        assert asyn.steps[0] <= 4 * sync.steps + 5

    def test_blue_majority_wins_too(self):
        g = CompleteGraph(1000)
        init = (1 - random_opinions(1000, 0.15, rng=11)).astype(np.uint8)
        res = _run(g, init, seed=12)
        assert res.converged[0] and res.winners[0] == BLUE

    def test_even_k_keeps_self_on_tie(self):
        g = CompleteGraph(1000)
        res = _run(
            g, random_opinions(1000, 0.15, rng=13), seed=14,
            protocol=AsyncSweepBestOfK(2),
        )
        assert res.converged[0] and res.winners[0] == RED

    def test_max_sweeps_respected(self):
        g = CompleteGraph(2048)
        res = _run(g, random_opinions(2048, 0.0, rng=15), seed=16, max_sweeps=1)
        assert res.steps[0] <= 1

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="must have shape"):
            _run(CompleteGraph(10), np.zeros(5, dtype=np.uint8), seed=0)

    def test_deterministic(self):
        g = CompleteGraph(400)
        init = random_opinions(400, 0.1, rng=17)
        a = _run(g, init, seed=18)
        b = _run(g, init, seed=18)
        assert a.steps[0] == b.steps[0]
        assert np.array_equal(a.blue_trajectories[0], b.blue_trajectories[0])
