"""Best-of-Three with stubborn (zealot) vertices, on the ensemble engine.

Zealots are the first ``z`` vertices (``ZealotBestOfK(z)``); one run is
``run_ensemble`` with one replica.  Complete hosts route to the pinned
count chain; the dense path is checked against it in
``tests/test_protocols.py`` and against the exact one-round law in
``tests/test_one_round_law.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import run_ensemble
from repro.core.opinions import random_opinions
from repro.core.protocols import ZealotBestOfK
from repro.graphs.implicit import CompleteGraph


def _run(graph, init, z, *, seed, max_rounds=2000, method="auto"):
    proto = ZealotBestOfK(z)
    res = run_ensemble(
        graph, protocol=proto, replicas=1, initial_opinions=init, seed=seed,
        max_steps=max_rounds, method=method,
    )
    return res, proto.summarize(res)


class TestZealots:
    def test_few_zealots_red_still_takes_ordinary_vertices(self):
        g = CompleteGraph(4000)
        res, payload = _run(g, random_opinions(4000, 0.1, rng=1), 40, seed=2)
        assert payload["ordinary_outcome"] == ["all_red"]
        assert payload["final_ordinary_blue"] == [0]
        # Zealots keep the total blue count pinned at exactly 40.
        assert res.blue_trajectories[0][-1] == 40

    def test_majority_zealots_flip_everyone(self):
        g = CompleteGraph(1000)
        _, payload = _run(g, random_opinions(1000, 0.1, rng=3), 700, seed=4)
        assert payload["ordinary_outcome"] == ["all_blue"]

    def test_zero_zealots_reduces_to_plain_dynamics(self):
        g = CompleteGraph(1000)
        res, payload = _run(g, random_opinions(1000, 0.15, rng=5), 0, seed=6)
        assert payload["ordinary_outcome"] == ["all_red"]
        assert res.blue_trajectories[0][-1] == 0

    def test_all_zealots_degenerate(self):
        g = CompleteGraph(50)
        res, payload = _run(g, np.zeros(50, dtype=np.uint8), 50, seed=9)
        assert payload["ordinary_outcome"] == ["all_blue"]
        assert res.steps[0] == 0

    def test_zealot_threshold_scale(self):
        """More zealots monotonically help blue across the sweep; the
        takeover threshold sits at a constant fraction of n (the gap
        coordinate analogue of the paper's delta)."""
        g = CompleteGraph(2000)
        outcomes = []
        for i, z in enumerate([0, 200, 900, 1500]):
            _, payload = _run(
                g, random_opinions(2000, 0.1, rng=(10, i)), z, seed=(11, i),
                max_rounds=500,
            )
            outcomes.extend(payload["ordinary_outcome"])
        assert outcomes[0] == "all_red"
        assert outcomes[-1] == "all_blue"

    def test_ids_validated(self):
        # Zealot ids are 0..z-1, so they are valid exactly when 0 <= z <= n.
        g = CompleteGraph(10)
        with pytest.raises(ValueError):
            ZealotBestOfK(-1)
        for method in ("count_chain", "batched"):
            with pytest.raises(ValueError, match="exceeds"):
                _run(g, np.zeros(10, dtype=np.uint8), 11, seed=0, method=method)
