"""SciPy stays out of start-up, and the numbers it backs stay put.

``scipy.stats`` costs a fresh interpreter ~0.8 s and ~65 MB, yet no
sweep point, service request or chain round calls it.  Every module
under ``src/repro`` therefore imports scipy inside the function that
uses it.  :class:`TestScipyFreeStartup` enforces that in a fresh
subprocess: importing the library, the CLI, the scheduler, the service
and every experiment module, then executing one quick-grid point, must
load no ``scipy`` module at all.  The check counts modules, not time.

:class:`TestScipyBackedPins` records, from the tree with module-level
imports, the floats of every function whose import moved, so that the
move provably changed no number (compared with ``==``, not a tolerance).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.stats import (
    binomial_upper_tail,
    clopper_pearson_interval,
    wilson_interval,
)
from repro.core.collisions import blue_leaf_tail_exact, collision_tail_exact
from repro.core.dynamics import TieRule
from repro.core.meanfield import best_of_k_map, best_of_k_map_parts

REPO = Path(__file__).resolve().parent.parent

_STARTUP_PROBE = """
import importlib, json, sys
import repro, repro.io.cli, repro.sweeps.scheduler, repro.service, repro.analysis
from repro.harness.registry import _MODULES
for name in _MODULES.values():
    importlib.import_module(name)
from repro.harness.e01_consensus_scaling import sweep_spec
from repro.sweeps.runner import execute_point
execute_point(sweep_spec(quick=True, seed=0).points[0])
print(json.dumps(sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
)))
"""


class TestScipyFreeStartup:
    def test_library_cli_service_and_a_point_load_no_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert loaded == [], f"scipy loaded at start-up: {loaded[:10]}"


# (b, k) -> (KEEP_SELF, RANDOM); b = 1e-320 is the subnormal guard.
MAP_PINS = {
    (1e-320, 2): (0.0, 0.0),
    (1e-320, 3): (0.0, 0.0),
    (1e-320, 4): (0.0, 0.0),
    (1e-320, 8): (0.0, 0.0),
    (0.1, 2): (0.028000000000000008, 0.10000000000000003),
    (0.1, 3): (0.028000000000000008, 0.028000000000000008),
    (0.1, 4): (0.00856, 0.028),
    (0.1, 8): (0.0008909200000000003, 0.0027280000000000004),
    (0.4, 2): (0.3520000000000001, 0.40000000000000013),
    (0.4, 3): (0.35200000000000004, 0.35200000000000004),
    (0.4, 4): (0.31744000000000006, 0.35200000000000004),
    (0.4, 8): (0.2665676800000001, 0.28979200000000005),
    (0.73, 2): (0.8206660000000001, 0.7300000000000001),
    (0.73, 3): (0.820666, 0.820666),
    (0.73, 4): (0.8742768058, 0.820666),
    (0.73, 8): (0.9337972084590025, 0.9094991052106001),
}
# k -> (KEEP_SELF, RANDOM) at fractions [0.2, 0.55, 0.9], sizes [30, 50, 20].
PARTS_PINS = {
    3: (
        [0.71825, 0.4700159999999999, 0.3791977539062501],
        [0.71825, 0.4700159999999999, 0.3791977539062501],
    ),
    4: (
        [0.62508875, 0.48870604799999995, 0.5213804724121095],
        [0.71825, 0.470016, 0.37919775390625005],
    ),
    6: (
        [0.6941833437499999, 0.478090100736, 0.4656737276225088],
        [0.7648306249999999, 0.4625399808, 0.35031688920974724],
    ),
}
# (successes, trials, confidence) -> (Wilson, Clopper-Pearson).
INTERVAL_PINS = {
    (0, 10, 0.95): ((0.0, 0.2775327998628892), (0.0, 0.3084971078187607)),
    (3, 10, 0.95): (
        (0.10779126740630099, 0.6032218525388546),
        (0.0667395111777345, 0.6524528500599973),
    ),
    (10, 10, 0.95): ((0.7224672001371107, 1.0), (0.6915028921812392, 1.0)),
    (17, 40, 0.99): (
        (0.24890358835262436, 0.6224373936735131),
        (0.2307905498287123, 0.6373783434032138),
    ),
    (1, 1000, 0.9): (
        (0.00022312384391207085, 0.00446972290936893),
        (5.12919789090178e-05, 0.004734993575499777),
    ),
}
UPPER_TAIL_PINS = {
    (10, 0.3, 4): 0.3503892815999998,
    (100, 0.5, 60.5): 0.017600100108852428,
    (1000, 0.01, 25): 4.202920844836726e-05,
    (50, 1e-09, 2): 1.2249999607999978e-15,
}
COLLISION_PINS = {
    (1, 100, 0): 0.09,
    (2, 10000, 0.5): 0.01613439,
    (3, 1000000, 1): 1.5935481590220002e-06,
    (4, 1000000000, 2.5): 1.1297125868634337e-15,
}
LEAF_PINS = {
    (1, 0.1): 0.028000000000000008,
    (2, 0.3): 0.803996766,
    (4, 0.05): 0.5814427693947666,
    (8, 0.001): 0.0012656647580659656,
}


class TestScipyBackedPins:
    @pytest.mark.parametrize("args", sorted(MAP_PINS))
    def test_best_of_k_map(self, args):
        b, k = args
        keep, rand = MAP_PINS[args]
        assert best_of_k_map(b, k, tie_rule=TieRule.KEEP_SELF) == keep
        assert best_of_k_map(b, k, tie_rule=TieRule.RANDOM) == rand

    @pytest.mark.parametrize("k", sorted(PARTS_PINS))
    def test_best_of_k_map_parts(self, k):
        fractions = np.array([0.2, 0.55, 0.9])
        sizes = np.array([30, 50, 20])
        keep, rand = PARTS_PINS[k]
        got_keep = best_of_k_map_parts(fractions, sizes, k, tie_rule=TieRule.KEEP_SELF)
        got_rand = best_of_k_map_parts(fractions, sizes, k, tie_rule=TieRule.RANDOM)
        assert got_keep.tolist() == keep
        assert got_rand.tolist() == rand

    @pytest.mark.parametrize("args", sorted(INTERVAL_PINS))
    def test_intervals(self, args):
        successes, trials, confidence = args
        wilson, clopper = INTERVAL_PINS[args]
        assert wilson_interval(successes, trials, confidence=confidence) == wilson
        assert (
            clopper_pearson_interval(successes, trials, confidence=confidence)
            == clopper
        )

    @pytest.mark.parametrize("args", sorted(UPPER_TAIL_PINS))
    def test_binomial_upper_tail(self, args):
        assert binomial_upper_tail(*args) == UPPER_TAIL_PINS[args]

    @pytest.mark.parametrize("args", sorted(COLLISION_PINS))
    def test_collision_tail_exact(self, args):
        assert collision_tail_exact(*args) == COLLISION_PINS[args]

    @pytest.mark.parametrize("args", sorted(LEAF_PINS))
    def test_blue_leaf_tail_exact(self, args):
        assert blue_leaf_tail_exact(*args) == LEAF_PINS[args]
