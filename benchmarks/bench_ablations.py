"""Ablation benchmarks for the design choices in DESIGN.md §4.

3. Tie rules for even k: KEEP_SELF amplifies the majority (drift map
   ``3b²−2b³``) while RANDOM is a martingale — the time-to-consensus gap
   is the cost of the "wrong" rule.
4. Sprinkling reveal order: default vs shuffled order must produce the
   same pseudo-leaf counts; the benchmark measures the (small) overhead
   of the permuted-order path.
5. float64 vs exact rational recursions: the production trajectory
   iterator vs the `fractions.Fraction` reference (the accuracy
   cross-check lives in the test suite; this quantifies why float64 is
   the production path).

Plus the asynchronous-engine extension: sweeps vs synchronous rounds.
"""

from __future__ import annotations

import numpy as np

from repro.core.dynamics import BestOfKDynamics, TieRule
from repro.core.ensemble import run_ensemble
from repro.core.opinions import random_opinions
from repro.core.protocols import AsyncSweepBestOfK
from repro.core.recursions import ideal_trajectory
from repro.core.sprinkling import sprinkle
from repro.core.voting_dag import VotingDAG
from repro.graphs.implicit import CompleteGraph
from repro.util.fraction_ref import ideal_trajectory_exact


def test_ablation3_tie_rule_keep_self(benchmark):
    """Best-of-2 KEEP_SELF to consensus (amplifying rule)."""
    n = 4096
    g = CompleteGraph(n)
    init = random_opinions(n, 0.15, rng=1)
    rng = np.random.default_rng(2)

    def go():
        res = BestOfKDynamics(g, 2, tie_rule=TieRule.KEEP_SELF).run(
            init, seed=rng, max_steps=1000, keep_final=False
        )
        assert res.converged

    benchmark(go)


def test_ablation3_tie_rule_random(benchmark):
    """Best-of-2 RANDOM ties to consensus (martingale — far slower)."""
    n = 512  # kept small: consensus is Theta(n) sweeps for the martingale
    g = CompleteGraph(n)
    init = random_opinions(n, 0.15, rng=3)
    rng = np.random.default_rng(4)

    def go():
        BestOfKDynamics(g, 2, tie_rule=TieRule.RANDOM).run(
            init, seed=rng, max_steps=50 * n, keep_final=False
        )

    benchmark(go)


def test_ablation4_sprinkle_default_order(benchmark):
    """Sprinkling with the default (row-major) reveal order."""
    g = CompleteGraph(64)
    dag = VotingDAG.sample(g, root=0, T=6, rng=5)
    result = benchmark(lambda: sprinkle(dag))
    assert result.is_collision_free_below()


def test_ablation4_sprinkle_shuffled_order(benchmark):
    """Sprinkling with per-level shuffled reveal order (same counts)."""
    g = CompleteGraph(64)
    dag = VotingDAG.sample(g, root=0, T=6, rng=5)
    baseline = sprinkle(dag).pseudo_leaves_per_level()
    rng = np.random.default_rng(6)
    result = benchmark(lambda: sprinkle(dag, order_rng=rng))
    assert np.array_equal(result.pseudo_leaves_per_level(), baseline)


def test_ablation5_recursion_float64(benchmark):
    """Production float64 recursion trajectory (40 iterates)."""
    benchmark(lambda: ideal_trajectory(0.4, 40))


def test_ablation5_recursion_exact_rational(benchmark):
    """Exact Fraction reference trajectory (12 iterates — denominators
    grow triply exponentially, so even 12 steps dwarf the float path)."""
    from fractions import Fraction

    benchmark(lambda: ideal_trajectory_exact(Fraction(2, 5), 12))


def test_extension_async_engine(benchmark):
    """Asynchronous Best-of-3 to consensus, measured in wall time."""
    n = 4096
    g = CompleteGraph(n)
    init = random_opinions(n, 0.15, rng=7)
    rng = np.random.default_rng(8)

    def go():
        res = run_ensemble(
            g, protocol=AsyncSweepBestOfK(), replicas=1, initial_opinions=init,
            seed=rng, max_steps=200, record_trajectories=False,
        )
        assert res.converged.all()

    benchmark(go)
