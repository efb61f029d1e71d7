"""The one-round law: an exact per-vertex oracle for every engine round.

Fix the opinion row ``x``.  In one synchronous round every vertex draws
its own sample, independently of every other vertex, so vertex ``v``
ends the round blue with probability exactly

    π_v = law.adopt(b_v / d_v, x_v),

where ``b_v`` counts ``v``'s blue neighbours, ``d_v`` is its degree and
``law`` is the protocol's ``adoption_law()``.  Zealots have ``π = 1``.
q-colour plurality (sample three, ties broken by a uniform pick among
the three) has the multinomial analogue

    π_{v,c} = 3p_c²(1−p_c) + p_c³ + 2p_c·Σ_{a<b; a,b≠c} p_a·p_b,

with ``p_c`` the share of ``v``'s neighbours holding colour ``c``.

Over ``R`` replicas of one round from the same row, the per-vertex
counts ``c_v`` are independent ``Bin(R, π_v)``.  Every (host, protocol)
case runs two tests against the exact π, each at a fixed seed and
false-alarm rate :data:`ALPHA`:

* a χ² over the vertices, ``Σ_v (c_v − Rπ_v)² / (Rπ_v(1−π_v))`` on
  ``m`` degrees of freedom — it catches a wrong neighbour set, a wrong
  tie rule or a wrong own-colour term on a few vertices;
* a z-test on the aggregate ``Σ_v (c_v − Rπ_v)``, whose variance is
  ``Σ_v Rπ_v(1−π_v) ≤ Rm/4`` — it catches a small uniform shift in π
  that the χ² spreads over ``m`` degrees of freedom.

Sizing (the design-by-power approach of consistency tests): a uniform
shift Δ moves the z statistic by at least ``2Δ·√(Rm)``, so it is
detected with power :data:`POWER` once
``Δ ≥ (z_{1−α/2} + z_{POWER}) / (2√(Rm))``.  At ``R = 4000`` and the
smallest case here (``m = 64`` free vertices) that is
:data:`DETECTABLE_SHIFT` ≈ 0.0051.  On a red-leaning row a noisy law
with η = 0.22 against the engine's η = 0.25 shifts π by about 0.011 and
fails the z-test; :class:`TestSensitivity` checks both figures.

On the hosts with a count chain (complete, complete bipartite and
multipartite, the two-clique bridge) the chain's one-round totals must
follow the Poisson-binomial law of the same π (a χ² goodness of fit
over the support, tails pooled to expected counts ≥ 5, plus the z-test
on the mean).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core.dynamics import TieRule
from repro.core.ensemble import run_ensemble
from repro.core.protocols import (
    BestOfK,
    NoisyBestOfK,
    Plurality,
    Voter,
    ZealotBestOfK,
)
from repro.graphs.generators import erdos_renyi, two_clique_bridge
from repro.graphs.implicit import (
    CompleteBipartiteGraph,
    CompleteGraph,
    CompleteMultipartiteGraph,
    RookGraph,
)

ALPHA = 1e-4
"""False-alarm rate of every single test in this module."""

POWER = 0.9
REPLICAS = 4000
MIN_FREE_VERTICES = 64


def detectable_shift(replicas: int, m: int) -> float:
    """Smallest uniform shift in π the z-test detects with :data:`POWER`."""
    z = stats.norm.isf(ALPHA / 2) + stats.norm.ppf(POWER)
    return float(z / (2.0 * np.sqrt(replicas * m)))


DETECTABLE_SHIFT = detectable_shift(REPLICAS, MIN_FREE_VERTICES)

HOSTS = {
    "csr": erdos_renyi(96, 0.3, seed=(31, 0)),
    "complete": CompleteGraph(80),
    "bipartite": CompleteBipartiteGraph(32, 48),
    "multipartite": CompleteMultipartiteGraph([16, 24, 40]),
    "rook": RookGraph(9),
    "bridge": two_clique_bridge(40, bridges=3),
}
EXCHANGEABLE = ("complete", "bipartite", "multipartite", "bridge")

ZEALOTS = 8
TWO_COLOUR = {
    "best_of_3": lambda: BestOfK(3),
    "best_of_2_keep": lambda: BestOfK(2, tie_rule=TieRule.KEEP_SELF),
    "best_of_2_random": lambda: BestOfK(2, tie_rule=TieRule.RANDOM),
    "voter": Voter,
    "noisy": lambda: NoisyBestOfK(0.25),
    "zealot": lambda: ZealotBestOfK(ZEALOTS),
}


def _two_colour_row(n: int, seed) -> np.ndarray:
    """Blue with probability rising from 0.25 to 0.65 along the ids, so
    the parts of a multipartite host see different blue shares."""
    rng = np.random.default_rng(seed)
    return (rng.random(n) < 0.25 + 0.4 * np.arange(n) / n).astype(np.uint8)


def _neighbour_shares(graph, onehot: np.ndarray) -> np.ndarray:
    """``(n, c)`` share of each vertex's neighbours holding each colour."""
    csr = graph.to_csr()
    counts = csr.adjacency_scipy() @ onehot.astype(np.float64)
    return counts / csr.degrees.astype(np.float64)[:, None]


def exact_blue_probabilities(graph, protocol, row: np.ndarray) -> np.ndarray:
    """π_v for a two-colour protocol from the opinion row *row*."""
    row = protocol.prepare_state(row[None, :].copy())[0]
    p = _neighbour_shares(graph, row[:, None])[:, 0]
    law = protocol.adoption_law()
    pi = np.where(row == 1, law.adopt(p, 1), law.adopt(p, 0))
    pi[: getattr(protocol, "zealots", 0)] = 1.0
    return pi


def exact_plurality_probabilities(graph, row: np.ndarray, q: int) -> np.ndarray:
    """``(n, q)`` matrix π_{v,c} of q-colour 3-majority with random ties."""
    p = _neighbour_shares(graph, np.eye(q)[row])
    pi = 3 * p**2 * (1 - p) + p**3
    for c in range(q):
        others = [a for a in range(q) if a != c]
        pairs = sum(
            p[:, a] * p[:, b]
            for i, a in enumerate(others)
            for b in others[i + 1 :]
        )
        pi[:, c] += 2 * p[:, c] * pairs
    return pi


def one_round(graph, protocol, row, *, seed, method="batched"):
    """:data:`REPLICAS` replicas of one round from the shared row *row*."""
    return run_ensemble(
        graph, protocol=protocol, replicas=REPLICAS, initial_opinions=row,
        seed=seed, max_steps=1, method=method,
        keep_final=method == "batched",
        record_trajectories=method == "count_chain",
    )


def binomial_pvalues(counts: np.ndarray, pi: np.ndarray, replicas: int):
    """(χ², z) p-values of per-vertex counts against ``Bin(R, π_v)``.

    Vertices with π ∈ {0, 1} carry no randomness: their counts must be
    exactly 0 or R.
    """
    fixed = (pi == 0.0) | (pi == 1.0)
    np.testing.assert_array_equal(counts[fixed], replicas * pi[fixed])
    c, p = counts[~fixed].astype(np.float64), pi[~fixed]
    var = replicas * p * (1.0 - p)
    chi2 = float(np.sum((c - replicas * p) ** 2 / var))
    z = float(np.sum(c - replicas * p) / np.sqrt(np.sum(var)))
    return stats.chi2.sf(chi2, c.size), 2.0 * stats.norm.sf(abs(z))


def poisson_binomial_pmf(pi: np.ndarray) -> np.ndarray:
    """Exact law of ``Σ_v Bernoulli(π_v)`` (independent vertices)."""
    pmf = np.ones(1)
    for p in pi:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def totals_pvalues(totals: np.ndarray, pi: np.ndarray):
    """(χ², z) p-values of one-round blue totals against their exact law."""
    replicas = totals.size
    expected = replicas * poisson_binomial_pmf(pi)
    observed = np.bincount(totals, minlength=expected.size).astype(np.float64)
    keep = np.flatnonzero(expected >= 5.0)
    lo, hi = keep[0], keep[-1]
    exp_b = expected[lo : hi + 1].copy()
    obs_b = observed[lo : hi + 1].copy()
    exp_b[0] += expected[:lo].sum()
    obs_b[0] += observed[:lo].sum()
    exp_b[-1] += expected[hi + 1 :].sum()
    obs_b[-1] += observed[hi + 1 :].sum()
    chi2 = float(np.sum((obs_b - exp_b) ** 2 / exp_b))
    var = replicas * np.sum(pi * (1.0 - pi))
    z = float((totals.sum() - replicas * pi.sum()) / np.sqrt(var))
    return stats.chi2.sf(chi2, exp_b.size - 1), 2.0 * stats.norm.sf(abs(z))


class TestDenseRound:
    """The batched dense round against the exact per-vertex law."""

    @pytest.mark.parametrize("proto_name", sorted(TWO_COLOUR))
    @pytest.mark.parametrize("host_name", sorted(HOSTS))
    def test_two_colour_round_matches_the_law(self, host_name, proto_name):
        graph, protocol = HOSTS[host_name], TWO_COLOUR[proto_name]()
        h, p = sorted(HOSTS).index(host_name), sorted(TWO_COLOUR).index(proto_name)
        row = _two_colour_row(graph.num_vertices, seed=(h, p))
        pi = exact_blue_probabilities(graph, protocol, row)
        res = one_round(graph, protocol, row, seed=(1, h, p))
        assert (res.steps == 1).all()
        counts = res.final_opinions.sum(axis=0, dtype=np.int64)
        chi2_p, z_p = binomial_pvalues(counts, pi, REPLICAS)
        assert chi2_p > ALPHA, (host_name, proto_name, chi2_p)
        assert z_p > ALPHA, (host_name, proto_name, z_p)

    @pytest.mark.parametrize("host_name", sorted(HOSTS))
    def test_plurality_round_matches_the_law(self, host_name):
        q = 3
        graph = HOSTS[host_name]
        n = graph.num_vertices
        h = sorted(HOSTS).index(host_name)
        row = np.random.default_rng((7, h)).choice(q, size=n, p=[0.45, 0.3, 0.25])
        pi = exact_plurality_probabilities(graph, row, q)
        np.testing.assert_allclose(pi.sum(axis=1), 1.0)
        res = one_round(graph, Plurality(q), row, seed=(8, h))
        final = res.final_opinions
        counts = np.stack([(final == c).sum(axis=0) for c in range(q)], axis=1)
        # Per-vertex multinomial χ² over the colours a vertex can adopt.
        live = pi > 0.0
        np.testing.assert_array_equal(counts[~live], 0)
        expected = REPLICAS * pi[live]
        chi2 = float(np.sum((counts[live] - expected) ** 2 / expected))
        dof = int(live.sum()) - n
        assert stats.chi2.sf(chi2, dof) > ALPHA
        # Each colour's aggregate against its binomial marginals.
        for c in range(q):
            _, z_p = binomial_pvalues(counts[:, c], pi[:, c], REPLICAS)
            assert z_p > ALPHA, (host_name, c, z_p)


class TestCountChainRound:
    """The count chain's one-round totals against the same law."""

    @pytest.mark.parametrize("proto_name", sorted(TWO_COLOUR))
    @pytest.mark.parametrize("host_name", EXCHANGEABLE)
    def test_chain_totals_match_the_law(self, host_name, proto_name):
        graph, protocol = HOSTS[host_name], TWO_COLOUR[proto_name]()
        h, p = EXCHANGEABLE.index(host_name), sorted(TWO_COLOUR).index(proto_name)
        row = _two_colour_row(graph.num_vertices, seed=(2, h, p))
        pi = exact_blue_probabilities(graph, protocol, row)
        res = one_round(graph, protocol, row, seed=(3, h, p), method="count_chain")
        assert res.method == "count_chain"
        totals = np.array([traj[-1] for traj in res.blue_trajectories])
        chi2_p, z_p = totals_pvalues(totals, pi)
        assert chi2_p > ALPHA, (host_name, proto_name, chi2_p)
        assert z_p > ALPHA, (host_name, proto_name, z_p)


class TestOneLawTwoNames:
    """Best-of-2 with RANDOM ties adopts blue w.p. p² + p(1−p) = p: the
    voter law.  E8 reports the two as different protocols; they share
    one law, and both are cases of the dense and chain tests above."""

    @pytest.mark.parametrize("own", [0, 1])
    def test_best_of_two_random_is_the_voter_law(self, own):
        grid = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(
            BestOfK(2, tie_rule=TieRule.RANDOM).adoption_law().adopt(grid, own),
            Voter().adoption_law().adopt(grid, own),
            rtol=0.0, atol=1e-15,
        )


class TestSensitivity:
    """The stated α, power and detectable shift hold, and the z-test
    rejects a noise rate three points off."""

    def test_stated_detectable_shift(self):
        assert DETECTABLE_SHIFT == pytest.approx(0.0051, abs=1e-4)
        for name, graph in HOSTS.items():
            free = graph.num_vertices - ZEALOTS
            assert free >= MIN_FREE_VERTICES, name

    def test_z_test_size_and_power_on_synthetic_counts(self):
        rng = np.random.default_rng(40)
        pi = rng.uniform(0.05, 0.95, MIN_FREE_VERTICES)
        draws = 400
        null = [
            binomial_pvalues(rng.binomial(REPLICAS, pi), pi, REPLICAS)[1]
            for _ in range(draws)
        ]
        shifted = [
            binomial_pvalues(
                rng.binomial(REPLICAS, pi + DETECTABLE_SHIFT), pi, REPLICAS
            )[1]
            for _ in range(draws)
        ]
        assert np.mean(np.array(null) <= ALPHA) <= 0.01
        assert np.mean(np.array(shifted) <= ALPHA) >= 0.85

    def test_noise_rate_off_by_three_points_is_caught(self):
        # η moves π by (η' − η)(1/2 − majority), so a red-leaning row
        # (blue share 0.2, majority ≈ 0.1) turns 3 points of η into a
        # near-uniform shift of about 0.012.
        graph = HOSTS["rook"]
        row = (np.random.default_rng(41).random(graph.num_vertices) < 0.2)
        row = row.astype(np.uint8)
        res = one_round(graph, NoisyBestOfK(0.25), row, seed=42)
        counts = res.final_opinions.sum(axis=0, dtype=np.int64)
        pi_right = exact_blue_probabilities(graph, NoisyBestOfK(0.25), row)
        pi_wrong = exact_blue_probabilities(graph, NoisyBestOfK(0.22), row)
        assert (pi_right - pi_wrong).mean() > DETECTABLE_SHIFT
        assert min(binomial_pvalues(counts, pi_right, REPLICAS)) > ALPHA
        _, z_p = binomial_pvalues(counts, pi_wrong, REPLICAS)
        assert z_p <= ALPHA
