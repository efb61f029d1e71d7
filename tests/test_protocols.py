"""Tests for the Protocol layer (DESIGN.md §2.6).

Load-bearing claims (mirroring ``tests/test_count_chain_kernels.py``):

1. the batched and count-chain executions of the extension protocols
   agree in distribution over whole runs (noisy stationary levels,
   zealot outcome rates), and land on the mean-field fixed points; the
   one-round laws of both paths are checked exactly in
   ``tests/test_one_round_law.py``.  Asynchronous sweeps have no
   per-vertex product law, so they are checked against a one-trial
   reference loop kept here;
2. the k=3-only restriction on ``noisy_best_of_k`` / ``zealot_best_of_k``
   is gone: general ``k`` validates in :class:`ProtocolSpec`, builds,
   and stays exact on the chain path;
3. engine routing: E13/E15 complete-host sweep points run through
   count-chain kernels, and compositions (noise+zealots, zealots on
   multipartite hosts) execute on both paths;
4. the baselines ride the same engine: batched local majority is
   bit-identical to a closed-form neighbour-majority iteration
   (deterministic dynamics), batched plurality reproduces the [2]
   behaviour, and paired ``async_vs_sync`` payloads are deterministic
   with shared initial configurations.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.baselines.plurality import (
    plurality_ensemble,
    random_plurality_opinions,
)
from repro.core.ensemble import build_initial_matrix, run_ensemble
from repro.core.kernels import (
    CompleteKernel,
    MultipartiteKernel,
    TwoCliqueBridgeKernel,
)
from repro.core.meanfield import (
    best_of_k_map,
    noisy_best_of_k_map,
    plurality_map,
    zealot_best_of_k_map,
)
from repro.core.opinions import BLUE, RED, random_opinions
from repro.core.protocols import (
    AsyncSweepBestOfK,
    BestOfK,
    LocalMajority,
    NoisyBestOfK,
    NoisyZealotBestOfK,
    Plurality,
    Voter,
    ZealotBestOfK,
)
from repro.extensions.noisy_dynamics import noisy_fixed_points
from repro.graphs.generators import erdos_renyi
from repro.graphs.implicit import CompleteGraph, CompleteMultipartiteGraph
from repro.sweeps import (
    HostSpec,
    InitSpec,
    Point,
    ProtocolSpec,
    execute_point,
)
from repro.util.rng import spawn_generators

KS_ALPHA = 1e-3  # deterministic seeds: failures mean real drift, not noise


def async_reference_run(graph, init, *, seed, max_sweeps, k=3, batch=None):
    """One asynchronous Best-of-k run, one trial at a time: the sweep
    dynamics written as a bare loop (the legacy single-run loop, kept as
    test code).  Returns ``(sweeps executed, final blue count)``."""
    n = graph.num_vertices
    batch = max(n // 16, 1) if batch is None else batch
    gen = np.random.default_rng(seed)
    state = np.array(init, dtype=np.uint8)
    blue, sweeps = int(state.sum()), 0
    while 0 < blue < n and sweeps < max_sweeps:
        done = 0
        while done < n:
            m = min(batch, n - done)
            vertices = gen.integers(0, n, size=m, dtype=np.int64)
            votes = state[graph.sample_neighbors(vertices, k, gen)].sum(axis=1)
            new_vals = (2 * votes > k).astype(np.uint8)
            if k % 2 == 0:
                new_vals[2 * votes == k] = state[vertices][2 * votes == k]
            state[vertices] = new_vals
            done += m
        blue, sweeps = int(state.sum()), sweeps + 1
    return sweeps, blue


def local_majority_reference(graph, row, *, max_steps):
    """Closed-form neighbour-majority iteration ``x ← [2Ax > d] + [2Ax = d]·x``.

    Returns ``(steps, winner)`` when the row reaches consensus within
    *max_steps*, else ``None``.
    """
    csr = graph.to_csr()
    adj, deg = csr.adjacency_scipy(), csr.degrees
    x = np.array(row, dtype=np.int64)
    for step in range(max_steps + 1):
        if x.sum() in (0, x.size):
            return step, int(x[0])
        twice = 2 * np.rint(adj @ x).astype(np.int64)
        x = np.where(twice == deg, x, (twice > deg).astype(np.int64))
    return None


def _one_round_totals(graph, protocol, method, *, replicas, blue0, seed):
    res = run_ensemble(
        graph,
        protocol=protocol,
        replicas=replicas,
        initial_blue_counts=blue0,
        seed=seed,
        max_steps=1,
        record_trajectories=True,
        method=method,
    )
    return np.array([traj[-1] for traj in res.blue_trajectories])


class TestNoisyEquivalence:
    """NoisyBestOfK: count chain vs dense path over whole runs (claim 1)."""

    def test_stationary_level_matches_dense_path(self):
        n, eta, delta = 512, 0.2, 0.1
        graph = CompleteGraph(n)
        proto = NoisyBestOfK(eta)
        levels = {}
        for method, seed in (("count_chain", 8), ("batched", 7)):
            res = run_ensemble(
                graph, protocol=proto, replicas=40, delta=delta, seed=seed,
                max_steps=60, method=method,
            )
            levels[method] = proto.summarize(res)["stationary_blue_fraction"]
        chain, dense = levels["count_chain"], levels["batched"]
        # Both paths estimate the same metastable level: the map's lower
        # stable fixed point.
        assert stats.ks_2samp(dense, chain).pvalue > KS_ALPHA
        assert abs(np.mean(dense) - np.mean(chain)) < 0.02
        for level in (np.mean(dense), np.mean(chain)):
            assert abs(level - noisy_fixed_points(eta)[0]) < 0.02

    def test_noisy_runs_use_the_full_budget(self):
        # Even eta = 0 replicas never absorb early — the stationary
        # window stays comparable across replicas.
        res = run_ensemble(
            CompleteGraph(256), protocol=NoisyBestOfK(0.0), replicas=3,
            delta=0.1, seed=9, max_steps=25,
        )
        assert not res.converged.any()
        assert (res.steps == 25).all()
        assert all(t.size == 26 for t in res.blue_trajectories)


class TestZealotEquivalence:
    """ZealotBestOfK: count chain vs dense path, pinned slots (claim 1)."""

    def test_full_run_outcome_rates_match_dense_path(self):
        n, delta, trials = 400, 0.1, 300
        graph = CompleteGraph(n)
        for z, expect_blue in ((8, False), (60, True)):
            proto = ZealotBestOfK(z)
            payloads = {}
            for method, seed in (("count_chain", (3, z)), ("batched", (2, z))):
                res = run_ensemble(
                    graph, protocol=proto, replicas=trials, delta=delta,
                    seed=seed, max_steps=400, record_trajectories=False,
                    method=method,
                )
                payloads[method] = proto.summarize(res)
            rates = {
                method: np.mean(
                    [o == "all_blue" for o in payload["ordinary_outcome"]]
                )
                for method, payload in payloads.items()
            }
            assert rates["batched"] == pytest.approx(float(expect_blue), abs=0.05)
            assert abs(rates["batched"] - rates["count_chain"]) <= 0.05
            assert (
                stats.ks_2samp(
                    payloads["batched"]["final_ordinary_blue"],
                    payloads["count_chain"]["final_ordinary_blue"],
                ).pvalue
                > KS_ALPHA
            )

    def test_zealots_on_multipartite_host(self):
        """Zealots on a multipartite host: pinned slots flow through the
        per-part chains."""
        graph = CompleteMultipartiteGraph([64, 96, 128])
        z = 80  # spans the whole first part plus 16 of the second
        proto = ZealotBestOfK(z)
        kernel = graph.count_chain_kernel()
        np.testing.assert_array_equal(
            proto.kernel_pinned(kernel), [64, 16, 0]
        )
        res = run_ensemble(
            graph, protocol=proto, replicas=50, delta=0.1, seed=11,
            max_steps=300, record_trajectories=False,
        )
        assert res.method == "count_chain"
        dense = run_ensemble(
            graph, protocol=proto, replicas=50, delta=0.1, seed=12,
            max_steps=300, record_trajectories=False, method="batched",
        )
        # Same physics on both paths: identical outcome rates up to
        # binomial noise and matching ordinary-blue levels.
        assert (
            abs(res.blue_wins - dense.blue_wins) <= 15
        )
        assert (
            stats.ks_2samp(res.final_totals, dense.final_totals).pvalue
            > KS_ALPHA
        )

    def test_zealot_chain_on_mega_host_pins_in_o_slots(self):
        """K_{10^10} used to need a 10 GB (1, n) pinned-vertex indicator."""
        import tracemalloc

        graph = CompleteGraph(10**10)
        proto = ZealotBestOfK(1000)
        kernel = graph.count_chain_kernel()
        tracemalloc.start()
        try:
            pinned = proto.kernel_pinned(kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(pinned, [1000])
        assert peak < 64 * 1024
        res = run_ensemble(
            graph, protocol=proto, replicas=16, delta=0.1, seed=0,
            max_steps=200, record_trajectories=False,
        )
        assert res.method == "count_chain"
        # δ = 0.1 and a negligible zealot share: the ordinary vertices
        # turn red, which leaves exactly the pinned mass blue.
        assert res.converged.all()
        np.testing.assert_array_equal(res.final_totals, 1000)

    @pytest.mark.parametrize(
        "kernel",
        [
            CompleteKernel(17),
            MultipartiteKernel([3, 5, 7, 1]),
            TwoCliqueBridgeKernel(6, 1),
            TwoCliqueBridgeKernel(6, 3),
        ],
        ids=["complete", "multipartite", "bridge-1", "bridge-3"],
    )
    def test_first_vertex_counts_match_the_projection(self, kernel):
        for z in range(kernel.n + 1):
            indicator = np.zeros((1, kernel.n), dtype=np.uint8)
            indicator[0, :z] = 1
            np.testing.assert_array_equal(
                kernel.first_vertex_counts(z),
                kernel.state_from_opinions(indicator)[0],
            )

    def test_pinned_initial_state_law(self):
        kernel = CompleteGraph(100).count_chain_kernel()
        pinned = np.array([20])
        # i.i.d. delta: free vertices draw Bin(80, 0.3) on top of the pin.
        state = kernel.initial_state(
            4000, np.random.SeedSequence(0), delta=0.2, pinned=pinned
        )
        mean = state[:, 0].mean()
        assert abs(mean - (20 + 80 * 0.3)) < 4 * np.sqrt(80 * 0.21 / 4000)
        assert state.min() >= 20
        # Exact count: blues landing on pinned positions are absorbed.
        state = kernel.initial_state(
            4000, np.random.SeedSequence(1), blue_counts=50, pinned=pinned
        )
        # Total = 20 + Hypergeometric(100, 80, 50): mean 20 + 40.
        assert abs(state[:, 0].mean() - 60) < 0.5
        assert state.min() >= 20 and state.max() <= 70 + 20


class TestAsyncEquivalence:
    """AsyncSweepBestOfK vs the one-trial reference loop (claim 1)."""

    def test_one_sweep_law_matches_legacy_loop(self):
        n, blue0, trials = 128, 51, 2000
        graph = CompleteGraph(n)
        init = np.zeros(n, dtype=np.uint8)
        init[:blue0] = 1
        reference = np.array(
            [
                async_reference_run(graph, init, seed=(4, j), max_sweeps=1)[1]
                for j in range(trials)
            ]
        )
        batched = _one_round_totals(
            graph, AsyncSweepBestOfK(), "batched",
            replicas=trials, blue0=blue0, seed=6,
        )
        assert stats.ks_2samp(batched, reference).pvalue > KS_ALPHA

    def test_sweep_counts_match_legacy_loop(self):
        n, delta, trials = 512, 0.1, 120
        graph = CompleteGraph(n)
        gens = spawn_generators(13, 2 * trials)
        reference = [
            async_reference_run(
                graph,
                random_opinions(n, delta, rng=gens[2 * j]),
                seed=gens[2 * j + 1],
                max_sweeps=200,
            )[0]
            for j in range(trials)
        ]
        res = run_ensemble(
            graph, protocol=AsyncSweepBestOfK(), replicas=trials,
            delta=delta, seed=14, max_steps=200, method="batched",
            record_trajectories=False,
        )
        assert res.converged.all()
        assert stats.ks_2samp(reference, res.steps).pvalue > KS_ALPHA
        assert (res.winners == RED).all()

    def test_sweep_writes_through_non_contiguous_out(self):
        # Regression: the flat-view writes must reach a non-contiguous
        # output buffer (ascontiguousarray would copy and drop them).
        n, replicas = 64, 3
        graph = CompleteGraph(n)
        ops = build_initial_matrix(n, replicas, seed=26, delta=0.3)
        wide = np.empty((replicas, n + 7), dtype=ops.dtype)
        out = wide[:, :n]
        assert not out.flags.c_contiguous
        proto = AsyncSweepBestOfK()
        res = proto.step_batch(graph, ops, np.random.default_rng(27), out=out)
        assert res is out
        contig = proto.step_batch(
            graph, ops, np.random.default_rng(27), out=np.empty_like(ops)
        )
        np.testing.assert_array_equal(out, contig)
        assert not np.array_equal(out, ops)  # the sweep actually ran

    def test_paired_point_payload_shape_and_determinism(self):
        point = Point(
            host=HostSpec.of("complete", n=256),
            protocol=ProtocolSpec.async_vs_sync(),
            init=InitSpec.iid(0.1),
            trials=4,
            max_steps=200,
            seed=(5, 0),
        )
        a = execute_point(point)
        b = execute_point(point)
        assert a == b  # deterministic given the point seed
        assert set(a) == {"sync", "async"}
        assert set(a["sync"]) == {"converged", "steps", "winners"}
        assert set(a["async"]) == {"converged", "sweeps", "winners"}
        assert all(a["sync"]["converged"]) and all(a["async"]["converged"])
        # Shared initial configurations: the winner statistics coincide
        # on a dense host with a decisive bias.
        assert a["sync"]["winners"] == a["async"]["winners"]


class TestGeneralK:
    """The k=3-only restriction is lifted (claim 2)."""

    @pytest.mark.parametrize("k", [1, 5, 7])
    def test_noisy_chain_matches_dense_for_general_k(self, k):
        graph = CompleteGraph(96)
        chain = _one_round_totals(
            graph, NoisyBestOfK(0.3, k=k), "count_chain",
            replicas=2500, blue0=40, seed=(6, k),
        )
        dense = _one_round_totals(
            graph, NoisyBestOfK(0.3, k=k), "batched",
            replicas=2500, blue0=40, seed=(7, k),
        )
        assert stats.ks_2samp(chain, dense).pvalue > KS_ALPHA

    def test_zealot_chain_matches_dense_for_k5(self):
        graph = CompleteGraph(96)
        proto = ZealotBestOfK(10, k=5)
        chain = _one_round_totals(
            graph, proto, "count_chain", replicas=2500, blue0=40, seed=8
        )
        dense = _one_round_totals(
            graph, proto, "batched", replicas=2500, blue0=40, seed=9
        )
        assert stats.ks_2samp(chain, dense).pvalue > KS_ALPHA

    def test_protocol_spec_accepts_general_k(self):
        # These raised "implemented for k=3 only" in the executor era.
        for spec in (
            ProtocolSpec.noisy(0.2, k=5),
            ProtocolSpec.with_zealots(7, k=5),
            ProtocolSpec.async_vs_sync(k=2),
        ):
            point = Point(
                host=HostSpec.of("complete", n=128),
                protocol=spec,
                init=InitSpec.iid(0.1),
                trials=2,
                max_steps=20,
                seed=(10, spec.k),
            )
            payload = execute_point(point)
            assert isinstance(payload, dict)

    def test_even_k_noisy_keep_self_ties_match(self):
        graph = CompleteGraph(80)
        proto = NoisyBestOfK(0.2, k=4)
        chain = _one_round_totals(
            graph, proto, "count_chain", replicas=2500, blue0=40, seed=10
        )
        dense = _one_round_totals(
            graph, proto, "batched", replicas=2500, blue0=40, seed=11
        )
        assert stats.ks_2samp(chain, dense).pvalue > KS_ALPHA


class TestRouting:
    """E13/E15 complete-host points run count chains (claim 3)."""

    def test_extension_protocols_route_to_count_chain(self):
        graph = CompleteGraph(512)
        for proto in (
            NoisyBestOfK(0.2),
            ZealotBestOfK(20),
            NoisyZealotBestOfK(0.1, 20),
            Voter(),
            BestOfK(5),
        ):
            res = run_ensemble(
                graph, protocol=proto, replicas=2, delta=0.1, seed=15,
                max_steps=10, record_trajectories=False,
            )
            assert res.method == "count_chain", type(proto).__name__

    def test_e13_e15_points_support_their_kernels(self):
        from repro.harness.e13_noisy_bifurcation import (
            sweep_spec as e13_spec,
        )
        from repro.harness.e15_zealot_threshold import (
            sweep_spec as e15_spec,
        )
        from repro.sweeps import build_host

        for spec in (e13_spec(quick=True, seed=0), e15_spec(quick=True, seed=0)):
            for point in spec.points:
                kernel = build_host(point.host).count_chain_kernel()
                assert kernel is not None
                built = point.protocol.build()
                assert built.supports_kernel(kernel), point.label

    def test_unsupported_protocols_fall_back_to_batched(self):
        graph = CompleteGraph(128)
        res = run_ensemble(
            graph, protocol=AsyncSweepBestOfK(), replicas=2, delta=0.1,
            seed=16, max_steps=50, record_trajectories=False,
        )
        assert res.method == "batched"
        with pytest.raises(ValueError, match="count-chain"):
            run_ensemble(
                graph, protocol=AsyncSweepBestOfK(), replicas=2,
                delta=0.1, seed=17, method="count_chain",
            )

    def test_runner_has_no_protocol_executors(self):
        import repro.sweeps.runner as runner

        assert not [name for name in vars(runner) if name.startswith("_execute")]
        # The four kinds all build engine-ready protocols.
        assert isinstance(ProtocolSpec.best_of(3).build(), BestOfK)
        assert isinstance(ProtocolSpec.noisy(0.1).build(), NoisyBestOfK)
        assert isinstance(
            ProtocolSpec.with_zealots(3).build(), ZealotBestOfK
        )
        paired = ProtocolSpec.async_vs_sync().build()
        assert isinstance(paired, dict) and set(paired) == {"sync", "async"}


class TestBaselineProtocols:
    """Local majority and plurality ride the same engine (claim 4)."""

    def test_batched_local_majority_is_bit_identical_to_sequential(self):
        graph = erdos_renyi(256, 0.15, seed=(0, 3))
        matrix = build_initial_matrix(
            256, 8, seed=18,
            initializer=lambda n, rng: random_opinions(n, 0.1, rng=rng),
        )
        res = run_ensemble(
            graph, protocol=LocalMajority(), replicas=8,
            initial_opinions=matrix, seed=19, max_steps=64,
            record_trajectories=False,
        )
        for row, conv, steps, winner in zip(
            matrix, res.converged, res.steps, res.winners
        ):
            ref = local_majority_reference(graph, row, max_steps=64)
            if ref is not None:
                assert conv
                assert (steps, winner) == ref
            else:
                assert not conv

    def test_plurality_ensemble_reproduces_becchetti_behaviour(self):
        res = plurality_ensemble(
            CompleteGraph(2048),
            trials=12,
            probabilities=np.array([0.5, 0.25, 0.25]),
            seed=20,
            max_steps=200,
        )
        assert res.converged.all()
        assert (res.winners == 0).all()  # the plurality opinion wins
        assert res.steps.max() <= 60

    def test_plurality_two_colour_matches_best_of_three_law(self):
        # With q=2 there are no three-distinct ties, so one plurality
        # round from an exact colour-1 count follows the Best-of-3
        # one-round blue-count law exactly.
        n, blue0, trials = 96, 38, 3000
        graph = CompleteGraph(n)
        base = np.zeros(n, dtype=np.int64)
        base[:blue0] = 1

        def initializer(m, rng):
            ops = base.copy()
            rng.shuffle(ops)
            return ops

        pl = run_ensemble(
            graph, protocol=Plurality(2), replicas=trials,
            initializer=initializer, seed=21, max_steps=1,
            record_trajectories=True, keep_final=True,
        )
        ones = np.array(
            [int((f == 1).sum()) for f in pl.final_opinions]
        )
        bo3 = _one_round_totals(
            graph, BestOfK(3), "batched", replicas=trials, blue0=blue0,
            seed=22,
        )
        assert stats.ks_2samp(ones, bo3).pvalue > KS_ALPHA

    def test_plurality_meanfield_map_consistency(self):
        p = np.array([0.5, 0.3, 0.2])
        out = plurality_map(p)
        assert out.sum() == pytest.approx(1.0)
        # q=2 reduces to the Best-of-3 drift.
        two = plurality_map(np.array([0.6, 0.4]))
        assert two[1] == pytest.approx(best_of_k_map(0.4, 3))
        # Simulation agreement: one batched round on a large host.
        n = 120_000
        graph = CompleteGraph(n)
        counts = (p * n).astype(np.int64)
        init = np.repeat(np.arange(3), counts).astype(np.int64)
        np.random.default_rng(23).shuffle(init)
        proto = Plurality(3)
        out_state = proto.step_batch(
            graph, init[None, :], np.random.default_rng(24)
        )
        fractions = np.bincount(out_state[0], minlength=3) / n
        np.testing.assert_allclose(fractions, plurality_map(p), atol=0.006)


class TestMeanFieldHooks:
    """Protocols carry their own mean-field maps."""

    def test_protocol_maps_delegate_to_meanfield(self):
        assert NoisyBestOfK(0.2).meanfield_map(0.3) == pytest.approx(
            noisy_best_of_k_map(0.3, 0.2)
        )
        assert ZealotBestOfK(50).meanfield_map(0.3, n=500) == pytest.approx(
            zealot_best_of_k_map(0.3, 0.1)
        )
        assert BestOfK(5).meanfield_map(0.3) == pytest.approx(
            best_of_k_map(0.3, 5)
        )
        with pytest.raises(ValueError, match="needs n"):
            ZealotBestOfK(50).meanfield_map(0.3)
        with pytest.raises(NotImplementedError):
            LocalMajority().meanfield_map(0.3)

    def test_noisy_zealot_composition_tracks_its_map(self):
        n, eta, z = 50_000, 0.1, 5000
        graph = CompleteGraph(n)
        proto = NoisyZealotBestOfK(eta, z)
        res = run_ensemble(
            graph, protocol=proto, replicas=6, delta=0.1, seed=25,
            max_steps=120,
        )
        assert res.method == "count_chain"
        # Iterate the composition's mean-field map to its limit and
        # compare the simulated stationary level.
        b = 0.5 - 0.1
        for _ in range(2000):
            b = proto.meanfield_map(b, n=n)
        level = np.mean(proto.summarize(res)["stationary_blue_fraction"])
        assert abs(level - b) < 0.02
