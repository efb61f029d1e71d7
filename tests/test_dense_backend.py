"""Dense-path acceleration: the threaded replica-block layout.

Load-bearing claims:

1. **thread-count invariance** — the threaded replica-block layout is a
   pure function of the workload, so ``threads=1/2/4`` produce
   bit-identical :class:`EnsembleResult` values (steps, winners,
   trajectories, final opinions) for every protocol family;
2. **serial compatibility** — ``threads=0``/``"serial"`` and the
   default auto policy below the workload threshold reproduce the
   pre-1.8 single-stream results byte-for-byte (goldens stay valid),
   and serial vs threaded agree in distribution (KS);
3. **auto-routing** — ``method="auto"`` routes exchangeable hosts to
   their count chain as before, and dense hosts thread exactly when the
   per-round sample count crosses :data:`DENSE_AUTO_THREAD_MIN_SAMPLES`,
   on every core count, so an auto run writes the same bytes on a
   one-core host as on a many-core one;
4. **no layout above the engine** — sweep points, their stored
   canonical form, service requests and the service config carry no
   ``threads`` setting, and a stored point or request that names one is
   rejected rather than re-keyed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy import stats

from repro.core import dense
from repro.core.dense import (
    DENSE_AUTO_THREAD_MIN_SAMPLES,
    replica_blocks,
    resolve_dense_threads,
)
from repro.core.dynamics import TieRule
from repro.core.ensemble import run_ensemble
from repro.core.protocols import BestOfK, NoisyBestOfK, ZealotBestOfK
from repro.graphs.generators import erdos_renyi
from repro.graphs.implicit import CompleteGraph
from repro.sweeps.spec import (
    HostSpec,
    InitSpec,
    Point,
    ProtocolSpec,
    canonical_point,
    point_from_canonical,
)

KS_ALPHA = 1e-3  # deterministic seeds: failures mean real drift, not noise

SMALL_BATCH = 4096  # forces many replica blocks on the test hosts


@pytest.fixture(scope="module")
def er_host():
    return erdos_renyi(300, 0.08, seed=7)


def result_fields(res):
    return (
        res.steps,
        res.winners,
        res.converged,
        res.final_totals,
    )


def assert_results_equal(a, b):
    for x, y in zip(result_fields(a), result_fields(b)):
        assert np.array_equal(x, y)
    assert (a.blue_trajectories is None) == (b.blue_trajectories is None)
    if a.blue_trajectories is not None:
        assert len(a.blue_trajectories) == len(b.blue_trajectories)
        for ta, tb in zip(a.blue_trajectories, b.blue_trajectories):
            assert np.array_equal(ta, tb)
    assert (a.final_opinions is None) == (b.final_opinions is None)
    if a.final_opinions is not None:
        assert np.array_equal(a.final_opinions, b.final_opinions)


# -- 1. thread-count invariance ----------------------------------------


class TestThreadCountInvariance:
    def run(self, er_host, threads, **kw):
        return run_ensemble(
            er_host,
            replicas=48,
            k=3,
            seed=101,
            delta=0.12,
            max_steps=400,
            threads=threads,
            max_batch_bytes=SMALL_BATCH,
            **kw,
        )

    def test_bit_identical_across_1_2_4(self, er_host):
        base = self.run(er_host, 1)
        assert base.threads == 1
        for t in (2, 4):
            res = self.run(er_host, t)
            assert res.threads == t
            assert_results_equal(base, res)

    def test_auto_string_matches_explicit_counts(self, er_host):
        assert_results_equal(self.run(er_host, 1), self.run(er_host, "auto"))

    def test_keep_final_opinions_identical(self, er_host):
        a = self.run(er_host, 1, keep_final=True)
        b = self.run(er_host, 4, keep_final=True)
        assert a.final_opinions is not None
        assert_results_equal(a, b)

    @pytest.mark.parametrize(
        "protocol",
        [
            BestOfK(4, tie_rule=TieRule.KEEP_SELF),
            NoisyBestOfK(0.05, k=3),
            ZealotBestOfK(10, k=3),
        ],
        ids=["even-k-keep", "noisy", "zealot"],
    )
    def test_protocol_families_thread_identically(self, er_host, protocol):
        runs = [
            run_ensemble(
                er_host,
                replicas=32,
                protocol=protocol,
                seed=55,
                delta=0.1,
                max_steps=300,
                threads=t,
                max_batch_bytes=SMALL_BATCH,
            )
            for t in (1, 3)
        ]
        assert_results_equal(runs[0], runs[1])


# -- 2. serial compatibility + distribution equivalence ----------------


class TestSerialCompatibility:
    def test_small_workload_auto_is_serial(self, er_host):
        auto = run_ensemble(
            er_host, replicas=20, k=3, seed=9, delta=0.1, max_steps=200
        )
        serial = run_ensemble(
            er_host,
            replicas=20,
            k=3,
            seed=9,
            delta=0.1,
            max_steps=200,
            threads=0,
        )
        assert auto.threads == 0 and serial.threads == 0
        assert_results_equal(auto, serial)

    def test_serial_string_equals_zero(self, er_host):
        a = run_ensemble(
            er_host, replicas=12, k=3, seed=3, delta=0.1, threads="serial"
        )
        b = run_ensemble(
            er_host, replicas=12, k=3, seed=3, delta=0.1, threads=0
        )
        assert_results_equal(a, b)

    def test_serial_vs_threaded_ks_equivalent(self, er_host):
        # Different stream layouts, same dynamics: consensus times and
        # win rates must agree in distribution.
        kw = dict(replicas=400, k=3, delta=0.1, max_steps=500,
                  record_trajectories=False)
        serial = run_ensemble(er_host, seed=17, threads=0, **kw)
        threaded = run_ensemble(
            er_host, seed=17, threads=2, max_batch_bytes=SMALL_BATCH, **kw
        )
        assert serial.converged.all() and threaded.converged.all()
        assert (
            stats.ks_2samp(serial.steps, threaded.steps).pvalue > KS_ALPHA
        )
        blue_gap = abs(
            serial.blue_wins / serial.replicas
            - threaded.blue_wins / threaded.replicas
        )
        assert blue_gap < 0.1


# -- 3. threading policy + auto-routing pin ----------------------------


class TestThreadPolicy:
    def test_resolve_grammar(self):
        assert resolve_dense_threads(100, 3, 10, 0) == 0
        assert resolve_dense_threads(100, 3, 10, "serial") == 0
        assert resolve_dense_threads(100, 3, 10, 5) == 5
        assert resolve_dense_threads(100, 3, 10, "auto") >= 1
        with pytest.raises(ValueError):
            resolve_dense_threads(100, 3, 10, -2)
        with pytest.raises(ValueError):
            resolve_dense_threads(100, 3, 10, "fast")
        # bool is an int subclass, but True is not a worker count.
        for flag in (True, False):
            with pytest.raises(ValueError):
                resolve_dense_threads(100, 3, 10, flag)

    def test_auto_policy_thresholds_on_samples(self, monkeypatch):
        # R·n·k below the threshold: serial; at/above: threaded, with
        # one worker per core.
        monkeypatch.setattr(dense, "_auto_workers", lambda: 4)
        n, k = 4096, 3
        small_r = (DENSE_AUTO_THREAD_MIN_SAMPLES // (n * k)) - 1
        big_r = (DENSE_AUTO_THREAD_MIN_SAMPLES // (n * k)) + 1
        assert resolve_dense_threads(n, k, small_r, None) == 0
        assert resolve_dense_threads(n, k, big_r, None) == 4

    def test_auto_policy_is_core_count_independent(self, er_host, monkeypatch):
        # Past the sample threshold a one-core host takes the threaded
        # layout with one worker, so its bytes match a four-core host's
        # under the same seed (the result never depends on the machine).
        big_r = DENSE_AUTO_THREAD_MIN_SAMPLES // (er_host.num_vertices * 3) + 1
        runs = []
        for cores in (1, 4):
            monkeypatch.setattr(dense, "_auto_workers", lambda c=cores: c)
            assert resolve_dense_threads(er_host.num_vertices, 3, big_r, None) == cores
            runs.append(
                run_ensemble(
                    er_host, replicas=big_r, k=3, seed=4, delta=0.1,
                    max_steps=3, keep_final=True,
                )
            )
        assert [r.threads for r in runs] == [1, 4]
        assert_results_equal(*runs)

    @pytest.mark.parametrize(
        "cores, n, replicas, want",
        [
            (2, 2**14, 96, 2),  # rook 128x128: past the threshold
            (1, 2**14, 96, 1),  # ... and threaded on one core too
            (2, 8192, 64, 0),  # the CSR host stays below it
        ],
    )
    def test_auto_routes_benchmark_shapes(
        self, monkeypatch, cores, n, replicas, want
    ):
        monkeypatch.setattr(dense.os, "cpu_count", lambda: cores)
        assert resolve_dense_threads(n, 3, replicas, None) == want

    def test_blocks_cover_and_ignore_thread_count(self):
        blocks = replica_blocks(100, 300, 3, SMALL_BATCH)
        assert blocks[0][0] == 0 and blocks[-1][1] == 100
        assert all(lo < hi for lo, hi in blocks)
        flat = [r for lo, hi in blocks for r in range(lo, hi)]
        assert flat == list(range(100))
        # pure function of the workload: same args, same partition
        assert blocks == replica_blocks(100, 300, 3, SMALL_BATCH)
        assert len(blocks) >= dense.DENSE_BLOCKS_TARGET

    def test_auto_routing_pins(self, er_host):
        # Exchangeable host: count chain, as ever.
        chain = run_ensemble(
            CompleteGraph(512), replicas=8, k=3, seed=1, delta=0.1
        )
        assert chain.method == "count_chain" and chain.threads == 0
        # Dense host, small workload: batched + legacy serial stream.
        small = run_ensemble(er_host, replicas=8, k=3, seed=1, delta=0.1)
        assert small.method == "batched" and small.threads == 0
        # Dense host, workload past the threshold: batched + threaded —
        # the re-tuned auto policy that retires the 0.92×-of-loop regime.
        big_r = DENSE_AUTO_THREAD_MIN_SAMPLES // (er_host.num_vertices * 3) + 1
        big = run_ensemble(
            er_host,
            replicas=big_r,
            k=3,
            seed=1,
            delta=0.1,
            max_steps=3,
            record_trajectories=False,
        )
        assert big.method == "batched" and big.threads >= 1


# -- 4. no layout above the engine ------------------------------------


class TestSpecPlumbing:
    def point(self, spec):
        return Point(
            host=HostSpec.of("complete", n=64),
            protocol=spec,
            init=InitSpec.iid(0.1),
            trials=4,
            max_steps=50,
            seed=(1,),
        )

    def test_threads_validation(self):
        assert "threads" not in {f.name for f in dataclasses.fields(ProtocolSpec)}
        with pytest.raises(TypeError):
            ProtocolSpec(threads=2)

    def test_canonical_only_when_set_and_round_trips(self):
        # The optional protocol fields that remain enter the canonical
        # content only when set, so an unpinned point's key never moved.
        bare = canonical_point(self.point(ProtocolSpec()))
        assert set(bare["protocol"]) == {"kind", "k", "tie_rule"}
        p = self.point(ProtocolSpec(kind="zealot_best_of_k", zealots=3))
        content = canonical_point(p)
        assert content["protocol"]["zealots"] == 3
        assert point_from_canonical(content) == p

    def test_stored_threads_field_is_rejected(self):
        content = canonical_point(self.point(ProtocolSpec()))
        assert "threads" not in content["protocol"]
        assert point_from_canonical(content) == self.point(ProtocolSpec())
        # A point stored when ``threads`` could pin the layout carried it
        # in its key; dropping it silently would re-key the result.
        content["protocol"]["threads"] = "auto"
        with pytest.raises(ValueError, match="unknown protocol field.*threads"):
            point_from_canonical(content)

    def test_service_config_grammar(self, monkeypatch):
        from repro.service.config import ServiceConfig

        assert "engine_threads" not in {
            f.name for f in dataclasses.fields(ServiceConfig)
        }
        with pytest.raises(TypeError, match="engine_threads"):
            ServiceConfig.from_env(engine_threads=2)

    def test_request_layer_rejects_threads(self):
        from repro.service.requests import RequestError, parse_protocol

        with pytest.raises(RequestError, match="unknown protocol field.*threads"):
            parse_protocol({"kind": "best_of_k", "threads": 2})
