"""Service core proofs (ISSUE 7): request canonicalisation, the
cache-fronted engine facade, single-flight micro-batching, the
protocol-aware cost model, and the ``REPRO_CACHE_DIR`` deployment knob.

The headline guarantees:

* K concurrent identical ensemble requests are served by exactly ONE
  engine call (the rest ride the leader's flight or the cache);
* a micro-batched response is bit-identical to an unbatched
  ``execute_point`` of the same point — coalescing can change *where* a
  result comes from, never what it is;
* differently-phrased but semantically identical request bodies
  canonicalise to the same point (hence the same cache key, flight,
  and job id).
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    MicroBatcher,
    RequestError,
    ServiceConfig,
    ServiceEngine,
    parse_compare_request,
    parse_point_request,
    parse_sweep_request,
)
from repro.sweeps import (
    HostSpec,
    InitSpec,
    Point,
    ProtocolSpec,
    SweepCache,
    canonical_point,
    count_chain_width,
    default_cache_dir,
    estimated_cost,
    point_from_canonical,
    queue_key,
)
from repro.service.requests import DEFAULT_MAX_STEPS, DEFAULT_TRIALS
from repro.sweeps.spec import ADVERSARIAL_STRATEGIES, canonical_json
from repro.sweeps import runner


def _point(n=128, delta=0.2, trials=3, seed=(0, 1), label="p", max_steps=200):
    return Point(
        host=HostSpec.of("complete", n=n),
        protocol=ProtocolSpec.best_of(3),
        init=InitSpec.iid(delta),
        trials=trials,
        max_steps=max_steps,
        seed=seed,
        label=label,
    )


class TestProtocolParse:
    def test_names_map_to_specs(self):
        assert ProtocolSpec.parse("voter") == ProtocolSpec.best_of(1)
        assert ProtocolSpec.parse("best-of-3") == ProtocolSpec.best_of(3)
        assert ProtocolSpec.parse("best-of-5-keep") == ProtocolSpec.best_of(5)
        assert ProtocolSpec.parse("best-of-2-rand") == ProtocolSpec.best_of(
            2, tie_rule="random"
        )

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="cannot parse protocol"):
            ProtocolSpec.parse("best-of-zebra")
        with pytest.raises(ValueError, match="tie-rule suffix"):
            ProtocolSpec.parse("best-of-3-maybe")

    def test_cli_parser_delegates_to_the_same_grammar(self, capsys):
        from repro.io.cli import main

        # ``repro sweep`` parses --protocol names with ProtocolSpec.parse,
        # so a bad name fails there, before any point runs.
        assert main(["sweep", "--protocol", "best-of-3-maybe", "--no-cache"]) == 2
        assert "tie-rule suffix" in capsys.readouterr().err


class TestEstimatedCost:
    """The protocol-aware model: chain-routed points pay slot width."""

    def test_complete_host_chain_point_pays_one_slot(self):
        p = _point(n=4096, trials=4, max_steps=100)
        assert count_chain_width(p.host) == 1
        assert estimated_cost(p) == 1 * 4 * 100

    def test_multipartite_pays_one_slot_per_part(self):
        host = HostSpec.of("complete_multipartite", sizes=(100, 200, 300))
        assert count_chain_width(host) == 3

    def test_two_clique_bridge_pays_clique_and_bridge_slots(self):
        host = HostSpec.of("two_clique_bridge", half=1000, bridges=2)
        assert count_chain_width(host) == 2 + 2 * 2

    def test_dense_families_have_no_chain_width(self):
        assert count_chain_width(HostSpec.of("ring_lattice", n=64, d=4)) is None

    def test_noisy_protocol_doubles_the_estimate(self):
        base = _point(n=256, trials=4, max_steps=100)
        noisy = Point(
            host=base.host,
            protocol=ProtocolSpec.noisy(0.1),
            init=base.init,
            trials=4,
            max_steps=100,
            seed=(0,),
        )
        assert estimated_cost(noisy) == 2 * estimated_cost(base)

    def test_paired_async_pays_dense_times_two(self):
        paired = Point(
            host=HostSpec.of("complete", n=512),
            protocol=ProtocolSpec.async_vs_sync(),
            init=InitSpec.iid(0.1),
            trials=4,
            max_steps=100,
            seed=(0,),
        )
        # async_vs_sync never chain-routes: dense n per round, twice.
        assert estimated_cost(paired) == 512 * 2 * 4 * 100

    def test_largest_first_order_is_truthful_for_mega_n_chains(self):
        # A mega-n complete-host chain point is CHEAP; a modest dense
        # point is not.  The old vertex-count model inverted this.
        mega = _point(n=1_000_000, trials=4, max_steps=100)
        dense = Point(
            host=HostSpec.of("ring_lattice", n=4096, d=8),
            protocol=ProtocolSpec.best_of(3),
            init=InitSpec.iid(0.1),
            trials=4,
            max_steps=100,
            seed=(0,),
        )
        assert estimated_cost(mega) < estimated_cost(dense)


class TestCacheDirEnv:
    def test_repro_cache_dir_is_respected(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "vol"))
        assert default_cache_dir() == tmp_path / "vol"
        assert SweepCache().root == tmp_path / "vol"

    def test_specific_override_wins_over_deployment_var(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "specific"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "vol"))
        assert default_cache_dir() == tmp_path / "specific"


class TestRequestCanonicalisation:
    def test_string_and_dict_protocols_yield_the_same_point(self):
        base = {
            "host": {"family": "complete", "n": 256},
            "init": {"delta": 0.1},
            "trials": 5,
            "max_steps": 100,
            "seed": 3,
        }
        a = parse_point_request({**base, "protocol": "best-of-3"})
        b = parse_point_request(
            {**base, "protocol": {"kind": "best_of_k", "k": 3}}
        )
        assert queue_key(a) == queue_key(b)

    def test_init_sugar_forms(self):
        base = {"host": {"family": "complete", "n": 64}}
        assert parse_point_request(
            {**base, "init": {"delta": 0.2}}
        ).init == InitSpec.iid(0.2)
        assert parse_point_request(
            {**base, "init": {"blue": 7}}
        ).init == InitSpec.count(7)
        assert parse_point_request(
            {**base, "init": {"blue": 7, "strategy": "high_degree"}}
        ).init == InitSpec.adversarial(7, "high_degree")

    def test_defaults_applied(self):
        p = parse_point_request({"host": {"family": "complete", "n": 64}})
        assert (p.trials, p.max_steps, p.seed) == (10, 2000, (0,))
        assert p.protocol == ProtocolSpec.best_of(3)
        assert p.init == InitSpec.iid(0.1)

    def test_validation_failures_are_request_errors(self):
        with pytest.raises(RequestError, match='needs a "host"'):
            parse_point_request({"trials": 3})
        with pytest.raises(RequestError, match="unknown host family"):
            parse_point_request({"host": {"family": "moebius", "n": 4}})
        with pytest.raises(RequestError, match="unknown ensemble request field"):
            parse_point_request(
                {"host": {"family": "complete", "n": 4}, "stpes": 9}
            )
        with pytest.raises(RequestError, match="cannot parse protocol"):
            parse_point_request(
                {"host": {"family": "complete", "n": 4}, "protocol": "bozo"}
            )
        with pytest.raises(RequestError, match="delta must be in"):
            parse_point_request(
                {"host": {"family": "complete", "n": 4}, "init": {"delta": 0.7}}
            )
        with pytest.raises(RequestError, match="seed must be"):
            parse_point_request(
                {"host": {"family": "complete", "n": 4}, "seed": "lucky"}
            )

    def test_compare_needs_two_protocols_and_labels_rows(self):
        with pytest.raises(RequestError, match="at least 2"):
            parse_compare_request(
                {"host": {"family": "complete", "n": 4}, "protocols": ["voter"]}
            )
        points = parse_compare_request(
            {
                "host": {"family": "complete", "n": 64},
                "protocols": ["voter", "best-of-3"],
                "trials": 3,
            }
        )
        assert len(points) == 2
        assert len({p.label for p in points}) == 2  # distinguishable rows
        assert points[0].seed == points[1].seed  # same entropy, same init

    def test_sweep_request_matches_python_grid(self):
        spec = parse_sweep_request(
            {
                "name": "t",
                "hosts": [{"family": "complete", "n": 128}],
                "protocols": ["best-of-3"],
                "inits": [{"delta": 0.1}, {"delta": 0.2}],
                "trials": 4,
                "max_steps": 50,
                "seed": 9,
            }
        )
        from repro.sweeps import SweepSpec

        direct = SweepSpec.grid(
            "t",
            hosts=[HostSpec.of("complete", n=128)],
            protocols=[ProtocolSpec.best_of(3)],
            inits=[InitSpec.iid(0.1), InitSpec.iid(0.2)],
            trials=4,
            max_steps=50,
            seed=9,
        )
        assert spec == direct  # identical points, seeds, and labels


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_TIE_RULES = st.sampled_from(["keep_self", "random"])

_HOSTS = st.one_of(
    st.builds(lambda n: HostSpec.of("complete", n=n), st.integers(2, 10**6)),
    st.builds(lambda side: HostSpec.of("rook", side=side), st.integers(2, 64)),
    st.builds(
        lambda sizes: HostSpec.of("complete_multipartite", sizes=sizes),
        st.lists(st.integers(1, 500), min_size=2, max_size=5),
    ),
    st.builds(
        lambda n, p, seed: HostSpec.of("erdos_renyi", n=n, p=p, seed=seed),
        st.integers(2, 4096),
        st.floats(0.01, 1.0),
        st.lists(_SEEDS, min_size=1, max_size=3),
    ),
    st.builds(
        lambda half, bridges: HostSpec.of(
            "two_clique_bridge", half=half, bridges=bridges
        ),
        st.integers(2, 512),
        st.integers(1, 4),
    ),
)

_PROTOCOLS = st.one_of(
    st.builds(
        lambda k, tie: ProtocolSpec(kind="best_of_k", k=k, tie_rule=tie),
        st.integers(1, 9), _TIE_RULES,
    ),
    st.builds(
        lambda eta, k, tie: ProtocolSpec(
            kind="noisy_best_of_k", k=k, tie_rule=tie, eta=eta
        ),
        st.floats(0.0, 1.0), st.integers(1, 9), _TIE_RULES,
    ),
    st.builds(
        lambda k: ProtocolSpec(kind="async_vs_sync", k=k),
        st.integers(1, 9),
    ),
    st.builds(
        lambda z, k, tie: ProtocolSpec(
            kind="zealot_best_of_k", k=k, tie_rule=tie, zealots=z
        ),
        st.integers(0, 10**5), st.integers(1, 9), _TIE_RULES,
    ),
)

_INITS = st.one_of(
    st.builds(InitSpec.iid, st.floats(0.0, 0.5)),
    st.builds(InitSpec.count, st.integers(0, 10**6)),
    st.builds(
        InitSpec.adversarial,
        st.integers(0, 10**6),
        st.sampled_from(ADVERSARIAL_STRATEGIES),
    ),
)

_POINTS = st.builds(
    Point,
    host=_HOSTS,
    protocol=_PROTOCOLS,
    init=_INITS,
    trials=st.integers(1, 10**4),
    max_steps=st.integers(1, 10**6),
    seed=st.lists(_SEEDS, min_size=1, max_size=4).map(tuple),
    label=st.text(max_size=8),
)


def _protocol_phrasings(k: int, tie: str) -> list:
    """Every request spelling of ``ProtocolSpec.best_of(k, tie_rule=tie)``."""
    forms: list = [
        {"kind": "best_of_k", "k": k, "tie_rule": tie},
        {"tie_rule": tie, "k": k, "kind": "best_of_k"},
        f"best-of-{k}-{'keep' if tie == 'keep_self' else 'rand'}",
    ]
    if tie == "keep_self":
        forms += [{"kind": "best_of_k", "k": k}, f"best-of-{k}"]
        if k == 1:
            forms.append("voter")
        if k == 3:
            forms += [None, {"kind": "best_of_k"}, {}]
    return forms


class TestCanonicalRoundTrip:
    """Property tests: canonical form is a fixed point, and rephrased
    requests name one queue entry."""

    @given(point=_POINTS)
    @settings(max_examples=100, deadline=None)
    def test_canonical_json_survives_a_round_trip(self, point):
        text = canonical_json(canonical_point(point))
        back = point_from_canonical(json.loads(text), label=point.label)
        assert canonical_json(canonical_point(back)) == text
        assert back == point
        assert queue_key(back) == queue_key(point)

    @given(
        n=st.integers(2, 4096),
        k=st.integers(1, 9),
        tie=_TIE_RULES,
        init=st.one_of(
            st.floats(0.0, 0.5).map(lambda d: ("delta", d)),
            st.integers(0, 4096).map(lambda b: ("blue", b)),
        ),
        trials=st.integers(1, 50),
        max_steps=st.integers(1, 5000),
        seed=_SEEDS,
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_rephrased_requests_share_a_queue_key(
        self, n, k, tie, init, trials, max_steps, seed, data
    ):
        field, value = init
        kind = "iid_delta" if field == "delta" else "exact_count"
        full = {
            "host": {"family": "complete", "n": n},
            "protocol": {"kind": "best_of_k", "k": k, "tie_rule": tie},
            "init": {"kind": kind, field: value},
            "trials": trials,
            "max_steps": max_steps,
            "seed": [seed],
        }
        key = queue_key(parse_point_request(full))

        body = {
            "host": {"n": n, "family": "complete"},
            "init": data.draw(
                st.sampled_from([{field: value}, {field: value, "kind": kind}])
            ),
            "seed": data.draw(st.sampled_from([seed, [seed]])),
            "label": data.draw(st.text(max_size=8)),
        }
        protocol = data.draw(st.sampled_from(_protocol_phrasings(k, tie)))
        if protocol is not None:
            body["protocol"] = protocol
        for name, value_, default in (
            ("trials", trials, DEFAULT_TRIALS),
            ("max_steps", max_steps, DEFAULT_MAX_STEPS),
        ):
            if value_ != default or data.draw(st.booleans()):
                body[name] = value_
        if seed == 0 and data.draw(st.booleans()):
            del body["seed"]
        if body["init"] == {"delta": 0.1} and data.draw(st.booleans()):
            del body["init"]
        order = data.draw(st.permutations(sorted(body)))
        body = {name: body[name] for name in order}
        assert queue_key(parse_point_request(body)) == key


class TestServiceConfig:
    def test_env_values_and_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SERVICE_PORT", "9000")
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "2")
        monkeypatch.setenv("REPRO_SERVICE_BATCH_WINDOW_MS", "50")
        cfg = ServiceConfig.from_env(spool_root=str(tmp_path))
        assert cfg.port == 9000
        assert cfg.job_workers == 2
        assert cfg.batch_window_s == pytest.approx(0.05)
        assert cfg.resolved_spool_root() == tmp_path
        # None overrides leave env/default values alone.
        assert ServiceConfig.from_env(port=None).port == 9000
        assert ServiceConfig.from_env(port=8123).port == 8123

    def test_validation(self):
        with pytest.raises(ValueError, match="port"):
            ServiceConfig(port=99999)
        with pytest.raises(ValueError, match="job_workers"):
            ServiceConfig(job_workers=-1)
        with pytest.raises(TypeError, match="unknown ServiceConfig field"):
            ServiceConfig.from_env(bogus=1)

    def test_default_spool_root_is_not_inside_the_cache(self, monkeypatch):
        # The cache GC globs */*.json — job manifests must never live
        # where they could be evicted as entries.
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        spool = ServiceConfig().resolved_spool_root()
        cache = default_cache_dir()
        assert not str(spool).startswith(str(cache))


class TestServiceEngine:
    def test_miss_then_warm_hit_with_stats(self, tmp_path):
        engine = ServiceEngine(SweepCache(tmp_path / "cache"))
        point = _point()
        cold, cached_cold = engine.execute(point)
        warm, cached_warm = engine.execute(point)
        assert (cached_cold, cached_warm) == (False, True)
        np.testing.assert_array_equal(cold.steps, warm.steps)
        stats = engine.stats()
        assert stats["requests"] == 2
        assert stats["engine_calls"] == 1
        assert stats["cache_hits"] == 1
        assert stats["cache_hit_rate"] == 0.5
        assert stats["cache_entries"] == 1

    def test_result_is_bit_identical_to_unbatched_execute_point(self, tmp_path):
        engine = ServiceEngine(
            SweepCache(tmp_path / "cache"), batch_window_s=0.05
        )
        point = _point(n=256, seed=(4, 2))
        payload, _ = engine.execute(point)
        direct = runner.execute_point(point)
        np.testing.assert_array_equal(payload.steps, direct.steps)
        np.testing.assert_array_equal(payload.winners, direct.winners)

    def test_concurrent_identical_requests_one_engine_call(
        self, tmp_path, monkeypatch
    ):
        K = 8
        calls = []
        real = runner.execute_point

        def counting(point):
            calls.append(queue_key(point))
            return real(point)

        monkeypatch.setattr(runner, "execute_point", counting)
        engine = ServiceEngine(
            SweepCache(tmp_path / "cache"), batch_window_s=0.2
        )
        point = _point(n=256, seed=(1, 2, 3))
        barrier = threading.Barrier(K)
        results: list = [None] * K
        flags: list = [None] * K

        def worker(i):
            barrier.wait()
            results[i], flags[i] = engine.execute(point)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(K)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(calls) == 1  # exactly one engine call for the burst
        assert sum(1 for f in flags if not f) == 1  # one computed, K-1 warm
        ref = results[0]
        for res in results[1:]:  # everyone got the same (bit-identical) answer
            np.testing.assert_array_equal(res.steps, ref.steps)
            np.testing.assert_array_equal(res.winners, ref.winners)
        stats = engine.stats()
        assert stats["engine_calls"] == 1
        assert stats["requests"] == K
        assert stats["cache_hits"] == K - 1

    def test_distinct_points_do_not_coalesce(self, tmp_path):
        engine = ServiceEngine(SweepCache(tmp_path / "cache"))
        a, _ = engine.execute(_point(seed=(0,)))
        b, _ = engine.execute(_point(seed=(1,)))
        assert engine.stats()["engine_calls"] == 2
        assert engine.batcher.coalesced == 0


class TestMicroBatcher:
    def test_leader_failure_propagates_to_followers(self):
        batcher = MicroBatcher(window_s=0.1)
        point = _point()
        boom = RuntimeError("engine exploded")
        errors = []
        barrier = threading.Barrier(3)

        def compute(_):
            raise boom

        def worker():
            barrier.wait()
            try:
                batcher.run(point, compute)
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(errors) == 3
        assert all(e is boom for e in errors)
        assert batcher.coalesced == 2

    def test_flight_closes_after_completion(self):
        batcher = MicroBatcher()
        point = _point()
        assert batcher.run(point, lambda p: 1) == 1
        # A later request starts a fresh flight (no stale result served).
        assert batcher.run(point, lambda p: 2) == 2

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="window_s"):
            MicroBatcher(window_s=-1.0)
