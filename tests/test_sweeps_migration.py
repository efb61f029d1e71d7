"""Tests for the E12–E15 sweep migration (ISSUE 3).

Three load-bearing guarantees:

1. **Byte-identical tables** — converting the row-loop experiments to
   declarative specs must not change a single character of their report
   tables (goldens captured from the pre-migration loops, after the
   declared sentinel/coercion bugfixes).
2. **One global pool** — ``run_sweeps`` interleaves many specs over one
   scheduler and is bit-identical to per-spec serial execution at any
   ``jobs``; the report path instantiates exactly one process pool.
3. **Bounded cache** — the LRU GC evicts oldest-by-mtime entries until
   the cache fits, and hits refresh recency.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.harness.base import ExperimentResult
from repro.harness.registry import get_sweep_spec, run_experiment
from repro.sweeps import (
    HostSpec,
    InitSpec,
    Point,
    ProtocolSpec,
    SweepCache,
    SweepSpec,
    ensure_outcome,
    execute_point,
    run_sweep,
    run_sweeps,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
MIGRATED_IDS = ["E12", "E13", "E14", "E15"]


def _point(n=128, delta=0.2, trials=3, seed=(0, 0), label="p"):
    return Point(
        host=HostSpec.of("complete", n=n),
        protocol=ProtocolSpec.best_of(3),
        init=InitSpec.iid(delta),
        trials=trials,
        max_steps=300,
        seed=seed,
        label=label,
    )


def _noisy_point(eta=0.2):
    return Point(
        host=HostSpec.of("complete", n=512),
        protocol=ProtocolSpec.noisy(eta),
        init=InitSpec.iid(0.1),
        trials=2,
        max_steps=30,
        seed=(7,),
    )


def _payloads_equal(a, b):
    if isinstance(a, dict) or isinstance(b, dict):
        assert a == b
        return
    assert a.trials == b.trials
    assert a.unconverged == b.unconverged
    np.testing.assert_array_equal(a.steps, b.steps)
    np.testing.assert_array_equal(a.winners, b.winners)


class TestGoldenTables:
    """The migrated experiments reproduce their pre-migration tables."""

    @pytest.mark.parametrize("eid", MIGRATED_IDS)
    def test_table_byte_identical_to_pre_migration_golden(self, eid):
        golden = (GOLDEN_DIR / f"{eid.lower()}_table.md").read_text(
            encoding="utf-8"
        )
        res = run_experiment(eid, quick=True, seed=0)
        assert res.table_markdown() + "\n" == golden
        assert res.passed
        # Hygiene satellite: no harness stores numpy scalars in results.
        assert type(res.passed) is bool
        for row in res.rows:
            for key, value in row.items():
                assert not type(value).__module__.startswith("numpy"), (
                    eid,
                    key,
                    type(value),
                )

    @pytest.mark.parametrize("eid", MIGRATED_IDS)
    def test_warm_cache_skips_every_point(self, eid, tmp_path):
        cache = SweepCache(tmp_path)
        spec = get_sweep_spec(eid)(quick=True, seed=0)
        cold = run_sweep(spec, cache=cache)
        assert cold.stats.misses == len(spec.points)
        warm = run_sweep(spec, cache=cache)
        assert warm.stats.hits == len(spec.points)
        assert warm.stats.hit_rate == 1.0
        golden = (GOLDEN_DIR / f"{eid.lower()}_table.md").read_text(
            encoding="utf-8"
        )
        res = run_experiment(eid, quick=True, seed=0, cache=cache)
        assert res.table_markdown() + "\n" == golden

    def test_all_sixteen_experiments_free_of_numpy_passed(self):
        # The coercion lives in ExperimentResult itself, so a synthetic
        # leak is enough to prove every experiment is covered.
        tol = 0.02 + 3.0 / np.sqrt(20_000)
        leaked = abs(0.5 - 0.5) <= tol
        assert isinstance(leaked, np.bool_)  # the E13 leak, reproduced
        res = ExperimentResult(
            experiment_id="EX",
            title="t",
            paper_claim="c",
            columns=["ok"],
            rows=[{"ok": leaked, "n": np.int64(3), "x": np.float64(1.5)}],
            summary=[],
            verdict="v",
            passed=leaked,
        )
        assert res.passed is True
        assert type(res.rows[0]["ok"]) is bool
        assert type(res.rows[0]["n"]) is int
        assert type(res.rows[0]["x"]) is float


class TestRunSweeps:
    def _specs(self):
        a = SweepSpec(
            "a",
            (
                _point(n=128, seed=(0, 0), label="a0"),
                _point(n=256, seed=(0, 1), label="a1"),
            ),
        )
        b = SweepSpec(
            "b",
            (
                _point(n=256, delta=0.1, seed=(0, 2), label="b0"),
                _noisy_point(eta=0.2),
            ),
        )
        return a, b

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_global_pool_matches_per_spec_serial(self, jobs):
        a, b = self._specs()
        serial = [run_sweep(a), run_sweep(b)]
        pooled = run_sweeps([a, b], jobs=jobs)
        for s, p in zip(serial, pooled):
            assert p.spec == s.spec
            for x, y in zip(s.ensembles, p.ensembles):
                _payloads_equal(x, y)

    def test_per_spec_stats(self, tmp_path):
        a, b = self._specs()
        cache = SweepCache(tmp_path)
        cold = run_sweeps([a, b], cache=cache)
        assert [o.stats.misses for o in cold] == [2, 2]
        warm = run_sweeps([a, b], cache=cache)
        assert [o.stats.hits for o in warm] == [2, 2]

    def test_duplicate_points_across_specs_computed_once(self, monkeypatch):
        from repro.sweeps import scheduler

        shared = _point(n=128, seed=(9, 9), label="shared")
        a = SweepSpec("a", (shared,))
        b = SweepSpec("b", (shared, _point(n=256, seed=(9, 8))))
        calls = []

        real = scheduler.execute_point

        def counting(point):
            calls.append(point)
            return real(point)

        monkeypatch.setattr(scheduler, "execute_point", counting)
        outcomes = run_sweeps([a, b], jobs=1)
        assert len(calls) == 2  # shared point simulated once, not twice
        _payloads_equal(outcomes[0].ensembles[0], outcomes[1].ensembles[0])

    def test_report_uses_exactly_one_pool(self, monkeypatch):
        from concurrent import futures

        from repro.harness.report import generate_report
        from repro.sweeps import scheduler

        created = []
        real_pool = futures.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            pool = real_pool(*args, **kwargs)
            created.append(pool)
            return pool

        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", counting_pool)
        text = generate_report(
            quick=True, seed=0, ids=["E12", "E13", "E15"], jobs=2
        )
        assert len(created) == 1
        assert "one shared pool" in text
        for eid in ("E12", "E13", "E15"):
            golden = (GOLDEN_DIR / f"{eid.lower()}_table.md").read_text(
                encoding="utf-8"
            )
            assert golden.rstrip("\n") in text  # pooled run, same bytes

    def test_ensure_outcome_validates_spec(self):
        a, b = self._specs()
        outcome = run_sweep(a)
        assert ensure_outcome(a, outcome) is outcome
        with pytest.raises(ValueError, match="does not match"):
            ensure_outcome(b, outcome)

    def test_run_experiment_rejects_outcome_for_unconverted(self):
        outcome = run_sweep(self._specs()[0])
        with pytest.raises(ValueError, match="does not take"):
            run_experiment("E5", outcome=outcome)

    def test_precomputed_outcome_round_trips_through_run_experiment(self):
        spec = get_sweep_spec("E13")(quick=True, seed=0)
        outcome = run_sweep(spec)
        res = run_experiment("E13", quick=True, seed=0, outcome=outcome)
        golden = (GOLDEN_DIR / "e13_table.md").read_text(encoding="utf-8")
        assert res.table_markdown() + "\n" == golden


class TestExtensionPoints:
    def test_dict_payload_cache_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        point = _noisy_point()
        payload = execute_point(point)
        assert isinstance(payload, dict)
        cache.put(point, payload)
        assert cache.get(point) == payload

    def test_unserialisable_payload_degrades_to_uncached(self, tmp_path):
        # put() is best-effort: a runner leaking a non-JSON-native value
        # must cost the cache entry, never the completed simulation.
        cache = SweepCache(tmp_path)
        point = _noisy_point()
        with pytest.warns(RuntimeWarning, match="cannot be cached"):
            assert cache.put(point, {"bad": object()}) is None
        assert cache.get(point) is None

    def test_extension_protocol_spec_validation(self):
        with pytest.raises(ValueError, match="eta"):
            ProtocolSpec(kind="noisy_best_of_k")  # missing eta
        with pytest.raises(ValueError, match="eta"):
            ProtocolSpec.noisy(1.5)
        with pytest.raises(ValueError, match="not a parameter"):
            ProtocolSpec(kind="best_of_k", eta=0.1)
        with pytest.raises(ValueError, match="zealots"):
            ProtocolSpec(kind="zealot_best_of_k")
        with pytest.raises(ValueError, match="not a parameter"):
            ProtocolSpec(kind="async_vs_sync", zealots=3)
        with pytest.raises(ValueError, match="strategy"):
            InitSpec.adversarial(10, "sneaky")
        with pytest.raises(ValueError, match="not a parameter"):
            InitSpec(kind="iid_delta", delta=0.1, strategy="block")

    def test_adversarial_init_runs_on_bridge_host(self):
        point = Point(
            host=HostSpec.of("two_clique_bridge", half=16, bridges=1),
            protocol=ProtocolSpec.best_of(3),
            init=InitSpec.adversarial(12, "block"),
            trials=2,
            max_steps=50,
            seed=(1, 2),
        )
        ens = execute_point(point)
        assert ens.trials == 2


class TestCacheGC:
    def _fill(self, cache, count, base_time):
        points = []
        for i in range(count):
            point = _point(n=64, seed=(100, i), trials=1, label=f"g{i}")
            cache.put(point, execute_point(point))
            # Deterministic mtimes: point i is the i-th most recent.
            os.utime(cache.path_for(point), (base_time + i, base_time + i))
            points.append(point)
        return points

    def test_lru_eviction_order(self, tmp_path):
        cache = SweepCache(tmp_path)
        points = self._fill(cache, 3, 1_000_000)
        entry = cache.path_for(points[0]).stat().st_size
        # Bound leaves room for roughly one entry: the newest survives.
        stats = cache.gc(max_mb=1.5 * entry / 2**20)
        assert stats.removed_entries == 2
        assert cache.get(points[0]) is None
        assert cache.get(points[1]) is None
        assert cache.get(points[2]) is not None

    def test_hit_refreshes_recency(self, tmp_path):
        cache = SweepCache(tmp_path)
        points = self._fill(cache, 2, 1_000_000)
        assert cache.get(points[0]) is not None  # bumps mtime to "now"
        entry = cache.path_for(points[0]).stat().st_size
        stats = cache.gc(max_mb=1.5 * entry / 2**20)
        assert stats.removed_entries == 1
        # The *hit* entry survived; the untouched newer one was evicted.
        assert cache.get(points[0]) is not None
        assert cache.get(points[1]) is None

    def test_unbounded_gc_is_a_noop(self, tmp_path):
        cache = SweepCache(tmp_path)
        self._fill(cache, 2, 1_000_000)
        stats = cache.gc()
        assert stats.removed_entries == 0
        assert stats.kept_entries == 2
        assert cache.size_bytes() == stats.kept_bytes > 0

    def test_scheduler_enforces_declared_bound(self, tmp_path):
        cache = SweepCache(tmp_path, max_mb=0.0)
        spec = SweepSpec("s", (_point(n=64, trials=1, seed=(5, 5)),))
        outcome = run_sweep(spec, cache=cache)
        assert outcome.stats.misses == 1
        assert cache.size_bytes() == 0  # GC ran after the sweep

    def test_gc_removes_empty_shards(self, tmp_path):
        cache = SweepCache(tmp_path)
        self._fill(cache, 1, 1_000_000)
        cache.gc(max_mb=0.0)
        assert not any(p.is_dir() for p in Path(tmp_path).iterdir())

    def test_negative_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_mb"):
            SweepCache(tmp_path, max_mb=-1)


class TestGCCli:
    def test_sweep_gc_reports_and_exits(self, tmp_path, capsys):
        from repro.io.cli import main

        rc = main(
            ["sweep", "--n", "64", "--trials", "1", "--max-steps", "50",
             "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(
            ["sweep", "--gc", "--cache-dir", str(tmp_path),
             "--cache-max-mb", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "removed 1 entries" in out
        rc = main(["sweep", "--gc", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no bound" in out

    def test_sweep_gc_requires_cache(self, capsys):
        from repro.io.cli import main

        rc = main(["sweep", "--gc", "--no-cache"])
        assert rc == 2
        assert "needs the cache" in capsys.readouterr().err


class TestArchiveWarning:
    def test_save_results_warns_on_unserialisable_values(self, tmp_path):
        from repro.io.results import load_results, save_results

        res = ExperimentResult(
            experiment_id="EX",
            title="t",
            paper_claim="c",
            columns=["a"],
            rows=[{"a": 1, "bad": object()}],
            summary=[],
            verdict="v",
            passed=True,
            extras={"fit": object()},
        )
        path = tmp_path / "out.json"
        with pytest.warns(RuntimeWarning) as caught:
            save_results([res], path)
        message = str(caught[0].message)
        assert "EX:rows[0].bad" in message
        assert "EX:extras.fit" in message
        # The archive still wrote (markers, not crashes).
        assert load_results(path)[0].experiment_id == "EX"

    def test_clean_results_do_not_warn(self, tmp_path):
        from repro.io.results import save_results

        res = ExperimentResult(
            experiment_id="EX",
            title="t",
            paper_claim="c",
            columns=["a"],
            rows=[{"a": np.float64(1.5)}],
            summary=[],
            verdict="v",
            passed=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_results([res], tmp_path / "out.json")
