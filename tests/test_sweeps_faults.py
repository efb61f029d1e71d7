"""Fault-tolerance proofs for the sweep subsystem (ISSUE 6).

Three layers of evidence:

* :class:`TestWorkQueue` — the durable spool's invariants in isolation:
  exclusive leases, attempt accounting, backoff, quarantine, and
  recovery of leases whose workers died.
* :class:`TestPoolFaultTolerance` / :class:`TestSpoolExecution` — the
  scheduler surviving real SIGKILLs injected via
  :mod:`repro.sweeps.faults`, with the recovered results byte-identical
  to a clean serial run (the jobs-invariance guarantee extended to
  "crash-count invariance").
* :class:`TestResumeAfterKill` — the crash-consistency satellite: a
  sweep process SIGKILLed midway leaves a cache a warm re-run resumes
  from, recomputing only the unfinished points.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.sweeps import (
    HostSpec,
    InitSpec,
    Point,
    ProtocolSpec,
    SweepCache,
    SweepError,
    SweepSpec,
    WorkQueue,
    point_key,
    queue_key,
    run_sweep,
)
from repro.sweeps import faults


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


def _spec(name="faults"):
    return SweepSpec(
        name=name,
        points=(
            _point(n=128, seed=(0, 0), label="a"),
            _point(n=256, seed=(0, 1), label="b"),
            _point(n=128, delta=0.1, seed=(0, 2), label="c"),
            _point(n=256, delta=0.1, seed=(0, 3), label="d"),
        ),
    )


def _assert_outcomes_equal(a, b):
    for x, y in zip(a.ensembles, b.ensembles):
        assert x.trials == y.trials
        np.testing.assert_array_equal(x.steps, y.steps)
        np.testing.assert_array_equal(x.winners, y.winners)


class TestWorkQueue:
    def test_lease_is_exclusive_and_largest_first(self, tmp_path):
        with WorkQueue(tmp_path) as q:
            # Both are count-chain points, so cost scales with trials,
            # not n (protocol-aware estimated_cost).
            small = _point(trials=3, label="small")
            big = _point(trials=30, label="big")
            assert q.enqueue([small, big]) == 2
            first = q.lease("w1", ttl_s=60)
            second = q.lease("w2", ttl_s=60)
            assert first.point.label == "big"  # most expensive claimed first
            assert second.point.label == "small"
            assert first.key != second.key
            assert q.lease("w3", ttl_s=60) is None  # nothing left to claim
            assert q.counts()["leased"] == 2

    def test_handle_is_thread_affine(self, tmp_path):
        # SQLite handles must never cross threads (repro lint SQL001-3
        # enforces this statically; this is the runtime backstop).
        import threading

        with WorkQueue(tmp_path) as q:
            q.enqueue([_point()])
            caught: list[BaseException] = []

            def off_thread() -> None:
                try:
                    q.lease("intruder", ttl_s=60)
                except RuntimeError as exc:
                    caught.append(exc)

            worker = threading.Thread(target=off_thread)
            worker.start()
            worker.join()
            assert len(caught) == 1
            assert "thread-affine" in str(caught[0])
            assert "fresh WorkQueue" in str(caught[0])
            # The owning thread is unaffected.
            assert q.lease("w1", ttl_s=60) is not None

    def test_enqueue_is_idempotent_for_live_points(self, tmp_path):
        with WorkQueue(tmp_path) as q:
            point = _point()
            assert q.enqueue([point]) == 1
            assert q.enqueue([point]) == 0  # pending duplicate untouched
            lease = q.lease("w1", ttl_s=60)
            assert q.enqueue([point]) == 0  # leased duplicate untouched
            assert q.lease("w2", ttl_s=60) is None
            assert lease.attempt == 1

    def test_complete_only_honoured_for_lease_holder(self, tmp_path):
        with WorkQueue(tmp_path) as q:
            q.enqueue([_point()])
            lease = q.lease("w1", ttl_s=0.01)
            # w1's lease times out and the point is handed to w2.
            assert q.requeue_expired(now=lease.expires_at + 1) == 1
            release = q.lease("w2", ttl_s=60)
            assert release.key == lease.key
            assert release.attempt == 2
            assert not q.complete(lease.key, "w1")  # stale holder rejected
            assert q.complete(release.key, "w2")
            assert q.counts()["done"] == 1
            assert q.stats().requeues == 1

    def test_fail_backs_off_then_poisons(self, tmp_path):
        with WorkQueue(tmp_path, max_attempts=2, backoff_base_s=0.0) as q:
            q.enqueue([_point(label="bad")])
            lease = q.lease("w1", ttl_s=60)
            assert q.fail(lease.key, "w1", "boom 1") == "pending"
            lease = q.lease("w1", ttl_s=60)
            assert lease.attempt == 2
            assert q.fail(lease.key, "w1", "boom 2") == "poisoned"
            assert q.lease("w1", ttl_s=60) is None
            ((key, label, attempts, error),) = q.poisoned_entries()
            assert (label, attempts) == ("bad", 2)
            assert "boom 2" in error
            assert q.unfinished() == 0  # quarantined, not circulating

    def test_backoff_schedule_is_exponential_and_capped(self, tmp_path):
        with WorkQueue(
            tmp_path, backoff_base_s=0.25, backoff_cap_s=1.0
        ) as q:
            assert q._backoff(1) == 0.25
            assert q._backoff(2) == 0.5
            assert q._backoff(3) == 1.0
            assert q._backoff(10) == 1.0  # capped

    def test_failed_point_not_leasable_until_backoff_elapses(self, tmp_path):
        with WorkQueue(tmp_path, backoff_base_s=30.0) as q:
            q.enqueue([_point()])
            lease = q.lease("w1", ttl_s=60)
            assert q.fail(lease.key, "w1", "transient") == "pending"
            assert q.lease("w1", ttl_s=60) is None  # still backing off
            assert q.unfinished() == 1  # but not lost

    def test_release_refunds_the_attempt(self, tmp_path):
        with WorkQueue(tmp_path, max_attempts=1) as q:
            q.enqueue([_point()])
            lease = q.lease("w1", ttl_s=60)
            assert q.release(lease.key, "w1")  # Ctrl-C: no blame
            lease = q.lease("w2", ttl_s=60)
            assert lease.attempt == 1  # not 2 — a refunded attempt
            assert q.complete(lease.key, "w2")

    def test_release_worker_reclaims_known_dead_workers_leases(self, tmp_path):
        with WorkQueue(tmp_path) as q:
            q.enqueue([_point(n=128, label="x"), _point(n=256, label="y")])
            q.lease("dead", ttl_s=3600)
            q.lease("dead", ttl_s=3600)
            assert q.release_worker("dead") == 2  # no TTL wait needed
            assert q.counts()["pending"] == 2
            assert q.stats().requeues == 2

    def test_expired_lease_at_attempt_limit_is_poisoned(self, tmp_path):
        with WorkQueue(tmp_path, max_attempts=1) as q:
            q.enqueue([_point(label="killer")])
            lease = q.lease("w1", ttl_s=0.01)
            assert q.requeue_expired(now=lease.expires_at + 1) == 1
            assert q.counts()["poisoned"] == 1  # worker-killer quarantined
            ((_, label, _, error),) = q.poisoned_entries()
            assert label == "killer" and "died or lease timed out" in error

    def test_terminal_points_reset_on_reenqueue(self, tmp_path):
        with WorkQueue(tmp_path) as q:
            point = _point()
            q.enqueue([point])
            lease = q.lease("w1", ttl_s=60)
            q.complete(lease.key, "w1")
            # A fresh coordinator wanting this point recomputed (evicted
            # cache entry) re-enqueues it: the row resets cleanly.
            assert q.enqueue([point]) == 1
            lease = q.lease("w1", ttl_s=60)
            assert lease.attempt == 1

    def test_config_persisted_and_adopted_by_late_joiners(self, tmp_path):
        q1 = WorkQueue(tmp_path, max_attempts=5, backoff_base_s=0.125)
        q1.close()
        with WorkQueue(tmp_path, max_attempts=2) as q2:
            assert q2.max_attempts == 5  # creator's settings win
            assert q2.backoff_base_s == 0.125

    def test_snapshot_is_jsonable_and_complete(self, tmp_path):
        with WorkQueue(tmp_path) as q:
            q.enqueue([_point()])
            snap = json.loads(json.dumps(q.snapshot()))
            assert snap["schema"] == "repro.sweep_spool/1"
            assert snap["total"] == 1 and snap["pending"] == 1

    def test_queue_key_is_label_invariant_and_code_invariant(self):
        a, b = _point(label="one"), _point(label="two")
        assert queue_key(a) == queue_key(b)
        # Deliberately NOT the cache key: a spool must survive a code
        # edit (which rotates point_key via the source fingerprint).
        assert queue_key(a) != point_key(a)
        assert queue_key(a) != queue_key(_point(n=512))


class TestPoolFaultTolerance:
    def test_sigkilled_worker_requeues_point_and_matches_serial(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        clean = run_sweep(spec, jobs=1)  # reference BEFORE arming faults
        env = faults.arm(tmp_path / "faults", kill={"b": 1})
        monkeypatch.setenv(faults.ENV_VAR, env[faults.ENV_VAR])
        outcome = run_sweep(
            spec, jobs=2, cache=SweepCache(tmp_path / "cache")
        )
        assert outcome.stats.requeues >= 1  # the crash was seen...
        assert outcome.stats.retries >= 1  # ...and the point re-ran
        assert outcome.stats.failures == 0
        _assert_outcomes_equal(outcome, clean)  # crash-count invariance

    def test_point_that_always_kills_is_quarantined_not_looped(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        clean = run_sweep(spec, jobs=1)
        env = faults.arm(tmp_path / "faults", kill={"c": 99})
        monkeypatch.setenv(faults.ENV_VAR, env[faults.ENV_VAR])
        outcome = run_sweep(
            spec,
            jobs=2,
            cache=SweepCache(tmp_path / "cache"),
            strict=False,
            max_attempts=2,
        )
        (err,) = outcome.errors
        assert err.point.label == "c"
        assert err.attempts == 2  # bounded by max_attempts
        assert "worker process died" in err.cause
        assert outcome.stats.failures == 1
        for (point, ens), ref in zip(outcome, clean.ensembles):
            if point.label == "c":
                assert isinstance(ens, SweepError)
            else:  # innocents completed exactly
                np.testing.assert_array_equal(ens.steps, ref.steps)

    def test_strict_kill_raises_after_banking_survivors(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        env = faults.arm(tmp_path / "faults", kill={"c": 99})
        monkeypatch.setenv(faults.ENV_VAR, env[faults.ENV_VAR])
        cache = SweepCache(tmp_path / "cache")
        with pytest.raises(SweepError, match="completed and were cached"):
            run_sweep(spec, jobs=2, cache=cache, max_attempts=2)
        for point in spec.points:  # every innocent landed in the cache
            if point.label != "c":
                assert cache.get(point) is not None


class TestSpoolExecution:
    def test_inline_spool_matches_serial_and_marks_done(self, tmp_path):
        spec = _spec()
        clean = run_sweep(spec, jobs=1)
        outcome = run_sweep(
            spec,
            cache=SweepCache(tmp_path / "cache"),
            spool=tmp_path / "spool",
        )
        _assert_outcomes_equal(outcome, clean)
        with WorkQueue(tmp_path / "spool") as q:
            counts = q.counts()
        assert counts["done"] == len(spec)
        assert counts["pending"] == counts["leased"] == 0

    def test_spool_requires_cache(self, tmp_path):
        with pytest.raises(ValueError, match="need a cache"):
            run_sweep(_spec(), spool=tmp_path / "spool")

    def test_worker_subprocesses_match_serial(self, tmp_path):
        spec = _spec()
        clean = run_sweep(spec, jobs=1)
        outcome = run_sweep(
            spec,
            cache=SweepCache(tmp_path / "cache"),
            spool=tmp_path / "spool",
            workers=2,
        )
        _assert_outcomes_equal(outcome, clean)
        assert outcome.stats.failures == 0

    def test_killed_spool_worker_requeues_point_never_lost(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        clean = run_sweep(spec, jobs=1)
        # The worker subprocess inherits REPRO_FAULTS and SIGKILLs itself
        # the first time it starts point "b"; the coordinator reaps it,
        # releases its lease, and a respawned worker finishes the grid.
        env = faults.arm(tmp_path / "faults", kill={"b": 1})
        monkeypatch.setenv(faults.ENV_VAR, env[faults.ENV_VAR])
        outcome = run_sweep(
            spec,
            cache=SweepCache(tmp_path / "cache"),
            spool=tmp_path / "spool",
            workers=1,
            lease_ttl_s=60.0,
        )
        assert outcome.stats.requeues >= 1
        assert outcome.stats.failures == 0
        _assert_outcomes_equal(outcome, clean)

    def test_point_that_always_kills_spool_workers_is_quarantined(
        self, tmp_path, monkeypatch
    ):
        import threading

        spec = _spec()
        clean = run_sweep(spec, jobs=1)
        # One worker, max_attempts 3: a budget of three spawns, and "b"
        # kills every one.  release_worker poisons "b" at the third
        # death, so the inline fallback never executes it.
        env = faults.arm(tmp_path / "faults", kill={"b": 99})
        monkeypatch.setenv(faults.ENV_VAR, env[faults.ENV_VAR])
        box: list = []
        drain = threading.Thread(
            target=lambda: box.append(
                run_sweep(
                    spec,
                    cache=SweepCache(tmp_path / "cache"),
                    spool=tmp_path / "spool",
                    workers=1,
                    strict=False,
                    lease_ttl_s=60.0,
                )
            ),
            daemon=True,
        )
        drain.start()
        drain.join(timeout=120.0)
        assert not drain.is_alive(), "spool drain did not terminate"
        (outcome,) = box
        (err,) = outcome.errors
        assert err.point.label == "b"
        assert err.attempts == 3  # quarantined at max_attempts deaths
        assert outcome.stats.failures == 1
        for (point, ens), ref in zip(outcome, clean.ensembles):
            if point.label != "b":
                np.testing.assert_array_equal(ens.steps, ref.steps)
                np.testing.assert_array_equal(ens.winners, ref.winners)

    def test_fleet_respawns_within_budget_then_finishes_inline(
        self, tmp_path, monkeypatch
    ):
        from repro.sweeps import scheduler

        spec = _spec()
        cache = SweepCache(tmp_path / "cache")
        with WorkQueue(tmp_path / "spool") as q:
            q.enqueue(list(spec.points))
        worker_ids: list[str] = []

        class _DeadOnArrival:
            """A ``repro worker`` that exits before leasing anything."""

            def __init__(self, argv, env):
                worker_ids.append(argv[argv.index("--worker-id") + 1])

            def poll(self):
                return 0

        monkeypatch.setattr(scheduler.subprocess, "Popen", _DeadOnArrival)
        scheduler.drain_spool(
            tmp_path / "spool",
            cache,
            workers=2,
            max_attempts=3,
            worker_prefix="fleet",
        )
        pid = os.getpid()
        assert worker_ids == [f"fleet-{pid}-{n}" for n in range(1, 7)]
        with WorkQueue(tmp_path / "spool") as q:  # the inline drain finished
            assert q.counts()["done"] == len(spec.points)
        for point in spec.points:
            assert cache.get(point) is not None


class TestResumeAfterKill:
    def test_sigkilled_sweep_resumes_from_cache(self, tmp_path):
        spec = _spec()
        cache_dir = tmp_path / "cache"
        # Points are executed largest-first, so slowing the two cheap
        # n=128 points ("a", "c") guarantees the kill lands after the
        # expensive ones are cached but before the sweep finishes.
        fault_env = faults.arm(
            tmp_path / "faults", sleep={"a": 120.0, "c": 120.0}
        )
        script = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, sys.argv[1])
            import test_sweeps_faults as t
            from repro.sweeps import SweepCache, run_sweep
            run_sweep(t._spec(), cache=SweepCache(sys.argv[2]))
            """
        )
        env = dict(os.environ)
        env.update(fault_env)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                script,
                os.path.dirname(os.path.abspath(__file__)),
                str(cache_dir),
            ],
            env=env,
        )
        try:
            cache = SweepCache(cache_dir)
            deadline = time.time() + 120
            # SIGKILL the sweep as soon as its first entries land.
            while time.time() < deadline:
                if any(cache.get(p) is not None for p in spec.points):
                    break
                if proc.poll() is not None:
                    pytest.fail(f"sweep exited early (rc={proc.returncode})")
                time.sleep(0.05)
            else:
                pytest.fail("no cache entry appeared before the deadline")
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.kill()
            proc.wait(timeout=60)

        cached = [p for p in spec.points if cache.get(p) is not None]
        assert cached  # the kill landed mid-sweep, after >= 1 completion
        assert len(cached) < len(spec.points)  # ...but before the end

        # Warm re-run (no faults armed): only the unfinished points are
        # recomputed, and the table is byte-identical to a clean run.
        warm = run_sweep(spec, cache=cache)
        assert warm.stats.hits == len(cached)
        assert warm.stats.misses == len(spec.points) - len(cached)
        clean = run_sweep(spec, jobs=1)
        _assert_outcomes_equal(warm, clean)


class TestFaultCLI:
    def test_sweep_spool_workers_and_stats_artifact(self, tmp_path, capsys):
        from repro.io.cli import main

        stats_path = tmp_path / "spool_stats.json"
        rc = main(
            [
                "sweep",
                "--n", "128", "256",
                "--delta", "0.2",
                "--trials", "2",
                "--max-steps", "100",
                "--cache-dir", str(tmp_path / "cache"),
                "--spool", str(tmp_path / "spool"),
                "--workers", "1",
                "--spool-stats", str(stats_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "spool=" in out and "workers=1" in out
        snap = json.loads(stats_path.read_text())
        assert snap["schema"] == "repro.sweep_spool/1"
        assert snap["done"] == 2 and snap["poisoned"] == 0

    def test_worker_subcommand_drains_a_spool(self, tmp_path, capsys):
        from repro.io.cli import main

        cache = SweepCache(tmp_path / "cache")
        with WorkQueue(tmp_path / "spool") as q:
            q.enqueue([_point(label="solo")])
        rc = main(
            [
                "worker",
                "--spool", str(tmp_path / "spool"),
                "--cache-dir", str(tmp_path / "cache"),
                "--worker-id", "test-worker",
            ]
        )
        assert rc == 0
        assert "executed" in capsys.readouterr().out
        with WorkQueue(tmp_path / "spool") as q:
            assert q.counts()["done"] == 1
        assert cache.get(_point(label="solo")) is not None
