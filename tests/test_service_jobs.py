"""Async job proofs (ISSUE 7): durable sweep jobs behind the service.

The headline guarantees:

* a grid submitted as a job produces a summary table **byte-identical**
  to the ``repro sweep`` CLI rendering the same grid;
* submission is idempotent (same grid → same job, no duplicate work);
* a job survives its worker being SIGKILLed mid-point (PR 6's
  ``REPRO_FAULTS`` harness) with results identical to a clean run;
* a fresh :class:`JobManager` — a restarted service — re-attaches to
  jobs on disk and resumes their unfinished work.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.service import JobManager, job_id_for, parse_sweep_request
from repro.sweeps import (
    HostSpec,
    InitSpec,
    Point,
    ProtocolSpec,
    SweepCache,
    SweepSpec,
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


def _spec(name="jobs"):
    return SweepSpec(
        name=name,
        points=(
            _point(n=128, seed=(0, 0), label="a"),
            _point(n=256, seed=(0, 1), label="b"),
            _point(n=128, delta=0.1, seed=(0, 2), label="c"),
            _point(n=256, delta=0.1, seed=(0, 3), label="d"),
        ),
    )


def _wait_terminal(manager, job_id, timeout_s=120.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        status = manager.status(job_id)
        if status["state"] != "running":
            return status
        time.sleep(0.05)
    pytest.fail(f"job {job_id} still running after {timeout_s}s")


class TestJobLifecycle:
    def test_inline_job_completes_with_correct_payloads(self, tmp_path):
        manager = JobManager(tmp_path / "jobs", SweepCache(tmp_path / "cache"))
        spec = _spec()
        clean = run_sweep(spec, jobs=1)
        job_id, created = manager.submit(spec)
        assert created
        status = _wait_terminal(manager, job_id)
        assert status["state"] == "done"
        assert status["done"] == len(spec.points)
        assert status["progress"] == 1.0
        rows = manager.rows(job_id)
        assert [r["point"] for r in rows] == [p.label for p in spec.points]
        # Payloads are the real ensembles, not summaries of summaries.
        for (point, _, payload), ref in zip(
            manager._point_states(manager._load(job_id)), clean.ensembles
        ):
            np.testing.assert_array_equal(payload.steps, ref.steps)
            np.testing.assert_array_equal(payload.winners, ref.winners)

    def test_submit_is_idempotent(self, tmp_path):
        manager = JobManager(tmp_path / "jobs", SweepCache(tmp_path / "cache"))
        spec = _spec()
        job_id, created = manager.submit(spec)
        _wait_terminal(manager, job_id)
        again, created_again = manager.submit(spec)
        assert again == job_id
        assert created and not created_again
        # Content addressing: labels don't change identity, points do.
        relabeled = SweepSpec(
            name=spec.name,
            points=tuple(
                Point(
                    host=p.host, protocol=p.protocol, init=p.init,
                    trials=p.trials, max_steps=p.max_steps, seed=p.seed,
                    label=p.label + "-renamed",
                )
                for p in spec.points
            ),
        )
        assert job_id_for(relabeled) == job_id
        assert job_id_for(_spec(name="other")) != job_id

    def test_warm_grid_is_born_done(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        spec = _spec()
        run_sweep(spec, jobs=1, cache=cache)  # prewarm every point
        manager = JobManager(tmp_path / "jobs", cache)
        job_id, created = manager.submit(spec)
        assert created
        status = manager.status(job_id)  # no polling: done at birth
        assert status["state"] == "done"
        assert status["queue"]["pending"] == 0
        assert manager.queue_depth() == 0

    def test_unknown_job_is_none_everywhere(self, tmp_path):
        manager = JobManager(tmp_path / "jobs", SweepCache(tmp_path / "cache"))
        assert manager.status("jdeadbeef") is None
        assert manager.rows("jdeadbeef") is None
        assert manager.table("jdeadbeef") is None
        assert manager.results("jdeadbeef") is None


class TestTableParity:
    def test_job_table_is_byte_identical_to_cli_sweep(self, tmp_path, capsys):
        from repro.io.cli import main

        rc = main(
            [
                "sweep",
                "--n", "128", "256",
                "--delta", "0.2",
                "--trials", "2",
                "--max-steps", "100",
                "--seed", "0",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        cli_table = "\n".join(out.splitlines()[:4])  # header, sep, 2 rows

        # The same grid through the service request parser + job queue.
        spec = parse_sweep_request(
            {
                "name": "api-sweep",  # name differs; content doesn't
                "hosts": [
                    {"family": "complete", "n": 128},
                    {"family": "complete", "n": 256},
                ],
                "protocols": ["best-of-3"],
                "inits": [{"delta": 0.2}],
                "trials": 2,
                "max_steps": 100,
                "seed": 0,
            }
        )
        manager = JobManager(tmp_path / "jobs", SweepCache(tmp_path / "cache"))
        job_id, _ = manager.submit(spec)
        status = _wait_terminal(manager, job_id)
        assert status["state"] == "done"
        # Every point was prewarmed by the CLI run: same cache, same
        # canonical points — the job never recomputed anything.
        assert status["queue"]["pending"] == 0
        assert manager.table(job_id) == cli_table


class TestFaultTolerance:
    def test_job_survives_sigkilled_worker(self, tmp_path, monkeypatch):
        spec = _spec()
        clean = run_sweep(spec, jobs=1)  # reference BEFORE arming faults
        env = faults.arm(tmp_path / "faults", kill={"b": 1})
        monkeypatch.setenv(faults.ENV_VAR, env[faults.ENV_VAR])
        manager = JobManager(
            tmp_path / "jobs",
            SweepCache(tmp_path / "cache"),
            workers=1,
            lease_ttl_s=60.0,
        )
        job_id, _ = manager.submit(spec)
        status = _wait_terminal(manager, job_id)
        assert status["state"] == "done"
        assert status["queue"]["requeues"] >= 1  # the kill was seen...
        assert status["failed"] == 0  # ...and no point was lost
        record = manager._load(job_id)
        for (point, state, payload), ref in zip(
            manager._point_states(record), clean.ensembles
        ):
            assert state == "done"
            np.testing.assert_array_equal(payload.steps, ref.steps)
            np.testing.assert_array_equal(payload.winners, ref.winners)

    def test_point_that_always_kills_workers_fails_job_point(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        clean = run_sweep(spec, jobs=1)
        # One worker, max_attempts 3: "b" kills all three spawns the
        # budget allows and is poisoned at the third death.
        env = faults.arm(tmp_path / "faults", kill={"b": 99})
        monkeypatch.setenv(faults.ENV_VAR, env[faults.ENV_VAR])
        manager = JobManager(
            tmp_path / "jobs",
            SweepCache(tmp_path / "cache"),
            workers=1,
            lease_ttl_s=60.0,
        )
        job_id, _ = manager.submit(spec)
        status = _wait_terminal(manager, job_id)
        record = manager._load(job_id)
        record.thread.join(timeout=60.0)
        assert not record.thread.is_alive()  # the drain terminated
        assert status["state"] == "failed"
        assert status["failed"] == 1
        assert status["queue"]["poisoned"] == 1
        assert status["error"] is None
        for (point, state, payload), ref in zip(
            manager._point_states(record), clean.ensembles
        ):
            if point.label == "b":
                assert (state, payload) == ("failed", None)
            else:
                assert state == "done"
                np.testing.assert_array_equal(payload.steps, ref.steps)
                np.testing.assert_array_equal(payload.winners, ref.winners)


class TestReattach:
    def test_fresh_manager_resumes_pending_job_from_disk(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        spec = _spec()
        # Manager A spools the job but never drains it (service died
        # between accepting the submission and starting work).
        manager_a = JobManager(tmp_path / "jobs", cache)
        manager_a._ensure_draining = lambda record: None
        job_id, created = manager_a.submit(spec)
        assert created
        assert manager_a.status(job_id)["state"] == "running"

        # A fresh manager — new process, no shared memory — finds the
        # job on disk, restarts the drain, and finishes it.
        manager_b = JobManager(tmp_path / "jobs", cache)
        status = _wait_terminal(manager_b, job_id)
        assert status["state"] == "done"
        assert status["done"] == len(spec.points)

    def test_fresh_manager_serves_completed_job_without_recompute(
        self, tmp_path
    ):
        cache = SweepCache(tmp_path / "cache")
        spec = _spec()
        manager_a = JobManager(tmp_path / "jobs", cache)
        job_id, _ = manager_a.submit(spec)
        table_a = _wait_terminal(manager_a, job_id) and manager_a.table(job_id)

        manager_b = JobManager(tmp_path / "jobs", cache)
        assert manager_b.status(job_id)["state"] == "done"
        assert manager_b.table(job_id) == table_a
        assert [job["job_id"] for job in manager_b.list_jobs()] == [job_id]
