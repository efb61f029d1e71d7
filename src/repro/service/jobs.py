"""Async sweep jobs: durable grid execution behind ``POST /v1/sweeps``.

A *job* is one :class:`~repro.sweeps.spec.SweepSpec` executed through
the PR-6 fault-tolerance stack — the durable
:class:`~repro.sweeps.queue.WorkQueue` spool, lease/retry/quarantine
semantics, and (optionally) a monitored ``repro worker`` subprocess
fleet — with the HTTP surface reduced to *submit* and *poll*.  Results
never travel through the job layer: workers write payloads to the
shared content-addressed :class:`~repro.sweeps.cache.SweepCache` before
marking points done (the queue's durability contract), and the job
manager reads them back from the cache when asked.

Identity and idempotency
------------------------
``job_id`` is a content address: the SHA-256 of the spec's canonical
form (name + canonical points, labels excluded).  Submitting the same
grid twice — same client retrying, two clients asking the same
question — returns the *same* job rather than spooling duplicate work,
exactly parallel to how the cache and the micro-batcher treat
identical points.  Each job owns one spool directory
``<spool_root>/<job_id>/`` holding the queue database plus a
``job.json`` manifest (schema, spec content, per-point labels,
submission bookkeeping), so a fresh :class:`JobManager` — service
restart, another process — re-attaches to existing jobs from disk alone.

Execution
---------
Points already in the cache at submission never touch the queue (a
fully warm grid is *born* done).  Misses are enqueued and drained in
the background by one daemon thread per job running
:func:`~repro.sweeps.scheduler.drain_spool`, the supervisor behind
``repro sweep --spool``: inline with ``workers == 0``, else through a
babysat ``repro worker`` fleet of that size.  A job survives the death
of every worker *and* of the service itself: the spool is the source
of truth, and re-attaching resumes from whatever landed.

The spool root must live **outside** the cache root: the cache GC
treats every ``*.json`` under its shards as an entry, and job manifests
must never look like evictable results.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from repro.analysis.tables import (
    SWEEP_SUMMARY_COLUMNS,
    format_table,
    sweep_summary_rows,
)
from repro.io.results import payload_to_dict
from repro.sweeps.cache import SweepCache
from repro.sweeps.queue import WorkQueue, queue_key
from repro.sweeps.scheduler import drain_spool
from repro.sweeps.spec import (
    Point,
    SweepSpec,
    canonical_json,
    canonical_point,
    estimated_cost,
    point_from_canonical,
)

__all__ = ["JOB_MANIFEST", "JobManager", "job_id_for", "json_safe_cell"]

JOB_MANIFEST = "job.json"
MANIFEST_SCHEMA = "repro.service_job/1"


def job_id_for(spec: SweepSpec) -> str:
    """Content-addressed job id of *spec* (labels excluded).

    Two submissions describing the same simulations get the same id —
    and therefore the same spool — however they were phrased.
    """
    body = canonical_json(
        {
            "name": spec.name,
            "points": [canonical_point(p) for p in spec.points],
        }
    )
    return "j" + hashlib.sha256(body.encode("ascii")).hexdigest()[:16]


class _JobRecord:
    """One job's in-memory view: spec + spool paths + drain thread."""

    def __init__(self, job_id: str, spec: SweepSpec, spool: Path) -> None:
        self.job_id = job_id
        self.spec = spec
        self.spool = spool
        self.thread: threading.Thread | None = None
        self.error: str | None = None


class JobManager:
    """Submit, execute, and poll durable sweep jobs.

    One instance per service process.  All public methods are thread
    safe (HTTP handler threads call them concurrently); SQLite
    connections are never shared across threads — every status read
    opens the job's queue fresh, which WAL mode makes cheap.
    """

    def __init__(
        self,
        spool_root: str | Path,
        cache: SweepCache,
        *,
        workers: int = 0,
        lease_ttl_s: float = 60.0,
        max_attempts: int = 3,
    ) -> None:
        if cache is None:
            raise ValueError("jobs need the cache: results travel through it")
        self.spool_root = Path(spool_root)
        self.cache = cache
        self.workers = workers
        self.lease_ttl_s = lease_ttl_s
        self.max_attempts = max_attempts
        self._lock = threading.Lock()
        self._jobs: dict[str, _JobRecord] = {}

    # -- submission ----------------------------------------------------

    def submit(self, spec: SweepSpec) -> tuple[str, bool]:
        """Spool *spec*; returns ``(job_id, created)``.

        Idempotent: a spec whose job already exists (in this process or
        on disk from a previous one) re-attaches instead of re-spooling,
        and ``created`` is ``False``.  Cache-warm points are marked done
        at birth; only misses enter the queue.
        """
        job_id = job_id_for(spec)
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                spool = self.spool_root / job_id
                created = not (spool / JOB_MANIFEST).exists()
                record = _JobRecord(job_id, spec, spool)
                self._jobs[job_id] = record
                if created:
                    self._spool_new(record)
                self._ensure_draining(record)
                return job_id, created
        # Known job: make sure its drain loop is still alive (a previous
        # submit's thread may have finished with work left after a
        # fault-heavy run).
        with self._lock:
            self._ensure_draining(record)
        return job_id, False

    def _spool_new(self, record: _JobRecord) -> None:
        """First submission: probe cache, enqueue misses, write manifest."""
        spec = record.spec
        warm: list[str] = []
        pending: list[Point] = []
        for point in spec.points:
            if self.cache.get(point) is not None:
                warm.append(queue_key(point))
            else:
                pending.append(point)
        queue = WorkQueue(record.spool, max_attempts=self.max_attempts)
        try:
            if pending:
                queue.enqueue(pending)
        finally:
            queue.close()
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "job_id": record.job_id,
            "name": spec.name,
            "points": [canonical_point(p) for p in spec.points],
            "labels": [p.label for p in spec.points],
            "warm_at_submit": warm,
            "submitted_at": time.time(),
            "workers": self.workers,
        }
        path = record.spool / JOB_MANIFEST
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
        os.replace(tmp, path)

    def _load(self, job_id: str) -> _JobRecord | None:
        """The record for *job_id*, re-attaching from disk if needed."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is not None:
                return record
            path = self.spool_root / job_id / JOB_MANIFEST
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                return None
            if manifest.get("schema") != MANIFEST_SCHEMA:
                return None
            labels = manifest.get("labels", [])
            points = tuple(
                point_from_canonical(
                    content, label=labels[i] if i < len(labels) else ""
                )
                for i, content in enumerate(manifest["points"])
            )
            spec = SweepSpec(name=manifest.get("name", job_id), points=points)
            record = _JobRecord(job_id, spec, self.spool_root / job_id)
            self._jobs[job_id] = record
            self._ensure_draining(record)
            return record

    # -- execution -----------------------------------------------------

    def _ensure_draining(self, record: _JobRecord) -> None:
        """Start the background drain for *record* if it needs one.

        Caller holds ``self._lock``.  No-ops when a drain thread is
        already running or nothing is unfinished (fully warm job, or a
        completed/quarantined spool).
        """
        if record.thread is not None and record.thread.is_alive():
            return
        queue = WorkQueue(record.spool, max_attempts=self.max_attempts)
        try:
            unfinished = queue.unfinished()
        finally:
            queue.close()
        if unfinished == 0:
            return

        def _drain() -> None:
            try:
                drain_spool(
                    record.spool,
                    self.cache,
                    workers=self.workers,
                    lease_ttl_s=self.lease_ttl_s,
                    max_attempts=self.max_attempts,
                    worker_prefix=f"job-{record.job_id[:8]}-worker",
                )
            except Exception as exc:  # pragma: no cover - defensive
                record.error = f"{type(exc).__name__}: {exc}"

        record.thread = threading.Thread(
            target=_drain, name=f"repro-job-{record.job_id[:8]}", daemon=True
        )
        record.thread.start()

    # -- polling -------------------------------------------------------

    def _point_states(
        self, record: _JobRecord
    ) -> list[tuple[Point, str, Any]]:
        """``(point, state, payload)`` per spec point, declaration order.

        *state* is ``done`` / ``pending`` / ``leased`` / ``failed``.
        A queue row marked done whose cache entry vanished (evicted, or
        invalidated by a code edit between submit and poll) degrades to
        ``failed`` rather than lying about a payload it cannot produce.
        """
        queue = WorkQueue(record.spool, max_attempts=self.max_attempts)
        try:
            queue.requeue_expired()
            states = queue.states()
        finally:
            queue.close()
        out: list[tuple[Point, str, Any]] = []
        for point in record.spec.points:
            key = queue_key(point)
            row = states.get(key)
            if row is None:
                # Never enqueued: warm at submission.
                payload = self.cache.get(point)
                out.append(
                    (point, "done" if payload is not None else "failed", payload)
                )
                continue
            state, _error, _attempts = row
            if state == "done":
                payload = self.cache.get(point)
                out.append(
                    (point, "done" if payload is not None else "failed", payload)
                )
            elif state == "poisoned":
                out.append((point, "failed", None))
            else:
                out.append((point, state, None))
        return out

    def status(self, job_id: str) -> dict[str, Any] | None:
        """The poll payload for ``GET /v1/jobs/{id}`` (``None``: unknown).

        ``state`` is ``running`` while any point is non-terminal,
        ``done`` when every point has a payload, ``failed`` when all
        points are terminal but some are quarantined or lost their
        cached result.  Progress is reported both in points and in
        :func:`~repro.sweeps.spec.estimated_cost` units — the cost share
        is what makes the ETA honest when one mega point dominates a
        grid of cheap ones.
        """
        record = self._load(job_id)
        if record is None:
            return None
        triples = self._point_states(record)
        total = len(triples)
        done = sum(1 for _, state, _ in triples if state == "done")
        failed = sum(1 for _, state, _ in triples if state == "failed")
        terminal = done + failed
        cost_total = sum(estimated_cost(p) for p, _, _ in triples)
        cost_done = sum(
            estimated_cost(p) for p, state, _ in triples if state in ("done", "failed")
        )
        queue = WorkQueue(record.spool, max_attempts=self.max_attempts)
        try:
            qstats = queue.stats()
        finally:
            queue.close()
        if terminal == total:
            state = "failed" if failed else "done"
        else:
            state = "running"
        return {
            "job_id": job_id,
            "name": record.spec.name,
            "state": state,
            "points": total,
            "done": done,
            "failed": failed,
            "running": total - terminal,
            "cost_total": cost_total,
            "cost_done": cost_done,
            "progress": round(cost_done / cost_total, 4) if cost_total else 1.0,
            "queue": {
                "pending": qstats.pending,
                "leased": qstats.leased,
                "done": qstats.done,
                "poisoned": qstats.poisoned,
                "retries": qstats.retries,
                "requeues": qstats.requeues,
            },
            "error": record.error,
        }

    def rows(self, job_id: str) -> list[dict[str, Any]] | None:
        """Summary rows for every *terminal* point so far (partial OK).

        Each row is the job-stream form of one
        :data:`~repro.analysis.tables.SWEEP_SUMMARY_COLUMNS` table row:
        ``{"point": label, "status": ..., "row": {column: value}}`` in
        declaration order, restricted to points that are already done or
        failed — poll again for more.  Values are JSON-safe (NaN renders
        as the string ``"nan"``).
        """
        record = self._load(job_id)
        if record is None:
            return None
        out = []
        for point, state, payload in self._point_states(record):
            if state not in ("done", "failed"):
                continue
            (row,) = sweep_summary_rows([(point, payload)])
            out.append(
                {
                    "point": point.label,
                    "status": state,
                    "row": {k: json_safe_cell(v) for k, v in row.items()},
                }
            )
        return out

    def iter_rows(
        self, job_id: str, *, poll_s: float = 0.05, timeout_s: float | None = None
    ) -> Iterator[dict[str, Any]]:
        """Yield each point's row as it lands, until the job is terminal.

        The NDJSON streaming source for ``GET /v1/jobs/{id}/rows?stream=1``:
        rows surface in completion order (re-checked every *poll_s*),
        each exactly once.  Stops when every point is terminal or after
        *timeout_s* (``None``: wait for the job).
        """
        record = self._load(job_id)
        if record is None:
            return
        emitted: set[str] = set()
        deadline = None if timeout_s is None else time.time() + timeout_s
        while True:
            pending = False
            for point, state, payload in self._point_states(record):
                key = queue_key(point)
                if state in ("done", "failed"):
                    if key not in emitted:
                        emitted.add(key)
                        (row,) = sweep_summary_rows([(point, payload)])
                        yield {
                            "point": point.label,
                            "status": state,
                            "row": {k: json_safe_cell(v) for k, v in row.items()},
                        }
                else:
                    pending = True
            if not pending:
                return
            if deadline is not None and time.time() >= deadline:
                return
            time.sleep(poll_s)

    def table(self, job_id: str) -> str | None:
        """The job's summary table — byte-identical to ``repro sweep``.

        Built from the same :data:`SWEEP_SUMMARY_COLUMNS` /
        :func:`sweep_summary_rows` pair the CLI renders with, over the
        same ``(point, payload)`` pairs in declaration order, so a grid
        run via the API and the same grid run via ``repro sweep`` print
        the same bytes.  Non-terminal points render as failed rows —
        ask :meth:`status` first if partiality matters.
        """
        record = self._load(job_id)
        if record is None:
            return None
        pairs = [
            (point, payload) for point, _state, payload in self._point_states(record)
        ]
        return format_table(SWEEP_SUMMARY_COLUMNS, sweep_summary_rows(pairs))

    def results(self, job_id: str) -> dict[str, Any] | None:
        """Full payloads of every done point, serialised for transport."""
        record = self._load(job_id)
        if record is None:
            return None
        out: dict[str, Any] = {}
        for point, state, payload in self._point_states(record):
            if state == "done":
                out[point.label or queue_key(point)[:12]] = payload_to_dict(payload)
        return out

    def list_jobs(self) -> list[dict[str, Any]]:
        """Submission-time info for every job visible in the spool root."""
        jobs = []
        try:
            candidates = sorted(self.spool_root.iterdir())
        except OSError:
            return []
        for path in candidates:
            if not (path / JOB_MANIFEST).is_file():
                continue
            status = self.status(path.name)
            if status is not None:
                jobs.append(status)
        return jobs

    def queue_depth(self) -> int:
        """Unfinished points across every known job (the stats view)."""
        depth = 0
        for status in self.list_jobs():
            depth += status["queue"]["pending"] + status["queue"]["leased"]
        return depth

    def worker_liveness(self) -> dict[str, Any]:
        """Drain-thread liveness per in-memory job (the stats view)."""
        with self._lock:
            records = list(self._jobs.values())
        alive = sum(
            1 for r in records if r.thread is not None and r.thread.is_alive()
        )
        return {
            "jobs_attached": len(records),
            "drains_alive": alive,
            "workers_per_job": self.workers,
        }


def json_safe_cell(value: Any) -> Any:
    """Row cells as strict-JSON values (NaN → ``"nan"``)."""
    if isinstance(value, float) and value != value:
        return "nan"
    return value
