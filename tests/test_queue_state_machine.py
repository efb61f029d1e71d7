"""Stateful property test of the durable sweep queue.

A hypothesis :class:`RuleBasedStateMachine` drives one
:class:`~repro.sweeps.queue.WorkQueue` through random interleavings of
``enqueue``, ``lease``, ``complete``, ``fail``, ``release``,
``release_worker`` and ``requeue_expired(now=...)`` and checks every
return value, and after every step every row, against a plain
in-memory model of the life cycle in the module docstring.  Invariants:

* every key is in exactly one state, the model's;
* a leased key has exactly one holder and no other key has one;
* attempts never exceed ``max_attempts``, and a point is poisoned
  exactly when it fails (or loses its lease) at that limit;
* ``unfinished()`` is pending plus leased.

Backoff is zero and lease expiry is decided by the injected ``now``
against each lease's own ``expires_at``, so no step sleeps.
"""

from __future__ import annotations

import shutil
import sqlite3
import tempfile
import time
from contextlib import closing
from dataclasses import dataclass

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.sweeps import HostSpec, InitSpec, Point, ProtocolSpec, WorkQueue
from repro.sweeps.queue import queue_key
from repro.sweeps.spec import estimated_cost

WORKERS = ("w0", "w1", "w2")

# Two points share a cost, so the largest-first order's key tie-break
# is exercised too.
POINTS = [
    Point(
        host=HostSpec.of("complete", n=n),
        protocol=ProtocolSpec.best_of(3),
        init=InitSpec.iid(0.1),
        trials=trials,
        max_steps=10,
        seed=(seed,),
    )
    for n, trials, seed in ((64, 2, 1), (64, 2, 2), (128, 4, 3), (32, 1, 4))
]
KEYS = [queue_key(p) for p in POINTS]
COSTS = {queue_key(p): estimated_cost(p) for p in POINTS}


@dataclass
class Row:
    state: str = "pending"
    attempts: int = 0
    holder: str | None = None
    expires_at: float | None = None


class QueueMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.spool = tempfile.mkdtemp(prefix="repro-queue-sm-")
        self.queue: WorkQueue | None = None
        self.rows: dict[str, Row] = {}
        self.requeues = 0

    @initialize(max_attempts=st.integers(1, 3))
    def open_queue(self, max_attempts):
        self.queue = WorkQueue(
            self.spool, max_attempts=max_attempts,
            backoff_base_s=0.0, backoff_cap_s=0.0,
        )

    def teardown(self) -> None:
        if self.queue is not None:
            self.queue.close()
        shutil.rmtree(self.spool, ignore_errors=True)

    # -- model helpers --------------------------------------------------

    def _held_by(self, key: str, worker: str) -> bool:
        row = self.rows.get(key)
        return row is not None and row.state == "leased" and row.holder == worker

    def _pick(self, pick: int, worker: str, by_holder: bool):
        """``(key, worker)`` for a holder-side call: with *by_holder* a
        live lease and its holder, else any point and *worker* (often a
        stale or foreign caller)."""
        leased = sorted(k for k, r in self.rows.items() if r.state == "leased")
        if by_holder and leased:
            key = leased[pick % len(leased)]
            return key, self.rows[key].holder
        return KEYS[pick % len(KEYS)], worker

    def _reclaim(self, keys: list[str]) -> None:
        for key in keys:
            row = self.rows[key]
            at_limit = row.attempts >= self.queue.max_attempts
            self.rows[key] = Row("poisoned" if at_limit else "pending", row.attempts)
        self.requeues += len(keys)

    # -- rules ----------------------------------------------------------

    @rule(picks=st.lists(st.integers(0, len(POINTS) - 1), max_size=3))
    def enqueue(self, picks):
        added = 0
        for i in picks:
            key = KEYS[i]
            row = self.rows.get(key)
            if row is None or row.state in ("done", "poisoned"):
                self.rows[key] = Row()
                added += 1
        assert self.queue.enqueue([POINTS[i] for i in picks]) == added

    @rule(worker=st.sampled_from(WORKERS), ttl=st.sampled_from([1.0, 1e4, 1e6]))
    def lease(self, worker, ttl):
        pending = [k for k, r in self.rows.items() if r.state == "pending"]
        got = self.queue.lease(worker, ttl_s=ttl)
        if not pending:
            assert got is None
            return
        want = min(pending, key=lambda k: (-COSTS[k], k))
        assert got is not None and got.key == want and got.worker_id == worker
        row = self.rows[want]
        assert got.attempt == row.attempts + 1
        self.rows[want] = Row("leased", row.attempts + 1, worker, got.expires_at)

    @rule(pick=st.integers(0, 7), worker=st.sampled_from(WORKERS),
          by_holder=st.booleans())
    def complete(self, pick, worker, by_holder):
        key, worker = self._pick(pick, worker, by_holder)
        ok = self._held_by(key, worker)
        assert self.queue.complete(key, worker) is ok
        if ok:
            self.rows[key] = Row("done", self.rows[key].attempts)

    @rule(pick=st.integers(0, 7), worker=st.sampled_from(WORKERS),
          by_holder=st.booleans())
    def fail(self, pick, worker, by_holder):
        key, worker = self._pick(pick, worker, by_holder)
        if not self._held_by(key, worker):
            assert self.queue.fail(key, worker, "boom") == "stale"
            return
        attempts = self.rows[key].attempts
        want = "poisoned" if attempts >= self.queue.max_attempts else "pending"
        assert self.queue.fail(key, worker, "boom") == want
        self.rows[key] = Row(want, attempts)

    @rule(pick=st.integers(0, 7), worker=st.sampled_from(WORKERS),
          by_holder=st.booleans())
    def release(self, pick, worker, by_holder):
        key, worker = self._pick(pick, worker, by_holder)
        ok = self._held_by(key, worker)
        assert self.queue.release(key, worker) is ok
        if ok:
            self.rows[key] = Row("pending", max(self.rows[key].attempts - 1, 0))

    @rule(worker=st.sampled_from(WORKERS))
    def release_worker(self, worker):
        held = [k for k in self.rows if self._held_by(k, worker)]
        assert self.queue.release_worker(worker) == len(held)
        self._reclaim(held)

    @rule(offset=st.sampled_from([-1e3, 0.0, 5e3, 5e5, 1e7]))
    def requeue_expired(self, offset):
        now = time.time() + offset
        expired = [
            k for k, r in self.rows.items()
            if r.state == "leased" and r.expires_at < now
        ]
        assert self.queue.requeue_expired(now=now) == len(expired)
        self._reclaim(expired)

    # -- invariants -----------------------------------------------------

    @invariant()
    def rows_match_the_model(self):
        if self.queue is None:
            return
        states = self.queue.states()
        assert {k: (s, a) for k, (s, _, a) in states.items()} == {
            k: (r.state, r.attempts) for k, r in self.rows.items()
        }
        for state, _, attempts in states.values():
            assert attempts <= self.queue.max_attempts
            if state == "poisoned":
                assert attempts == self.queue.max_attempts

    @invariant()
    def each_lease_has_one_holder(self):
        if self.queue is None:
            return
        with closing(sqlite3.connect(self.queue.path)) as conn:
            holders = dict(conn.execute(
                "SELECT key, worker FROM points WHERE worker IS NOT NULL"
            ))
        assert holders == {
            k: r.holder for k, r in self.rows.items() if r.state == "leased"
        }

    @invariant()
    def counts_add_up(self):
        if self.queue is None:
            return
        counts = self.queue.counts()
        assert sum(counts.values()) == len(self.rows)
        assert self.queue.unfinished() == counts["pending"] + counts["leased"]
        stats = self.queue.stats()
        assert stats.unfinished == self.queue.unfinished()
        assert stats.requeues == self.requeues


QueueMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestWorkQueueStateMachine = QueueMachine.TestCase
