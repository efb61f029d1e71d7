"""In-memory span recorder wrapped around the library's public functions.

Nothing here edits the library: :func:`wrap_function` and
:func:`wrap_method` swap a timing wrapper in for a function object, in
every loaded module that holds a reference to it, so callers that did
``from repro.x import f`` see the wrapper too.

A span is ``(name, start, end, span_id, parent_id, request_id,
thread_id)``.  The parent is the innermost open span of the same thread.
A span opened on a thread with no open span (a worker thread of the
dense engine's thread pool) has no parent; it inherits the request id of
the main thread's open outermost span instead, which is how
:func:`self_times` charges cross-thread work to the call that caused it.

The benchmark process keeps its spans in memory and reads them at the
end.  Any other process (forked pool workers, spool and job workers, the
server subprocess) appends its spans to ``spans-<pid>.jsonl`` in the
directory named by ``PERFBENCH_TRACE_DIR`` each time its outermost span
closes, so a process that ends without running exit hooks loses nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_clock = time.perf_counter
_ids = itertools.count(1)
_local = threading.local()
_lock = threading.Lock()
_spans: list[tuple] = []
_counters: dict[str, float] = defaultdict(float)
_active_rid = [None]
_collector_pid = [None]


def keep_in_memory() -> None:
    """Mark this process as the one that collects; others flush to files."""
    _collector_pid[0] = os.getpid()


def _after_fork() -> None:
    # A forked child starts with copies of the parent's open spans and
    # records (and possibly a held lock); its own spans start from scratch.
    global _lock
    _lock = threading.Lock()
    _local.__dict__.clear()
    _spans.clear()
    _counters.clear()
    _active_rid[0] = None


os.register_at_fork(after_in_child=_after_fork)


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def count(name: str, by: float = 1) -> None:
    with _lock:
        _counters[name] += by


class _Span:
    __slots__ = ("name", "sid", "parent", "rid", "t0", "top")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self):
        stack = _stack()
        self.sid = next(_ids)
        if stack:
            self.parent = stack[-1].sid
            self.rid = stack[-1].rid
            self.top = False
        else:
            self.parent = None
            # Only the main thread's outermost span lends its request id
            # to parentless spans of other threads; concurrent handler
            # threads (the server) each keep their own.
            self.top = (
                _active_rid[0] is None
                and threading.current_thread() is threading.main_thread()
            )
            self.rid = _active_rid[0] or self.sid
            if self.top:
                _active_rid[0] = self.sid
        stack.append(self)
        self.t0 = _clock()
        return self

    def __exit__(self, *exc) -> None:
        t1 = _clock()
        stack = _stack()
        stack.pop()
        if self.top:
            _active_rid[0] = None
        record = (
            self.name, self.t0, t1, self.sid, self.parent, self.rid,
            threading.get_ident(),
        )
        with _lock:
            _spans.append(record)
        if not stack and os.getpid() != _collector_pid[0]:
            flush()


def timed(name, fn, after=None):
    """*fn* wrapped in a span; *after(result, args, kwargs)* runs after it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _Span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def wrap_function(module, attr: str, name: str, after=None) -> None:
    """Replace ``module.attr`` everywhere it is referenced by identity."""
    original = getattr(module, attr)
    wrapper = timed(name, original, after)
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(mod, key, wrapper)


def wrap_method(cls, attr: str, name, after=None) -> None:
    """Wrap a method defined on *cls*; *name* may be ``f(self) -> str``."""
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        label = name(self) if callable(name) else name
        with _Span(label):
            result = original(self, *args, **kwargs)
        if after is not None:
            after(result, (self, *args), kwargs)
        return result

    setattr(cls, attr, wrapper)


def take() -> tuple[list[tuple], dict[str, float]]:
    """This process's spans and counters so far; clears both."""
    with _lock:
        spans, counters = list(_spans), dict(_counters)
        _spans.clear()
        _counters.clear()
    return spans, counters


def flush() -> None:
    """Append this process's spans and counters to its trace file."""
    directory = os.environ.get(TRACE_DIR_ENV)
    spans, counters = take()
    if not directory or not (spans or counters):
        return
    path = Path(directory) / f"spans-{os.getpid()}.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"pid": os.getpid(), "spans": spans,
                             "counters": counters}) + "\n")


def collect(directory: str | Path) -> tuple[list[tuple], dict[str, float]]:
    """Read and delete every trace file other processes wrote there."""
    spans: list[tuple] = []
    counters: dict[str, float] = defaultdict(float)
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            pid = record["pid"]
            # Span and request ids are per process: qualify them by pid.
            for name, t0, t1, sid, parent, rid, tid in record["spans"]:
                spans.append((
                    name, t0, t1, (pid, sid),
                    None if parent is None else (pid, parent),
                    (pid, rid), (pid, tid),
                ))
            for key, value in record["counters"].items():
                counters[key] += value
        path.unlink()
    return spans, dict(counters)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[tuple]) -> tuple[dict, dict, dict]:
    """``(total_s, self_s, calls)`` per span name.

    Self time is a span's duration minus the part of it covered by its
    children: spans whose parent it is, plus parentless spans of other
    threads that carry its request id (thread-pool work it caused).
    """
    children: dict = defaultdict(list)
    orphans: dict = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[1], s[2]))
        else:
            orphans[s[5]].append(s)
    total: dict = defaultdict(float)
    own: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for name, t0, t1, sid, parent, rid, tid in spans:
        covered = list(children.get(sid, ()))
        if parent is None:
            covered += [
                (max(o[1], t0), min(o[2], t1))
                for o in orphans.get(rid, ())
                if o[3] != sid and o[6] != tid and o[1] < t1 and o[2] > t0
            ]
        total[name] += t1 - t0
        own[name] += (t1 - t0) - _union_length(covered)
        calls[name] += 1
    return dict(total), dict(own), dict(calls)
