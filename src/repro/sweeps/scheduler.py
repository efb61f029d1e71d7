"""Sweep execution: cache probe, then fault-tolerant fan-out.

``run_sweeps`` is the core entry point: it takes *many*
:class:`~repro.sweeps.spec.SweepSpec` values and interleaves all of
their points over **one** execution backend —

1. probe the cache (when given) for each point — hits cost one JSON read;
2. deduplicate content-identical points across specs (two experiments
   asking for the same simulation get one computation);
3. order the misses **largest-first** by the declared cost estimate
   (:func:`~repro.sweeps.spec.estimated_cost`, ties broken by host
   size then canonical content so the order is deterministic at any
   ``jobs``);
4. publish the quenched CSR hosts of the pending points to a shared
   host store (:mod:`repro.sweeps.hoststore`) so pool workers attach to
   the parent's arrays instead of regenerating each graph per process;
5. execute the misses through one of three backends — inline
   (``jobs <= 1``), a shared :class:`~concurrent.futures
   .ProcessPoolExecutor` in work-stealing order, or (``spool=...``) the
   durable :class:`~repro.sweeps.queue.WorkQueue` drained by ``repro
   worker`` processes;
6. write each freshly computed result back to the cache *as it lands*,
   so an interrupted sweep resumes from its last completed point;
7. if the cache declares a size bound (``max_mb``), run its LRU GC once
   at the end — **including** when the run is cut short by Ctrl-C.

Fault model (DESIGN.md §2.7)
----------------------------
Worker death no longer aborts a sweep.  The pool backend catches
``BrokenProcessPool``, banks every completed future, respawns the pool,
and retries the in-flight points *one per pool* so blame lands on the
actual crasher; a point whose worker dies ``max_attempts`` times is
quarantined.  The spool backend gets the same guarantees from the
queue's lease/retry semantics, plus durability: :func:`drain_spool`
(also the service's job drain) reaps dead worker processes, releases
their leases immediately, and respawns replacements.  Under either backend a permanently failed point degrades
to a per-point :class:`SweepError` slot in its
:class:`SweepOutcome` — with ``strict=True`` (the default) the run
*then* raises one :class:`SweepError` naming every casualty, after all
salvageable work is computed, cached, and GC'd.  Only
``KeyboardInterrupt`` aborts early, and even that path banks finished
results and runs the cache GC first.

Determinism: parallelism and fault recovery change *where and how many
times* a point runs, never its randomness — every point carries its own
seed tuple, so ``jobs=8``, a spool drained by two processes, and a sweep
that survived three worker kills all produce bit-identical ensembles to
``jobs=1``.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.sweeps import hoststore
from repro.sweeps.cache import SweepCache
from repro.sweeps.queue import WorkQueue, queue_key
from repro.sweeps.runner import (
    execute_point,
    execute_point_tracked,
    host_access_counts,
)
from repro.sweeps.spec import (
    Point,
    SweepSpec,
    canonical_json,
    canonical_point,
    estimated_cost,
    host_vertex_count,
)

__all__ = [
    "SweepError",
    "SweepStats",
    "SweepOutcome",
    "run_sweep",
    "run_sweeps",
    "run_worker",
    "drain_spool",
    "ensure_outcome",
    "add_sweep_arguments",
    "cache_from_args",
    "worker_env",
]


class SweepError(RuntimeError):
    """A permanently failed sweep point, or (raised) a failed run.

    Two roles: with ``strict=False`` each quarantined point's slot in
    ``SweepOutcome.ensembles`` holds a ``SweepError`` describing it
    (``point``, ``attempts``, ``cause``); with ``strict=True`` the run
    raises one ``SweepError`` whose ``failures`` tuple carries those
    per-point errors — after every other point completed and was cached,
    so nothing already computed is lost to the raise.
    """

    def __init__(
        self,
        message: str,
        *,
        point: Point | None = None,
        attempts: int = 0,
        cause: str = "",
        failures: Sequence["SweepError"] = (),
    ) -> None:
        super().__init__(message)
        self.point = point
        self.attempts = attempts
        self.cause = cause
        self.failures = tuple(failures)


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared sweep-control flags.

    Every CLI that runs sweeps (``repro run/report/sweep``, the
    standalone ``python -m repro.harness.report``) takes the same four
    controls; defining them once keeps the entry points from drifting.
    """
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep grids (default: 1, inline)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="sweep cache directory (default: ~/.cache/repro-sweeps)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the sweep result cache"
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size bound for the sweep cache; least-recently-used entries "
        "are evicted after each run (default: unbounded)",
    )


def cache_from_args(args: argparse.Namespace) -> SweepCache | None:
    """The cache those flags describe (``None`` when disabled)."""
    if args.no_cache:
        return None
    return SweepCache(args.cache_dir, max_mb=getattr(args, "cache_max_mb", None))


@dataclass(frozen=True)
class SweepStats:
    """Execution accounting for one spec within a ``run_sweeps`` call.

    ``elapsed_s`` is the wall-clock of the whole (possibly multi-spec)
    scheduling round the spec ran in: with one shared pool there is no
    per-spec wall-clock to report separately.  The host counters and the
    fault counters (``retries`` re-executions after a lost or failed
    attempt, ``requeues`` points reclaimed from dead workers) are
    likewise **run-wide** — identical on every spec of the call — while
    ``failures`` counts *this spec's* permanently failed points (its
    :class:`SweepError` slots).
    """

    points: int
    hits: int
    misses: int
    jobs: int
    elapsed_s: float
    hosts_published: int = 0
    host_builds: int = 0
    host_attaches: int = 0
    retries: int = 0
    requeues: int = 0
    failures: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of points served from cache (0.0 when empty)."""
        return self.hits / self.points if self.points else 0.0


@dataclass(frozen=True)
class SweepOutcome:
    """Results aligned with ``spec.points`` plus execution stats.

    ``ensembles`` carries one payload per point — a
    :class:`~repro.analysis.experiments.ConsensusEnsemble` for
    ensemble-engine protocols, a plain dict for the extension protocols
    (see :mod:`repro.sweeps.runner`), or a :class:`SweepError` for a
    point that permanently failed under ``strict=False``.
    """

    spec: SweepSpec
    ensembles: tuple[Any, ...]
    stats: SweepStats

    def __iter__(self):
        """Iterate ``(point, payload)`` pairs in declaration order."""
        return iter(zip(self.spec.points, self.ensembles))

    @property
    def errors(self) -> tuple[SweepError, ...]:
        """The permanently failed slots (empty on a fully clean run)."""
        return tuple(e for e in self.ensembles if isinstance(e, SweepError))


def worker_env() -> dict[str, str]:
    """Subprocess env with the live ``repro`` package importable.

    The coordinator may be running from a source tree that is not
    installed; the spawned ``repro worker`` must import the same code
    (the cache fingerprint depends on it).  Shared by this scheduler's
    spool backend and the service's job manager, both of which spawn
    ``repro worker`` fleets.
    """
    import repro

    env = dict(os.environ)
    pkg_parent = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if pkg_parent not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            f"{pkg_parent}{os.pathsep}{existing}" if existing else pkg_parent
        )
    return env


def run_worker(
    spool: str | Path,
    cache: SweepCache,
    *,
    worker_id: str | None = None,
    lease_ttl_s: float = 300.0,
    poll_s: float = 0.1,
) -> dict[str, Any]:
    """Drain the *spool* until every point is terminal (done/poisoned).

    The ``repro worker`` loop: reclaim expired leases, lease the next
    point, execute it, write the payload into the shared *cache*, and
    only then mark the point done — completion certifies "the result is
    durably on disk", which is what lets the coordinator collect every
    payload through cache reads alone.  A point whose execution raises
    is failed back to the queue (backoff, then quarantine); a worker
    that dies mid-point simply stops heartbeating and its lease is
    reclaimed by whoever runs next.  Returns a summary dict.
    """
    if cache is None:
        raise ValueError(
            "spool workers need the cache: results travel through it"
        )
    queue = WorkQueue(spool)
    wid = worker_id or f"worker-{os.getpid()}"
    executed = failed = 0
    try:
        while True:
            queue.requeue_expired()
            lease = queue.lease(wid, ttl_s=lease_ttl_s)
            if lease is None:
                if queue.unfinished() == 0:
                    break
                time.sleep(poll_s)
                continue
            try:
                payload = execute_point(lease.point)
                if cache.put(lease.point, payload) is None:
                    queue.fail(
                        lease.key,
                        wid,
                        "cache write failed; completing would lose the result",
                    )
                    failed += 1
                elif queue.complete(lease.key, wid):
                    executed += 1
            except KeyboardInterrupt:
                queue.release(lease.key, wid)  # no blame for a Ctrl-C
                raise
            except Exception as exc:
                queue.fail(lease.key, wid, f"{type(exc).__name__}: {exc}")
                failed += 1
    finally:
        queue.close()
    return {"worker_id": wid, "executed": executed, "failed": failed}


def drain_spool(
    spool: str | Path,
    cache: SweepCache,
    *,
    workers: int = 0,
    lease_ttl_s: float = 300.0,
    max_attempts: int = 3,
    worker_prefix: str = "spool-worker",
) -> None:
    """Drain *spool* until every point is terminal — the one supervisor.

    ``workers <= 0`` runs :func:`run_worker` in the calling thread.
    ``workers > 0`` spawns that many ``repro worker`` subprocesses and
    babysits them: a dead worker's leases are released at once and a
    replacement is spawned while work remains, up to ``workers *
    max_attempts`` spawns in all (so a worker-killing point that somehow
    escapes quarantine cannot respawn forever); a fleet that exhausts
    the budget with work left is finished inline.  Worker ids are
    ``f"{worker_prefix}-{pid}-{n}"``, so two coordinators sharing one
    spool never release each other's leases.

    Shared by ``run_sweeps(spool=...)`` and the service's job drain.
    It opens its own :class:`WorkQueue` because SQLite handles are
    thread-affine and the job drain runs in a daemon thread.  Any
    exception (Ctrl-C included) terminates the live workers and
    propagates.
    """
    prefix = f"{worker_prefix}-{os.getpid()}"
    env = worker_env()
    queue = WorkQueue(spool, max_attempts=max_attempts)
    procs: dict[str, subprocess.Popen] = {}
    spawned = 0
    try:
        while queue.unfinished() > 0:
            queue.requeue_expired()
            for wid, proc in list(procs.items()):
                if proc.poll() is not None:
                    del procs[wid]
                    queue.release_worker(wid)
            while (
                len(procs) < workers
                and spawned < workers * max_attempts
                and queue.unfinished() > 0
            ):
                spawned += 1
                wid = f"{prefix}-{spawned}"
                procs[wid] = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "worker",
                        "--spool",
                        str(spool),
                        "--cache-dir",
                        str(cache.root),
                        "--worker-id",
                        wid,
                        "--lease-ttl",
                        str(lease_ttl_s),
                    ],
                    env=env,
                )
            if not procs:
                break
            time.sleep(0.05)
        for proc in procs.values():
            proc.wait(timeout=60.0)
        if queue.unfinished() > 0:
            # No fleet asked for, or it spent its budget: finish here.
            run_worker(
                spool, cache, worker_id=f"{prefix}-inline", lease_ttl_s=lease_ttl_s
            )
    except BaseException:
        for proc in procs.values():
            proc.terminate()
        raise
    finally:
        queue.close()


def run_sweeps(
    specs: Sequence[SweepSpec],
    *,
    jobs: int = 1,
    cache: SweepCache | None = None,
    share_hosts: bool = True,
    spool: str | Path | None = None,
    workers: int = 0,
    strict: bool = True,
    max_attempts: int = 3,
    lease_ttl_s: float = 300.0,
) -> list[SweepOutcome]:
    """Execute every point of every spec through one shared backend.

    Parameters
    ----------
    specs:
        The declarative grids.  Points are interleaved: one global
        work queue feeds one backend, so ``repro report --jobs N``
        runs all requested experiments' points through a single pool
        instead of one sequential pool per experiment.
    jobs:
        Worker processes for the cache-missing points.  ``jobs <= 1``
        runs inline (no pool, no pickling) unless *spool* is set.
    cache:
        Optional :class:`SweepCache`.  Hits skip simulation entirely;
        misses are recomputed and stored.  ``None`` disables caching
        (and is rejected for spool runs, whose results travel through
        the cache).
    share_hosts:
        Publish the pending points' quenched CSR hosts to a shared
        memory-mapped store so pool workers attach instead of
        regenerating them (default).  Only affects setup cost; results
        are identical either way.
    spool:
        A directory: run through the durable
        :class:`~repro.sweeps.queue.WorkQueue` spooled there instead of
        the in-process pool, drained by :func:`drain_spool`.
    workers:
        Spool worker subprocesses; ``0`` drains in the calling process.
        Ignored without *spool*.
    strict:
        With the default ``True``, permanently failed points raise one
        :class:`SweepError` (carrying per-point ``failures``) **after**
        everything else completed and was cached.  With ``False`` the
        failed slots come back as :class:`SweepError` values inside the
        outcomes and nothing raises.
    max_attempts:
        Executions a point may consume (first try + retries) before it
        is quarantined as poisoned.
    lease_ttl_s:
        Spool lease duration; must exceed the slowest single point.

    Returns
    -------
    list[SweepOutcome]
        One outcome per spec, aligned with *specs*.  Per-spec stats
        count every point of that spec — a point shared with another
        spec (executed once thanks to the dedup) still counts as one
        point/hit/miss in *each* owner, so ``stats.points`` always
        equals ``len(spec.points)``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if spool is not None and cache is None:
        raise ValueError(
            "spool-backed sweeps need a cache: workers hand results back "
            "through it (pass cache=SweepCache(...))"
        )
    start = time.perf_counter()
    specs = list(specs)
    results: list[list[Any]] = [[None] * len(s.points) for s in specs]
    hits = [0] * len(specs)
    misses = [0] * len(specs)

    # Deduplicate across specs by canonical content: two specs declaring
    # the same point (same host, protocol, init, budget, *and* seed)
    # describe the same simulation, so it runs (and is cached) once and
    # its payload fans back out to every owner.
    owners: dict[str, list[tuple[int, int]]] = {}
    unique: dict[str, Any] = {}
    for si, spec in enumerate(specs):
        for pi, point in enumerate(spec.points):
            content = canonical_json(canonical_point(point))
            if content not in owners:
                owners[content] = []
                unique[content] = point
            owners[content].append((si, pi))

    pending: list[str] = []
    for content, point in unique.items():
        payload = cache.get(point) if cache is not None else None
        if payload is not None:
            for si, pi in owners[content]:
                results[si][pi] = payload
                hits[si] += 1
        else:
            pending.append(content)
            for si, pi in owners[content]:
                misses[si] += 1

    # Deterministic largest-first submission: the pool starts on the
    # most expensive points and backfills with cheap ones, so a straggler
    # no longer lands last on an otherwise-drained pool.  (Randomness is
    # per-point, so execution order cannot change any result.)
    # Chain-routed points share one cost regardless of n, so host size
    # is the second key: among equal estimates the biggest graph still
    # goes first (it has the most room to become a straggler).
    pending.sort(
        key=lambda content: (
            -estimated_cost(unique[content]),
            -host_vertex_count(unique[content].host),
            content,
        )
    )

    failures: dict[str, SweepError] = {}

    def _assign(content: str, payload: Any) -> None:
        for si, pi in owners[content]:
            results[si][pi] = payload

    def _store(content: str, payload: Any) -> None:
        _assign(content, payload)
        if cache is not None:
            cache.put(unique[content], payload)

    def _fail(content: str, cause: str, attempts: int) -> None:
        point = unique[content]
        err = SweepError(
            f"sweep point {point.label or queue_key(point)[:12]!r} failed "
            f"permanently after {attempts} attempt(s): {cause}",
            point=point,
            attempts=attempts,
            cause=cause,
        )
        failures[content] = err
        _assign(content, err)

    hosts_published = 0
    host_builds = 0
    host_attaches = 0
    retries_n = 0
    requeues_n = 0

    def _run_inline(contents: list[str]) -> None:
        nonlocal host_builds, host_attaches
        builds0, attaches0 = host_access_counts()
        try:
            for content in contents:
                try:
                    payload = execute_point(unique[content])
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    # A deterministic in-process failure: the point is
                    # pure data through a pure function, so retrying
                    # here would fail identically — quarantine at once.
                    _fail(content, f"{type(exc).__name__}: {exc}", attempts=1)
                else:
                    _store(content, payload)
        finally:
            builds1, attaches1 = host_access_counts()
            host_builds += builds1 - builds0
            host_attaches += attaches1 - attaches0

    def _run_pool(poolable: list[str]) -> None:
        nonlocal host_builds, host_attaches, retries_n, requeues_n, hosts_published
        store = None
        if share_hosts:
            # Publish only hosts that at least two pending points
            # share: a single-use host gains nothing from the store
            # and would just move its construction from a parallel
            # worker into the serial pre-pool parent.
            host_counts: dict = {}
            for content in poolable:
                host = unique[content].host
                host_counts[host] = host_counts.get(host, 0) + 1
            shared = [h for h, count in host_counts.items() if count >= 2]
            if shared:
                store = hoststore.publish_hosts(shared)
            hosts_published = len(store) if store is not None else 0

        def _make_pool(width: int) -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=width,
                initializer=hoststore.attach_handles if store else None,
                initargs=(store.handles,) if store else (),
            )

        remaining = list(poolable)  # largest-first order preserved
        suspects: list[str] = []
        attempts = dict.fromkeys(poolable, 0)
        try:
            while remaining or suspects:
                # After a pool crash the stdlib executor cannot say which
                # worker held which point, so every unfinished point of
                # the crashed batch is a suspect — and suspects run ONE
                # per fresh pool, so the next crash names its point
                # exactly.  Innocents pass through their solo pool and
                # never accrue blame.
                if suspects:
                    batch = [suspects.pop(0)]
                else:
                    batch, remaining = remaining, []
                pool = _make_pool(min(jobs, len(batch)))
                futures: dict = {}
                crashed: list[str] = []
                try:
                    for content in batch:
                        if attempts[content]:
                            retries_n += 1
                        attempts[content] += 1
                        futures[
                            pool.submit(execute_point_tracked, unique[content])
                        ] = content
                    # Bank each result the moment it lands so a sweep
                    # killed midway resumes from its last completed
                    # point.  A BrokenProcessPool surfaces as the
                    # *exception* of the affected futures, not out of
                    # as_completed, so completed siblings still bank.
                    for fut in as_completed(futures):
                        content = futures[fut]
                        exc = fut.exception()
                        if exc is None:
                            payload, builds, attaches = fut.result()
                            host_builds += builds
                            host_attaches += attaches
                            _store(content, payload)
                        elif isinstance(exc, BrokenProcessPool):
                            crashed.append(content)
                        else:
                            # Picklable exception from a live worker:
                            # deterministic, no retry (see _run_inline).
                            _fail(
                                content,
                                f"{type(exc).__name__}: {exc}",
                                attempts[content],
                            )
                except BaseException:
                    # Ctrl-C (or an unexpected scheduler error): drop
                    # the queue, but first bank every finished point so
                    # the re-run resumes instead of recomputing them.
                    pool.shutdown(wait=False, cancel_futures=True)
                    for fut, content in futures.items():
                        if (
                            fut.done()
                            and not fut.cancelled()
                            and fut.exception() is None
                        ):
                            payload, builds, attaches = fut.result()
                            host_builds += builds
                            host_attaches += attaches
                            _store(content, payload)
                    raise
                pool.shutdown(wait=False, cancel_futures=True)
                if not crashed:
                    continue
                if len(batch) == 1:
                    content = crashed[0]
                    if attempts[content] >= max_attempts:
                        _fail(
                            content,
                            "worker process died (crash or kill) on every "
                            "attempt",
                            attempts[content],
                        )
                    else:
                        suspects.insert(0, content)  # solo retry
                else:
                    requeues_n += len(crashed)
                    crashed_set = set(crashed)
                    suspects.extend(c for c in batch if c in crashed_set)
        finally:
            if store is not None:
                store.close()

    def _run_spool(contents: list[str]) -> None:
        nonlocal retries_n, requeues_n
        queue = WorkQueue(spool, max_attempts=max_attempts)
        points = {queue_key(unique[c]): c for c in contents}
        try:
            queue.enqueue([unique[c] for c in contents])
            drain_spool(
                spool,
                cache,
                workers=workers,
                lease_ttl_s=lease_ttl_s,
                max_attempts=max_attempts,
            )
            # Collect: `done` certifies the payload is durably cached.
            for key, (state, error, n_attempts) in queue.states().items():
                content = points.get(key)
                if content is None:  # a previous run's leftover row
                    continue
                if state == "done":
                    payload = cache.get(unique[content])
                    if payload is None:
                        _fail(
                            content,
                            "queue reports done but the cache has no entry "
                            "(evicted or torn mid-run)",
                            n_attempts,
                        )
                    else:
                        _assign(content, payload)
                else:
                    _fail(
                        content,
                        error or f"spool left point in state {state!r}",
                        n_attempts,
                    )
            qstats = queue.stats()
            retries_n += qstats.retries
            requeues_n += qstats.requeues
        finally:
            queue.close()

    try:
        if spool is not None:
            _run_spool(pending)
        elif jobs <= 1 or len(pending) <= 1:
            _run_inline(pending)
        else:
            # A point that cannot cross the process boundary (host specs
            # from locally defined classes, exotic parameters) must not
            # poison the whole pool: run it serially in this process and
            # say so, instead of surfacing a BrokenProcessPool-style crash.
            poolable: list[str] = []
            unpoolable: list[str] = []
            for content in pending:
                try:
                    pickle.dumps(unique[content])
                except Exception:
                    unpoolable.append(content)
                else:
                    poolable.append(content)
            if unpoolable:
                warnings.warn(
                    f"{len(unpoolable)} of {len(pending)} sweep point(s) could "
                    "not be pickled for the worker pool and will run serially "
                    "in the parent process (results are unaffected)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            if len(poolable) > 1:
                _run_pool(poolable)
            else:
                _run_inline(poolable)
            _run_inline(unpoolable)
    finally:
        # The satellite fix for the interrupt path: a Ctrl-C mid-sweep
        # used to skip GC entirely; banked results are already cached at
        # this height, so the size bound is enforced on every exit.
        if cache is not None and cache.max_mb is not None:
            cache.gc()

    elapsed = time.perf_counter() - start
    outcomes = [
        SweepOutcome(
            spec=spec,
            ensembles=tuple(results[si]),
            stats=SweepStats(
                points=len(spec.points),
                hits=hits[si],
                misses=misses[si],
                jobs=jobs,
                elapsed_s=elapsed,
                hosts_published=hosts_published,
                host_builds=host_builds,
                host_attaches=host_attaches,
                retries=retries_n,
                requeues=requeues_n,
                failures=sum(
                    isinstance(e, SweepError) for e in results[si]
                ),
            ),
        )
        for si, spec in enumerate(specs)
    ]
    if strict and failures:
        errs = list(failures.values())
        raise SweepError(
            f"{len(errs)} of {len(unique)} sweep point(s) failed permanently "
            "(all other points completed and were cached): "
            + "; ".join(str(e) for e in errs[:3])
            + ("; ..." if len(errs) > 3 else ""),
            failures=errs,
        )
    return outcomes


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache: SweepCache | None = None,
    share_hosts: bool = True,
    spool: str | Path | None = None,
    workers: int = 0,
    strict: bool = True,
    max_attempts: int = 3,
    lease_ttl_s: float = 300.0,
) -> SweepOutcome:
    """Execute every point of one *spec* (see :func:`run_sweeps`)."""
    return run_sweeps(
        [spec],
        jobs=jobs,
        cache=cache,
        share_hosts=share_hosts,
        spool=spool,
        workers=workers,
        strict=strict,
        max_attempts=max_attempts,
        lease_ttl_s=lease_ttl_s,
    )[0]


def ensure_outcome(
    spec: SweepSpec,
    outcome: SweepOutcome | None,
    *,
    jobs: int = 1,
    cache: SweepCache | None = None,
) -> SweepOutcome:
    """The outcome for *spec*: validate a precomputed one, or run it.

    The report path precomputes every requested experiment's grid
    through one :func:`run_sweeps` call and hands each experiment its
    outcome; an experiment run directly computes its own.  A precomputed
    outcome whose spec does not match (wrong quick/seed parameters, or a
    stale caller) is an error, not a silent source of wrong tables.
    """
    if outcome is None:
        return run_sweep(spec, jobs=jobs, cache=cache)
    if outcome.spec != spec:
        raise ValueError(
            f"precomputed outcome is for spec {outcome.spec.name!r} "
            f"({len(outcome.spec.points)} points), which does not match "
            f"the requested {spec.name!r} ({len(spec.points)} points)"
        )
    return outcome
