"""Sweep orchestration: declarative grids, multiprocess scheduling, and
a content-addressed result cache.

The three layers (DESIGN.md §2.4):

* :mod:`repro.sweeps.spec` — :class:`SweepSpec` / :class:`Point`: pure-
  data descriptions of ensemble grids (host × protocol × init × seed);
* :mod:`repro.sweeps.scheduler` — :func:`run_sweeps`: executes many
  specs through one shared process pool (points interleaved,
  cross-spec deduplication), bit-identical to serial;
  :func:`run_sweep` is the single-spec wrapper;
* :mod:`repro.sweeps.cache` — :class:`SweepCache`: self-verifying
  on-disk entries keyed by point content + library version, giving warm
  re-runs and resumable partial sweeps for free, with an LRU garbage
  collector (``max_mb`` / :meth:`SweepCache.gc`) to keep warm caches
  bounded.

Plus the fault-tolerance layer (DESIGN.md §2.7): :mod:`repro.sweeps
.queue` — :class:`WorkQueue`, the durable SQLite spool with
lease/retry/backoff semantics behind ``run_sweeps(spool=...)`` and the
``repro sweep --workers N --spool DIR`` / ``repro worker`` CLI pair —
and :mod:`repro.sweeps.faults`, the injection harness the recovery
tests drive (armed only via the ``REPRO_FAULTS`` environment variable).

Quickstart::

    from repro.sweeps import (
        HostSpec, InitSpec, ProtocolSpec, SweepCache, SweepSpec, run_sweep,
    )

    spec = SweepSpec.grid(
        "demo",
        hosts=[HostSpec.of("complete", n=n) for n in (2**10, 2**12)],
        protocols=[ProtocolSpec.best_of(3)],
        inits=[InitSpec.iid(d) for d in (0.1, 0.05)],
        trials=20,
        max_steps=500,
        seed=0,
    )
    outcome = run_sweep(spec, jobs=4, cache=SweepCache())
    for point, ens in outcome:
        print(point.label, ens.mean_steps)
"""

from repro.sweeps.cache import (
    CacheGCStats,
    SweepCache,
    default_cache_dir,
    point_key,
)
from repro.sweeps.hoststore import SHAREABLE_FAMILIES, publish_hosts
from repro.sweeps.runner import (
    build_host,
    execute_point,
    execute_point_tracked,
    host_access_counts,
    host_families,
)
from repro.sweeps.queue import Lease, QueueStats, WorkQueue, queue_key
from repro.sweeps.scheduler import (
    SweepError,
    SweepOutcome,
    SweepStats,
    add_sweep_arguments,
    cache_from_args,
    ensure_outcome,
    run_sweep,
    run_sweeps,
    run_worker,
)
from repro.sweeps.spec import (
    ADVERSARIAL_STRATEGIES,
    PROTOCOL_KINDS,
    HostSpec,
    InitSpec,
    Point,
    ProtocolSpec,
    SweepSpec,
    canonical_point,
    count_chain_width,
    derive_point_seed,
    estimated_cost,
    host_vertex_count,
    point_from_canonical,
)

__all__ = [
    "ADVERSARIAL_STRATEGIES",
    "PROTOCOL_KINDS",
    "HostSpec",
    "ProtocolSpec",
    "InitSpec",
    "Point",
    "SweepSpec",
    "canonical_point",
    "count_chain_width",
    "derive_point_seed",
    "estimated_cost",
    "host_vertex_count",
    "CacheGCStats",
    "SweepCache",
    "default_cache_dir",
    "point_key",
    "SHAREABLE_FAMILIES",
    "publish_hosts",
    "build_host",
    "execute_point",
    "execute_point_tracked",
    "host_access_counts",
    "host_families",
    "point_from_canonical",
    "Lease",
    "QueueStats",
    "WorkQueue",
    "queue_key",
    "SweepError",
    "SweepOutcome",
    "SweepStats",
    "run_sweep",
    "run_sweeps",
    "run_worker",
    "ensure_outcome",
    "add_sweep_arguments",
    "cache_from_args",
]
