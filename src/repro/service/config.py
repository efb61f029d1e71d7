"""Environment-driven service configuration.

The service is deployed the way the exemplar pipeline services are
(SNIPPETS.md §1): one process, configured entirely through environment
variables, with CLI flags as explicit overrides.  Everything the
``repro serve`` entry point needs lives in one frozen
:class:`ServiceConfig` value so the HTTP layer, the engine facade, and
the job manager are constructed from a single source of truth.

Recognised variables::

    REPRO_SERVICE_HOST              bind address        (default 127.0.0.1)
    REPRO_SERVICE_PORT              bind port           (default 8080)
    REPRO_SERVICE_SPOOL             job spool root      (default ~/.cache/repro-service-jobs)
    REPRO_SERVICE_WORKERS           subprocess workers per sweep job
                                    (default 0: jobs drain in-service threads)
    REPRO_SERVICE_BATCH_WINDOW_MS   micro-batch coalescing window
    REPRO_SERVICE_LEASE_TTL_S       job queue lease duration
    REPRO_SERVICE_MAX_ATTEMPTS      executions per point before quarantine
    REPRO_CACHE_DIR                 response/result cache volume
                                    (read by repro.sweeps.cache, not here)

Nothing here configures the engine itself: its dense thread layout
follows the workload (DESIGN.md §2.10), so a request's result bytes and
cache key depend on the request alone, never on the serving process.

The cache directory is deliberately *not* a service-specific variable:
``REPRO_CACHE_DIR`` is honoured by
:func:`repro.sweeps.cache.default_cache_dir`, so the CLI, spawned
``repro worker`` processes, and the service all resolve the same mounted
volume.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["MAX_JOB_WORKERS", "ServiceConfig"]

MAX_JOB_WORKERS = 16
"""Upper bound on subprocess workers a single job may request."""


@dataclass(frozen=True)
class ServiceConfig:
    """Resolved configuration of one ``repro serve`` process."""

    host: str = "127.0.0.1"
    port: int = 8080
    cache_dir: str | None = None
    cache_max_mb: float | None = None
    spool_root: str | None = None
    job_workers: int = 0
    batch_window_s: float = 0.002
    lease_ttl_s: float = 60.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if not 0 <= self.job_workers <= MAX_JOB_WORKERS:
            raise ValueError(
                f"job_workers must be in [0, {MAX_JOB_WORKERS}], "
                f"got {self.job_workers}"
            )
        if self.batch_window_s < 0:
            raise ValueError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if self.lease_ttl_s <= 0:
            raise ValueError(
                f"lease_ttl_s must be > 0, got {self.lease_ttl_s}"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    @classmethod
    def from_env(cls, **overrides) -> "ServiceConfig":
        """Environment values, with keyword *overrides* (``None`` ignored).

        The override convention matches argparse defaults: a CLI flag the
        user did not pass arrives as ``None`` and leaves the env/default
        value in place.
        """
        env = os.environ
        values: dict = {}
        if env.get("REPRO_SERVICE_HOST"):
            values["host"] = env["REPRO_SERVICE_HOST"]
        if env.get("REPRO_SERVICE_PORT"):
            values["port"] = int(env["REPRO_SERVICE_PORT"])
        if env.get("REPRO_SERVICE_SPOOL"):
            values["spool_root"] = env["REPRO_SERVICE_SPOOL"]
        if env.get("REPRO_SERVICE_WORKERS"):
            values["job_workers"] = int(env["REPRO_SERVICE_WORKERS"])
        if env.get("REPRO_SERVICE_BATCH_WINDOW_MS"):
            values["batch_window_s"] = (
                float(env["REPRO_SERVICE_BATCH_WINDOW_MS"]) / 1000.0
            )
        if env.get("REPRO_SERVICE_LEASE_TTL_S"):
            values["lease_ttl_s"] = float(env["REPRO_SERVICE_LEASE_TTL_S"])
        if env.get("REPRO_SERVICE_MAX_ATTEMPTS"):
            values["max_attempts"] = int(env["REPRO_SERVICE_MAX_ATTEMPTS"])
        known = {f.name for f in fields(cls)}
        for key, value in overrides.items():
            if key not in known:
                raise TypeError(f"unknown ServiceConfig field {key!r}")
            if value is not None:
                values[key] = value
        return cls(**values)

    def resolved_spool_root(self) -> Path:
        """Where job spools live (never inside the cache root: the cache
        GC globs ``*.json`` under its shard directories and must not see
        job metadata)."""
        if self.spool_root is not None:
            return Path(self.spool_root)
        return Path.home() / ".cache" / "repro-service-jobs"
