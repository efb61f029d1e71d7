"""Which library functions the traced run wraps, and the per-layer ledger.

:func:`install` wraps the public entry points of each layer (see the
layer table in ``README.md``); :func:`ledger` turns the recorded spans
and counters into the per-layer metrics.  Every workload reports every
metric, so a layer a workload never enters reads 0.
"""

from __future__ import annotations

import tracer

# name -> unit, in report order.
METRICS = {
    "graphs.sample_s": "s",
    "graphs.sample_s.RookGraph": "s",
    "graphs.sample_s.CSRGraph": "s",
    "graphs.sample_bytes_per_sample": "B",
    "graphs.sample_bytes_per_sample.RookGraph": "B",
    "graphs.sample_bytes_per_sample.CSRGraph": "B",
    "core.dense.step_s": "s",
    "core.dense.samples": "count",
    "core.dense.bytes_per_sample": "B",
    "core.dense.bytes_per_sample.gather": "B",
    "core.dense.bytes_per_sample.vote": "B",
    "core.opinions.init_s": "s",
    "util.rng.spawn_s": "s",
    "util.rng.streams": "count",
    "core.kernels.initial_state_s": "s",
    "core.protocols.kernel_step_s": "s",
    "core.kernels.replica_rounds": "count",
    "core.ensemble.self_s": "s",
    "core.ensemble.calls": "count",
    "core.ensemble.calls_by_route.batched_serial": "count",
    "core.ensemble.calls_by_route.batched_threaded": "count",
    "core.ensemble.calls_by_route.count_chain": "count",
    "sweeps.spec.canonical_s": "s",
    "sweeps.cache.get_s": "s",
    "sweeps.cache.get_calls": "count",
    "sweeps.cache.hits": "count",
    "sweeps.cache.put_s": "s",
    "sweeps.cache.put_calls": "count",
    "sweeps.cache.put_bytes": "B",
    "sweeps.hoststore.publish_s": "s",
    "sweeps.runner.host_builds": "count",
    "sweeps.runner.host_attaches": "count",
    "sweeps.runner.execute_s": "s",
    "sweeps.runner.execute_calls": "count",
    "sweeps.scheduler.self_s": "s",
    "sweeps.scheduler.utilization.pool": "ratio",
    "sweeps.scheduler.utilization.spool": "ratio",
    "sweeps.queue.points_max_share": "ratio",
    "sweeps.queue.retries": "count",
    "sweeps.queue.requeues": "count",
    "sweeps.queue.poisoned": "count",
    "service.http_s": "s",
    "service.requests.parse_s": "s",
    "service.encode_s": "s",
    "service.engine.execute_s": "s",
    "service.engine.engine_calls": "count",
    "service.batcher.wait_s": "s",
    "service.batcher.coalesced": "count",
    "trace.spans": "count",
    "trace.overhead_share": "ratio",
    "env.nproc": "count",
    "env.numba": "count",
}

# Bytes of one uniform draw in the samplers (float64 uniforms for CSR,
# int64 integer draws on the generic path): both are 8 bytes wide.
_DRAW_BYTES = 8

# Sample id width seen by the last sampler call, for the gather bytes.
_state: dict = {}


def _route(result, args, kwargs) -> None:
    tracer.count("core.ensemble.calls")
    if result.method == "count_chain":
        route = "count_chain"
    else:
        route = "batched_threaded" if result.threads else "batched_serial"
    tracer.count(f"core.ensemble.calls_by_route.{route}")


def _dense_step(result, args, kwargs) -> None:
    graph, opinions, k = args[0], args[1], args[2]
    rows, n = opinions.shape
    samples = rows * n * k
    tracer.count("core.dense.samples", samples)
    vote = 1 if k < 256 else 8
    # Gather: the in-place row-offset add reads and writes the sample id,
    # the take reads it again plus one opinion byte and writes one
    # gathered byte.  Vote: reads the gathered byte; per vertex (every k
    # samples) writes and re-reads the vote count and writes the opinion.
    index_bytes = _state.get("index_bytes", 8)
    tracer.count("dense.gather_bytes", samples * (3 * index_bytes + 2))
    tracer.count("dense.vote_bytes", samples * (1 + (2 * vote + 1) / k))


def _sampled(result, args, kwargs) -> None:
    cls = type(args[0]).__name__
    _state["index_bytes"] = result.itemsize
    tracer.count(f"graphs.samples.{cls}", result.size)
    tracer.count(f"graphs.sample_bytes.{cls}", result.size * (_DRAW_BYTES + result.itemsize))


def _spawned(result, args, kwargs) -> None:
    tracer.count("util.rng.streams", len(result))


def _kernel_step(result, args, kwargs) -> None:
    tracer.count("core.kernels.replica_rounds", args[2].shape[0])


def _cache_get(result, args, kwargs) -> None:
    tracer.count("sweeps.cache.hits", result is not None)


def _cache_put(result, args, kwargs) -> None:
    if result is not None:
        tracer.count("sweeps.cache.put_bytes", result.stat().st_size)


def install() -> None:
    """Wrap every layer boundary the ledger reports."""
    import repro.core.dense as dense
    import repro.core.ensemble as ensemble
    import repro.core.kernels as kernels
    import repro.core.opinions as opinions
    import repro.core.protocols as protocols
    import repro.graphs as graphs
    import repro.io.results as results
    import repro.service.app as app
    import repro.service.batcher as batcher
    import repro.service.engine as engine
    import repro.service.requests as requests
    import repro.sweeps.cache as cache
    import repro.sweeps.hoststore as hoststore
    import repro.sweeps.runner as runner
    import repro.sweeps.scheduler as scheduler
    import repro.sweeps.spec as spec
    import repro.util.rng as rng

    tracer.wrap_function(ensemble, "run_ensemble", "core.ensemble.run_ensemble", _route)
    tracer.wrap_function(dense, "step_best_of_k_batch", "core.dense.step", _dense_step)
    tracer.wrap_function(opinions, "random_opinions", "core.opinions.random_opinions")
    tracer.wrap_function(rng, "spawn_generators", "util.rng.spawn_generators", _spawned)
    for cls in _subclasses(graphs.Graph):
        if "sample_neighbors_batch" in cls.__dict__:
            tracer.wrap_method(
                cls, "sample_neighbors_batch",
                lambda self: f"graphs.sample.{type(self).__name__}", _sampled,
            )
    for cls in _subclasses(kernels.CountChainKernel):
        if "initial_state" in cls.__dict__:
            tracer.wrap_method(cls, "initial_state", "core.kernels.initial_state")
    for cls in _subclasses(protocols.Protocol):
        if "kernel_step" in cls.__dict__:
            tracer.wrap_method(cls, "kernel_step", "core.protocols.kernel_step", _kernel_step)

    tracer.wrap_function(spec, "canonical_point", "sweeps.spec.canonical_point")
    tracer.wrap_method(cache.SweepCache, "get", "sweeps.cache.get", _cache_get)
    tracer.wrap_method(cache.SweepCache, "put", "sweeps.cache.put", _cache_put)
    tracer.wrap_function(hoststore, "publish_hosts", "sweeps.hoststore.publish_hosts")
    tracer.wrap_function(runner, "execute_point", "sweeps.runner.execute_point")
    tracer.wrap_function(scheduler, "run_sweeps", "sweeps.scheduler.run_sweeps")

    tracer.wrap_function(requests, "parse_point_request", "service.requests.parse")
    tracer.wrap_function(results, "payload_to_dict", "io.results.payload_to_dict")
    tracer.wrap_method(app.Response, "encode", "service.response.encode")
    tracer.wrap_method(app.ServiceApp, "dispatch", "service.app.dispatch")
    tracer.wrap_method(engine.ServiceEngine, "execute", "service.engine.execute")
    tracer.wrap_method(batcher.MicroBatcher, "run", "service.batcher.run")


def _subclasses(root) -> list[type]:
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def ledger(spans: list[tuple], counters: dict) -> dict[str, float]:
    """Per-layer metrics from merged spans and counters (missing → 0)."""
    total, own, calls = tracer.self_times(spans)
    c = counters.get
    out = dict.fromkeys(METRICS, 0.0)
    for cls in ("RookGraph", "CSRGraph"):
        out[f"graphs.sample_s.{cls}"] = own.get(f"graphs.sample.{cls}", 0.0)
        if c(f"graphs.samples.{cls}"):
            out[f"graphs.sample_bytes_per_sample.{cls}"] = (
                c(f"graphs.sample_bytes.{cls}") / c(f"graphs.samples.{cls}")
            )
    out["graphs.sample_s"] = sum(
        v for k, v in own.items() if k.startswith("graphs.sample.")
    )
    sampled = sum(v for k, v in counters.items() if k.startswith("graphs.samples."))
    if sampled:
        out["graphs.sample_bytes_per_sample"] = sum(
            v for k, v in counters.items() if k.startswith("graphs.sample_bytes.")
        ) / sampled
    out["core.dense.step_s"] = own.get("core.dense.step", 0.0)
    samples = c("core.dense.samples", 0)
    out["core.dense.samples"] = samples
    if samples:
        out["core.dense.bytes_per_sample.gather"] = c("dense.gather_bytes") / samples
        out["core.dense.bytes_per_sample.vote"] = c("dense.vote_bytes") / samples
        out["core.dense.bytes_per_sample"] = (
            out["core.dense.bytes_per_sample.gather"]
            + out["core.dense.bytes_per_sample.vote"]
        )
    out["core.opinions.init_s"] = total.get("core.opinions.random_opinions", 0.0)
    out["util.rng.spawn_s"] = total.get("util.rng.spawn_generators", 0.0)
    out["util.rng.streams"] = c("util.rng.streams", 0)
    out["core.kernels.initial_state_s"] = own.get("core.kernels.initial_state", 0.0)
    out["core.protocols.kernel_step_s"] = total.get("core.protocols.kernel_step", 0.0)
    out["core.kernels.replica_rounds"] = c("core.kernels.replica_rounds", 0)
    out["core.ensemble.self_s"] = own.get("core.ensemble.run_ensemble", 0.0)
    for key in METRICS:
        if key.startswith("core.ensemble.calls"):
            out[key] = c(key, 0)
    out["sweeps.spec.canonical_s"] = total.get("sweeps.spec.canonical_point", 0.0)
    out["sweeps.cache.get_s"] = own.get("sweeps.cache.get", 0.0)
    out["sweeps.cache.get_calls"] = calls.get("sweeps.cache.get", 0)
    out["sweeps.cache.hits"] = c("sweeps.cache.hits", 0)
    out["sweeps.cache.put_s"] = own.get("sweeps.cache.put", 0.0)
    out["sweeps.cache.put_calls"] = calls.get("sweeps.cache.put", 0)
    out["sweeps.cache.put_bytes"] = c("sweeps.cache.put_bytes", 0)
    out["sweeps.hoststore.publish_s"] = own.get("sweeps.hoststore.publish_hosts", 0.0)
    out["sweeps.runner.execute_s"] = total.get("sweeps.runner.execute_point", 0.0)
    out["sweeps.runner.execute_calls"] = calls.get("sweeps.runner.execute_point", 0)
    out["sweeps.scheduler.self_s"] = own.get("sweeps.scheduler.run_sweeps", 0.0)
    out["service.requests.parse_s"] = total.get("service.requests.parse", 0.0)
    dispatch_ids = {s[3] for s in spans if s[0] == "service.app.dispatch"}
    out["service.encode_s"] = total.get("service.response.encode", 0.0) + sum(
        s[2] - s[1]
        for s in spans
        if s[0] == "io.results.payload_to_dict" and s[4] in dispatch_ids
    )
    out["service.engine.execute_s"] = total.get("service.engine.execute", 0.0)
    out["service.batcher.wait_s"] = own.get("service.batcher.run", 0.0)
    out["trace.spans"] = len(spans)
    for key, value in counters.items():
        if key in out and not key.startswith(("core.", "graphs.", "util.")):
            out[key] = value
    return out
