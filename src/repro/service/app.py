"""The HTTP surface: stdlib-only routing over the service core.

No web framework is assumed (the container ships no FastAPI/Flask):
the app is a plain :class:`ServiceApp` whose :meth:`~ServiceApp.dispatch`
maps ``(method, target, body)`` to a :class:`Response`, and a thin
:class:`~http.server.BaseHTTPRequestHandler` adapter feeds it from a
:class:`~http.server.ThreadingHTTPServer`.  Keeping dispatch free of
socket types is what makes the routing layer unit-testable without
binding a port — the HTTP tests drive ``dispatch`` directly and only a
couple of smoke tests start a real server.

Endpoints (all JSON unless noted)::

    GET  /v1/health             liveness + version
    GET  /v1/stats              cache hit rate, engine calls, coalesced
                                bursts, queue depth, worker liveness
    POST /v1/ensemble           run (or serve from cache) one ensemble
    POST /v1/compare            protocols side by side, one table
    POST /v1/sweeps             submit a grid as an async job (202)
    GET  /v1/jobs               every job's status
    GET  /v1/jobs/{id}          poll one job
    GET  /v1/jobs/{id}/rows     summary rows landed so far (NDJSON);
                                ``?stream=1`` holds the connection and
                                streams each row as it completes
    GET  /v1/jobs/{id}/table    the summary table (text/plain) —
                                byte-identical to ``repro sweep`` output
    GET  /v1/jobs/{id}/results  full payloads of the done points

Error contract: a body that cannot be parsed into a valid spec is a 400
with ``{"error": ...}`` carrying the validation message verbatim; an
unknown route or job id is a 404; anything unexpected is a 500 whose
body names the exception type but not a traceback.
"""

from __future__ import annotations

import json
import re
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterator
from urllib.parse import parse_qs, urlsplit

import repro._version
from repro.analysis.tables import (
    SWEEP_SUMMARY_COLUMNS,
    format_table,
    sweep_summary_rows,
)
from repro.io.results import payload_to_dict
from repro.service.config import ServiceConfig
from repro.service.engine import ServiceEngine
from repro.service.jobs import JobManager, json_safe_cell
from repro.service.requests import (
    RequestError,
    parse_compare_request,
    parse_point_request,
    parse_sweep_request,
)
from repro.sweeps.cache import SweepCache
from repro.sweeps.queue import queue_key

__all__ = ["Response", "ServiceApp", "make_server", "serve"]


class Response:
    """One dispatch result: status + JSON body, text, or an NDJSON stream."""

    def __init__(
        self,
        status: int,
        body: Any = None,
        *,
        text: str | None = None,
        stream: Iterator[dict] | None = None,
    ) -> None:
        self.status = status
        self.body = body
        self.text = text
        self.stream = stream
        if stream is not None:
            self.content_type = "application/x-ndjson"
        elif text is not None:
            self.content_type = "text/plain; charset=utf-8"
        else:
            self.content_type = "application/json"

    def json(self) -> Any:
        """The decoded body (tests' convenience accessor)."""
        return self.body

    def encode(self) -> bytes | None:
        """The response bytes, or ``None`` for a stream (write per-row)."""
        if self.stream is not None:
            return None
        if self.text is not None:
            return self.text.encode("utf-8")
        return (json.dumps(self.body, indent=1) + "\n").encode("utf-8")


def _error(status: int, message: str) -> Response:
    return Response(status, {"error": message})


class ServiceApp:
    """Routing + handlers over one engine and one job manager."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        cache = SweepCache(
            self.config.cache_dir, max_mb=self.config.cache_max_mb
        )
        self.engine = ServiceEngine(
            cache, batch_window_s=self.config.batch_window_s
        )
        self.jobs = JobManager(
            self.config.resolved_spool_root(),
            cache,
            workers=self.config.job_workers,
            lease_ttl_s=self.config.lease_ttl_s,
            max_attempts=self.config.max_attempts,
        )
        # (method, compiled path regex) -> handler(match, query, body)
        self._routes: list[tuple[str, re.Pattern, Callable]] = [
            ("GET", re.compile(r"^/v1/health$"), self._health),
            ("GET", re.compile(r"^/v1/stats$"), self._stats),
            ("POST", re.compile(r"^/v1/ensemble$"), self._ensemble),
            ("POST", re.compile(r"^/v1/compare$"), self._compare),
            ("POST", re.compile(r"^/v1/sweeps$"), self._submit_sweep),
            ("GET", re.compile(r"^/v1/jobs$"), self._list_jobs),
            ("GET", re.compile(r"^/v1/jobs/(?P<job>[\w-]+)$"), self._job_status),
            (
                "GET",
                re.compile(r"^/v1/jobs/(?P<job>[\w-]+)/rows$"),
                self._job_rows,
            ),
            (
                "GET",
                re.compile(r"^/v1/jobs/(?P<job>[\w-]+)/table$"),
                self._job_table,
            ),
            (
                "GET",
                re.compile(r"^/v1/jobs/(?P<job>[\w-]+)/results$"),
                self._job_results,
            ),
        ]

    # -- dispatch ------------------------------------------------------

    def dispatch(self, method: str, target: str, body: bytes | None = None) -> Response:
        """Route one request.  Socket-free: the unit-test entry point."""
        split = urlsplit(target)
        path = split.path
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        matched_path = False
        for route_method, pattern, handler in self._routes:
            match = pattern.match(path)
            if match is None:
                continue
            matched_path = True
            if route_method != method:
                continue
            try:
                payload = self._decode_body(body) if method == "POST" else None
            except RequestError as exc:
                return _error(400, str(exc))
            try:
                return handler(match, query, payload)
            except RequestError as exc:
                return _error(400, str(exc))
            except Exception as exc:  # noqa: BLE001 - the 500 boundary
                return _error(500, f"{type(exc).__name__}: {exc}")
        if matched_path:
            return _error(405, f"method {method} not allowed for {path}")
        return _error(404, f"no route for {path}")

    @staticmethod
    def _decode_body(body: bytes | None) -> Any:
        if not body:
            raise RequestError("request needs a JSON body")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise RequestError("request body is not valid JSON") from None

    # -- handlers ------------------------------------------------------

    def _health(self, match, query, body) -> Response:
        return Response(
            200,
            {"status": "ok", "version": repro._version.__version__},
        )

    def _stats(self, match, query, body) -> Response:
        stats = self.engine.stats()
        stats["queue_depth"] = self.jobs.queue_depth()
        stats["workers"] = self.jobs.worker_liveness()
        stats["version"] = repro._version.__version__
        return Response(200, stats)

    def _ensemble(self, match, query, body) -> Response:
        point = parse_point_request(body)
        payload, cached = self.engine.execute(point)
        (row,) = sweep_summary_rows([(point, payload)])
        return Response(
            200,
            {
                "point": point.label or queue_key(point)[:12],
                "cached": cached,
                "row": {k: json_safe_cell(v) for k, v in row.items()},
                "result": payload_to_dict(payload),
            },
        )

    def _compare(self, match, query, body) -> Response:
        points = parse_compare_request(body)
        pairs = []
        cached_flags = []
        for point in points:
            payload, cached = self.engine.execute(point)
            pairs.append((point, payload))
            cached_flags.append(cached)
        rows = sweep_summary_rows(pairs)
        return Response(
            200,
            {
                "cached": cached_flags,
                "rows": [
                    {k: json_safe_cell(v) for k, v in row.items()} for row in rows
                ],
                "table": format_table(SWEEP_SUMMARY_COLUMNS, rows),
                "results": {
                    (p.label or queue_key(p)[:12]): payload_to_dict(payload)
                    for p, payload in pairs
                },
            },
        )

    def _submit_sweep(self, match, query, body) -> Response:
        spec = parse_sweep_request(body)
        job_id, created = self.jobs.submit(spec)
        status = self.jobs.status(job_id)
        return Response(
            202 if created else 200,
            {"job_id": job_id, "created": created, "status": status},
        )

    def _list_jobs(self, match, query, body) -> Response:
        return Response(200, {"jobs": self.jobs.list_jobs()})

    def _job_status(self, match, query, body) -> Response:
        status = self.jobs.status(match.group("job"))
        if status is None:
            return _error(404, f"unknown job {match.group('job')!r}")
        return Response(200, status)

    def _job_rows(self, match, query, body) -> Response:
        job_id = match.group("job")
        if self.jobs.status(job_id) is None:
            return _error(404, f"unknown job {job_id!r}")
        if query.get("stream") in ("1", "true", "yes"):
            timeout = float(query["timeout_s"]) if "timeout_s" in query else None
            return Response(
                200, stream=self.jobs.iter_rows(job_id, timeout_s=timeout)
            )
        rows = self.jobs.rows(job_id)
        return Response(200, stream=iter(rows or []))

    def _job_table(self, match, query, body) -> Response:
        table = self.jobs.table(match.group("job"))
        if table is None:
            return _error(404, f"unknown job {match.group('job')!r}")
        return Response(200, text=table + "\n")

    def _job_results(self, match, query, body) -> Response:
        results = self.jobs.results(match.group("job"))
        if results is None:
            return _error(404, f"unknown job {match.group('job')!r}")
        return Response(200, {"results": results})


class _Handler(BaseHTTPRequestHandler):
    """Socket adapter: reads the body, defers to ``app.dispatch``.

    HTTP/1.0 with ``Connection: close`` keeps the contract simple: one
    request per connection, and an NDJSON stream ends when the socket
    closes.  ``log_message`` is silenced — the service is often run
    under pytest and CI where default stderr chatter is noise.
    """

    app: ServiceApp  # bound by make_server via a subclass attribute
    protocol_version = "HTTP/1.0"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _respond(self, response: Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        body = response.encode()
        if body is not None:
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self.end_headers()
        try:
            for row in response.stream:
                self.wfile.write((json.dumps(row) + "\n").encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up mid-stream; nothing to clean up

    def _handle(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else None
        try:
            response = self.app.dispatch(method, self.path, body)
        except Exception as exc:  # pragma: no cover - dispatch catches
            response = _error(500, f"{type(exc).__name__}: {exc}")
        self._respond(response)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")


def make_server(
    app: ServiceApp, *, host: str | None = None, port: int | None = None
) -> ThreadingHTTPServer:
    """A bound (not yet serving) threaded server for *app*.

    ``port=0`` asks the OS for an ephemeral port — the tests' pattern —
    readable back from ``server.server_address``.
    """
    handler = type("BoundHandler", (_Handler,), {"app": app})
    bind_host = host if host is not None else app.config.host
    bind_port = port if port is not None else app.config.port
    return ThreadingHTTPServer((bind_host, bind_port), handler)


def serve(config: ServiceConfig | None = None) -> None:
    """Blocking entry point behind ``repro serve``."""
    app = ServiceApp(config)
    server = make_server(app)
    host, port = server.server_address[:2]
    # One write, then a flush: a supervisor that shares this file's
    # offset and polls it with seek/read can otherwise see a later line
    # land at offset 0 over the first, and a block-buffered file shows
    # nothing until exit.
    sys.stdout.write(
        f"repro service listening on http://{host}:{port}\n"
        f"  cache: {app.engine.cache.root}\n"
        f"  jobs:  {app.jobs.spool_root} (workers={app.config.job_workers})\n"
    )
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
