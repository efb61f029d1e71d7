"""The ``service`` workload: ``repro serve`` under a closed-loop client mix.

The server is a subprocess started with a fresh cache and spool root and
``--workers 1``.  ``nproc`` client threads each send their next request
only after the previous one returned.  Request slots are drawn from the
seed:

* 70% repeats of a point the client already had answered (half of them
  rephrased: ``"best-of-3"`` against ``{"kind": "best_of_k", "k": 3}``);
* 20% fresh small points on K_{2^14}, a 4-part multipartite host or a
  side-32 rook host, with 20 trials;
* 10% barrier bursts: every client sends the same fresh point at once,
  which the server's micro-batcher coalesces.

After the loop, seven small ``POST /v1/sweeps`` jobs run one at a time
and are polled until done.
"""

from __future__ import annotations

import http.client
import json
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from common import Context, Outcome, library_env, median, pct

HOSTS = (
    {"family": "complete", "n": 16384},
    {"family": "complete_multipartite", "sizes": [4096] * 4},
    {"family": "rook", "side": 32},
)
PHRASINGS = ("best-of-3", {"kind": "best_of_k", "k": 3})
DELTAS = (0.1, 0.05, 0.02)
TRIALS = 20
# Job time is quantised by worker start-up and polling; the mean of
# seven jobs is steadier between runs than any one job or their median.
JOB_REPEATS = 7
WINDOW_S = 1.0  # closed-loop window between host reference readings
SAMPLE_CHECKS = 4


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    log: object
    warm_point: dict = field(default_factory=dict)


def _request(port: int, method: str, path: str, body=None, timeout: float = 60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _point(host: dict, delta: float, seed: list, phrasing: int) -> dict:
    return {
        "host": host,
        "protocol": PHRASINGS[phrasing],
        "init": {"delta": delta},
        "trials": TRIALS,
        "seed": seed,
    }


def _key(body: dict) -> str:
    return json.dumps([body["host"], body["init"], body["seed"]], sort_keys=True)


def setup(ctx: Context) -> Server:
    tag = f"{time.monotonic_ns()}"
    log = open(ctx.work / f"server-{tag}.log", "w+", encoding="utf-8")
    env = dict(library_env(ctx), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(ctx.work / f"cache-{tag}"),
         "--spool-root", str(ctx.work / f"spool-{tag}"),
         "--workers", "1"],
        cwd=ctx.root, env=env, stdout=log, stderr=subprocess.STDOUT,
    )
    port = None
    deadline = time.monotonic() + 60
    while port is None:
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError("server did not start; see its log")
        log.seek(0)
        for line in log.read().splitlines():
            if "listening on http://" in line:
                port = int(line.rsplit(":", 1)[1])
        time.sleep(0.005)
    server = Server(proc, port, log)
    while True:
        try:
            if _request(port, "GET", "/v1/health")[0] == 200:
                break
        except OSError:
            pass
        time.sleep(0.005)
    server.warm_point = _point(HOSTS[0], 0.1, [ctx.seed, 0, 0], 0)
    status, _ = _request(port, "POST", "/v1/ensemble", server.warm_point)
    if status != 200:
        raise RuntimeError(f"warm-up request failed with HTTP {status}")
    return server


def teardown(server: Server) -> None:
    server.proc.terminate()
    try:
        server.proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.wait()
    server.log.close()


class _Loop:
    """Shared state of the closed-loop clients."""

    def __init__(self, ctx: Context, server: Server) -> None:
        self.ctx = ctx
        self.port = server.port
        self.clients = ctx.nproc
        self.barrier = threading.Barrier(self.clients)
        self.lock = threading.Lock()
        self.first: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        # (start, end, cached) per answered request
        self.records: list[tuple[float, float, bool]] = []
        # Clients pause at window boundaries while the benchmark reads
        # the host reference with the system quiet.
        self.gate = threading.Event()
        self.gate.set()
        self.idle = threading.Condition(self.lock)
        self.inflight = 0
        self.notes: list[str] = []
        self.fresh: list[dict] = []
        schedule = np.random.default_rng([ctx.seed, 3])
        # Slot kinds shared by every client: 0 repeat, 1 fresh, 2 burst.
        self.kinds = schedule.choice(3, size=200_000, p=[0.7, 0.2, 0.1])
        self.warm_point = server.warm_point

    def send(self, body: dict) -> None:
        self.gate.wait()
        with self.lock:
            self.inflight += 1
        t0 = time.perf_counter()
        try:
            status, raw = _request(self.port, "POST", "/v1/ensemble", body)
        except OSError as exc:
            status, raw = 0, str(exc).encode()
        done = time.perf_counter()
        with self.lock:
            self.inflight -= 1
            self.idle.notify_all()
            self.attempted += 1
            if status != 200:
                self.failed += 1
                self.notes.append(f"HTTP {status}: {raw[:200]!r}")
                return
            reply = json.loads(raw)
            self.records.append((t0, done, reply.pop("cached")))
            canon = json.dumps(reply, sort_keys=True).encode()
            first = self.first.setdefault(_key(body), canon)
            if first != canon:
                self.failed += 1
                self.notes.append(f"reply differs from first reply for {_key(body)}")

    def pause(self) -> None:
        """Hold new requests and wait for in-flight ones to finish."""
        self.gate.clear()
        with self.idle:
            self.idle.wait_for(lambda: self.inflight == 0, timeout=60)

    def client(self, cid: int, deadline: float) -> None:
        rng = np.random.default_rng([self.ctx.seed, 4, cid])
        answered = [self.warm_point]
        try:
            for slot, kind in enumerate(self.kinds):
                if time.perf_counter() > deadline:
                    break
                if kind == 0:
                    base = answered[int(rng.integers(len(answered)))]
                    body = dict(base, protocol=PHRASINGS[int(rng.integers(2))])
                elif kind == 1:
                    host = HOSTS[int(rng.integers(len(HOSTS)))]
                    body = _point(host, float(rng.choice(DELTAS)),
                                  [self.ctx.seed, 1 + cid, slot], int(rng.integers(2)))
                    with self.lock:
                        self.fresh.append(body)
                else:
                    body = _point(HOSTS[slot % 2], DELTAS[slot % 3],
                                  [self.ctx.seed, 99, slot], slot % 2)
                    self.gate.wait()
                    self.barrier.wait(timeout=60)
                self.send(body)
                if kind:
                    answered.append(body)
        except threading.BrokenBarrierError:
            pass
        finally:
            self.barrier.abort()  # a peer waiting at a burst stops too


def _run_job(port: int, seed: int, i: int) -> str | None:
    """Submit one small sweep job and poll it; what went wrong, if anything."""
    body = {
        "name": f"bench-{seed}-{i}",
        "hosts": [{"family": "complete", "n": 4096}, {"family": "rook", "side": 16}],
        "protocols": ["best-of-3"],
        "inits": [{"delta": 0.1}, {"delta": 0.05}],
        "trials": 10,
        "max_steps": 500,
        "seed": [seed, 5, i],
    }
    status, raw = _request(port, "POST", "/v1/sweeps", body)
    if status not in (200, 202):
        return f"job submit HTTP {status}"
    job = json.loads(raw)["job_id"]
    while True:
        status, raw = _request(port, "GET", f"/v1/jobs/{job}")
        state = json.loads(raw).get("state") if status == 200 else None
        if state != "running":
            return None if state == "done" else f"job {job} ended {state!r}"
        time.sleep(0.01)


def _library_rows(bodies: list[dict]) -> list[bytes]:
    """What the library itself answers for these request bodies."""
    from repro.analysis.tables import sweep_summary_rows
    from repro.io.results import payload_to_dict
    from repro.service.jobs import json_safe_cell
    from repro.service.requests import parse_point_request
    from repro.sweeps.runner import execute_point

    out = []
    for body in bodies:
        point = parse_point_request(body)
        payload = execute_point(point)
        (row,) = sweep_summary_rows([(point, payload)])
        out.append(json.dumps({
            "row": {k: json_safe_cell(v) for k, v in row.items()},
            "result": payload_to_dict(payload),
        }, sort_keys=True).encode())
    return out


def run(ctx: Context, server: Server) -> Outcome:
    loop = _Loop(ctx, server)
    if ctx.trace:
        _server_spans(ctx)  # set-up requests stay out of the loop's share
    ref = ctx.ref
    refs = [ref.time()]
    start = time.perf_counter()
    deadline = start + ctx.seconds
    windows = [start]  # window k runs from windows[k] to ends[k]
    ends = []
    threads = [threading.Thread(target=loop.client, args=(c, deadline))
               for c in range(loop.clients)]
    for t in threads:
        t.start()
    while time.perf_counter() + WINDOW_S < deadline:
        time.sleep(WINDOW_S)
        loop.pause()
        ends.append(time.perf_counter())
        refs.append(ref.time())
        windows.append(time.perf_counter())
        loop.gate.set()
    for t in threads:
        t.join()
    ends.append(time.perf_counter())
    refs.append(ref.time())
    hit, miss, raw_hit, raw_miss, rates, raw_rates = [], [], [], [], [], []
    for k, (lo, hi) in enumerate(zip(windows, ends)):
        scale = ref.scale(refs[k], refs[k + 1])
        inside = [r for r in loop.records if lo <= r[0] < hi]
        for t0, t1, cached in inside:
            (hit if cached else miss).append((t1 - t0) * scale * 1e3)
            (raw_hit if cached else raw_miss).append((t1 - t0) * 1e3)
        if hi - lo >= WINDOW_S / 2:
            rates.append(len(inside) / ((hi - lo) * scale))
            raw_rates.append(len(inside) / (hi - lo))
    if ctx.trace:
        # Σ client latency not spent inside the server's dispatch.
        dispatch_s = sum(s[2] - s[1] for s in _server_spans(ctx)
                         if s[0] == "service.app.dispatch")
        http_s = (sum(raw_hit) + sum(raw_miss)) / 1e3 - dispatch_s
    status, raw = _request(server.port, "GET", "/v1/stats")
    stats = json.loads(raw) if status == 200 else {}

    # A seeded sample of fresh points must match the library's answer.
    pick = np.random.default_rng([ctx.seed, 6])
    bodies = [loop.fresh[int(i)] for i in
              pick.choice(len(loop.fresh), size=min(SAMPLE_CHECKS, len(loop.fresh)),
                          replace=False)]
    for body, expected in zip(bodies, _library_rows(bodies)):
        reply = json.loads(loop.first[_key(body)])
        got = json.dumps({"row": reply["row"], "result": reply["result"]},
                         sort_keys=True).encode()
        loop.attempted += 1
        if got != expected:
            loop.failed += 1
            loop.notes.append(f"service row differs from execute_point for {_key(body)}")

    jobs, raw_jobs = [], []
    for i in range(JOB_REPEATS):
        problem, wall, scaled = ref.timed(lambda: _run_job(server.port, ctx.seed, i))
        jobs.append(scaled)
        raw_jobs.append(wall)
        loop.attempted += 1
        if problem:
            loop.failed += 1
            loop.notes.append(problem)

    counts = {
        "requests": len(hit) + len(miss),
        "hits": len(hit),
        "misses": len(miss),
        "service.engine.engine_calls": stats.get("engine_calls", 0),
        "service.batcher.coalesced": stats.get("coalesced", 0),
        "cache_entries": stats.get("cache_entries", 0),
        "sweep_jobs": JOB_REPEATS,
    }
    if ctx.trace:
        counts["service.http_s"] = http_s
    metrics = {
        "throughput_per_s": median(rates),
        "fast_p50_ms": median(hit),
        "fast_p90_ms": pct(hit, 90),
        "slow_p50_ms": median(miss),
        "slow_p90_ms": pct(miss, 90),
        "batch_s": statistics.fmean(jobs),
    }
    raw = {
        "throughput_per_s": median(raw_rates),
        "fast_p50_ms": median(raw_hit),
        "slow_p50_ms": median(raw_miss),
        "batch_s": statistics.fmean(raw_jobs),
    }
    names = {
        "throughput_per_s": "requests_per_s, median over one-second windows",
        "fast_p50_ms": "hit_p50_ms",
        "fast_p90_ms": "hit_p90_ms",
        "slow_p50_ms": "miss_p50_ms",
        "slow_p90_ms": "miss_p90_ms",
        "batch_s": "job_s (sweep job submit to done), mean over jobs",
    }
    return Outcome(metrics, loop.attempted, loop.failed, counts, names,
                   loop.notes[:20], raw)


def _server_spans(ctx: Context) -> list[tuple]:
    """Spans other processes wrote so far (the server flushes its spans
    as each request's dispatch closes, before the reply is sent)."""
    import os

    import tracer

    ctx.collected.append(tracer.collect(os.environ[tracer.TRACE_DIR_ENV]))
    return ctx.collected[-1][0]
