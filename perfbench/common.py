"""Shared plumbing: run context, statistics, environment, result line."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# The end-to-end metrics every workload reports (README.md maps each
# one onto the workload's own operations).  name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "fast_p50_ms": "ms",
    "slow_p50_ms": "ms",
    "batch_s": "s",
}

# Printed with the end-to-end metrics but not gated: on this class of
# shared host a p90 over one run's samples swings too far between runs.
TAIL = {"fast_p90_ms": "ms", "slow_p90_ms": "ms"}

SETUP_REPEATS = 5

# Host normalisation.  The machines this runs on share their cores and
# memory with other tenants, and a fixed numpy loop was measured to take
# anywhere from 33 to 62 ms within one minute on a 2-vCPU host.  Every
# time metric is therefore scaled to a nominal host speed: a measured
# time t becomes t · REF_NOMINAL_S / ref, where ref is the time of the
# fixed reference kernel below measured right next to t (before and
# after it, with the workload quiet).  The raw times are printed too.
REF_NOMINAL_S = 0.0013


class Reference:
    """A fixed mix of the work the library does: random draws, a
    gather, a small-int reduction, and interpreted Python (JSON, dicts)."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._ids = rng.integers(0, 1 << 20, size=200_000).astype(np.int32)
        self._ops = rng.integers(0, 2, size=1 << 20).astype(np.uint8)
        self._doc = {"row": {f"k{i}": i * 0.5 for i in range(40)}, "steps": list(range(60))}

    def _once(self) -> None:
        np = self._np
        u = np.random.default_rng(1).random(100_000)
        g = self._ops.take(self._ids)
        g.sum(dtype=np.uint8)
        u.sum()
        for _ in range(15):
            json.loads(json.dumps(self._doc))

    def time(self, repeats: int = 3) -> float:
        """Fastest of *repeats* runs of the kernel, in seconds."""
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._once()
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a time measured between two reference
        readings into nominal-host time."""
        return REF_NOMINAL_S / ((before * after) ** 0.5)

    def timed(self, fn):
        """``(fn(), raw seconds, nominal-host seconds)``."""
        before = self.time()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        settle()
        return out, wall, wall * self.scale(before, self.time())


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts (Linux).

    A grandchild whose parent exits first (a job worker of a stopped
    server, the resource tracker of a spool worker) is then re-parented
    here instead of to init, so :func:`stop_children` can stop and reap
    it.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Pids of this process's live or unreaped children, from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces and parentheses; the fields
        # after the last ")" are state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reap() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_children(grace: float = 5.0, timeout: float = 30.0) -> None:
    """Stop every process this one started, and wait until each has ended.

    The multiprocessing resource tracker (started by the sweep host
    store's shared memory) ignores SIGTERM and exits once every write
    end of its pipe is closed, so this process's end is closed first.
    Children already on their way out (a process pool shut down without
    waiting) get *grace* seconds; the rest are then sent SIGTERM and,
    past *timeout*, SIGKILL.
    """
    import signal

    tracker = sys.modules.get("multiprocessing.resource_tracker")
    rt = getattr(tracker, "_resource_tracker", None)
    if getattr(rt, "_fd", None) is not None:
        os.close(rt._fd)
        rt._fd = rt._pid = None
    start = time.monotonic()
    while True:
        _reap()
        kids = _children()
        if not kids:
            return
        waited = time.monotonic() - start
        if waited >= grace:
            sig = signal.SIGKILL if waited >= timeout else signal.SIGTERM
            for pid in kids:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def settle(timeout: float = 10.0) -> None:
    """Wait until worker processes left behind by the timed call exit.

    A process pool shut down without waiting tears its workers (and
    their memory) down in the background, which would slow the next
    reference reading.
    """
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    work: Path
    nproc: int = field(default_factory=lambda: max(1, os.cpu_count() or 1))
    # (spans, counters) other processes wrote, collected mid-run by a
    # workload that attributes them to phases (traced runs only).
    collected: list = field(default_factory=list)
    ref: Reference = field(default_factory=Reference)


@dataclass
class Outcome:
    """What a workload's timed phase produced."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    counts: dict[str, float] = field(default_factory=dict)
    names: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    raw: dict[str, float] = field(default_factory=dict)  # before scaling


def pct(values, q: float) -> float:
    """The *q*-th percentile (0 < q < 100) by linear interpolation."""
    values = sorted(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return float(values[0])
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment() -> dict:
    """Machine and library facts that make a number legible elsewhere."""
    import numpy

    from repro.core.dense import dense_kernel_name

    try:
        import numba  # noqa: F401
    except ImportError:
        has_numba = False
    else:
        has_numba = True
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": has_numba,
        "dense_kernel": dense_kernel_name(),
    }


def library_env(ctx: Context) -> dict[str, str]:
    """Environment for subprocesses that import the library from ``src``."""
    env = dict(os.environ)
    paths = [str(ctx.root / "src")]
    if ctx.trace:
        paths.append(str(BENCH_DIR / "boot"))
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure_setup(ctx: Context, ref: Reference) -> tuple[list[float], list[float]]:
    """Raw and host-normalised wall times of the workload's set-up.

    Each repeat starts ``run.py --setup-only`` in a fresh interpreter,
    which imports the library, builds the workload's hosts (or starts its
    server) and makes the warm-up call, then exits.
    """
    times, scaled = [], []
    before = ref.time()
    for _ in range(SETUP_REPEATS):
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", ctx.workload, "--seed", str(ctx.seed),
            "--seconds", "1", "--trace", "0", "--setup-only",
        ]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ctx.root, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        after = ref.time()
        scaled.append(times[-1] * ref.scale(before, after))
        before = after
    return times, scaled


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    """Print the result object as the last line of standard output."""
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(line), flush=True)
