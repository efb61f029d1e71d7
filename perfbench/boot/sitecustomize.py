"""Traced-run bootstrap for the subprocesses the library starts itself.

The benchmark puts this directory on ``PYTHONPATH`` only for a traced
run, together with ``PERFBENCH_TRACE_DIR``.  Spool workers and job
workers inherit both through the library's ``worker_env()``, and the
benchmark passes them to the server it starts, so every such process
wraps the same layer boundaries as the benchmark process and appends its
spans to the trace directory.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import atexit
    import signal
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers
    import tracer

    layers.install()
    atexit.register(tracer.flush)
    # A terminated server exits through the interpreter, so atexit runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
