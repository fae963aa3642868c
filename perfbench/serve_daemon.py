"""Launch ``repro-camp serve`` for the serve-mixed workload.

Usage: ``python3 perfbench/serve_daemon.py [--trace-dir DIR] -- SERVE ARGS``

Without ``--trace-dir`` this is exactly ``python -m repro.cli serve``.
With it, the layer tracer is installed before the daemon starts, and
the daemon's totals are written after it shuts down on SIGTERM. The
daemon's layers are timed in per-thread CPU time (see ``tracer.py``).
"""

import sys
import time
from pathlib import Path


def main(argv):
    trace_dir = None
    if argv and argv[0] == "--trace-dir":
        trace_dir, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    from repro import cli

    tracer = None
    if trace_dir is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracer_module

        # handler threads share the interpreter lock: time CPU per thread
        tracer = tracer_module.install(trace_dir, role="daemon",
                                       clock=time.thread_time)
    code = cli.main(["serve"] + argv)
    if tracer is not None:
        tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
