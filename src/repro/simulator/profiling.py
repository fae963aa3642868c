"""Per-phase wall-time accounting for the simulation engines.

``repro-camp gemm --profile`` / ``experiment --profile`` need to answer
"where did this slow point spend its time?" without a full cProfile
run. The engines call :func:`phase` around their few structurally
interesting regions — trace compile, scheduling, bulk memory replay,
multicore arbitration. Everything is a no-op until a :func:`profile`
block activates collection, so the hooks cost one global read on the
hot paths.

Collection is process-global (like the trace-cache counters): pool
workers profile into their own process and their numbers are not
gathered back, so profile with ``--jobs 1`` when the breakdown must
cover every point.
"""

import time
from collections import OrderedDict
from contextlib import contextmanager

_active = False
_phase_seconds = OrderedDict()   # phase name -> cumulative seconds
_phase_calls = OrderedDict()     # phase name -> timed region count


def enabled():
    """Collection is active (inside a :func:`profile` block)."""
    return _active


def reset():
    _phase_seconds.clear()
    _phase_calls.clear()


@contextmanager
def profile():
    """Activate collection for the duration of the block.

    Entering resets any previous numbers, so one block = one report.
    Does not nest (the inner block would clobber the outer's counters);
    the single CLI call site never nests it.
    """
    global _active
    reset()
    _active = True
    try:
        yield
    finally:
        _active = False


@contextmanager
def phase(name):
    """Attribute the block's wall time to ``name`` (no-op when idle).

    Phases may nest (the in-order scheduler's bulk memory replay runs
    inside the schedule phase); each phase accumulates its own wall
    time independently, so nested phases overlap rather than subtract.
    """
    if not _active:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        _phase_seconds[name] = _phase_seconds.get(name, 0.0) + dt
        _phase_calls[name] = _phase_calls.get(name, 0) + 1


def snapshot():
    """The collected numbers as a plain dict (stable ordering)."""
    return {
        "phases": {
            name: {"seconds": _phase_seconds[name],
                   "calls": _phase_calls.get(name, 0)}
            for name in _phase_seconds
        },
    }


def render(data=None):
    """Human-readable report (the ``--profile`` output block)."""
    if data is None:
        data = snapshot()
    lines = ["--- profile ---"]
    phases = data["phases"]
    if phases:
        width = max(len(name) for name in phases)
        for name, entry in phases.items():
            lines.append("%-*s : %8.3f s  (%d calls)"
                         % (width, name, entry["seconds"], entry["calls"]))
        lines.append("(phases nest: memory replay runs inside schedule "
                     "on in-order machines)")
    else:
        lines.append("no engine phases recorded (scalar engine, or the "
                     "run never reached the simulator)")
    return "\n".join(lines)
