"""Pipeline engine selection.

Two engines produce bit-identical :class:`~repro.simulator.stats.SimStats`:

- ``"batch"`` (default) — the vectorized scoreboard in
  :mod:`repro.simulator.batch_pipeline`: compiles the trace once into
  structure-of-arrays form and schedules it with direct issue
  (in-order machines) or a windowed scan (out-of-order machines).
- ``"scalar"`` — the original cycle-by-cycle reference loop in
  :mod:`repro.simulator.pipeline`, kept as the semantic model the batch
  engine is equivalence-tested against.

The process-wide default is resolved, in order, from an explicit
:func:`set_default_engine` call, the ``REPRO_PIPELINE_ENGINE``
environment variable, and finally ``"batch"``. The environment variable
is re-read on every query so orchestrator worker processes (forked or
spawned after the CLI sets it) inherit the choice.

The batch engine's cross-run compiled-trace cache
(:mod:`repro.simulator.trace_cache`) is toggled the same way —
``REPRO_NO_TRACE_CACHE`` in the environment, an explicit
:func:`set_trace_cache_enabled` override, or the :func:`trace_caching`
context manager — and this module re-exports that control surface so
engine selection and engine caching are configured in one place.
"""

import os
from contextlib import contextmanager

ENGINES = ("batch", "scalar")

_ENV_VAR = "REPRO_PIPELINE_ENGINE"
_default = None  # None -> fall back to the environment, then "batch"


def validate_engine(name):
    """Return ``name`` if it is a known engine, else raise ValueError."""
    if name not in ENGINES:
        raise ValueError(
            "unknown pipeline engine %r; available: %s" % (name, ", ".join(ENGINES))
        )
    return name


def set_default_engine(name):
    """Set the process-wide default engine (``None`` clears the override)."""
    global _default
    _default = validate_engine(name) if name is not None else None


def get_default_engine():
    """The engine ``PipelineSimulator.run`` uses when none is passed."""
    if _default is not None:
        return _default
    env = os.environ.get(_ENV_VAR)
    if env:
        return validate_engine(env)
    return "batch"


@contextmanager
def engine(name):
    """Temporarily switch the default engine (tests, benchmarks)."""
    global _default
    previous = _default
    set_default_engine(name)
    try:
        yield
    finally:
        _default = previous


TRACE_CACHE_ENV = "REPRO_NO_TRACE_CACHE"


def trace_cache_enabled():
    """Whether the batch engine reuses persisted compiled traces."""
    from repro.simulator import trace_cache

    return trace_cache.enabled()


def set_trace_cache_enabled(value):
    """Force the compiled-trace cache on/off process-wide.

    ``None`` restores environment control (``REPRO_NO_TRACE_CACHE``).
    """
    from repro.simulator import trace_cache

    trace_cache.set_enabled(value)


@contextmanager
def trace_caching(value):
    """Temporarily force the compiled-trace cache on/off (tests, benches)."""
    from repro.simulator import trace_cache

    previous = trace_cache._enabled_override
    trace_cache.set_enabled(value)
    try:
        yield
    finally:
        trace_cache._enabled_override = previous
