"""Outside-in layer tracer: times the calls into each layer's public functions.

Nothing in ``src/`` knows about this module. :func:`install` replaces a
fixed list of functions and methods (:data:`TARGETS`) with timing
wrappers, in the defining module and in every loaded ``repro`` module
that imported the function by name. Each wrapper opens a frame on a
per-thread stack, so a layer's *self* time is its calls' duration minus
the part covered by nested traced calls and by garbage collection.

Garbage collection is a layer of its own: a ``gc.callbacks`` hook times
every collection and subtracts it from the innermost open frame.

Frames are aggregated per layer (self seconds, inclusive seconds,
calls) rather than kept one by one: the workloads make hundreds of
thousands of traced calls, and a span object per call would itself
feed the garbage collector being measured.

Processes: forked children (the experiment executor's pool workers)
start from empty totals and rewrite ``spans-<pid>.json`` each time
their outermost frame closes, because pool workers leave through
``os._exit`` and never run exit handlers. The process that called
:func:`install` writes its file when :meth:`Tracer.dump` is called.
"""

import collections
import contextlib
import functools
import gc
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (layer, module, attribute path) of every traced function. Layers are
#: named after the modules they time; ``workload`` is the benchmark's
#: own root frame and ``executor.wait`` the parent blocked on pool
#: workers, and neither counts as attributed work.
TARGETS = (
    ("build", "repro.gemm.microkernel", "MicroKernel.build_call"),
    ("build", "repro.gemm.packing", "emit_pack_trace"),
    ("gemm", "repro.gemm.goto", "GotoBlasDriver.analyze"),
    ("gemm", "repro.gemm.goto", "GotoBlasDriver.analyze_timeline"),
    ("gemm", "repro.gemm.multicore", "simulate_parallel_gemm"),
    ("compile", "repro.simulator.trace_compile", "compiled_for"),
    ("compile", "repro.simulator.trace_compile", "compile_trace"),
    ("schedule", "repro.simulator.pipeline", "PipelineSimulator.run"),
    ("memory", "repro.memory.hierarchy", "MemoryHierarchy.access"),
    ("memory", "repro.memory.hierarchy", "MemoryHierarchy.access_batch"),
    ("memory", "repro.memory.hierarchy", "MemoryHierarchy.resolve_batch"),
    ("memory.lookup", "repro.memory.batch", "batch_lookup"),
    ("memory.cache_init", "repro.memory.cache", "Cache.__init__"),
    ("arbitration", "repro.memory.hierarchy", "SharedHierarchy.replay"),
    ("fanout", "repro.simulator.multicore", "run_multicore"),
    ("fanout", "repro.simulator.multicore", "precompile_for_fanout"),
    ("calibrate", "repro.analytic.calibrate", "calibrate_method"),
    ("calibrate", "repro.analytic.calibrate", "calibrate_machine"),
    ("orchestrate", "repro.experiments.orchestrator", "run_many"),
    ("orchestrate", "repro.experiments.orchestrator", "run_sweep"),
    ("orchestrate", "repro.experiments.orchestrator", "_compute"),
    ("orchestrate", "repro.experiments.orchestrator", "_run_point_tasks"),
    ("orchestrate", "repro.experiments.executor", "run_tasks"),
    ("orchestrate", "repro.experiments.executor", "_run_callable"),
    ("executor.wait", "repro.experiments.executor", "_run_pooled"),
    ("cache_io", "repro.experiments.cache", "ResultCache.load"),
    ("cache_io", "repro.experiments.cache", "ResultCache.store"),
    ("cache_io", "repro.experiments.executor", "RunJournal._append"),
    ("cache_io", "repro.simulator.trace_cache", "fetch"),
    ("cache_io", "repro.simulator.trace_cache", "put"),
    ("serve", "repro.serving.server", "_Handler.do_GET"),
    ("serve.http", "repro.serving.server", "_Handler.do_POST"),
    ("serve", "repro.serving.server", "SimulationService.handle"),
    ("serve.execute", "repro.serving.server", "SimulationService._compute"),
    ("serve.parse", "repro.serving.requests", "parse_request"),
    ("serve.parse", "repro.serving.requests", "Request.cache_key"),
    ("serve.parse", "repro.serving.requests", "GemmRequest.validate"),
    ("serve.parse", "repro.serving.requests", "SweepRequest.validate"),
    ("serve.parse", "repro.serving.requests", "CalibrateRequest.validate"),
)

#: frames that are not a layer's work: the root and the pool wait
UNATTRIBUTED = ("workload", "executor.wait")


def _count_schedule(counters, args, nested, result):
    counters["schedule.instructions"] += len(args[1])


def _count_access(counters, args, nested, result):
    if not nested:
        counters["memory.accesses"] += 1


def _count_access_batch(counters, args, nested, result):
    # a prefetching hierarchy's access_batch falls back to scalar
    # access() calls: only the outermost memory call counts
    if not nested:
        counters["memory.accesses"] += len(args[1])


def _count_calls(name):
    def count(counters, args, nested, result):
        counters[name] += 1
    return count


def _count_result_cache(counters, args, nested, result):
    if result is None:
        counters["result_cache.misses"] += 1
    else:
        counters["result_cache.hits"] += 1


#: per-target counters, keyed by attribute path
COUNTERS = {
    "PipelineSimulator.run": _count_schedule,
    "MemoryHierarchy.access": _count_access,
    "MemoryHierarchy.access_batch": _count_access_batch,
    "MemoryHierarchy.resolve_batch": _count_access_batch,
    "MicroKernel.build_call": _count_calls("build.calls"),
    "emit_pack_trace": _count_calls("build.calls"),
    "compile_trace": _count_calls("compile.calls"),
    "calibrate_method": _count_calls("calibrate.calls"),
    "ResultCache.load": _count_result_cache,
}


class _ThreadState:
    """One thread's open frames and totals (merged at dump time)."""

    __slots__ = ("stack", "self_s", "incl_s", "calls", "counters", "busy_s")

    def __init__(self):
        self.stack = []
        self.self_s = {}
        self.incl_s = {}
        self.calls = {}
        self.counters = collections.Counter()
        self.busy_s = 0.0


class Tracer:
    """Per-process layer totals behind the installed wrappers."""

    def __init__(self, out_dir, role, clock=time.perf_counter):
        self.out_dir = Path(out_dir)
        self.role = role
        self.clock = clock
        self.pid = os.getpid()
        self.flush_on_root = False
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._gc_start = None
        self._trace_cache_base = None
        self.missing = []

    # -- frames -----------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def wrap(self, fn, layer, count=None):
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack and stack[-1][0] == layer:
                # a layer calling itself: the open frame already times it
                result = fn(*args, **kwargs)
                if count is not None:
                    count(state.counters, args, True, result)
                return result
            frame = [layer, clock(), 0.0, 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(state, frame, clock())
                if count is not None:
                    count(state.counters, args, False, result)

        return traced

    def _close(self, state, frame, end):
        state.stack.pop()
        layer = frame[0]
        duration = end - frame[1]
        state.self_s[layer] = (state.self_s.get(layer, 0.0) + duration
                               - frame[2] - frame[3])
        state.incl_s[layer] = state.incl_s.get(layer, 0.0) + duration
        state.calls[layer] = state.calls.get(layer, 0) + 1
        if state.stack:
            state.stack[-1][2] += duration
        else:
            state.busy_s += duration
            if self.flush_on_root:
                self.dump()

    @contextlib.contextmanager
    def span(self, layer):
        """A frame around a block, for the benchmark's own root."""
        state = self._state()
        frame = [layer, self.clock(), 0.0, 0.0]
        state.stack.append(frame)
        try:
            yield
        finally:
            self._close(state, frame, self.clock())

    # -- garbage collection -----------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = self.clock()
            return
        if self._gc_start is None:
            return
        elapsed = self.clock() - self._gc_start
        self._gc_start = None
        state = getattr(self._local, "state", None)
        if state is None or not state.stack:
            return  # outside every frame: not part of any measured work
        state.stack[-1][3] += elapsed
        state.self_s["gc"] = state.self_s.get("gc", 0.0) + elapsed
        state.calls["gc"] = state.calls.get("gc", 0) + 1
        if info.get("generation") == 2:
            state.counters["gc.gen2_collections"] += 1

    # -- processes --------------------------------------------------------

    def _after_fork(self):
        self.pid = os.getpid()
        self.role = "worker"
        self.flush_on_root = True
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._gc_start = None
        self._trace_cache_base = _trace_cache_stats()

    def dump(self):
        """Write this process's merged totals to ``spans-<pid>.json``."""
        with self._states_lock:
            states = list(self._states)
        self_s, incl_s, calls, counters = {}, {}, {}, {}
        busy_s = 0.0
        for state in states:
            for target, source in ((self_s, state.self_s),
                                   (incl_s, state.incl_s),
                                   (calls, state.calls),
                                   (counters, state.counters)):
                for key, value in source.items():
                    target[key] = target.get(key, 0) + value
            busy_s += state.busy_s
        cache_now = _trace_cache_stats()
        base = self._trace_cache_base or {}
        payload = {
            "pid": self.pid,
            "role": self.role,
            "missing": self.missing,
            "busy_s": busy_s,
            "self_s": self_s,
            "incl_s": incl_s,
            "calls": calls,
            "counters": counters,
            "trace_cache": {key: value - base.get(key, 0)
                            for key, value in cache_now.items()},
        }
        path = self.out_dir / ("spans-%d.json" % self.pid)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)


def _trace_cache_stats():
    module = sys.modules.get("repro.simulator.trace_cache")
    return module.stats() if module is not None else {}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(out_dir, role="main", clock=time.perf_counter):
    """Wrap every :data:`TARGETS` function; returns the :class:`Tracer`.

    Imports the traced modules, so call it after the set-up that the
    untraced run times. A process whose threads share the interpreter
    lock should pass ``time.thread_time``: a wall clock would charge
    one thread's turns to whatever frame another thread has open.
    """
    tracer = Tracer(out_dir, role, clock)
    originals = {}
    for layer, module_name, path in TARGETS:
        try:
            module = importlib.import_module(module_name)
            owner, name = _resolve(module, path)
            original = owner.__dict__[name]
        except (ImportError, AttributeError, KeyError):
            # renamed or removed by the program: reported, not fatal
            tracer.missing.append("%s:%s" % (module_name, path))
            continue
        wrapped = tracer.wrap(original, layer, COUNTERS.get(path))
        setattr(owner, name, wrapped)
        if owner is module:
            originals[id(original)] = (original, wrapped)
    # rebind names that other modules imported with `from x import f`
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    tracer._trace_cache_base = _trace_cache_stats()
    gc.callbacks.append(tracer._on_gc)
    os.register_at_fork(after_in_child=tracer._after_fork)
    return tracer


def load_dumps(out_dir):
    """Every process's totals written under ``out_dir``."""
    return [json.loads(path.read_text())
            for path in sorted(Path(out_dir).glob("spans-*.json"))]
