"""Pipeline-engine benchmark harness (``repro-camp bench-pipeline``).

Produces ``BENCH_pipeline.json`` with two measurement families:

- **Engine comparison** — cold runs (fresh drivers, no result cache) of
  the pipeline-bound experiments under the scalar reference engine and
  the batch engine, verifying record-for-record identity and reporting
  the wall-time speedup. Times are wall-clock best-of-N (the standard
  reducer for wall benchmarks on shared machines: the minimum is the
  run least contaminated by scheduler noise) plus the median.

- **Orchestrated fast suite** — one cold and one warm (cache-hit)
  ``experiment all --fast`` pass through the orchestrator against a
  throwaway cache directory. The CI perf-regression gate compares the
  measured warm rerun against the committed baseline and fails if it
  regresses more than the allowed factor.

- **Compiled-trace cache** — cold trace compiles (compile + persist)
  versus warm loads from the cross-run trace cache
  (:mod:`repro.simulator.trace_cache`) over a set of real kernel-call
  and packing programs, in a scratch cache directory. Both phases run
  with the program content digests precomputed (exactly how the
  orchestrator and multi-core fan-out amortize them), so the ratio
  isolates what the cache actually replaces — compile + serialize +
  store against read + verify + deserialize — and the gate requires
  the warm side to be at least :data:`MIN_COMPILE_SPEEDUP` x faster
  with the loaded traces field-identical to fresh compiles.
"""

import contextlib
import gc
import json
import os
import platform
import tempfile
import time
from pathlib import Path

#: experiments whose runtime is dominated by the pipeline simulator;
#: fig17 (A64FX out-of-order) is the acceptance benchmark, fig12 covers
#: the in-order RISC-V path
ENGINE_EXPERIMENTS = ("fig17", "fig12")

#: the experiment the ``--min-batch-speedup`` floor applies to: the
#: out-of-order path is where the windowed schedulers (and periodic
#: replay) earn their keep; the in-order path has far less scalar work
#: to amortize and its ratio would only dilute the gate
ACCEPTANCE_EXPERIMENT = "fig17"


@contextlib.contextmanager
def gc_paused():
    """Collect garbage, then pause the cyclic GC until the block exits.

    Wrap timed regions in this: otherwise a collection that lands in
    one region but not another times whatever heap the process holds
    (late in a test session, a large one) instead of the code under test.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _cold_run(name, engine_name, fast):
    from repro.experiments import orchestrator, runner
    from repro.simulator.engine import engine

    runner.reset_drivers()
    with engine(engine_name):
        start = time.perf_counter()
        result = orchestrator.run_experiment(name, fast=fast, cache=None)
        elapsed = time.perf_counter() - start
    return elapsed, result.records


def bench_engines(experiments=ENGINE_EXPERIMENTS, fast=False, repeats=3):
    """Cold per-engine wall times + record identity for each experiment."""
    out = {}
    for name in experiments:
        walls = {"scalar": [], "batch": []}
        records = {}
        for _ in range(max(1, repeats)):
            for engine_name in ("scalar", "batch"):
                elapsed, recs = _cold_run(name, engine_name, fast)
                walls[engine_name].append(elapsed)
                records[engine_name] = recs
        identical = records["scalar"] == records["batch"]
        entry = {
            "fast": fast,
            "records_identical": identical,
        }
        for engine_name, times in walls.items():
            ordered = sorted(times)
            entry[engine_name] = {
                "wall_s": [round(t, 4) for t in times],
                "best_s": round(ordered[0], 4),
                "median_s": round(ordered[len(ordered) // 2], 4),
            }
        entry["speedup_best"] = round(
            entry["scalar"]["best_s"] / entry["batch"]["best_s"], 2
        )
        entry["speedup_median"] = round(
            entry["scalar"]["median_s"] / entry["batch"]["median_s"], 2
        )
        out[name] = entry
    return out


def bench_suite(jobs=1):
    """Cold + warm orchestrated fast suite against a throwaway cache."""
    from repro.experiments import orchestrator, runner
    from repro.experiments.cache import ResultCache

    names = orchestrator.names()
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(tmp)
        runner.reset_drivers()
        start = time.perf_counter()
        orchestrator.run_many(names, fast=True, jobs=jobs, cache=cache)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        orchestrator.run_many(names, fast=True, jobs=jobs, cache=cache)
        warm_s = time.perf_counter() - start
        hits = cache.stats.hits
    return {
        "experiments": len(names),
        "jobs": jobs,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_cache_hits": hits,
    }


#: (machine, method[, kc_scale]) specs the compile-cache bench builds
#: programs from — both ISAs, CAMP and a conventional int8 kernel. The
#: optional per-spec k-block scale sizes each call program into the
#: few-thousand-instruction range: real sweep calls are a few hundred
#: instructions each (too small to time individually), while gemmlowp's
#: scalar-heavy inner loop already emits ~15 instructions per k element
#: and needs no scaling at all
COMPILE_BENCH_SPECS = (
    ("a64fx", "camp8", 16),
    ("a64fx", "gemmlowp", 1),
    ("sargantana", "camp4", 16),
)

#: default k-block scale when a spec does not carry its own
COMPILE_BENCH_KC_SCALE = 16

#: bytes of panel data per bench packing trace (~12k instructions)
COMPILE_BENCH_PACK_BYTES = 256 * 1024


def compile_bench_pairs(specs=COMPILE_BENCH_SPECS):
    """``(program, config)`` pairs big enough that compile time is signal."""
    from repro.experiments import runner
    from repro.gemm.microkernel import A_PANEL_BASE, B_PANEL_BASE
    from repro.gemm.packing import emit_pack_trace
    from repro.isa.builder import ProgramBuilder

    pairs = []
    for spec in specs:
        machine, method = spec[0], spec[1]
        scale = spec[2] if len(spec) > 2 else COMPILE_BENCH_KC_SCALE
        driver = runner.driver_for(method, machine)
        kc = driver.blocking.kc * scale
        for first in (True, False):
            pairs.append(
                (driver.kernel.build_call(kc, first_k_block=first),
                 driver.config)
            )
        builder = ProgramBuilder(
            name="bench-pack-%s-%s" % (machine, method),
            vector_length_bits=driver.config.vector_length_bits,
        )
        emit_pack_trace(builder, A_PANEL_BASE, B_PANEL_BASE,
                        COMPILE_BENCH_PACK_BYTES, driver.kernel.dtype)
        pairs.append((builder.build(), driver.config))
    return pairs


def measure_compile_cache(pairs=None, repeats=3):
    """Cold compile+persist vs warm load-from-disk over ``pairs``.

    Every repeat uses a fresh scratch cache subdirectory for the cold
    phase (so each cold pass really compiles and stores) and then
    re-reads the entries it just wrote for the warm phase, with the
    in-memory tier and the per-program memo cleared in between — the
    warm numbers are pure disk loads, the cross-process hit path.
    Program content digests are computed once up front (they survive
    the memo strips, mirroring :func:`repro.simulator.trace_cache.predigest`
    use in the multi-core fan-out), so both phases time only the work
    the cache trades: compile + serialize + store against read +
    verify + deserialize. The cyclic garbage collector is paused over
    the timed loops — both phases churn large transient lists, and a
    collection landing in one phase but not the other dominates the
    ratio with pure noise.
    """
    from repro.simulator import trace_cache
    from repro.simulator.engine import trace_caching
    from repro.simulator.trace_compile import (
        _COMPILED_ATTR,
        compile_trace,
        compiled_for,
    )

    if pairs is None:
        pairs = compile_bench_pairs()
    programs = [program for program, _ in pairs]

    def strip_memos():
        trace_cache.clear_memory()
        for program in programs:
            try:
                delattr(program, _COMPILED_ATTR)
            except AttributeError:
                pass

    cold_walls, warm_walls = [], []
    warm_traces = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        previous = os.environ.get("REPRO_CACHE_DIR")
        try:
            with trace_caching(True):
                for program in programs:
                    trace_cache.predigest(program)
                reference = [
                    compile_trace(program, config)
                    for program, config in pairs
                ]
                for index in range(max(1, repeats)):
                    os.environ["REPRO_CACHE_DIR"] = str(
                        Path(tmp) / ("rep%d" % index)
                    )
                    strip_memos()
                    with gc_paused():
                        start = time.perf_counter()
                        for program, config in pairs:
                            compiled_for(program, config)
                        cold_walls.append(time.perf_counter() - start)
                    strip_memos()
                    with gc_paused():
                        start = time.perf_counter()
                        warm_traces = [
                            compiled_for(program, config)
                            for program, config in pairs
                        ]
                        warm_walls.append(time.perf_counter() - start)
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous
    identical = len(warm_traces) == len(reference) and all(
        trace_cache.traces_equal(warm, fresh)
        for warm, fresh in zip(warm_traces, reference)
    )
    cold_s = min(cold_walls)
    warm_s = min(warm_walls)
    return {
        "pairs": len(pairs),
        "instructions": sum(len(program) for program in programs),
        "cold_wall_s": [round(wall, 4) for wall in cold_walls],
        "warm_wall_s": [round(wall, 4) for wall in warm_walls],
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup_best": round(cold_s / max(warm_s, 1e-9), 2),
        "identical": identical,
    }


#: (machine, method) points the worker fan-out bench sweeps; one CAMP
#: and one conventional kernel so both trace shapes cross the pool
FANOUT_SPECS = (
    ("a64fx", "camp8"),
    ("a64fx", "gemmlowp"),
)


def measure_worker_fanout(specs=FANOUT_SPECS, cores=4, jobs=4):
    """Worker-side compile counts for a warm multiprocess multicore sweep.

    Each spec is one multicore point run twice against a scratch trace
    cache: a cold pass (the parent compiles and persists each unique
    program) and a warm pass with freshly built program objects and the
    in-memory tier dropped (the parent loads from disk, the way a
    resumed sweep in a new process does). In both passes the parent
    ships the compiled structure-of-arrays records inside the pickled
    task payloads (:func:`repro.simulator.multicore.precompile_for_fanout`),
    so pool workers must never compile — and on the warm pass nobody
    compiles at all. The per-task compile/cache deltas come back
    through :attr:`MulticoreStats.worker_cache_stats`.
    """
    from repro.experiments import runner
    from repro.gemm import microkernel
    from repro.simulator import trace_cache, trace_compile
    from repro.simulator.engine import trace_caching
    from repro.simulator.multicore import run_multicore

    phases = {}
    points = 0
    worker_compiles = 0
    compile_free_points = 0
    with tempfile.TemporaryDirectory(prefix="repro-bench-fanout-") as tmp:
        previous = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            with trace_caching(True):
                for phase in ("cold", "warm"):
                    # fresh program objects + an empty memory tier: the
                    # warm pass exercises the cross-process disk path
                    microkernel._BUILD_MEMO.clear()
                    runner.reset_drivers()
                    trace_cache.clear_memory()
                    totals = {
                        "worker_compiles": 0, "worker_misses": 0,
                        "parent_compiles": 0, "parent_disk_hits": 0,
                    }
                    for machine, method in specs:
                        driver = runner.driver_for(method, machine)
                        kc = driver.blocking.kc * 4
                        program = driver.kernel.build_call(
                            kc, first_k_block=True
                        )
                        warm = list(driver.kernel.warm_addresses(kc))
                        compiles_0 = trace_compile.compile_events
                        cache_0 = trace_cache.stats()
                        outcome = run_multicore(
                            driver.config, [program] * cores,
                            warm_addresses=[warm] * cores, jobs=jobs,
                        )
                        cache_1 = trace_cache.stats()
                        wc = outcome.worker_cache_stats
                        task_compiles = wc.get("compiles", 0)
                        totals["worker_compiles"] += task_compiles
                        totals["worker_misses"] += wc.get("misses", 0)
                        totals["parent_compiles"] += (
                            trace_compile.compile_events - compiles_0
                        )
                        totals["parent_disk_hits"] += (
                            cache_1["disk_hits"] - cache_0["disk_hits"]
                        )
                        points += 1
                        worker_compiles += task_compiles
                        if not task_compiles:
                            compile_free_points += 1
                    phases[phase] = totals
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous
            microkernel._BUILD_MEMO.clear()
            runner.reset_drivers()
            trace_cache.clear_memory()
    return {
        "cores": cores,
        "jobs": jobs,
        "points": points,
        "worker_compiles": worker_compiles,
        "compile_free_points": compile_free_points,
        "cold": phases["cold"],
        "warm": phases["warm"],
    }


def run_bench(repeats=3, fast=False, jobs=1, experiments=ENGINE_EXPERIMENTS):
    """Full benchmark payload for ``BENCH_pipeline.json``."""
    trace = measure_compile_cache(repeats=max(1, repeats))
    trace["worker_fanout"] = measure_worker_fanout()
    payload = {
        "schema": "repro-camp/bench-pipeline/v1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "engine_comparison": bench_engines(
            experiments=experiments, fast=fast, repeats=repeats
        ),
        "fast_suite": bench_suite(jobs=jobs),
        "trace_cache": trace,
    }
    return payload


def write_bench(payload, out_path):
    path = Path(out_path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


#: absolute floor for the warm-rerun gate: sub-millisecond committed
#: baselines would otherwise turn the >Nx contract into a raw
#: cross-machine wall-clock comparison that any scheduler hiccup trips
WARM_FLOOR_S = 0.25

#: required cold-compile / warm-load wall-time ratio for the
#: compiled-trace cache (the acceptance bar: loading must beat
#: recompiling by at least this factor)
MIN_COMPILE_SPEEDUP = 2.0

#: below this cold-compile time the speedup gate is skipped — both
#: sides are timed back-to-back in-process, so the floor only needs to
#: clear timer noise, not cross-machine variance
COMPILE_FLOOR_S = 0.02


def compile_cache_problems(trace, min_compile_speedup=MIN_COMPILE_SPEEDUP):
    """Gate one ``trace_cache`` bench section; empty list = pass.

    Shared by the bench-pipeline and bench-sweep regression checks:
    warm loads must be at least ``min_compile_speedup`` x faster than
    cold compiles (once cold time clears :data:`COMPILE_FLOOR_S`), and
    the loaded traces must be field-identical to fresh compiles.
    """
    problems = []
    if trace is None:
        return ["payload has no trace_cache section"]
    if not trace.get("identical", False):
        problems.append(
            "compiled traces loaded from the trace cache differ from "
            "fresh compiles"
        )
    if (trace["cold_s"] >= COMPILE_FLOOR_S
            and trace["speedup_best"] < min_compile_speedup):
        problems.append(
            "warm trace-cache loads are only %.1fx faster than cold "
            "compiles (%.3fs vs %.3fs over %d instructions); the "
            "compiled-trace cache should make them >= %.1fx"
            % (trace["speedup_best"], trace["warm_s"], trace["cold_s"],
               trace.get("instructions", 0), min_compile_speedup)
        )
    fanout = trace.get("worker_fanout")
    if fanout is not None:
        if fanout.get("worker_compiles", 0) != 0:
            problems.append(
                "pool workers compiled %d traces across %d multicore "
                "points; the parent must ship compiled records so "
                "workers never compile"
                % (fanout["worker_compiles"], fanout.get("points", 0))
            )
        warm = fanout.get("warm", {})
        if warm.get("parent_compiles", 0) != 0:
            problems.append(
                "the warm fan-out sweep recompiled %d traces in the "
                "parent instead of loading them from the trace cache"
                % warm["parent_compiles"]
            )
    return problems


def check_regression(payload, baseline, max_warm_ratio=3.0,
                     min_compile_speedup=MIN_COMPILE_SPEEDUP,
                     min_batch_speedup=None):
    """Compare a fresh payload against the committed baseline.

    Returns a list of human-readable problems (empty = gate passes):

    - the warm cache-hit suite rerun must not exceed
      ``max_warm_ratio`` x the committed warm time (with an absolute
      floor of :data:`WARM_FLOOR_S`, so a ~1 ms baseline from a faster
      machine cannot fail CI on noise alone);
    - engine-comparison records must be identical between engines;
    - with ``min_batch_speedup`` set, the acceptance experiment's
      (:data:`ACCEPTANCE_EXPERIMENT`) batch-vs-scalar median speedup
      must reach the floor (a wall-time ratio measured back-to-back in
      one process, so it is machine-independent in a way raw times are
      not);
    - the compiled-trace cache must beat recompiling by at least
      ``min_compile_speedup`` x with identical traces, and the
      multicore fan-out must stay worker-compile-free
      (:func:`compile_cache_problems`).
    """
    problems = []
    warm = payload["fast_suite"]["warm_s"]
    base_warm = baseline["fast_suite"]["warm_s"]
    threshold = max(max_warm_ratio * base_warm, WARM_FLOOR_S)
    if base_warm > 0 and warm > threshold:
        problems.append(
            "warm fast-suite rerun took %.3fs, over the gate of %.3fs "
            "(max(%.1fx committed baseline %.3fs, %.2fs floor))"
            % (warm, threshold, max_warm_ratio, base_warm, WARM_FLOOR_S)
        )
    if payload["fast_suite"]["warm_cache_hits"] == 0:
        problems.append("warm rerun recorded zero cache hits")
    for name, entry in payload["engine_comparison"].items():
        if not entry.get("records_identical", False):
            problems.append(
                "experiment %s: scalar and batch engines disagree" % name
            )
    if min_batch_speedup is not None:
        entry = payload["engine_comparison"].get(ACCEPTANCE_EXPERIMENT)
        if entry is None:
            problems.append(
                "payload has no %s engine comparison to hold the "
                "--min-batch-speedup floor against" % ACCEPTANCE_EXPERIMENT
            )
        elif entry.get("speedup_median", 0.0) < min_batch_speedup:
            problems.append(
                "experiment %s: batch engine is only %.2fx faster than "
                "scalar (median), below the %.1fx floor"
                % (ACCEPTANCE_EXPERIMENT,
                   entry.get("speedup_median", 0.0), min_batch_speedup)
            )
    problems.extend(
        compile_cache_problems(
            payload.get("trace_cache"),
            min_compile_speedup=min_compile_speedup,
        )
    )
    return problems
