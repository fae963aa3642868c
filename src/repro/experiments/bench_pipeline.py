"""Pipeline-engine benchmark (``repro-camp bench-pipeline``).

Produces ``BENCH_pipeline.json``, gated by the ``pipeline`` rows of
:data:`repro.experiments.bench.GATES`:

- **Engine comparison** — the pipeline-bound experiments under the
  scalar reference engine and the batch engine: record-for-record
  identity and the wall-time speedup (best and median of N).
- **Orchestrated fast suite** — one cold and one warm (cache-hit)
  ``experiment all --fast`` pass through the orchestrator.
- **Compiled-trace cache** — cold trace compiles (compile + persist)
  versus warm loads from the cross-run trace cache
  (:mod:`repro.simulator.trace_cache`) over real kernel-call and
  packing programs, plus a worker fan-out probe that pool workers
  never compile.
"""

import platform

from repro.experiments.bench import scratch_cache, timed

#: experiments whose runtime is dominated by the pipeline simulator;
#: fig17 (A64FX out-of-order) is the acceptance benchmark, fig12 covers
#: the in-order RISC-V path
ENGINE_EXPERIMENTS = ("fig17", "fig12")


def bench_engines(fast=False, repeats=3):
    """Per-engine wall times + record identity for each experiment.

    Runs get fresh drivers and no result cache but keep the program
    build memo and trace tiers: program builds are the same work under
    either engine, so from the second repeat on the ratio compares the
    engines alone.
    """
    from repro.experiments import orchestrator, runner
    from repro.simulator.engine import engine

    out = {}
    for name in ENGINE_EXPERIMENTS:
        entry = {"fast": fast}
        records = {}
        for engine_name in ("scalar", "batch"):
            with engine(engine_name):
                entry[engine_name], results = timed(
                    lambda: orchestrator.run_experiment(
                        name, fast=fast, cache=None).records,
                    repeats, reset=runner.reset_drivers,
                )
            records[engine_name] = results[-1]
        entry["records_identical"] = records["scalar"] == records["batch"]
        for stat in ("best", "median"):
            entry["speedup_" + stat] = round(
                entry["scalar"][stat + "_s"] / entry["batch"][stat + "_s"], 2
            )
        out[name] = entry
    return out


def bench_suite():
    """Cold + warm orchestrated fast suite against the scratch cache."""
    from repro.experiments import orchestrator
    from repro.experiments.cache import ResultCache

    names = orchestrator.names()
    cache = ResultCache()

    def run():
        orchestrator.run_many(names, fast=True, jobs=1, cache=cache)

    cold, _ = timed(run)
    warm, _ = timed(run)
    return {
        "experiments": len(names),
        "jobs": 1,
        "cold_s": cold["best_s"],
        "warm_s": warm["best_s"],
        "warm_cache_hits": cache.stats.hits,
    }


#: (machine, method, kc_scale) specs the compile-cache bench builds
#: programs from — both ISAs, CAMP and a conventional int8 kernel; the
#: k-block scale sizes each call program to a few thousand
#: instructions (gemmlowp's scalar-heavy loop already emits ~15 per k)
COMPILE_BENCH_SPECS = (
    ("a64fx", "camp8", 16),
    ("a64fx", "gemmlowp", 1),
    ("sargantana", "camp4", 16),
)

#: bytes of panel data per bench packing trace (~12k instructions)
COMPILE_BENCH_PACK_BYTES = 256 * 1024


def compile_bench_pairs():
    """``(program, config)`` pairs big enough that compile time is signal."""
    from repro.experiments import runner
    from repro.gemm.microkernel import A_PANEL_BASE, B_PANEL_BASE
    from repro.gemm.packing import emit_pack_trace
    from repro.isa.builder import ProgramBuilder

    pairs = []
    for machine, method, scale in COMPILE_BENCH_SPECS:
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


#: fewest cold and warm passes the trace-cache section times, whatever
#: ``--repeats`` says: a single pass of a few tens of milliseconds takes
#: any scheduler hiccup straight into the ratio (one such warm pass
#: read 1.0x), the best of 5 does not
COMPILE_BENCH_MIN_REPEATS = 5


def measure_compile_cache(repeats=3):
    """Cold compile+persist vs warm load-from-disk over the bench pairs.

    Every cold pass starts from an empty trace tier; every warm pass
    re-reads what the last cold pass wrote, with the memory tier and
    per-program memo stripped (the cross-process hit path). Content
    digests are precomputed, as the multi-core fan-out does, so both
    sides time only what the cache trades: compile + serialize + store
    against read + verify + deserialize.
    """
    from repro.simulator import trace_cache
    from repro.simulator.engine import trace_caching
    from repro.simulator.trace_compile import (
        _COMPILED_ATTR,
        compile_trace,
        compiled_for,
    )

    pairs = compile_bench_pairs()
    repeats = max(COMPILE_BENCH_MIN_REPEATS, repeats)
    programs = [program for program, _ in pairs]

    def strip_memos():
        for program in programs:
            program.__dict__.pop(_COMPILED_ATTR, None)

    def cold_setup():
        trace_cache.prune(max_size_mb=0)
        strip_memos()

    loaded = []

    def compile_all():
        # keep only the latest pass alive, so no pass allocates on top
        # of every earlier pass's traces
        loaded[:] = [compiled_for(program, config)
                     for program, config in pairs]

    with scratch_cache(), trace_caching(True):
        for program in programs:
            trace_cache.predigest(program)
        reference = [compile_trace(program, config)
                     for program, config in pairs]
        cold, _ = timed(compile_all, repeats, setup=cold_setup)
        warm, _ = timed(compile_all, repeats, setup=strip_memos)
    identical = all(
        trace_cache.traces_equal(warm_trace, fresh)
        for warm_trace, fresh in zip(loaded, reference)
    )
    return {
        "pairs": len(pairs),
        "instructions": sum(len(program) for program in programs),
        "cold_wall_s": cold["wall_s"],
        "warm_wall_s": warm["wall_s"],
        "cold_s": cold["best_s"],
        "warm_s": warm["best_s"],
        "speedup_best": round(cold["best_s"] / max(warm["best_s"], 1e-9), 2),
        "identical": identical,
    }


#: (machine, method) points the worker fan-out bench sweeps; one CAMP
#: and one conventional kernel so both trace shapes cross the pool
FANOUT_SPECS = (
    ("a64fx", "camp8"),
    ("a64fx", "gemmlowp"),
)


def measure_worker_fanout(specs=FANOUT_SPECS, cores=4, jobs=4):
    """Worker-side compile counts for a multiprocess multicore sweep.

    Each spec is one multicore point, run cold (the parent compiles and
    persists each unique program) and then warm (fresh program objects,
    empty memory tier: the parent loads from disk, as a resumed sweep
    in a new process does). The parent ships compiled records inside
    the task payloads (:func:`repro.simulator.multicore.precompile_for_fanout`),
    so pool workers must never compile; their per-task deltas come back
    through :attr:`MulticoreStats.worker_cache_stats`.
    """
    from repro.experiments import runner
    from repro.simulator import trace_cache, trace_compile
    from repro.simulator.engine import trace_caching
    from repro.simulator.multicore import run_multicore

    def fan_out():
        totals = {
            "worker_compiles": 0, "worker_misses": 0,
            "parent_compiles": 0, "parent_disk_hits": 0,
        }
        compile_free = 0
        for machine, method in specs:
            driver = runner.driver_for(method, machine)
            kc = driver.blocking.kc * 4
            program = driver.kernel.build_call(kc, first_k_block=True)
            warm = list(driver.kernel.warm_addresses(kc))
            compiles_0 = trace_compile.compile_events
            disk_hits_0 = trace_cache.stats()["disk_hits"]
            outcome = run_multicore(
                driver.config, [program] * cores,
                warm_addresses=[warm] * cores, jobs=jobs,
            )
            worker = outcome.worker_cache_stats
            totals["worker_compiles"] += worker.get("compiles", 0)
            compile_free += not worker.get("compiles", 0)
            totals["worker_misses"] += worker.get("misses", 0)
            totals["parent_compiles"] += (
                trace_compile.compile_events - compiles_0
            )
            totals["parent_disk_hits"] += (
                trace_cache.stats()["disk_hits"] - disk_hits_0
            )
        return totals, compile_free

    with scratch_cache(), trace_caching(True):
        _, ((cold, cold_free), (warm, warm_free)) = timed(fan_out, 2)
    return {
        "cores": cores,
        "jobs": jobs,
        "points": 2 * len(specs),
        "worker_compiles": cold["worker_compiles"] + warm["worker_compiles"],
        "compile_free_points": cold_free + warm_free,
        "cold": cold,
        "warm": warm,
    }


def run_bench(repeats=3, fast=False):
    """Full benchmark payload for ``BENCH_pipeline.json``."""
    trace = measure_compile_cache(repeats=repeats)
    trace["worker_fanout"] = measure_worker_fanout()
    with scratch_cache():
        engines = bench_engines(fast=fast, repeats=repeats)
        suite = bench_suite()
    return {
        "schema": "repro-camp/bench-pipeline/v1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "engine_comparison": engines,
        "fast_suite": suite,
        "trace_cache": trace,
    }
