"""Sweep executor benchmark (``repro-camp bench-sweep``).

Produces ``BENCH_sweep.json``, gated by the ``sweep`` rows of
:data:`repro.experiments.bench.GATES`. One multi-core sweep grid is
timed cold (every point computed), warm (an immediate rerun against
the same cache) and interrupted-then-resumed: a fresh cold run is
aborted halfway via the executor's deterministic abort hook
(:data:`repro.experiments.executor.ABORT_AFTER_ENV`) and resumed from
its journal, which must recompute *exactly* the points the
interruption left unfinished and reassemble records identical to the
cold run. The payload also carries the compiled-trace cache section
of :func:`repro.experiments.bench_pipeline.measure_compile_cache`.
"""

import os
import platform

from repro.experiments.bench import scratch_cache, timed

#: the committed grid: 2 sizes x 2 methods x 4 core counts = 16 points
#: on the multi-core cycle-level simulator — big enough that the warm
#: ratio is signal, small enough for CI
BENCH_GRID = {
    "sizes": (192, 256),
    "methods": ("camp8", "camp4"),
    "machines": ("a64fx",),
    "core_counts": (1, 2, 4, 8),
    "strategy": "npanel",
}


def _sweep(cache, statuses=None, **extra):
    """Run the bench grid once; returns the sweep result."""
    from repro.experiments import orchestrator

    def on_point(done, total, point_id, status, elapsed_s):
        if statuses is not None:
            statuses.append(status)

    return orchestrator.run_sweep(
        sizes=list(BENCH_GRID["sizes"]),
        shapes=[],
        methods=list(BENCH_GRID["methods"]),
        machines=list(BENCH_GRID["machines"]),
        baseline=None,
        cache=cache,
        core_counts=list(BENCH_GRID["core_counts"]),
        strategy=BENCH_GRID["strategy"],
        on_point=on_point,
        **extra,
    )


def run_bench(repeats=1):
    """Full benchmark payload for ``BENCH_sweep.json``."""
    from repro.experiments import bench_pipeline, executor
    from repro.experiments.cache import ResultCache

    statuses = []
    with scratch_cache():
        cache = ResultCache()

        def recold():
            cache.prune(max_age_days=0)
            statuses.clear()

        cold, results = timed(lambda: _sweep(cache, statuses), repeats,
                              setup=recold)
        cold_records = results[-1].records
        points_total = len(statuses)
        warm, (warm_result,) = timed(lambda: _sweep(cache))

    interrupt_after = max(1, points_total // 2)
    with scratch_cache():
        cache = ResultCache()
        run_id = executor.new_run_id("bench")
        os.environ[executor.ABORT_AFTER_ENV] = str(interrupt_after)
        try:
            _sweep(cache, run_id=run_id)
        except executor.InterruptedRun:
            interrupted = True
        else:
            interrupted = False
        finally:
            os.environ.pop(executor.ABORT_AFTER_ENV, None)
        statuses = []
        resume, (resume_result,) = timed(
            lambda: _sweep(cache, statuses, resume=run_id))
        resume_recomputed = statuses.count("computed")

    cold_s, warm_s, resume_s = (
        cold["best_s"], warm["best_s"], resume["best_s"])
    return {
        "schema": "repro-camp/bench-sweep/v1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "grid": {key: value if isinstance(value, str) else list(value)
                 for key, value in BENCH_GRID.items()},
        "points_total": points_total,
        "cold_wall_s": cold["wall_s"],
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": round(cold_s / max(warm_s, 1e-6), 2),
        "warm_identical": warm_result.records == cold_records,
        "interrupted": interrupted,
        "interrupt_after": interrupt_after,
        "resume_s": resume_s,
        "resume_speedup": round(cold_s / max(resume_s, 1e-6), 2),
        "resume_recomputed": resume_recomputed,
        "resume_replayed": points_total - resume_recomputed,
        "resume_exact": (
            resume_recomputed == points_total - interrupt_after),
        "resume_identical": resume_result.records == cold_records,
        "trace_cache": bench_pipeline.measure_compile_cache(repeats),
    }
