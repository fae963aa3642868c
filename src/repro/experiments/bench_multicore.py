"""Multi-core benchmark (``repro-camp bench-multicore``).

Produces ``BENCH_multicore.json``, the committed baseline the CI
perf-regression gate compares against (the ``multicore`` rows of
:data:`repro.experiments.bench.GATES`):

- **Scaling point** — cold wall time, best-of-N, of the acceptance
  configuration (16 simulated cores, full-size GEMM through the shared
  LLC + multi-channel DRAM replay), plus a record-for-record
  determinism check between the runs: the gate fails on either a
  >N x slowdown or any nondeterminism.
- **Fast ablation** — one cold end-to-end ``ablation multicore
  --fast`` pass (partitioning, per-core engines, arbitration and
  analytic cross-check together), as the orchestrated-path timing.

Both are timed through :func:`repro.experiments.bench.timed` in a
scratch cache, so a point times the simulation rather than the heap
the process happens to hold or the memos an earlier run left behind.
"""

import platform

from repro.experiments.bench import scratch_cache, timed

#: the committed acceptance point: full ablation size, all 16 cores
BENCH_POINT = {
    "method": "camp8",
    "size": 1024,
    "cores": 16,
    "strategy": "npanel",
}


def _point_records():
    """Run the scaling point once; returns its scrubbed records."""
    from repro.experiments.records import scrub
    from repro.gemm import multicore

    point = BENCH_POINT
    result = multicore.simulate_parallel_gemm(
        point["method"], point["size"], point["size"], point["size"],
        point["cores"], strategy=point["strategy"],
    )
    return {
        "speedup": scrub(result.speedup),
        "efficiency": scrub(result.efficiency),
        "dram_limited": result.dram_limited,
        "contention_stall_cycles": result.contention_stall_cycles,
        "llc_hit_rate": scrub(result.llc_hit_rate),
        "parallel_cycles": scrub(result.parallel_cycles),
        "per_core_cycles": [scrub(core.cycles) for core in result.per_core],
    }


def run_bench(repeats=3):
    """Full benchmark payload for ``BENCH_multicore.json``."""
    from repro.experiments import orchestrator

    with scratch_cache():
        # >= 2 runs for the determinism diff
        scaling, records = timed(_point_records, max(2, repeats))
        ablation, _ = timed(lambda: orchestrator.run_experiment(
            "multicore", fast=True, cache=None))
    return {
        "schema": "repro-camp/bench-multicore/v1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scaling": {
            "point": dict(BENCH_POINT),
            **scaling,
            "deterministic": all(recs == records[0] for recs in records),
            "result": records[0],
        },
        "ablation_fast": {"cold_s": ablation["best_s"]},
    }
