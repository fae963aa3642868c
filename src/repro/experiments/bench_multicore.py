"""Multi-core bench harness (``repro-camp bench-multicore``).

Produces ``BENCH_multicore.json``, the committed baseline the CI
perf-regression gate compares against (the ``bench-pipeline --check``
pattern extended to the multi-core subsystem):

- **Scaling point** — cold wall time, best-of-N, of the acceptance
  configuration (16 simulated cores, full-size GEMM through the shared
  LLC + multi-channel DRAM replay), plus a record-for-record
  determinism check between two runs: the gate fails on either a
  >N x slowdown or any nondeterminism.
- **Fast ablation** — one cold end-to-end ``ablation multicore
  --fast`` pass (partitioning, per-core engines, arbitration and
  analytic cross-check together), as the orchestrated-path timing.

Both timed regions run with the cyclic GC collected and paused
(:func:`~repro.experiments.bench_pipeline.gc_paused`), so a point
times the simulation rather than the heap the process happens to hold.
"""

import json
import platform
import time
from pathlib import Path

from repro.experiments.bench_pipeline import gc_paused

#: the committed acceptance point: full ablation size, all 16 cores
BENCH_POINT = {
    "method": "camp8",
    "size": 1024,
    "cores": 16,
    "strategy": "npanel",
}

#: absolute floor for the wall-clock gate, mirroring
#: :data:`repro.experiments.bench_pipeline.WARM_FLOOR_S` — a fast
#: machine's tiny committed baseline must not turn the ratio gate into
#: raw cross-machine noise
BENCH_FLOOR_S = 0.25


def _point_records(point):
    """Run one scaling point cold; returns (records, elapsed_s)."""
    from repro.experiments import runner
    from repro.experiments.records import scrub
    from repro.gemm import multicore

    runner.reset_drivers()
    multicore.reset_recording_drivers()
    with gc_paused():
        start = time.perf_counter()
        result = multicore.simulate_parallel_gemm(
            point["method"], point["size"], point["size"], point["size"],
            point["cores"], strategy=point["strategy"],
        )
        elapsed = time.perf_counter() - start
    records = {
        "speedup": scrub(result.speedup),
        "efficiency": scrub(result.efficiency),
        "dram_limited": result.dram_limited,
        "contention_stall_cycles": result.contention_stall_cycles,
        "llc_hit_rate": scrub(result.llc_hit_rate),
        "parallel_cycles": scrub(result.parallel_cycles),
        "per_core_cycles": [scrub(core.cycles) for core in result.per_core],
    }
    return records, elapsed


def bench_scaling(point=None, repeats=3):
    """Cold wall times + determinism for the acceptance scaling point."""
    point = dict(BENCH_POINT if point is None else point)
    walls = []
    records = []
    for _ in range(max(2, repeats)):  # >= 2 runs for the determinism diff
        recs, elapsed = _point_records(point)
        walls.append(elapsed)
        records.append(recs)
    ordered = sorted(walls)
    deterministic = all(recs == records[0] for recs in records[1:])
    return {
        "point": point,
        "wall_s": [round(wall, 4) for wall in walls],
        "best_s": round(ordered[0], 4),
        "median_s": round(ordered[len(ordered) // 2], 4),
        "deterministic": deterministic,
        "result": records[0],
    }


def bench_ablation_fast():
    """One cold orchestrated ``ablation multicore --fast`` pass."""
    from repro.experiments import orchestrator, runner
    from repro.gemm import multicore

    runner.reset_drivers()
    multicore.reset_recording_drivers()
    with gc_paused():
        start = time.perf_counter()
        orchestrator.run_experiment("multicore", fast=True, cache=None)
        elapsed = time.perf_counter() - start
    return {"cold_s": round(elapsed, 4)}


def run_bench(repeats=3, point=None):
    """Full benchmark payload for ``BENCH_multicore.json``."""
    return {
        "schema": "repro-camp/bench-multicore/v1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scaling": bench_scaling(point=point, repeats=repeats),
        "ablation_fast": bench_ablation_fast(),
    }


def write_bench(payload, out_path):
    path = Path(out_path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def check_regression(payload, baseline, max_ratio=3.0):
    """Compare a fresh payload against the committed baseline.

    Returns a list of human-readable problems (empty = gate passes):
    the cold scaling point must stay within ``max_ratio`` x the
    committed best time (with the :data:`BENCH_FLOOR_S` absolute
    floor), and the multi-core replay must be run-to-run deterministic.
    """
    problems = []
    best = payload["scaling"]["best_s"]
    base_best = baseline["scaling"]["best_s"]
    threshold = max(max_ratio * base_best, BENCH_FLOOR_S)
    if base_best > 0 and best > threshold:
        problems.append(
            "multi-core scaling point took %.3fs, over the gate of %.3fs "
            "(max(%.1fx committed baseline %.3fs, %.2fs floor))"
            % (best, threshold, max_ratio, base_best, BENCH_FLOOR_S)
        )
    if not payload["scaling"]["deterministic"]:
        problems.append(
            "multi-core replay is not run-to-run deterministic"
        )
    return problems
