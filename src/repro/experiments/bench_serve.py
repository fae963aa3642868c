"""Serving daemon benchmark (``repro-camp bench-serve``).

Produces ``BENCH_serve.json``, gated by the ``serve`` rows of
:data:`repro.experiments.bench.GATES`:

- **One-shot CLI** — ``python -m repro.cli gemm ...`` in a fresh
  subprocess: the full cold start a process pays per query.
- **Served** — the same request against an in-process daemon: its
  cold start, the first request (the compute), then
  :data:`WARM_REQUESTS` repeats whose latencies give warm p50/p99;
  the daemon must beat the one-shot CLI by well over an order of
  magnitude.
- **Byte identity** — served responses must equal each other and the
  canonical encoding of local execution through
  :mod:`repro.serving.execute`.
- **Single-flight dedup** — :data:`CONCURRENCY` threads post the same
  sweep at once; the service counters must show exactly one compute.
"""

import concurrent.futures
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from repro.experiments.bench import scratch_cache, timed

#: the repeated query: small enough for CI, real cycle-level simulation
BENCH_GEMM = {"m": 96, "n": 96, "k": 96, "method": "camp8",
              "machine": "a64fx"}

#: the dedup grid: 2 sizes x 1 method, all posted concurrently
BENCH_SWEEP = {"sizes": (48, 64), "methods": ("camp8",),
               "machines": ("a64fx",)}

#: warm requests timed for p50/p99
WARM_REQUESTS = 40

#: threads posting the identical sweep for the single-flight check
CONCURRENCY = 8


def _cli_command(cache_dir):
    """The one-shot CLI invocation of the bench request, and its env."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [src_root, env.get("PYTHONPATH")] if p
    )
    command = [
        sys.executable, "-m", "repro.cli", "gemm",
        str(BENCH_GEMM["m"]), str(BENCH_GEMM["n"]), str(BENCH_GEMM["k"]),
        "--method", BENCH_GEMM["method"], "--machine", BENCH_GEMM["machine"],
    ]
    return command, env


def run_bench(repeats=3):
    """Full benchmark payload for ``BENCH_serve.json``."""
    from repro.serving import execute as serving_execute
    from repro.serving.requests import GemmRequest, SweepRequest
    from repro.serving.server import SimulationService

    gemm_request = GemmRequest(**BENCH_GEMM)
    sweep_request = SweepRequest(**BENCH_SWEEP)

    with scratch_cache() as cache_dir:
        command, env = _cli_command(cache_dir)
        cli, _ = timed(lambda: subprocess.run(
            command, check=True, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ), repeats)

        def start_service():
            service = SimulationService(cache_dir=cache_dir)
            service.warm_up()
            return service

        cold_start, (service,) = timed(start_service)
        payload = json.loads(gemm_request.to_json())
        first_request, (first,) = timed(lambda: service.handle(dict(payload)))
        warm, bodies = timed(lambda: service.handle(dict(payload)),
                             max(2, WARM_REQUESTS))
        latencies = warm["wall_s"]

        local = json.dumps(
            serving_execute.gemm_response(gemm_request),
            sort_keys=True, separators=(",", ":"),
        ).encode()

        before = {**service.counters}
        sweep_payload = json.loads(sweep_request.to_json())
        with concurrent.futures.ThreadPoolExecutor(CONCURRENCY) as pool:
            sweep_bodies = list(pool.map(
                lambda _: service.handle(dict(sweep_payload)),
                range(CONCURRENCY),
            ))
        delta = {name: service.counters[name] - before[name]
                 for name in ("computes", "dedup_hits", "memo_hits",
                              "points_computed")}

    return {
        "schema": "repro-camp/bench-serve/v1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "request": dict(BENCH_GEMM),
        "cli_one_shot_s": cli["best_s"],
        "cold_start_s": cold_start["best_s"],
        "first_request_s": first_request["best_s"],
        "warm": {
            "requests": len(latencies),
            "p50_s": warm["median_s"],
            "p99_s": sorted(latencies)[round(0.99 * (len(latencies) - 1))],
            "requests_per_s": round(len(latencies) / max(sum(latencies),
                                                         1e-9), 1),
            "speedup_p50": round(cli["best_s"] / max(warm["median_s"], 1e-9),
                                 1),
        },
        "byte_identical": first == bodies[-1] == local,
        "dedup": {
            "grid": {k: list(v) for k, v in BENCH_SWEEP.items()},
            "concurrency": CONCURRENCY,
            "computes": delta["computes"],
            "followers": delta["dedup_hits"],
            "memo_hits": delta["memo_hits"],
            "points_computed": delta["points_computed"],
            "hit_rate": round((delta["dedup_hits"] + delta["memo_hits"])
                              / CONCURRENCY, 3),
            "identical": len(set(sweep_bodies)) == 1,
            "coalesced": (delta["dedup_hits"] + delta["memo_hits"]
                          == CONCURRENCY - 1),
        },
    }
