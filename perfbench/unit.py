"""One cold unit of a batch workload, run in a fresh process.

Usage: ``python3 perfbench/unit.py SPEC.json`` where the spec names the
mode (``setup``, ``run``, ``reference`` or ``serve-reference``), its
inputs and the output path. The process first imports the public API
(the set-up a user's process pays before any work can start) and
records the monotonic time at which it is ready; in ``run`` mode it
then executes the unit against the empty cache root in
``$REPRO_CACHE_DIR`` and writes the records, per-operation latencies
and timestamps as JSON.
The reference modes recompute sampled outputs on the serial local
path, for the checks in ``run.py``.
"""

import json
import os
import sys
import time
from pathlib import Path


def _require_empty_cache_root():
    root = Path(os.environ["REPRO_CACHE_DIR"])
    if not root.is_dir() or any(root.iterdir()):
        raise SystemExit("cache root %s is not an empty directory" % root)


def _run_paper(inputs, orchestrator, cache):
    """The whole suite is one operation: ``experiment all`` prints its
    results only once every experiment has finished."""
    results = orchestrator.run_many(orchestrator.names(), fast=True,
                                    jobs=inputs["jobs"], cache=cache)
    return {result.name: result.records for result in results}, None


def _run_sweep(inputs, api, cache):
    latencies = []

    def on_point(_done, _total, _point_id, status, elapsed_s):
        if status not in ("cached", "journaled"):
            latencies.append(elapsed_s * 1e3)

    request = api.SweepRequest.from_payload(inputs["request"])
    response = api.sweep(request, cache=cache, jobs=inputs["jobs"],
                         on_point=on_point)
    return response["result"]["records"], latencies


def _run_reference(points, orchestrator):
    """Recompute sampled sweep points on the serial ``jobs=1`` path."""
    records = []
    for point in points:
        if "cores" in point:
            records += orchestrator.multicore_sweep_records(
                sizes=(point["size"],), methods=(point["method"],),
                machines=(point["machine"],), core_counts=(point["cores"],),
                jobs=1,
            )
        else:
            records += orchestrator.sweep_records(
                shapes=(tuple(point["shape"]),), methods=(point["method"],),
                machines=(point["machine"],),
            )
    return records


def main(argv):
    spec = json.loads(Path(argv[1]).read_text())
    from repro import api
    from repro.experiments import orchestrator
    from repro.experiments.cache import ResultCache

    ready = time.monotonic()
    out = {"ready": ready}
    if spec["mode"] == "run":
        _require_empty_cache_root()
        tracer = None
        if spec.get("trace_dir"):
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracer as tracer_module

            tracer = tracer_module.install(spec["trace_dir"])
        inputs = spec["inputs"]
        cache = ResultCache()
        start = time.monotonic()
        if tracer is not None:
            with tracer.span("workload"):
                records, latencies = _dispatch(inputs, api, orchestrator,
                                               cache)
        else:
            records, latencies = _dispatch(inputs, api, orchestrator, cache)
        end = time.monotonic()
        out.update(start=start, end=end, records=records,
                   latencies_ms=latencies or [(end - start) * 1e3])
        if tracer is not None:
            tracer.dump()
    elif spec["mode"] == "reference":
        out["records"] = _run_reference(spec["points"], orchestrator)
    elif spec["mode"] == "serve-reference":
        out["bodies"] = [
            json.dumps(api.execute(api.parse_request(payload)),
                       sort_keys=True, separators=(",", ":"))
            for payload in spec["payloads"]
        ]
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


def _dispatch(inputs, api, orchestrator, cache):
    if inputs["kind"] == "paper":
        return _run_paper(inputs, orchestrator, cache)
    return _run_sweep(inputs, api, cache)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
