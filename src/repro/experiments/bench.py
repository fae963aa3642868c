"""Shared harness behind the five ``repro-camp bench-*`` commands.

Every ``bench_*`` module keeps only its measurement body; what they
share lives here, once:

- :func:`timed` — GC-paused, memo-reset wall timing of a callable;
- :func:`scratch_cache` — a throwaway ``$REPRO_CACHE_DIR``;
- :func:`write` — the payload writer;
- :data:`GATES` and :func:`check` — one declarative table of every
  ``--check`` gate and its evaluator;
- :func:`report` — the committed-vs-fresh markdown delta table the CI
  perf jobs append to the step summary, reading each metric's
  direction from :data:`GATES`::

    python -m repro.experiments.bench \\
        --baseline-dir . --fresh-dir artifacts >> "$GITHUB_STEP_SUMMARY"
"""

import argparse
import contextlib
import gc
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, NamedTuple


def reset_memos():
    """Drop the in-process memos a cold run must not inherit."""
    from repro.experiments import runner
    from repro.gemm import microkernel, multicore
    from repro.simulator import trace_cache

    runner.reset_drivers()
    multicore.reset_recording_drivers()
    microkernel._BUILD_MEMO.clear()
    trace_cache.clear_memory()


def timed(fn, repeats=1, setup=None, reset=reset_memos):
    """Wall-time ``repeats`` calls of ``fn``; returns ``(stats, results)``.

    Garbage is collected once up front; before every call ``reset`` (by
    default :func:`reset_memos`) and ``setup`` (if any) run, and the
    cyclic GC is paused over the call itself — otherwise a collection
    landing in one timed call but not another times whatever heap the
    process holds instead of the code under test. ``stats`` holds every
    wall time plus the best and the median (seconds, rounded to the
    microsecond); ``results`` holds each call's return value.
    """
    walls, results = [], []
    was_enabled = gc.isenabled()
    gc.collect()
    try:
        for _ in range(max(1, repeats)):
            reset()
            if setup is not None:
                setup()
            gc.disable()
            start = time.perf_counter()
            results.append(fn())
            walls.append(time.perf_counter() - start)
            if was_enabled:
                gc.enable()
    finally:
        if was_enabled:
            gc.enable()
    ordered = sorted(walls)
    return {
        "wall_s": [round(wall, 6) for wall in walls],
        "best_s": round(ordered[0], 6),
        "median_s": round(ordered[len(ordered) // 2], 6),
    }, results


@contextlib.contextmanager
def scratch_cache():
    """A throwaway cache root, exported as ``$REPRO_CACHE_DIR``.

    The result, journal, compiled-trace and analytic-coefficient tiers
    all resolve their directories from the variable, so everything a
    bench stores lands here and never in the user's real cache. The
    in-process analytic model registry is reset on entry and exit so
    every calibration inside is cold.
    """
    from repro.analytic import reset_models

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        previous = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = tmp
        reset_models()
        try:
            yield tmp
        finally:
            reset_models()
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous


def write(payload, out_path):
    path = Path(out_path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


class Gate(NamedTuple):
    """One ``--check`` row.

    ``kind`` is ``max_ratio`` (at most ``bound`` x the committed
    baseline's value, never under the absolute ``floor``), ``min`` /
    ``max`` (against ``bound``; a ``min`` row with a ``floor`` is
    skipped while the sibling ``cold_s`` is under it — a ratio over a
    cold time that small measures timer noise), ``true`` or ``equals``.
    ``bound`` may be a callable of the payload. A ``*`` path part
    matches every key at that level. ``message`` is a
    :meth:`str.format` template over ``value``, ``limit``, ``s`` (the
    dict holding the value) and ``p`` (the payload); ``max_ratio``
    rows name the measured thing and get the ratio suffix appended.
    """

    bench: str
    path: str
    kind: str
    bound: Any
    floor: float
    message: str

    @property
    def better(self):
        return {"max_ratio": "lower", "max": "lower",
                "min": "higher"}.get(self.kind)


def _batch_floor(payload):
    # a fast single-repeat median includes the cold compile, so the
    # fast engine comparison is held to 3x; repeated full runs to 8x
    fast = payload["engine_comparison"]["fig17"]["fast"]
    return 3.0 if fast else 8.0


def _trace_cache_gates(bench):
    # both sides are timed back-to-back in-process, so the 0.02 s floor
    # only needs to clear timer noise, not cross-machine variance
    return (
        Gate(bench, "trace_cache.identical", "true", None, 0,
             "compiled traces loaded from the trace cache differ from "
             "fresh compiles"),
        Gate(bench, "trace_cache.speedup_best", "min", 2.0, 0.02,
             "warm trace-cache loads are only {value:.1f}x faster than "
             "cold compiles ({s[warm_s]:.3f}s vs {s[cold_s]:.3f}s over "
             "{s[instructions]} instructions); the compiled-trace cache "
             "should make them >= {limit:.1f}x"),
    )


#: every bench gate. ``max_ratio`` floors (0.25 s, 1 s for the
#: calibration and daemon cold starts) keep a fast machine's tiny
#: committed baseline from turning a 3x ratio into raw cross-machine
#: wall-clock noise
GATES = (
    Gate("pipeline", "fast_suite.warm_s", "max_ratio", 3.0, 0.25,
         "warm fast-suite rerun"),
    # timed() runs the cold pass GC-paused, so this is the suite's
    # compute alone: cyclic-GC cost is excluded (one measurement of
    # `experiment all --fast` read 29.6 s with GC on, 12.0 s off)
    Gate("pipeline", "fast_suite.cold_s", "max_ratio", 3.0, 0.25,
         "cold fast-suite pass"),
    Gate("pipeline", "fast_suite.warm_cache_hits", "min", 1, 0,
         "warm rerun recorded {value} cache hits"),
    Gate("pipeline", "engine_comparison.*.records_identical", "true",
         None, 0, "scalar and batch engines disagree"),
    Gate("pipeline", "engine_comparison.fig17.speedup_median", "min",
         _batch_floor, 0,
         "batch engine is only {value:.2f}x faster than scalar (median), "
         "below the {limit:.1f}x floor"),
    *_trace_cache_gates("pipeline"),
    Gate("pipeline", "trace_cache.worker_fanout.worker_compiles", "max",
         0, 0,
         "pool workers compiled {value} traces across {s[points]} "
         "multicore points; the parent must ship compiled records so "
         "workers never compile"),
    Gate("pipeline", "trace_cache.worker_fanout.warm.parent_compiles",
         "max", 0, 0,
         "the warm fan-out sweep recompiled {value} traces in the parent "
         "instead of loading them from the trace cache"),
    Gate("multicore", "scaling.best_s", "max_ratio", 3.0, 0.25,
         "multi-core scaling point"),
    Gate("multicore", "scaling.deterministic", "true", None, 0,
         "multi-core replay is not run-to-run deterministic"),
    Gate("sweep", "warm_speedup", "min", 5.0, 0.05,
         "warm sweep rerun is only {value:.1f}x faster than cold "
         "({s[warm_s]:.3f}s vs {s[cold_s]:.3f}s); the result cache should "
         "make it >= {limit:.1f}x"),
    Gate("sweep", "warm_identical", "true", None, 0,
         "warm sweep records differ from the cold run"),
    Gate("sweep", "interrupted", "true", None, 0,
         "the executor abort hook did not interrupt the sweep"),
    Gate("sweep", "resume_exact", "true", None, 0,
         "resumed sweep recomputed {s[resume_recomputed]} points, not "
         "exactly the {s[points_total]} - {s[interrupt_after]} the "
         "interruption left unfinished (journal replay leak)"),
    Gate("sweep", "resume_identical", "true", None, 0,
         "resumed sweep records differ from the cold run"),
    Gate("sweep", "cold_s", "max_ratio", 3.0, 0.25, "cold sweep"),
    *_trace_cache_gates("sweep"),
    Gate("analytic", "accuracy.p95_rel_error", "max",
         lambda p: p["accuracy"]["p95_band"], 0,
         "model-accuracy p95 relative error {value:.2%} exceeds the "
         "pinned band of {limit:.0%}"),
    Gate("analytic", "accuracy.max_rel_error", "max",
         lambda p: p["accuracy"]["point_cap"], 0,
         "worst model-accuracy point is {value:.2%} relative error, over "
         "the hard cap of {limit:.0%}"),
    Gate("analytic", "predict.speedup", "min", 100.0, 0,
         "warm analytic prediction is only {value:.1f}x faster than "
         "simulation ({s[model_per_shape_s]:.4g}s vs "
         "{s[sim_per_shape_s]:.4g}s per shape); the closed-form model "
         "should be >= {limit:.0f}x"),
    Gate("analytic", "calibrate_s", "max_ratio", 3.0, 1.0,
         "cold calibration"),
    Gate("serve", "warm.speedup_p50", "min", 20.0, 0,
         "warm served p50 is only {value:.1f}x faster than the one-shot "
         "CLI ({s[p50_s]:.4f}s vs {p[cli_one_shot_s]:.3f}s); the daemon "
         "should answer a warm repeat >= {limit:.0f}x faster"),
    Gate("serve", "byte_identical", "true", None, 0,
         "served responses are not byte-identical to local execution"),
    Gate("serve", "dedup.computes", "equals", 1, 0,
         "{s[concurrency]} concurrent identical sweeps triggered {value} "
         "computes; single-flight must coalesce them to exactly {limit}"),
    Gate("serve", "dedup.identical", "true", None, 0,
         "concurrent sweep responses differ byte-wise"),
    Gate("serve", "dedup.coalesced", "true", None, 0,
         "expected {s[concurrency]} - 1 coalesced followers (dedup + "
         "memo), counters show {s[followers]} dedup + {s[memo_hits]} "
         "memo"),
    Gate("serve", "cold_start_s", "max_ratio", 3.0, 1.0,
         "daemon cold-start"),
)

_RATIO_SUFFIX = (" took {value:.3f}s, over the gate of {limit:.3f}s "
                 "(max({bound:.1f}x committed baseline {base:.3f}s, "
                 "{floor:.2f}s floor))")

_MISSING = object()


def _get(tree, path):
    for part in path.split("."):
        if not isinstance(tree, dict) or part not in tree:
            return _MISSING
        tree = tree[part]
    return tree


def _expand(payload, path):
    """Concrete paths for ``path``, its ``*`` part matched in ``payload``."""
    head, star, tail = path.partition(".*.")
    if not star:
        return [path]
    section = _get(payload, head)
    if not isinstance(section, dict):
        return [path]
    return ["%s.%s.%s" % (head, key, tail) for key in section]


def _problem(gate, payload, baseline, path):
    """The row's failure message for ``path``, or ``None`` if it holds."""
    value = _get(payload, path)
    if value is _MISSING:
        return "payload has no %s" % path
    parent = path.rpartition(".")[0]
    section = _get(payload, parent) if parent else payload
    bound = gate.bound(payload) if callable(gate.bound) else gate.bound
    fields = {"value": value, "limit": bound, "bound": bound,
              "floor": gate.floor, "s": section, "p": payload}
    message = gate.message
    if gate.kind == "max_ratio":
        base = _get(baseline or {}, path)
        if base is _MISSING or not base > 0:
            return None
        fields.update(base=base, limit=max(bound * base, gate.floor))
        failed = value > fields["limit"]
        message += _RATIO_SUFFIX
    elif gate.kind == "min":
        if gate.floor and section.get("cold_s", 0) < gate.floor:
            return None
        failed = value < bound
    elif gate.kind == "max":
        failed = value > bound
    elif gate.kind == "equals":
        failed = value != bound
    else:
        failed = not value
    return "%s: %s" % (path, message.format(**fields)) if failed else None


def rows(bench, payload):
    """One ``path  value`` line per gated metric of ``bench``."""
    return [
        "%-46s %s" % (path, _format_value(_get(payload, path)))
        for gate in GATES if gate.bench == bench
        for path in _expand(payload, gate.path)
        if _get(payload, path) is not _MISSING
    ]


def check(bench, payload, baseline=None):
    """Evaluate every :data:`GATES` row of ``bench``; empty list = pass."""
    problems = []
    for gate in GATES:
        if gate.bench != bench:
            continue
        for path in _expand(payload, gate.path):
            problem = _problem(gate, payload, baseline, path)
            if problem is not None:
                problems.append(problem)
    return problems


# ---------------------------------------------------------------------------
# committed-vs-fresh delta report


def flatten(payload, prefix=""):
    """Numeric/bool leaves of a nested payload as dotted keys."""
    out = {}
    for key, value in payload.items():
        dotted = prefix + key
        if isinstance(value, dict):
            out.update(flatten(value, dotted + "."))
        elif isinstance(value, bool) or isinstance(value, (int, float)):
            out[dotted] = value
    return out


def _matches(pattern, metric):
    parts, pattern_parts = metric.split("."), pattern.split(".")
    return len(parts) == len(pattern_parts) and all(
        want in ("*", got) for want, got in zip(pattern_parts, parts)
    )


def better(metric):
    """``"lower"``/``"higher"`` from the gate on ``metric``, else ``None``.

    A metric without a gate of its own takes the direction of a gated
    metric with the same leaf name (``cold_s``, ``speedup``, ...);
    anything else has no known direction and is never flagged.
    """
    leaf = metric.rsplit(".", 1)[-1]
    by_leaf = None
    for gate in GATES:
        if gate.better is None:
            continue
        if _matches(gate.path, metric):
            return gate.better
        if by_leaf is None and gate.path.rsplit(".", 1)[-1] == leaf:
            by_leaf = gate.better
    return by_leaf


def _format_value(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    return "%.4g" % value


def _format_delta(metric, base, fresh):
    if isinstance(base, bool) or isinstance(fresh, bool):
        return "" if base == fresh else "changed"
    if base == 0:
        return "n/a" if fresh != 0 else ""
    delta = (fresh - base) / abs(base)
    if abs(delta) < 0.005:
        return ""
    direction = better(metric)
    worse = (direction == "lower" and delta > 0) or (
        direction == "higher" and delta < 0)
    return "%+.1f%%%s" % (100 * delta, " ⚠" if worse else "")


def delta_table(name, baseline, fresh):
    """One bench's markdown table: committed vs fresh, per metric."""
    base_flat = flatten(baseline)
    fresh_flat = flatten(fresh)
    lines = [
        "### %s" % name,
        "",
        "| metric | committed | fresh | delta |",
        "|---|---|---|---|",
    ]
    for metric in sorted(set(base_flat) & set(fresh_flat)):
        base_value = base_flat[metric]
        fresh_value = fresh_flat[metric]
        lines.append("| %s | %s | %s | %s |" % (
            metric, _format_value(base_value), _format_value(fresh_value),
            _format_delta(metric, base_value, fresh_value),
        ))
    only = sorted(set(base_flat) ^ set(fresh_flat))
    if only:
        lines.append("")
        lines.append("_metrics present on one side only: %s_"
                     % ", ".join(only))
    lines.append("")
    return "\n".join(lines)


def report(baseline_dir, fresh_dir):
    """Markdown report over every ``BENCH_*.json`` in ``fresh_dir``."""
    baseline_dir = Path(baseline_dir)
    fresh_dir = Path(fresh_dir)
    sections = ["## Perf baselines: committed vs this run", ""]
    fresh_paths = sorted(fresh_dir.glob("BENCH_*.json"))
    if not fresh_paths:
        raise FileNotFoundError("no BENCH_*.json under %s" % fresh_dir)
    for fresh_path in fresh_paths:
        baseline_path = baseline_dir / fresh_path.name
        fresh = json.loads(fresh_path.read_text())
        if not baseline_path.exists():
            sections.append("### %s\n\n_no committed baseline_\n"
                            % fresh_path.name)
            continue
        baseline = json.loads(baseline_path.read_text())
        sections.append(delta_table(fresh_path.name, baseline, fresh))
    return "\n".join(sections)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="render BENCH_*.json deltas as markdown")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory of the committed baselines")
    parser.add_argument("--fresh-dir", required=True,
                        help="directory of this run's fresh payloads")
    args = parser.parse_args(argv)
    try:
        print(report(args.baseline_dir, args.fresh_dir))
    except FileNotFoundError as error:
        print("bench-report error: %s" % error, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
