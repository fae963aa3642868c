"""Tests for the shared bench harness: the gate table and ``timed``."""

import copy
import gc
import string

import pytest

from repro.experiments import bench

_TRACE_CACHE = {
    "cold_s": 0.07, "warm_s": 0.02, "speedup_best": 3.5,
    "instructions": 70000, "identical": True,
}

#: one payload per bench that passes every row against itself
CLEAN = {
    "pipeline": {
        "engine_comparison": {
            "fig17": {"fast": False, "records_identical": True,
                      "speedup_median": 10.0},
            "fig12": {"fast": False, "records_identical": True,
                      "speedup_median": 5.0},
        },
        "fast_suite": {"cold_s": 5.0, "warm_s": 0.05,
                       "warm_cache_hits": 20},
        "trace_cache": {
            **_TRACE_CACHE,
            "worker_fanout": {"points": 4, "worker_compiles": 0,
                              "warm": {"parent_compiles": 0}},
        },
    },
    "multicore": {"scaling": {"best_s": 1.0, "deterministic": True}},
    "sweep": {
        "cold_s": 1.0, "warm_s": 0.05, "warm_speedup": 20.0,
        "warm_identical": True, "interrupted": True, "interrupt_after": 8,
        "points_total": 16, "resume_recomputed": 8, "resume_exact": True,
        "resume_identical": True, "trace_cache": dict(_TRACE_CACHE),
    },
    "analytic": {
        "accuracy": {"p95_rel_error": 0.05, "max_rel_error": 0.1,
                     "p95_band": 0.1, "point_cap": 0.25},
        "predict": {"speedup": 5000.0, "model_per_shape_s": 1e-5,
                    "sim_per_shape_s": 0.05},
        "calibrate_s": 10.0,
    },
    "serve": {
        "cli_one_shot_s": 1.0, "cold_start_s": 1.5,
        "warm": {"speedup_p50": 100.0, "p50_s": 0.01},
        "byte_identical": True,
        "dedup": {"concurrency": 8, "computes": 1, "followers": 7,
                  "memo_hits": 0, "identical": True, "coalesced": True},
    },
}


def _set(payload, path, value):
    *parents, leaf = path.split(".")
    for part in parents:
        payload = payload[part]
    payload[leaf] = value


def _violation(gate, payload):
    """A value for ``gate``'s field that breaks that row alone."""
    bound = gate.bound(payload) if callable(gate.bound) else gate.bound
    if gate.kind == "max_ratio":
        return 2 * max(bound * bench._get(payload, gate.path), gate.floor)
    if gate.kind == "min":
        return bound / 2
    if gate.kind == "max":
        return 2 * bound if bound else bound + 1
    if gate.kind == "equals":
        return bound + 1
    return False


def _literal_chunks(message):
    return [text for text, *_ in string.Formatter().parse(message) if text]


#: every gate's kind, bound and floor, pinned: widening one is a
#: deliberate change that must show up here
PINNED = {
    ("pipeline", "fast_suite.warm_s"): ("max_ratio", 3.0, 0.25),
    ("pipeline", "fast_suite.cold_s"): ("max_ratio", 3.0, 0.25),
    ("pipeline", "fast_suite.warm_cache_hits"): ("min", 1, 0),
    ("pipeline", "engine_comparison.*.records_identical"): ("true", None, 0),
    ("pipeline", "engine_comparison.fig17.speedup_median"): ("min", None, 0),
    ("pipeline", "trace_cache.identical"): ("true", None, 0),
    ("pipeline", "trace_cache.speedup_best"): ("min", 2.0, 0.02),
    ("pipeline", "trace_cache.worker_fanout.worker_compiles"): ("max", 0, 0),
    ("pipeline", "trace_cache.worker_fanout.warm.parent_compiles"):
        ("max", 0, 0),
    ("multicore", "scaling.best_s"): ("max_ratio", 3.0, 0.25),
    ("multicore", "scaling.deterministic"): ("true", None, 0),
    ("sweep", "warm_speedup"): ("min", 5.0, 0.05),
    ("sweep", "warm_identical"): ("true", None, 0),
    ("sweep", "interrupted"): ("true", None, 0),
    ("sweep", "resume_exact"): ("true", None, 0),
    ("sweep", "resume_identical"): ("true", None, 0),
    ("sweep", "cold_s"): ("max_ratio", 3.0, 0.25),
    ("sweep", "trace_cache.identical"): ("true", None, 0),
    ("sweep", "trace_cache.speedup_best"): ("min", 2.0, 0.02),
    ("analytic", "accuracy.p95_rel_error"): ("max", None, 0),
    ("analytic", "accuracy.max_rel_error"): ("max", None, 0),
    ("analytic", "predict.speedup"): ("min", 100.0, 0),
    ("analytic", "calibrate_s"): ("max_ratio", 3.0, 1.0),
    ("serve", "warm.speedup_p50"): ("min", 20.0, 0),
    ("serve", "byte_identical"): ("true", None, 0),
    ("serve", "dedup.computes"): ("equals", 1, 0),
    ("serve", "dedup.identical"): ("true", None, 0),
    ("serve", "dedup.coalesced"): ("true", None, 0),
    ("serve", "cold_start_s"): ("max_ratio", 3.0, 1.0),
}


def test_gate_bounds_pinned():
    table = {
        (gate.bench, gate.path):
            (gate.kind, None if callable(gate.bound) else gate.bound,
             gate.floor)
        for gate in bench.GATES
    }
    assert table == PINNED
    # the payload-derived bounds: the pinned accuracy band travels in
    # the payload
    payload = CLEAN["analytic"]
    bounds = {gate.path: gate.bound(payload) for gate in bench.GATES
              if gate.bench == "analytic" and callable(gate.bound)}
    assert bounds == {"accuracy.p95_rel_error": 0.1,
                      "accuracy.max_rel_error": 0.25}


@pytest.mark.parametrize("bench_name", sorted(CLEAN))
def test_clean_payload_passes(bench_name):
    payload = CLEAN[bench_name]
    assert bench.check(bench_name, payload, payload) == []


def test_every_bench_has_a_clean_payload():
    assert {gate.bench for gate in bench.GATES} == set(CLEAN)


@pytest.mark.parametrize(
    "gate", bench.GATES, ids=["%s:%s" % (g.bench, g.path) for g in bench.GATES]
)
def test_each_row_flags_its_own_violation(gate):
    baseline = CLEAN[gate.bench]
    payload = copy.deepcopy(baseline)
    path = gate.path.replace("*", "fig12")
    _set(payload, path, _violation(gate, payload))
    problems = bench.check(gate.bench, payload, baseline)
    assert len(problems) == 1, problems
    assert problems[0].startswith(path + ": ")
    for chunk in _literal_chunks(gate.message):
        assert chunk in problems[0]


@pytest.mark.parametrize("fast, floor", [(True, 3.0), (False, 8.0)])
def test_batch_floor_derived_from_payload(fast, floor):
    payload = copy.deepcopy(CLEAN["pipeline"])
    fig17 = payload["engine_comparison"]["fig17"]
    fig17["fast"] = fast
    fig17["speedup_median"] = floor + 0.1
    assert bench.check("pipeline", payload, payload) == []
    fig17["speedup_median"] = floor - 0.1
    problems = bench.check("pipeline", payload, payload)
    assert len(problems) == 1
    assert "below the %.1fx floor" % floor in problems[0]


def test_ratio_gate_skipped_under_cold_floor():
    payload = copy.deepcopy(CLEAN["sweep"])
    payload["trace_cache"].update(cold_s=0.01, speedup_best=1.0)
    assert bench.check("sweep", payload, payload) == []


def test_max_ratio_needs_a_baseline_value():
    payload = copy.deepcopy(CLEAN["multicore"])
    payload["scaling"]["best_s"] = 100.0
    assert bench.check("multicore", payload, None) == []
    assert bench.check("multicore", payload, {"scaling": {"best_s": 0}}) == []


def test_max_ratio_floor_saves_a_tiny_baseline():
    payload = copy.deepcopy(CLEAN["multicore"])
    payload["scaling"]["best_s"] = 0.2
    baseline = {"scaling": {"best_s": 1e-3}}
    assert bench.check("multicore", payload, baseline) == []
    payload["scaling"]["best_s"] = 0.3
    assert bench.check("multicore", payload, baseline)


def test_missing_field_is_a_problem():
    payload = copy.deepcopy(CLEAN["sweep"])
    del payload["trace_cache"]
    problems = bench.check("sweep", payload, payload)
    assert "payload has no trace_cache.identical" in problems
    assert "payload has no trace_cache.speedup_best" in problems


class TestTimed:
    def test_stats_and_results(self):
        calls = []
        stats, results = bench.timed(lambda: len(calls), 3,
                                     setup=lambda: calls.append(1))
        assert results == [1, 2, 3]
        assert len(stats["wall_s"]) == 3
        assert stats["best_s"] == min(stats["wall_s"])
        assert stats["median_s"] == sorted(stats["wall_s"])[1]

    def test_gc_paused_inside_and_restored(self):
        assert gc.isenabled()
        _, (inside,) = bench.timed(gc.isenabled)
        assert inside is False
        assert gc.isenabled()

    def test_memos_reset_before_each_call(self):
        from repro.gemm import microkernel

        microkernel._BUILD_MEMO["sentinel"] = object()
        _, (present,) = bench.timed(
            lambda: "sentinel" in microkernel._BUILD_MEMO)
        assert present is False


def test_scratch_cache_redirects_and_restores(monkeypatch, tmp_path):
    import os

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with bench.scratch_cache() as scratch:
        assert os.environ["REPRO_CACHE_DIR"] == scratch != str(tmp_path)
    assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path)
