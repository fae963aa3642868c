"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gemm_args(self):
        args = build_parser().parse_args(
            ["gemm", "64", "32", "16", "--method", "camp4"]
        )
        assert (args.m, args.n, args.k) == (64, 32, 16)
        assert args.method == "camp4"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "camp8" in out and "table1" in out

    def test_gemm_analysis(self, capsys):
        assert main(["gemm", "64", "64", "64", "--method", "camp8"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "GOPS" in out

    def test_gemm_verified(self, capsys):
        assert main(["gemm", "32", "32", "32", "--method", "camp8", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "numeric verification" in out

    def test_experiment_fast(self, capsys):
        assert main(["experiment", "area", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "physical design" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_ablation(self, capsys):
        assert main(["ablation", "hybrid-block", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "building-block" in out

    def test_ablation_unknown(self):
        assert main(["ablation", "nope"]) == 2

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "0.027" in out


class TestOrchestratorSurface:
    """The --jobs/--out/--format/cache plumbing added with the orchestrator."""

    def test_json_format(self, capsys):
        assert main(["experiment", "area", "--fast", "--format", "json",
                     "--no-cache"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert len(documents) == 1
        assert documents[0]["experiment"] == "area"
        assert documents[0]["records"][0]["platform"] == "a64fx"

    def test_csv_format(self, capsys):
        assert main(["experiment", "area", "--fast", "--format", "csv",
                     "--no-cache"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# area"
        assert lines[1].startswith("platform,")

    def test_out_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["experiment", "area", "--fast", "--out", str(out_dir),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert (out_dir / "area.json").exists()
        assert (out_dir / "area.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["experiments"][0]["name"] == "area"

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        argv = ["experiment", "area", "--fast",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert list((tmp_path / "cache").rglob("*.json"))

    def test_jobs_plumbing(self, capsys):
        assert main(["ablation", "all", "--fast", "--jobs", "2",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "building-block" in out and "vector-length" in out.lower()

    def test_experiment_all_unknown_still_2(self, capsys):
        assert main(["experiment", "fig99", "--no-cache"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSweep:
    def test_smoke_json(self, capsys):
        assert main(["sweep", "--sizes", "32", "--methods", "camp8",
                     "--no-cache", "--format", "json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        record = documents[0]["records"][0]
        assert record["method"] == "camp8"
        assert record["baseline"] == "openblas-fp32"
        assert record["speedup"] > 1.0

    def test_explicit_shapes(self, capsys):
        assert main(["sweep", "--shapes", "16x24x32", "--methods", "camp8",
                     "--no-cache", "--format", "csv"]) == 0
        assert "16x24x32" in capsys.readouterr().out

    def test_unknown_method_exit_code(self, capsys):
        assert main(["sweep", "--sizes", "32", "--methods", "nope",
                     "--no-cache"]) == 2
        assert "sweep error" in capsys.readouterr().err

    def test_unknown_machine_exit_code(self, capsys):
        assert main(["sweep", "--sizes", "32", "--machines", "z80",
                     "--no-cache"]) == 2

    def test_empty_sweep_exit_code(self, capsys):
        assert main(["sweep", "--no-cache"]) == 2

    def test_malformed_shape_exit_code(self, capsys):
        assert main(["sweep", "--shapes", "16x24", "--no-cache"]) == 2


class TestCoresOption:
    def test_ablation_multicore_cores(self, capsys):
        assert main(["ablation", "multicore", "--fast", "--cores", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "multi-core scaling" in out
        assert "Analytic" in out

    def test_experiment_multicore_scaling_cores(self, capsys):
        code = main(
            ["experiment", "multicore-scaling", "--fast", "--cores", "1,4",
             "--format", "csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cores" in out and ",4," in out

    def test_cores_rejected_for_other_experiments(self, capsys):
        assert main(["experiment", "fig1", "--cores", "1,4"]) == 2
        err = capsys.readouterr().err
        assert "--cores" in err

    def test_cores_rejected_for_all(self, capsys):
        assert main(["experiment", "all", "--cores", "1,4"]) == 2

    def test_malformed_cores(self, capsys):
        assert main(["ablation", "multicore", "--cores", "two"]) == 2
        assert "bad --cores" in capsys.readouterr().err

    def test_nonpositive_cores(self, capsys):
        assert main(["ablation", "multicore", "--fast", "--cores", "0"]) == 2
        assert "core counts must be >= 1" in capsys.readouterr().err

    def test_sweep_cores_rejects_baseline(self, capsys):
        code = main(
            ["sweep", "--sizes", "96", "--methods", "camp8", "--cores", "4",
             "--baseline", "openblas-fp32"]
        )
        assert code == 2
        assert "--baseline does not apply" in capsys.readouterr().err

    def test_sweep_with_cores(self, capsys):
        code = main(
            ["sweep", "--sizes", "96", "--methods", "camp8",
             "--cores", "1,4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "multi-core scaling" in out
        assert "DRAM-limited" in out

    def test_sweep_tile2d_strategy(self, capsys):
        code = main(
            ["sweep", "--sizes", "96", "--methods", "camp8",
             "--cores", "4", "--strategy", "tile2d"]
        )
        assert code == 0

    def test_sweep_invalid_cores(self, capsys):
        assert main(
            ["sweep", "--sizes", "96", "--methods", "camp8", "--cores", "0"]
        ) == 2


MACHINE_TOML = """
name = "cli-test"
frequency_ghz = 1.0
vector_length_bits = 128
issue_width = 1
window = 1

[fu_counts]
scalar = 1
branch = 1
load = 1
store = 1
valu = 1
vmul = 1
matrix = 1

[fu_latency]
scalar = 1
branch = 1
load = 2
store = 1
valu = 2
vmul = 3
matrix = 4

[[caches]]
name = "l1"
size_bytes = 32768
line_bytes = 64
ways = 4
load_to_use = 2

[dram]
latency = 60
bytes_per_cycle = 8.0
channels = 1

[sweep]
baseline = "handv-int8"
methods = ["camp8", "handv-int8"]
"""


class TestMachineSurface:
    """--machine-file loading, registry-derived list/validation."""

    @pytest.fixture
    def machine_file(self, tmp_path):
        path = tmp_path / "cli-test.toml"
        path.write_text(MACHINE_TOML)
        return str(path)

    def test_list_machines_from_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("a64fx", "sargantana", "sve2-edge", "x280",
                     "hbm-server"):
            assert name in out
        assert "machine-sweep" in out

    def test_list_includes_loaded_machine_file(self, capsys, machine_file,
                                               fresh_registry):
        assert main(["list", "--machine-file", machine_file]) == 0
        assert "cli-test" in capsys.readouterr().out

    def test_gemm_on_machine_file(self, capsys, machine_file,
                                  fresh_registry):
        assert main(["gemm", "32", "32", "32", "--machine", "cli-test",
                     "--machine-file", machine_file]) == 0
        assert "camp8 on cli-test+camp" in capsys.readouterr().out

    def test_gemm_unknown_machine_exit_code(self, capsys):
        assert main(["gemm", "32", "32", "32", "--machine", "z80"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine 'z80'" in err and "a64fx" in err

    def test_malformed_machine_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text("name = 'broken'\n")
        assert main(["list", "--machine-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "machine file error" in err
        assert "missing required field" in err

    def test_sweep_on_machine_file_uses_its_baseline(self, capsys,
                                                     machine_file,
                                                     fresh_registry):
        assert main(["sweep", "--sizes", "32", "--methods", "camp8",
                     "--machines", "cli-test", "--machine-file",
                     machine_file, "--no-cache", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)[0]["records"][0]
        assert record["machine"] == "cli-test"
        assert record["baseline"] == "handv-int8"

    def test_sweep_unknown_machine_lists_registry(self, capsys):
        assert main(["sweep", "--sizes", "32", "--machines", "z80",
                     "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "z80" in err and "sve2-edge" in err

    def test_machine_sweep_experiment(self, capsys, fresh_registry):
        assert main(["experiment", "machine-sweep", "--fast", "--machine",
                     "sargantana", "--format", "csv", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sargantana" in out and "blis-int32" in out

    def test_machine_option_rejected_for_pinned_experiments(self, capsys):
        assert main(["experiment", "fig1", "--machine", "x280"]) == 2
        assert "--machine" in capsys.readouterr().err

    def test_machine_option_unknown_machine(self, capsys):
        assert main(["experiment", "machine-sweep", "--machine", "z80"]) == 2
        assert "unknown machine" in capsys.readouterr().err

    def test_ablation_multicore_on_other_machine(self, capsys,
                                                 fresh_registry):
        assert main(["ablation", "multicore", "--fast", "--cores", "1,2",
                     "--machine", "x280", "--no-cache"]) == 0
        assert "multi-core scaling" in capsys.readouterr().out


class TestBenchMulticore:
    def test_bench_and_gate(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import bench_multicore

        monkeypatch.setattr(
            bench_multicore, "BENCH_POINT",
            {"method": "camp8", "size": 96, "cores": 4,
             "strategy": "npanel"},
        )
        out_path = tmp_path / "BENCH_multicore.json"
        assert main(
            ["bench-multicore", "--repeats", "2", "--out", str(out_path)]
        ) == 0
        assert out_path.exists()
        payload = json.loads(out_path.read_text())
        assert payload["scaling"]["deterministic"] is True
        # the gate passes against its own baseline
        assert main(
            ["bench-multicore", "--repeats", "2", "--out", "",
             "--check", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "bench-multicore gate passed" in out

    def test_gate_catches_regression(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import bench, bench_multicore

        monkeypatch.setattr(
            bench_multicore, "BENCH_POINT",
            {"method": "camp8", "size": 96, "cores": 4,
             "strategy": "npanel"},
        )
        payload = bench_multicore.run_bench(repeats=2)
        fast_baseline = json.loads(json.dumps(payload))
        fast_baseline["scaling"]["best_s"] = 1e-9
        problems = bench.check("multicore", payload, fast_baseline)
        # floor saves a tiny baseline from noise; force a real breach
        floor = next(gate.floor for gate in bench.GATES
                     if gate.path == "scaling.best_s")
        slow = json.loads(json.dumps(payload))
        slow["scaling"]["best_s"] = floor * 10
        assert bench.check("multicore", slow, fast_baseline)
        assert problems == []

    def test_gate_flags_nondeterminism(self):
        from repro.experiments import bench

        payload = {"scaling": {"best_s": 0.1, "deterministic": False}}
        baseline = {"scaling": {"best_s": 0.1}}
        problems = bench.check("multicore", payload, baseline)
        assert any("deterministic" in problem for problem in problems)


class TestExecutorCli:
    SWEEP = ["sweep", "--sizes", "48", "--methods", "camp8",
             "--cores", "1,2"]

    def test_interrupt_resume_cycle(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EXECUTOR_ABORT_AFTER", "1")
        assert main(self.SWEEP + ["--run-id", "cli-ir"]) == 3
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume cli-ir" in err

        monkeypatch.delenv("REPRO_EXECUTOR_ABORT_AFTER")
        assert main(["experiment", "runs"]) == 0
        out = capsys.readouterr().out
        assert "cli-ir" in out and "resumable" in out

        assert main(self.SWEEP + ["--resume", "cli-ir"]) == 0
        out = capsys.readouterr().out
        assert "camp8" in out

        assert main(["experiment", "runs"]) == 0
        assert "done" in capsys.readouterr().out

    def test_resume_unknown_run_exits_2(self, capsys):
        assert main(self.SWEEP + ["--resume", "ghost"]) == 2
        assert "no journal" in capsys.readouterr().err

    def test_resume_different_grid_exits_2(self, capsys):
        assert main(self.SWEEP + ["--run-id", "grid-pin"]) == 0
        capsys.readouterr()
        other = ["sweep", "--sizes", "64", "--methods", "camp8",
                 "--cores", "1,2"]
        assert main(other + ["--resume", "grid-pin"]) == 2
        assert "different grid" in capsys.readouterr().err

    def test_progress_lines(self, capsys):
        assert main(self.SWEEP + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err

    def test_experiment_resume_flags(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EXECUTOR_ABORT_AFTER", "1")
        code = main(["experiment", "multicore-scaling", "--fast",
                     "--cores", "1,2", "--run-id", "exp-ir"])
        assert code == 3
        monkeypatch.delenv("REPRO_EXECUTOR_ABORT_AFTER")
        capsys.readouterr()
        code = main(["experiment", "multicore-scaling", "--fast",
                     "--cores", "1,2", "--resume", "exp-ir"])
        assert code == 0
        assert "scaling" in capsys.readouterr().out

    def test_runs_empty(self, capsys):
        assert main(["experiment", "runs"]) == 0
        assert "no recorded runs" in capsys.readouterr().out

    def test_runs_prune_days(self, capsys):
        assert main(self.SWEEP + ["--run-id", "prunable"]) == 0
        capsys.readouterr()
        assert main(["experiment", "runs", "--prune-days", "0"]) == 0
        assert "prunable" in capsys.readouterr().out
        assert main(["experiment", "runs"]) == 0
        assert "no recorded runs" in capsys.readouterr().out

    def test_retries_flag_smoke(self, capsys):
        assert main(self.SWEEP + ["--retries", "1"]) == 0
        assert "camp8" in capsys.readouterr().out

    def test_task_timeout_flag_smoke(self, capsys):
        assert main(self.SWEEP + ["--task-timeout", "60"]) == 0
        assert "camp8" in capsys.readouterr().out


class TestCacheCli:
    def test_stats_smoke(self, capsys):
        assert main(["sweep", "--sizes", "48", "--methods", "camp8"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "result-cache" in out

    def test_prune_requires_a_bound(self, capsys):
        assert main(["cache", "prune"]) == 2
        assert "--max-age-days" in capsys.readouterr().err

    def test_prune_by_age(self, capsys):
        assert main(["sweep", "--sizes", "48", "--methods", "camp8"]) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--max-age-days", "0"]) == 0
        assert "pruned" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries      : 0" in capsys.readouterr().out

    def test_stats_covers_both_tiers(self, capsys, fresh_drivers):
        assert main(["sweep", "--sizes", "48", "--methods", "camp8"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "result tier" in out
        assert "compiled-trace tier" in out
        # the sweep's kernel-call and packing traces were persisted
        trace_section = out.split("compiled-trace tier", 1)[1]
        assert "entries      : 0" not in trace_section

    def test_prune_covers_trace_tier(self, capsys, fresh_drivers):
        from repro.simulator import trace_cache

        assert main(["sweep", "--sizes", "48", "--methods", "camp8"]) == 0
        assert trace_cache.disk_stats()["entries"] > 0
        capsys.readouterr()
        assert main(["cache", "prune", "--max-age-days", "0"]) == 0
        out = capsys.readouterr().out
        assert "compiled-trace" in out
        assert trace_cache.disk_stats()["entries"] == 0


class TestBenchSweep:
    def test_smoke_and_gate(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import bench_sweep

        monkeypatch.setattr(bench_sweep, "BENCH_GRID", {
            **bench_sweep.BENCH_GRID, "sizes": (48,), "methods": ("camp8",),
            "core_counts": (1, 2),
        })
        out = tmp_path / "BENCH_sweep.json"
        code = main(["bench-sweep", "--out", str(out), "--check", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "resume_exact" in printed and "warm_speedup" in printed
        assert "bench-sweep gate passed" in printed
        payload = json.loads(out.read_text())
        assert payload["points_total"] == 2
        assert payload["resume_recomputed"] == 1
        assert payload["resume_exact"]
        assert payload["warm_identical"] and payload["resume_identical"]

    def test_gate_catches_replay_leak(self):
        from repro.experiments import bench

        payload = {
            "cold_s": 1.0, "warm_s": 0.01, "warm_speedup": 100.0,
            "warm_identical": True, "interrupted": True,
            "interrupt_after": 2, "points_total": 4,
            "resume_recomputed": 4, "resume_exact": False,
            "resume_identical": True,
        }
        problems = bench.check("sweep", payload, {"cold_s": 1.0})
        assert any("journal replay leak" in p for p in problems)

    def test_gate_catches_slow_warm_rerun(self):
        from repro.experiments import bench

        payload = {
            "cold_s": 1.0, "warm_s": 0.9, "warm_speedup": 1.1,
            "warm_identical": True, "interrupted": True,
            "interrupt_after": 2, "points_total": 4,
            "resume_recomputed": 2, "resume_identical": True,
        }
        problems = bench.check("sweep", payload, {"cold_s": 1.0})
        assert any("warm sweep rerun" in p for p in problems)


class TestAnalyticBackend:
    def test_gemm_analytic_backend(self, capsys):
        assert main(["gemm", "96", "96", "96", "--method", "camp8",
                     "--backend", "analytic"]) == 0
        out = capsys.readouterr().out
        assert "analytic model" in out

    def test_gemm_analytic_rejects_verify(self, capsys):
        assert main(["gemm", "32", "32", "32", "--backend", "analytic",
                     "--verify"]) == 2
        assert "verify" in capsys.readouterr().err

    def test_sweep_analytic_backend(self, capsys):
        assert main(["sweep", "--sizes", "96", "--methods", "camp8",
                     "--backend", "analytic", "--no-cache",
                     "--format", "json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        record = documents[0]["records"][0]
        assert record["backend"] == "analytic"
        assert record["speedup"] > 1.0


class TestCalibrateCommand:
    def test_calibrate_single_machine(self, capsys):
        assert main(["calibrate", "--machines", "sargantana",
                     "--methods", "camp8", "--no-multicore"]) == 0
        out = capsys.readouterr().out
        assert "calibrating sargantana" in out
        assert "camp8" in out

    def test_calibrate_unknown_machine(self, capsys):
        assert main(["calibrate", "--machines", "z80"]) == 2

    def test_calibrate_unknown_method(self, capsys):
        assert main(["calibrate", "--machines", "sargantana",
                     "--methods", "nope"]) == 2


class TestBenchAnalytic:
    def test_smoke_and_gate(self, tmp_path, capsys):
        out = tmp_path / "BENCH_analytic.json"
        assert main(["bench-analytic", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "accuracy.p95_rel_error" in printed
        payload = json.loads(out.read_text())
        assert payload["accuracy"]["within_band"]
        # the freshly produced payload gates green against itself
        assert main(["bench-analytic", "--out", str(tmp_path / "again.json"),
                     "--check", str(out)]) == 0
        assert "bench-analytic gate passed" in capsys.readouterr().out

    def test_gate_catches_band_breach(self):
        from repro.experiments import bench

        payload = {
            "accuracy": {"p95_rel_error": 0.2, "max_rel_error": 0.3,
                         "p95_band": 0.1, "point_cap": 0.25,
                         "within_band": False},
            "predict": {"speedup": 5000.0, "model_per_shape_s": 1e-5,
                        "sim_per_shape_s": 0.05},
            "calibrate_s": 1.0,
        }
        problems = bench.check("analytic", payload, {})
        assert any("p95" in p for p in problems)
        assert any("hard cap" in p for p in problems)

    def test_gate_catches_slow_predictions(self):
        from repro.experiments import bench

        payload = {
            "accuracy": {"p95_rel_error": 0.01, "max_rel_error": 0.02,
                         "p95_band": 0.1, "point_cap": 0.25,
                         "within_band": True},
            "predict": {"speedup": 12.0, "model_per_shape_s": 1e-3,
                        "sim_per_shape_s": 0.012},
            "calibrate_s": 1.0,
        }
        problems = bench.check("analytic", payload, {})
        assert any("faster than simulation" in p for p in problems)
