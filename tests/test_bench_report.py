"""Tests for the BENCH_*.json markdown delta report (``bench.report``)."""

import json

import pytest

from repro.experiments import bench


class TestFlatten:
    def test_nested_numeric_leaves(self):
        payload = {"a": 1, "b": {"c": 2.5, "d": {"e": True}}, "s": "skip"}
        assert bench.flatten(payload) == {
            "a": 1, "b.c": 2.5, "b.d.e": True,
        }

    def test_strings_and_lists_dropped(self):
        assert bench.flatten({"x": "text", "y": [1, 2]}) == {}


class TestDeltaFormatting:
    def test_regression_marked_on_cost_metric(self):
        cell = bench._format_delta("bench.cold_s", 1.0, 2.0)
        assert cell.startswith("+100.0%") and "⚠" in cell

    def test_regression_marked_on_dropped_speedup(self):
        cell = bench._format_delta("predict.speedup", 200.0, 100.0)
        assert cell.startswith("-50.0%") and "⚠" in cell

    def test_improvement_not_marked(self):
        assert "⚠" not in bench._format_delta("cold_s", 2.0, 1.0)
        assert "⚠" not in bench._format_delta("speedup", 100.0, 200.0)

    def test_ungated_metric_not_marked(self):
        # no gate says which way dedup.followers should move, so a rise
        # is shown without the regression marker
        cell = bench._format_delta("dedup.followers", 2, 3)
        assert cell.startswith("+50.0%") and "⚠" not in cell

    def test_direction_from_gate_table(self):
        assert bench.better("scaling.best_s") == "lower"
        assert bench.better("engine_comparison.fig12.speedup_median") \
            == "higher"
        assert bench.better("dedup.coalesced") is None

    def test_noise_floor_blank(self):
        assert bench._format_delta("cold_s", 1.0, 1.001) == ""

    def test_bool_change(self):
        assert bench._format_delta("ok", True, False) == "changed"
        assert bench._format_delta("ok", True, True) == ""


class TestReport:
    def _write(self, directory, name, payload):
        path = directory / name
        path.write_text(json.dumps(payload))
        return path

    def test_tables_for_each_fresh_payload(self, tmp_path):
        base = tmp_path / "base"
        fresh = tmp_path / "fresh"
        base.mkdir()
        fresh.mkdir()
        self._write(base, "BENCH_a.json", {"cold_s": 1.0, "extra": 7})
        self._write(fresh, "BENCH_a.json", {"cold_s": 2.0, "novel": 1})
        self._write(fresh, "BENCH_b.json", {"warm_s": 0.5})
        text = bench.report(base, fresh)
        assert "### BENCH_a.json" in text
        assert "+100.0% ⚠" in text
        assert "metrics present on one side only: extra, novel" in text
        assert "### BENCH_b.json" in text
        assert "_no committed baseline_" in text

    def test_empty_fresh_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            bench.report(tmp_path, tmp_path)

    def test_main_exit_codes(self, tmp_path, capsys):
        self._write(tmp_path, "BENCH_x.json", {"cold_s": 1.0})
        assert bench.main(
            ["--baseline-dir", str(tmp_path), "--fresh-dir", str(tmp_path)]
        ) == 0
        assert "### BENCH_x.json" in capsys.readouterr().out
        empty = tmp_path / "empty"
        empty.mkdir()
        assert bench.main(["--fresh-dir", str(empty)]) == 2
        assert "bench-report error" in capsys.readouterr().err
