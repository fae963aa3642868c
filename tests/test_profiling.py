"""Tests for the per-phase engine profiler and the ``--profile`` flag."""

import pytest

from repro.cli import main
from repro.simulator import profiling
from repro.simulator.config import a64fx_config, sargantana_config
from repro.simulator.pipeline import PipelineSimulator
from tests.test_trace_cache import build_program


@pytest.fixture(autouse=True)
def _clean_profiler():
    profiling.reset()
    yield
    profiling.reset()


class TestCollector:
    def test_idle_by_default(self):
        with profiling.phase("schedule"):
            pass
        assert profiling.snapshot() == {"phases": {}}

    def test_profile_block_collects_and_deactivates(self):
        with profiling.profile():
            with profiling.phase("schedule"):
                pass
            with profiling.phase("schedule"):
                pass
        assert not profiling.enabled()
        snap = profiling.snapshot()
        assert list(snap) == ["phases"]
        assert snap["phases"]["schedule"]["calls"] == 2
        assert snap["phases"]["schedule"]["seconds"] >= 0.0
        # entering a new block resets the previous numbers
        with profiling.profile():
            pass
        assert profiling.snapshot()["phases"] == {}

    def test_engine_reports_phases_and_scheduler(self):
        program = build_program(n=300, seed=31)
        with profiling.profile():
            PipelineSimulator(a64fx_config(camp_enabled=True)).run(
                program, engine="batch")
            PipelineSimulator(sargantana_config(camp_enabled=True)).run(
                program, engine="batch")
        phases = profiling.snapshot()["phases"]
        # one schedule region per run: a64fx's window scan, then
        # sargantana's in-order direct issue
        assert phases["schedule"]["calls"] == 2
        # sargantana is in-order: its bulk cache replay must show up
        assert "memory replay" in phases

    def test_render_mentions_every_phase(self):
        with profiling.profile():
            with profiling.phase("arbitration"):
                pass
            with profiling.phase("schedule"):
                pass
        text = profiling.render()
        assert "arbitration" in text and "schedule" in text
        # empty snapshot renders a hint, not a crash
        profiling.reset()
        assert "no engine phases" in profiling.render()


class TestCliFlag:
    def test_gemm_profile_prints_report(self, capsys):
        assert main(["gemm", "64", "64", "64", "--method", "camp8",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "--- profile ---" in out
        assert "schedule" in out

    def test_gemm_profile_rejects_server(self, capsys):
        assert main(["gemm", "64", "64", "64", "--method", "camp8",
                     "--profile", "--server", "http://localhost:1"]) == 2
