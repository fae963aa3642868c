"""Multi-core subsystem: equivalence, determinism and leak regressions.

The acceptance contract of the shared-memory simulator:

- ``cores=1`` is bit-identical to the plain batch engine (a single core
  owns the chip);
- results are run-to-run identical and independent of process-pool
  fan-out (``jobs``);
- the shared arbitration state (channel clocks, round-robin pointer,
  LLC contents) cannot leak between orchestrated runs — the multi-core
  analogue of PR 3's single-core ``Dram.rebase`` warm-up fix.
"""

import pytest

from repro.gemm.microkernel import get_kernel
from repro.gemm.multicore import (
    assemble_stream,
    reset_recording_drivers,
    simulate_parallel_gemm,
    simulate_scaling_curve,
)
from repro.gemm.packing import emit_pack_trace
from repro.isa.builder import ProgramBuilder
from repro.isa.dtypes import DType
from repro.memory.dram import DramEvent
from repro.memory.hierarchy import SharedHierarchy
from repro.simulator.config import a64fx_config, sargantana_config
from repro.simulator.multicore import (
    build_recording_hierarchy,
    default_llc_config,
    run_multicore,
    shared_dram,
)
from repro.simulator.pipeline import PipelineSimulator


@pytest.fixture(autouse=True)
def _fresh_recording_drivers():
    reset_recording_drivers()
    yield
    reset_recording_drivers()


def pack_program(chunk_bytes=32 * 1024, bits=512):
    builder = ProgramBuilder(name="pack-chunk", vector_length_bits=bits)
    emit_pack_trace(builder, 0x100000, 0x200000, chunk_bytes, DType.INT8)
    return builder.build()


def kernel_program(config, kc=128):
    kern = get_kernel("camp8", vector_length_bits=config.vector_length_bits)
    return kern.build_call(kc, first_k_block=True), kern.warm_addresses(kc)


class TestSingleCoreIdentity:
    @pytest.mark.parametrize("factory", [a64fx_config, sargantana_config])
    def test_bit_identical_to_batch_engine(self, factory):
        config = factory(camp_enabled=True)
        program, warm = kernel_program(config)
        plain = PipelineSimulator(config).run(program, warm_addresses=warm)
        multi = run_multicore(config, [program], warm_addresses=[warm])
        assert multi.per_core[0].stats == plain
        assert multi.cycles == plain.cycles
        assert multi.per_core[0].contention_stall_cycles == 0

    def test_recording_hierarchy_is_pure_observation(self):
        config = a64fx_config(camp_enabled=True)
        program = pack_program()
        plain = PipelineSimulator(config).run(program)
        recorded = PipelineSimulator(
            config, hierarchy=build_recording_hierarchy(config)
        ).run(program)
        assert recorded == plain


class TestDeterminism:
    def test_run_to_run_identical(self):
        config = a64fx_config(camp_enabled=True)
        program = pack_program()
        first = run_multicore(config, [program] * 4)
        second = run_multicore(config, [program] * 4)
        assert [run.stats for run in first.per_core] == [
            run.stats for run in second.per_core
        ]
        assert first.cycles == second.cycles

    def test_jobs_do_not_change_results(self):
        config = a64fx_config(camp_enabled=True)
        program = pack_program()
        serial = run_multicore(config, [program] * 4, jobs=1)
        fanned = run_multicore(config, [program] * 4, jobs=3)
        assert [run.stats for run in serial.per_core] == [
            run.stats for run in fanned.per_core
        ]

    def test_shared_replay_does_not_leak_between_runs(self):
        """Channel clocks / rr pointer / LLC state reset per replay."""
        config = a64fx_config(camp_enabled=True)
        sim = PipelineSimulator(
            config, hierarchy=build_recording_hierarchy(config)
        )
        stats = sim.run(pack_program())
        events = list(sim.hierarchy.dram.events)
        shared = SharedHierarchy(shared_dram(config), default_llc_config(config))
        streams = [
            [e._replace(addr=e.addr + core * (1 << 40)) for e in events]
            for core in range(4)
        ]
        durations = [stats.cycles] * 4
        first = shared.replay(streams, durations)
        second = shared.replay(streams, durations)
        assert [r.extra_cycles for r in first.per_core] == [
            r.extra_cycles for r in second.per_core
        ]
        assert first.channel_utilization == second.channel_utilization


class TestContention:
    def test_contention_appears_with_cores(self):
        config = a64fx_config(camp_enabled=True)
        program = pack_program()
        single = run_multicore(config, [program])
        many = run_multicore(config, [program] * 8)
        assert many.contention_stall_cycles > 0
        assert many.cycles >= single.cycles
        slowest = max(many.per_core, key=lambda run: run.cycles)
        assert (
            slowest.stats.stall_cycles_read
            == slowest.contention_stall_cycles
            + single.per_core[0].stats.stall_cycles_read
        )

    def test_dram_limited_under_starved_bandwidth(self):
        from dataclasses import replace

        config = replace(
            a64fx_config(camp_enabled=True), dram_bytes_per_cycle=4.0
        )
        program = pack_program()
        many = run_multicore(config, [program] * 8)
        assert many.dram_limited
        assert any(run.dram_limited for run in many.per_core)

    def test_aggregate_counters_sum_cores(self):
        config = a64fx_config(camp_enabled=True)
        program = pack_program()
        many = run_multicore(config, [program] * 3)
        assert many.aggregate.instructions == 3 * len(program)
        assert many.aggregate.cycles == many.cycles


class TestSharedLlc:
    def test_constructive_sharing_between_cores(self):
        """Cores touching the same addresses hit lines their siblings
        brought into the shared LLC; disjoint cores cannot."""
        config = a64fx_config(camp_enabled=True)
        events = [
            DramEvent(cycle=10 * i, size=256, addr=0x1000 + 256 * i,
                      write=False, latency=110)
            for i in range(32)
        ]
        shared = SharedHierarchy(shared_dram(config), default_llc_config(config))
        same = shared.replay([events, events], [1000, 1000])
        assert sum(r.llc_hits for r in same.per_core) > 0
        disjoint = [
            [e._replace(addr=e.addr + core * (1 << 40)) for e in events]
            for core in range(2)
        ]
        apart = shared.replay(disjoint, [1000, 1000])
        assert sum(r.llc_hits for r in apart.per_core) == 0

    def test_addressless_events_bypass_llc(self):
        config = a64fx_config(camp_enabled=True)
        events = [
            DramEvent(cycle=10 * i, size=256, addr=-1, write=False,
                      latency=110)
            for i in range(8)
        ]
        shared = SharedHierarchy(shared_dram(config), default_llc_config(config))
        outcome = shared.replay([events, events], [100, 100])
        assert all(
            r.llc_hits == 0 and r.llc_misses == 0 for r in outcome.per_core
        )
        assert all(r.dram_reads == 8 for r in outcome.per_core)

    def test_empty_streams(self):
        config = a64fx_config(camp_enabled=True)
        shared = SharedHierarchy(shared_dram(config), default_llc_config(config))
        outcome = shared.replay([[], []], [10, 10])
        assert all(r.extra_cycles == 0 for r in outcome.per_core)
        assert outcome.converged


class TestGemmScaling:
    def test_single_core_matches_plain_analyze(self):
        from repro.gemm.api import make_driver

        point = simulate_parallel_gemm("camp8", 96, 96, 96, 1)
        plain = make_driver("camp8", "a64fx").analyze(96, 96, 96)
        assert point.parallel_cycles == plain.cycles
        assert point.speedup == 1.0

    def test_recording_driver_analysis_matches_plain(self):
        from repro.gemm.api import make_driver
        from repro.gemm.multicore import make_recording_driver

        plain = make_driver("camp8", "a64fx").analyze(64, 64, 64)
        recorded = make_recording_driver("camp8", "a64fx").analyze(64, 64, 64)
        assert recorded.cycles == plain.cycles
        assert recorded.stats == plain.stats

    def test_curve_deterministic(self):
        first = simulate_scaling_curve("camp8", 128, 128, 128,
                                       core_counts=(1, 4, 8))
        reset_recording_drivers()
        second = simulate_scaling_curve("camp8", 128, 128, 128,
                                        core_counts=(1, 4, 8))
        assert [p.parallel_cycles for p in first] == [
            p.parallel_cycles for p in second
        ]
        assert [p.speedup for p in first] == [p.speedup for p in second]

    def test_jobs_do_not_change_curve(self):
        serial = simulate_parallel_gemm("camp8", 128, 128, 128, 4, jobs=1)
        fanned = simulate_parallel_gemm("camp8", 128, 128, 128, 4, jobs=2)
        assert serial == fanned

    def test_efficiency_declines_with_cores(self):
        curve = simulate_scaling_curve("camp8", 128, 128, 128,
                                       core_counts=(1, 4, 16))
        eff = [p.efficiency for p in curve]
        assert eff[0] == 1.0
        assert eff[2] <= eff[1] + 1e-9

    def test_speedup_bounded_by_cores(self):
        for point in simulate_scaling_curve("camp8", 96, 96, 96,
                                            core_counts=(2, 4)):
            assert 1.0 <= point.speedup <= point.cores + 1e-9

    def test_tile2d_strategy_runs(self):
        point = simulate_parallel_gemm("camp8", 96, 96, 96, 4,
                                       strategy="tile2d")
        assert point.strategy == "tile2d"
        assert len(point.per_core) == 4

    def test_cores_exceed_panels(self):
        # n=8 with n_r=4 -> 2 panels; 16 requested cores -> 2 shards
        point = simulate_parallel_gemm("camp8", 64, 8, 64, 16)
        assert len(point.per_core) == 2
        assert point.speedup <= 16

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            simulate_parallel_gemm("camp8", 64, 64, 64, 0)


class TestTimeline:
    def test_analyze_timeline_requires_recording(self):
        from repro.gemm.api import make_driver

        with pytest.raises(RuntimeError):
            make_driver("camp8", "a64fx").analyze_timeline(64, 64, 64)

    def test_segments_cover_composition(self):
        from repro.gemm.multicore import make_recording_driver

        driver = make_recording_driver("camp8", "a64fx")
        execution, segments = driver.analyze_timeline(128, 128, 128)
        assert segments, "timeline must not be empty"
        total = sum(segment.duration for segment in segments)
        assert total == pytest.approx(execution.cycles, rel=0.05)
        labels = {segment.label.split("-")[0] for segment in segments}
        assert "pack" in labels and "call" in labels

    def test_assembled_stream_is_time_ordered_per_segment(self):
        from repro.gemm.multicore import make_recording_driver

        driver = make_recording_driver("camp8", "a64fx")
        _, segments = driver.analyze_timeline(96, 96, 96)
        stream = assemble_stream(segments, core=1)
        assert stream
        assert all(event.cycle >= 0 for event in stream)
        # private segments are offset into core 1's address space
        private = [
            event for event in stream if event.addr >= (1 << 40)
        ]
        assert private


class TestEngineIndependence:
    def test_records_identical_under_both_engines(self):
        """The recorded per-core streams — and hence the arbitration —
        are a pure function of the trace on the a64fx config, so the
        multicore ablation's records must not depend on which pipeline
        engine produced them."""
        from repro.experiments import ablation_multicore
        from repro.experiments.runner import reset_drivers
        from repro.simulator.engine import engine

        def records(name):
            reset_drivers()
            reset_recording_drivers()
            with engine(name):
                return ablation_multicore.to_records(
                    ablation_multicore.run(fast=True, size=96, cores=(1, 4))
                )

        assert records("batch") == records("scalar")


class TestForcedSchedulerEquivalence:
    """cores > 1 x both batch schedulers x both machines, arbitrated stats.

    The shared-hierarchy arbitration consumes the isolated per-core
    runs, so the full MulticoreStats — contention folded in — must be
    identical to the scalar reference engine. a64fx (window 32)
    exercises the window scan scheduler; sargantana (window 1) the
    in-order direct issue path.
    """

    def _multicore(self, config, program, warm, engine_name):
        from repro.simulator.engine import engine

        with engine(engine_name):
            return run_multicore(
                config, [program] * 4, warm_addresses=[warm] * 4
            )

    @staticmethod
    def _key(outcome):
        return (
            [run.stats for run in outcome.per_core],
            [run.contention_stall_cycles for run in outcome.per_core],
            outcome.aggregate,
            outcome.llc_hit_rate,
        )

    def test_windowed_schedulers_match_scalar_a64fx(self):
        config = a64fx_config(camp_enabled=True)
        program, warm = kernel_program(config)
        reference = self._multicore(config, program, warm, "scalar")
        batch = self._multicore(config, program, warm, "batch")
        assert self._key(batch) == self._key(reference)

    def test_inorder_matches_scalar_sargantana(self):
        config = sargantana_config(camp_enabled=True)
        program, warm = kernel_program(config)
        reference = self._multicore(config, program, warm, "scalar")
        batch = self._multicore(config, program, warm, "batch")
        assert self._key(batch) == self._key(reference)

    @pytest.mark.parametrize("factory", [a64fx_config, sargantana_config])
    def test_mixed_core_programs(self, factory):
        """Heterogeneous per-core traces through the arbitration."""
        config = factory(camp_enabled=True)
        kern_prog, warm = kernel_program(config)
        programs = [kern_prog, pack_program(bits=config.vector_length_bits)]
        from repro.simulator.engine import engine

        with engine("scalar"):
            reference = run_multicore(
                config, programs, warm_addresses=[warm, ()]
            )
        with engine("batch"):
            batch = run_multicore(config, programs, warm_addresses=[warm, ()])
        assert self._key(batch) == self._key(reference)


class TestZeroRecompileFanout:
    """The parent ships compiled records; pool workers never compile."""

    def test_fanned_run_has_zero_worker_compiles(self):
        config = a64fx_config(camp_enabled=True)
        program, warm = kernel_program(config)
        fanned = run_multicore(
            config, [program] * 4, warm_addresses=[warm] * 4, jobs=4
        )
        wc = fanned.worker_cache_stats
        assert wc["compiles"] == 0
        assert wc["misses"] == 0

    def test_precompile_attaches_shared_trace(self):
        from repro.simulator.multicore import precompile_for_fanout
        from repro.simulator.trace_compile import compiled_for

        config = a64fx_config(camp_enabled=True)
        program, _ = kernel_program(config)
        precompile_for_fanout([program, program], config)
        # the memo entry the workers will hit is already on the program
        assert compiled_for(program, config) is compiled_for(program, config)
        entries = getattr(program, "_compiled_traces")
        assert len(entries) == 1

    def test_precompile_skipped_under_scalar_engine(self):
        from repro.simulator.engine import engine
        from repro.simulator.multicore import precompile_for_fanout

        config = a64fx_config(camp_enabled=True)
        # a fresh (non-memoized) program so no earlier test has already
        # attached a compiled trace to it
        builder = ProgramBuilder(
            name="scalar-fanout-probe",
            vector_length_bits=config.vector_length_bits)
        for i in range(8):
            builder.vload("v0", 0x1000 + 64 * i, DType.INT8, size=64)
        program = builder.build()
        with engine("scalar"):
            precompile_for_fanout([program], config)
        assert getattr(program, "_compiled_traces", None) is None

    def test_serial_path_reports_cache_stats_too(self):
        config = a64fx_config(camp_enabled=True)
        program, warm = kernel_program(config)
        serial = run_multicore(
            config, [program] * 2, warm_addresses=[warm] * 2, jobs=1
        )
        assert "compiles" in serial.worker_cache_stats
