"""Equivalence suite: batch pipeline engine vs the scalar reference.

The batch engine must reproduce the scalar scoreboard bit-identically —
cycles, stall attribution, FU busy counts, issue cycles and per-level
cache miss-rate deltas — for both schedulers (in-order direct issue
and window scan). The sweeps here cover both
evaluation machines over GEMM micro-kernel traces and randomized
traces, window/chunk boundary shapes, store-buffer pressure, and
unsupported-FU error parity; a hypothesis fuzzer explores the config x
trace space beyond the hand-picked cases.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gemm.api import make_driver
from repro.isa.builder import ProgramBuilder
from repro.isa.dtypes import DType
from repro.isa.registers import vreg, xreg
from repro.simulator.config import (
    StoreBufferConfig,
    a64fx_config,
    sargantana_config,
)
from repro.simulator.engine import engine, get_default_engine, set_default_engine
from repro.simulator.pipeline import PipelineSimulator, UnsupportedInstructionError
from repro.simulator.trace_compile import compile_trace, compiled_for

MACHINES = {"a64fx": a64fx_config, "sargantana": sargantana_config}


def run_both(config, program, warm=()):
    """Run scalar and batch engines on fresh simulators; return both stats."""
    scalar = PipelineSimulator(config).run(
        program, warm_addresses=warm, engine="scalar"
    )
    batch = PipelineSimulator(config).run(
        program, warm_addresses=warm, engine="batch"
    )
    return scalar, batch


def assert_identical(scalar, batch):
    assert scalar.cycles == batch.cycles
    assert scalar.instructions == batch.instructions
    assert scalar.vector_instructions == batch.vector_instructions
    assert scalar.loads == batch.loads
    assert scalar.stores == batch.stores
    assert scalar.bytes_loaded == batch.bytes_loaded
    assert scalar.bytes_stored == batch.bytes_stored
    assert dict(scalar.fu_busy_cycles) == dict(batch.fu_busy_cycles)
    assert scalar.stall_cycles_fu == batch.stall_cycles_fu
    assert scalar.stall_cycles_read == batch.stall_cycles_read
    assert scalar.stall_cycles_write == batch.stall_cycles_write
    assert scalar.issue_cycles == batch.issue_cycles
    assert scalar.cache_miss_rates == batch.cache_miss_rates
    assert scalar == batch


def random_program(rng, n, vector_length_bits, addr_span=1 << 20):
    """Seeded random trace mixing loads/stores/chained arithmetic."""
    builder = ProgramBuilder(name="random", vector_length_bits=vector_length_bits)
    regs = [vreg(i) for i in range(24)]
    xregs = [xreg(i) for i in range(1, 8)]
    for _ in range(n):
        roll = rng.random()
        if roll < 0.25:
            builder.vload(rng.choice(regs), rng.randrange(0, addr_span, 4),
                          DType.INT8, size=rng.choice([1, 4, 64, 200]))
        elif roll < 0.38:
            builder.vstore(rng.choice(regs), rng.randrange(0, addr_span, 4),
                           DType.INT8, size=rng.choice([4, 64, 128]))
        elif roll < 0.55:
            builder.vmla(rng.choice(regs), rng.choice(regs), rng.choice(regs),
                         DType.INT32)
        elif roll < 0.70:
            builder.vadd(rng.choice(regs), rng.choice(regs), rng.choice(regs),
                         DType.INT32)
        elif roll < 0.80:
            builder.vdup(rng.choice(regs), rng.choice(xregs), DType.INT32)
        elif roll < 0.90:
            builder.salu(rng.choice(xregs), [rng.choice(xregs)])
        else:
            builder.vreduce(rng.choice(xregs), rng.choice(regs), DType.INT32)
    return builder.build()


class TestGemmTraceEquivalence:
    """Micro-kernel call traces on both evaluation machines."""

    CASES = [
        ("camp8", "a64fx"),
        ("handv-int8", "a64fx"),
        ("gemmlowp", "a64fx"),
        ("handv-int32", "a64fx"),
        ("openblas-fp32", "a64fx"),
        ("mmla", "a64fx"),
        ("blis-int32", "sargantana"),
        ("camp8", "sargantana"),
        ("gemmlowp", "sargantana"),
    ]

    @pytest.mark.parametrize("method,machine", CASES)
    def test_kernel_call_identical(self, method, machine):
        driver = make_driver(method, machine)
        kernel = driver.kernel
        kc = min(driver.blocking.kc, 128)
        program = kernel.build_call(kc, first_k_block=True)
        warm = list(kernel.warm_addresses(kc))
        scalar, batch = run_both(driver.config, program, warm)
        assert_identical(scalar, batch)

    def test_window_scan_on_fu_saturated_ooo_gemm(self):
        """gemmlowp on a64fx saturates a functional unit: the window
        holds a long queue of ready instructions blocked on one busy
        pool, which the scan revisits every cycle (sleep runs only skip
        instructions still waiting on operands)."""
        driver = make_driver("gemmlowp", "a64fx")
        kc = min(driver.blocking.kc, 128)
        program = driver.kernel.build_call(kc, first_k_block=False)
        warm = list(driver.kernel.warm_addresses(kc))
        scalar, batch = run_both(driver.config, program, warm)
        assert_identical(scalar, batch)


class TestRandomTraceEquivalence:
    """Seeded random traces across machine-config variations."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("machine", ["a64fx", "sargantana"])
    def test_random_traces(self, machine, seed):
        rng = random.Random(seed * 977 + 13)
        config = MACHINES[machine]()
        vlb = config.vector_length_bits
        program = random_program(rng, 400, vlb)
        warm = [rng.randrange(0, 1 << 18) for _ in range(50)]
        scalar, batch = run_both(config, program, warm)
        assert_identical(scalar, batch)

    @pytest.mark.parametrize("window", [1, 2, 3, 32, 64])
    def test_window_boundaries(self, window):
        """Chunk-boundary shapes: traces near/below/above the window."""
        base = a64fx_config()
        config = replace(base, window=window)
        rng = random.Random(window)
        for n in (1, window - 1, window, window + 1, 3 * window + 1):
            if n <= 0:
                continue
            program = random_program(rng, n, config.vector_length_bits)
            scalar, batch = run_both(config, program)
            assert_identical(scalar, batch)

    def test_store_buffer_pressure(self):
        """A one-entry store buffer forces write-side stalls."""
        config = replace(
            sargantana_config(),
            store_buffer=StoreBufferConfig(entries=1, drain_latency=5),
        )
        builder = ProgramBuilder(vector_length_bits=128)
        for k in range(40):
            builder.vstore(vreg(k % 4), 0x1000 + 16 * k, DType.INT8, size=16)
        scalar, batch = run_both(config, builder.build())
        assert scalar.stall_cycles_write > 0
        assert_identical(scalar, batch)

    def test_issue_width_wider_than_two(self):
        config = replace(a64fx_config(), issue_width=4)
        rng = random.Random(99)
        program = random_program(rng, 300, config.vector_length_bits)
        scalar, batch = run_both(config, program)
        assert_identical(scalar, batch)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 120),
        window=st.sampled_from([1, 2, 4, 32]),
        width=st.sampled_from([1, 2, 3]),
        entries=st.sampled_from([1, 2, 8]),
        machine=st.sampled_from(["a64fx", "sargantana"]),
    )
    def test_hypothesis_fuzz(self, seed, n, window, width, entries, machine):
        config = replace(
            MACHINES[machine](),
            window=window,
            issue_width=width,
            store_buffer=StoreBufferConfig(entries=entries, drain_latency=2),
        )
        rng = random.Random(seed)
        program = random_program(rng, n, config.vector_length_bits)
        scalar, batch = run_both(config, program)
        assert_identical(scalar, batch)


class TestUnsupportedInstructionParity:
    """Both engines reject unsupported FUs with the same error."""

    def build_camp_program(self):
        from repro.isa.registers import areg

        builder = ProgramBuilder(vector_length_bits=512)
        builder.vload(vreg(0), 0x100, DType.INT8, size=64)
        builder.camp(areg(0), vreg(0), vreg(1), DType.INT8)
        return builder.build()

    @pytest.mark.parametrize("machine", ["a64fx", "sargantana"])
    def test_matrix_op_without_matrix_unit(self, machine):
        config = MACHINES[machine](camp_enabled=False)
        program = self.build_camp_program()
        with pytest.raises(UnsupportedInstructionError) as scalar_err:
            PipelineSimulator(config).run(program, engine="scalar")
        with pytest.raises(UnsupportedInstructionError) as batch_err:
            PipelineSimulator(config).run(program, engine="batch")
        assert str(scalar_err.value) == str(batch_err.value)

    def test_forced_schedulers_raise_too(self):
        """The window decides the scheduler; swapping it on each machine
        puts both schedulers on the other machine's FU mix, and both
        must still raise the scalar engine's error."""
        for machine, window in (("a64fx", 1), ("sargantana", 8)):
            config = replace(MACHINES[machine](camp_enabled=False),
                             window=window)
            program = self.build_camp_program()
            with pytest.raises(UnsupportedInstructionError) as scalar_err:
                PipelineSimulator(config).run(program, engine="scalar")
            with pytest.raises(UnsupportedInstructionError) as batch_err:
                PipelineSimulator(config).run(program, engine="batch")
            assert str(scalar_err.value) == str(batch_err.value)

    def test_missing_fu_latency_raises_keyerror_on_both_engines(self):
        """A config with units but no latency for a class must fail the
        same way (KeyError) whichever engine runs the trace — and only
        when the trace actually uses that class."""
        base = a64fx_config()
        config = replace(
            base,
            fu_latency={
                fu: lat for fu, lat in base.fu_latency.items()
                if fu.value != "vmul"
            },
        )
        uses_vmul = ProgramBuilder(vector_length_bits=512)
        uses_vmul.vmla(vreg(0), vreg(1), vreg(2), DType.INT32)
        with pytest.raises(KeyError):
            PipelineSimulator(config).run(uses_vmul.build(), engine="scalar")
        with pytest.raises(KeyError):
            PipelineSimulator(config).run(uses_vmul.build(), engine="batch")
        # a trace that never touches the class runs fine on both
        no_vmul = ProgramBuilder(vector_length_bits=512)
        no_vmul.vadd(vreg(0), vreg(1), vreg(2), DType.INT32)
        program = no_vmul.build()
        scalar = PipelineSimulator(config).run(program, engine="scalar")
        batch = PipelineSimulator(config).run(program, engine="batch")
        assert scalar == batch


class TestCompiledTrace:
    def test_structure_of_arrays_view(self):
        driver = make_driver("handv-int8", "a64fx")
        program = driver.kernel.build_call(16, first_k_block=True)
        trace = compile_trace(program, driver.config)
        arrays = trace.arrays()
        assert arrays["is_load"].sum() == sum(1 for i in program if i.is_load)
        assert arrays["is_store"].sum() == sum(1 for i in program if i.is_store)
        assert arrays["addr"].dtype == np.int64
        loads = arrays["is_load"]
        assert arrays["size"][loads].sum() == program.bytes_loaded()

    def test_vector_mix_matches_program_walk(self):
        driver = make_driver("gemmlowp", "a64fx")
        program = driver.kernel.build_call(8, first_k_block=True)
        expected = {
            "read": sum(1 for i in program if i.is_vector and i.is_load),
            "write": sum(1 for i in program if i.is_vector and i.is_store),
            "alu": sum(
                1 for i in program if i.is_vector and not i.is_memory
            ),
        }
        trace = compile_trace(program, driver.config)
        assert trace.vector_mix() == expected
        # the compile publishes the mix into the program's cache
        assert program.classify_vector_mix() == expected

    def test_compiled_for_memoizes_per_config(self):
        driver = make_driver("camp8", "a64fx")
        program = driver.kernel.build_call(16, first_k_block=True)
        first = compiled_for(program, driver.config)
        assert compiled_for(program, driver.config) is first
        other = sargantana_config()
        assert compiled_for(program, other) is not first

    def test_mix_cache_invalidated_by_append(self):
        builder = ProgramBuilder(vector_length_bits=512)
        builder.vadd(vreg(0), vreg(1), vreg(2), DType.INT32)
        program = builder.build()
        compile_trace(program, a64fx_config())
        assert program.classify_vector_mix() == {"read": 0, "write": 0, "alu": 1}
        # the builder appends directly to the trace list; the length
        # guard must invalidate the published mix anyway
        builder.vload(vreg(3), 0x40, DType.INT8, size=64)
        assert program.classify_vector_mix() == {"read": 1, "write": 0, "alu": 1}


class TestResolveBatch:
    """Bulk memory resolution matches per-access walks."""

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_latencies_and_state_match_scalar_access(self, prefetch):
        config = replace(sargantana_config(), prefetch=prefetch)
        rng = random.Random(7)
        ops = [
            (rng.randrange(0, 1 << 16, 4), rng.choice([1, 8, 64, 130]),
             rng.random() < 0.3)
            for _ in range(600)
        ]
        ref = PipelineSimulator(config).hierarchy
        expected = []
        for addr, size, write in ops:
            expected.append(ref.access(addr, size, is_write=write).latency)

        sub = PipelineSimulator(config).hierarchy
        base, dram_lines, dram_addrs = sub.resolve_batch(
            np.array([o[0] for o in ops]),
            np.array([o[1] for o in ops]),
            np.array([o[2] for o in ops]),
        )
        # finalize DRAM lazily exactly as the scheduler does (all at
        # now_cycle=0 here, matching the reference access calls above)
        llc = sub.caches[-1].config
        got = []
        addr_list = dram_addrs.tolist()
        ptr = 0
        for latency, lines in zip(base.tolist(), dram_lines.tolist()):
            while lines:
                lat = sub.dram.access(llc.line_bytes, 0,
                                      addr=addr_list[ptr]) + llc.load_to_use
                ptr += 1
                if lat > latency:
                    latency = lat
                lines -= 1
            got.append(latency)
        assert ptr == len(addr_list)
        assert got == expected
        for level_ref, level_sub in zip(ref.caches, sub.caches):
            assert vars(level_ref.stats) == vars(level_sub.stats)
        assert ref.demand_accesses == sub.demand_accesses

    def test_empty_and_invalid(self):
        hierarchy = PipelineSimulator(sargantana_config()).hierarchy
        base, dram, addrs = hierarchy.resolve_batch(np.empty(0, dtype=np.int64))
        assert base.size == 0 and dram.size == 0 and addrs.size == 0
        with pytest.raises(ValueError):
            hierarchy.resolve_batch(np.array([0]), np.array([0]))


class TestEngineSelection:
    def test_default_is_batch(self, monkeypatch):
        monkeypatch.delenv("REPRO_PIPELINE_ENGINE", raising=False)
        set_default_engine(None)
        assert get_default_engine() == "batch"

    def test_env_override(self, monkeypatch):
        set_default_engine(None)
        monkeypatch.setenv("REPRO_PIPELINE_ENGINE", "scalar")
        assert get_default_engine() == "scalar"
        monkeypatch.setenv("REPRO_PIPELINE_ENGINE", "bogus")
        with pytest.raises(ValueError):
            get_default_engine()

    def test_context_manager_restores(self):
        set_default_engine(None)
        with engine("scalar"):
            assert get_default_engine() == "scalar"
            with engine("batch"):
                assert get_default_engine() == "batch"
            assert get_default_engine() == "scalar"

    def test_run_rejects_unknown_engine(self):
        sim = PipelineSimulator(sargantana_config())
        with pytest.raises(ValueError):
            sim.run(ProgramBuilder().build(), engine="warp")


class TestKeepStateChaining:
    """Chained keep_state runs stay equivalent across engines."""

    def test_chained_runs_identical(self):
        driver = make_driver("handv-int8", "a64fx")
        kernel = driver.kernel
        program = kernel.build_call(32, first_k_block=True)
        warm = list(kernel.warm_addresses(32))

        results = {}
        for engine_name in ("scalar", "batch"):
            sim = PipelineSimulator(driver.config)
            runs = [
                sim.run(program, warm_addresses=warm, engine=engine_name)
                for _ in range(3)
            ]
            results[engine_name] = runs
        for scalar_run, batch_run_ in zip(results["scalar"], results["batch"]):
            assert_identical(scalar_run, batch_run_)
