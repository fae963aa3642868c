"""Periodic steady-state replay: detection + bit-identical fast-forward.

The replayer (:mod:`repro.simulator.period_replay`) is a pure
acceleration layer under the windowed batch scheduler; every test
here pins the contract that SimStats are identical scalar vs batch,
replay on vs off, for traces long and regular enough that replay
actually fires (the equivalence suite's traces are mostly too short to
reach the analyzer's MIN_N floor).
"""

import random
from dataclasses import replace

import pytest

from repro.gemm.api import make_driver
from repro.isa.builder import ProgramBuilder
from repro.isa.dtypes import DType
from repro.isa.registers import vreg, xreg
from repro.simulator import period_replay
from repro.simulator.config import a64fx_config, sargantana_config
from repro.simulator.pipeline import PipelineSimulator
from repro.simulator.trace_compile import compile_trace

MACHINES = {"a64fx": a64fx_config, "sargantana": sargantana_config}


def looped_program(iterations=96, vector_length_bits=512, jitter_every=0):
    """A software-pipelined loop body repeated ``iterations`` times.

    Mixes loads (cache-line walks, so the miss pattern itself is
    periodic at a line multiple of the body), dependent MLAs and a
    store — the shape the analyzer and replayer were built for. With
    ``jitter_every`` > 0, every that-many-th iteration gains an extra
    scalar op, producing the uneven iteration lengths real unrolled
    kernels have.
    """
    builder = ProgramBuilder(name="loop", vector_length_bits=vector_length_bits)
    acc = [vreg(i) for i in range(4)]
    a = vreg(8)
    b = vreg(9)
    for it in range(iterations):
        builder.vload(a, 0x10000 + 64 * it, DType.INT8, size=64)
        builder.vload(b, 0x80000 + 64 * it, DType.INT8, size=64)
        for r in acc:
            builder.vmla(r, a, b, DType.INT32)
        builder.vstore(acc[it % 4], 0x200000 + 64 * it, DType.INT8, size=64)
        if jitter_every and it % jitter_every == jitter_every - 1:
            builder.salu(xreg(1), [xreg(1)])
    return builder.build()


def run_batch(config, program, replay_on, monkeypatch, warm=()):
    if replay_on:
        monkeypatch.delenv(period_replay._ENV_DISABLE, raising=False)
    else:
        monkeypatch.setenv(period_replay._ENV_DISABLE, "1")
    return PipelineSimulator(config).run(
        program, warm_addresses=warm, engine="batch"
    )


class TestDetection:
    def test_looped_trace_found_periodic(self):
        config = a64fx_config()
        program = looped_program(iterations=128)
        info = period_replay.period_info(compile_trace(program, config))
        assert info is not None
        # 7 instructions per iteration
        assert info.period % 7 == 0
        assert info.hi - info.lo >= period_replay.MIN_REGION

    def test_uneven_iterations_found_periodic(self):
        """Jitter makes the true period a multiple of the body length."""
        config = a64fx_config()
        program = looped_program(iterations=128, jitter_every=4)
        info = period_replay.period_info(compile_trace(program, config))
        assert info is not None
        assert info.period % (4 * 7 + 1) == 0

    def test_random_trace_is_aperiodic(self):
        rng = random.Random(3)
        builder = ProgramBuilder(vector_length_bits=512)
        regs = [vreg(i) for i in range(24)]
        for _ in range(period_replay.MIN_N + 100):
            roll = rng.random()
            if roll < 0.4:
                builder.vload(rng.choice(regs),
                              rng.randrange(0, 1 << 20, 4), DType.INT8,
                              size=rng.choice([1, 4, 64]))
            else:
                builder.vmla(rng.choice(regs), rng.choice(regs),
                             rng.choice(regs), DType.INT32)
        info = period_replay.period_info(
            compile_trace(builder.build(), a64fx_config())
        )
        assert info is None

    def test_short_trace_skipped(self):
        program = looped_program(iterations=16)
        assert len(program) < period_replay.MIN_N
        info = period_replay.period_info(
            compile_trace(program, a64fx_config())
        )
        assert info is None

    def test_analysis_cached_on_trace(self):
        trace = compile_trace(looped_program(iterations=128), a64fx_config())
        first = period_replay.period_info(trace)
        assert period_replay.period_info(trace) is first


class TestReplayEquivalence:
    """Replay on == replay off == scalar, on both machines."""

    @pytest.mark.parametrize("machine", ["a64fx", "sargantana"])
    @pytest.mark.parametrize("jitter", [0, 4])
    def test_periodic_trace(self, machine, jitter, monkeypatch):
        config = MACHINES[machine]()
        program = looped_program(
            iterations=128, vector_length_bits=config.vector_length_bits,
            jitter_every=jitter,
        )
        scalar = PipelineSimulator(config).run(program, engine="scalar")
        on = run_batch(config, program, True, monkeypatch)
        off = run_batch(config, program, False, monkeypatch)
        assert scalar == off
        assert scalar == on

    def test_replay_actually_fires(self, monkeypatch):
        """Guard against the suite silently testing a never-taken path."""
        config = a64fx_config()
        program = looped_program(iterations=256)
        fired = []
        original = period_replay.PeriodicReplayer._replay_chain

        def counting(self, *args, **kwargs):
            k = original(self, *args, **kwargs)
            if k:
                fired.append(k)
            return k

        monkeypatch.setattr(
            period_replay.PeriodicReplayer, "_replay_chain", counting
        )
        run_batch(config, program, True, monkeypatch)
        assert fired, "periodic replay never committed on a looped trace"

    def test_sub_stride_period_accounting(self, monkeypatch):
        """Structural period below MIN_STRIDE: the boundary stride (and
        any matched effective period) is a strict multiple of the
        period, so the fast-forward must account instructions by the
        actual advance, not the structural period (regression: a
        scheduler that counted pending instructions by the structural
        period hung with some left over)."""
        config = a64fx_config()
        builder = ProgramBuilder(name="half-line", vector_length_bits=512)
        acc = [vreg(i) for i in range(4)]
        a, b = vreg(8), vreg(9)
        for it in range(256):
            # half-line loads: a miss only every other iteration, so the
            # schedule's super-period exceeds the 5-instruction body
            builder.vload(a, 0x10000 + 32 * it, DType.INT8, size=32)
            for r in acc:
                builder.vmla(r, a, b, DType.INT32)
        program = builder.build()
        scalar = PipelineSimulator(config).run(program, engine="scalar")
        on = run_batch(config, program, True, monkeypatch)
        assert scalar == on

    def test_kernel_call_trace_with_replay(self, monkeypatch):
        """Real micro-kernel traces (the fig17 hot path) stay identical."""
        driver = make_driver("gemmlowp", "a64fx")
        kc = driver.blocking.kc
        program = driver.kernel.build_call(kc, first_k_block=False)
        warm = list(driver.kernel.warm_addresses(kc))
        scalar = PipelineSimulator(driver.config).run(
            program, warm_addresses=warm, engine="scalar"
        )
        on = run_batch(driver.config, program, True, monkeypatch,
                       warm=warm)
        assert scalar == on

    def test_small_window_machine(self, monkeypatch):
        """Narrow windows stress boundary realignment."""
        config = replace(a64fx_config(), window=8)
        program = looped_program(iterations=128)
        scalar = PipelineSimulator(config).run(program, engine="scalar")
        on = run_batch(config, program, True, monkeypatch)
        assert scalar == on

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv(period_replay._ENV_DISABLE, "1")
        assert not period_replay.replay_enabled()
        monkeypatch.setenv(period_replay._ENV_DISABLE, "0")
        assert period_replay.replay_enabled()
        monkeypatch.delenv(period_replay._ENV_DISABLE)
        assert period_replay.replay_enabled()
