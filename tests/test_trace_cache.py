"""Tests for the persistent compiled-trace cache.

Covers the content-addressed key components (program / machine /
compile-source digests), the checksummed on-disk record format and its
corruption handling, bit-identical SimStats across every cache path
(cold compile, cache disabled, warm-from-disk, warm-from-memory), the
machine-independence of the vector-mix
classification, concurrent-writer atomicity, and the maintenance
surface (``disk_stats`` / ``prune``).
"""

import pickle
import random
import threading

import pytest

from repro.isa.dtypes import DType
from repro.isa.builder import ProgramBuilder
from repro.isa.registers import vreg, xreg
from repro.simulator import trace_cache
from repro.simulator.config import a64fx_config, sargantana_config
from repro.simulator.engine import (
    set_trace_cache_enabled,
    trace_cache_enabled,
    trace_caching,
)
from repro.simulator.pipeline import PipelineSimulator
from repro.simulator.trace_compile import (
    compile_trace,
    compiled_for,
    opcode_table,
)


def build_program(n=200, seed=7, vector_length_bits=512):
    """Deterministic mixed trace: same (n, seed) -> same content.

    Rebuilding with the same arguments yields a *distinct* Program
    object with identical instructions — the cross-process warm case.
    """
    rng = random.Random(seed)
    builder = ProgramBuilder(
        name="trace-cache-test", vector_length_bits=vector_length_bits
    )
    regs = [vreg(i) for i in range(16)]
    scalars = [xreg(i) for i in range(1, 6)]
    for _ in range(n):
        roll = rng.random()
        if roll < 0.3:
            builder.vload(rng.choice(regs), rng.randrange(0, 1 << 16, 4),
                          DType.INT8, size=rng.choice([4, 64, 128]))
        elif roll < 0.45:
            builder.vstore(rng.choice(regs), rng.randrange(0, 1 << 16, 4),
                           DType.INT8, size=64)
        elif roll < 0.75:
            builder.vmla(rng.choice(regs), rng.choice(regs),
                         rng.choice(regs), DType.INT32)
        elif roll < 0.9:
            builder.vadd(rng.choice(regs), rng.choice(regs),
                         rng.choice(regs), DType.INT32)
        else:
            builder.salu(rng.choice(scalars), [rng.choice(scalars)])
    return builder.build()


@pytest.fixture
def cache_on():
    with trace_caching(True):
        yield


class TestKeyComponents:
    def test_program_digest_is_content_based(self):
        a = build_program(seed=3)
        b = build_program(seed=3)
        c = build_program(seed=4)
        assert a is not b
        assert trace_cache.program_digest(a) == trace_cache.program_digest(b)
        assert trace_cache.program_digest(a) != trace_cache.program_digest(c)

    def test_program_digest_length_guard(self):
        builder = ProgramBuilder(name="growing")
        builder.vadd(vreg(0), vreg(1), vreg(2), DType.INT32)
        program = builder.program
        first = trace_cache.program_digest(program)
        builder.vadd(vreg(3), vreg(4), vreg(5), DType.INT32)
        assert trace_cache.program_digest(program) != first

    def test_digest_attribute_survives_pickling(self):
        program = build_program()
        trace_cache.predigest(program)
        clone = pickle.loads(pickle.dumps(program))
        # the worker-side lookup must not pay the digest pass again
        assert getattr(clone, "_repro_content_digest") == (
            len(program), trace_cache.program_digest(program)
        )

    def test_machine_digest_tracks_in_place_mutation(self):
        config = a64fx_config(camp_enabled=True)
        before = trace_cache.machine_digest(config)
        fu = next(iter(config.fu_latency))
        config.fu_latency[fu] += 1
        assert trace_cache.machine_digest(config) != before
        config.fu_latency[fu] -= 1
        assert trace_cache.machine_digest(config) == before

    def test_machine_digest_separates_machines_and_modes(self):
        digests = {
            trace_cache.machine_digest(a64fx_config(camp_enabled=True)),
            trace_cache.machine_digest(a64fx_config(camp_enabled=False)),
            trace_cache.machine_digest(sargantana_config(camp_enabled=True)),
        }
        assert len(digests) == 3

    def test_compile_source_digest_is_stable(self):
        assert (trace_cache.compile_source_digest()
                == trace_cache.compile_source_digest())

    def test_compile_source_digest_tracks_file_edits(self, tmp_path,
                                                     monkeypatch):
        files = []
        for name in ("trace_compile.py", "trace_cache.py", "instructions.py"):
            path = tmp_path / name
            path.write_text("%s = 1\n" % name[:-3])
            files.append(str(path))
        monkeypatch.setattr(trace_cache, "_compile_files", tuple(files))
        monkeypatch.setattr(trace_cache, "_source_memo", None)
        before = trace_cache.compile_source_digest()
        assert trace_cache.compile_source_digest() == before
        (tmp_path / "instructions.py").write_text("instructions = 22\n")
        assert trace_cache.compile_source_digest() != before

    def test_cache_root_tracks_result_cache_dir(self, monkeypatch, tmp_path):
        from repro.experiments.cache import default_cache_dir

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "redirected"))
        assert trace_cache.cache_root() == default_cache_dir() / "traces"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert trace_cache.cache_root() == default_cache_dir() / "traces"


class TestRoundTrip:
    def test_round_trip_preserves_every_field(self):
        program = build_program()
        trace = compile_trace(program, a64fx_config(camp_enabled=True))
        loaded = trace_cache.deserialize_trace(
            trace_cache.serialize_trace(trace)
        )
        assert trace_cache.traces_equal(trace, loaded)
        # the exact conventions SimStats identity rides on: dependence
        # tuples in their materialized order, None (not []) for
        # instructions nothing depends on
        assert loaded.deps == trace.deps
        assert loaded.dependents == trace.dependents
        assert any(d is None for d in loaded.dependents)
        assert any(isinstance(d, list) for d in loaded.dependents)

    def test_round_trip_restores_shared_info_records(self):
        program = build_program()
        trace = compile_trace(program, a64fx_config(camp_enabled=True))
        loaded = trace_cache.deserialize_trace(
            trace_cache.serialize_trace(trace)
        )
        # one record object per opcode, shared across instructions (the
        # pickle memo preserves aliasing): identical ids, not just
        # equal values
        assert len({id(r) for r in loaded.info}) == len(
            {id(r) for r in trace.info}
        )


class TestCachePaths:
    def test_stats_flow_cold_disk_memory(self, cache_on):
        config = a64fx_config(camp_enabled=True)
        cold = compiled_for(build_program(), config)
        assert trace_cache.stats() == {
            "memory_hits": 0, "disk_hits": 0, "misses": 1, "stores": 1,
            "errors": 0,
        }
        # a distinct-but-identical program in a "fresh process" (empty
        # memory tier) loads from disk
        trace_cache.clear_memory()
        warm_disk = compiled_for(build_program(), config)
        assert trace_cache.stats()["disk_hits"] == 1
        # same content again with the memory tier populated
        warm_memory = compiled_for(build_program(), config)
        assert trace_cache.stats()["memory_hits"] == 1
        assert trace_cache.traces_equal(cold, warm_disk)
        assert trace_cache.traces_equal(cold, warm_memory)

    def test_simstats_identical_across_all_cache_paths(self, cache_on):
        config = a64fx_config(camp_enabled=True)

        def run(program):
            return PipelineSimulator(config).run(program, engine="batch")

        cold = run(build_program())
        with trace_caching(False):
            disabled = run(build_program())
        trace_cache.clear_memory()
        warm_disk = run(build_program())
        warm_memory = run(build_program())
        scalar = PipelineSimulator(config).run(
            build_program(), engine="scalar"
        )
        assert cold == disabled == warm_disk == warm_memory == scalar

    def test_cached_trace_identical_under_window_scan(self, cache_on):
        config = a64fx_config(camp_enabled=True)
        compiled_for(build_program(), config)  # populate the disk tier
        trace_cache.clear_memory()
        warm = PipelineSimulator(config).run(build_program(), engine="batch")
        assert trace_cache.stats()["disk_hits"] >= 1
        scalar = PipelineSimulator(config).run(
            build_program(), engine="scalar"
        )
        assert warm == scalar

    def test_classify_vector_mix_machine_independent(self, cache_on):
        # the R/W/Alu classification depends only on the opcode stream,
        # never on the machine — including on the loaded-from-cache path
        a64fx = a64fx_config(camp_enabled=True)
        sarg = sargantana_config(camp_enabled=True)
        reference = build_program().classify_vector_mix()
        assert compile_trace(build_program(), a64fx).mix == reference
        assert compile_trace(build_program(), sarg).mix == reference
        program = build_program()
        compiled_for(program, a64fx)
        trace_cache.clear_memory()
        loaded = build_program()
        compiled_for(loaded, a64fx)  # disk hit installs the mix cache
        assert trace_cache.stats()["disk_hits"] == 1
        assert loaded.classify_vector_mix() == reference

    def test_min_persist_gate_skips_tiny_traces(self, cache_on):
        config = a64fx_config(camp_enabled=True)
        tiny = build_program(n=trace_cache.MIN_PERSIST_INSTRUCTIONS - 10)
        compiled_for(tiny, config)
        assert trace_cache.entry_paths() == []
        assert trace_cache.stats() == {
            "memory_hits": 0, "disk_hits": 0, "misses": 0, "stores": 0,
            "errors": 0,
        }


class TestDurability:
    @pytest.mark.parametrize("corruption", [
        "empty", "truncated", "bad_magic", "flipped_byte", "garbage",
    ])
    def test_corrupt_entry_recompiles_and_heals(self, cache_on, corruption):
        config = a64fx_config(camp_enabled=True)
        reference = compiled_for(build_program(), config)
        [path] = trace_cache.entry_paths()
        data = path.read_bytes()
        if corruption == "empty":
            path.write_bytes(b"")
        elif corruption == "truncated":
            path.write_bytes(data[: len(data) // 2])
        elif corruption == "bad_magic":
            path.write_bytes(b"XXXXXXXX" + data[8:])
        elif corruption == "flipped_byte":
            body = bytearray(data)
            body[-1] ^= 0xFF
            path.write_bytes(bytes(body))
        else:
            path.write_bytes(b"\x00" * len(data))
        trace_cache.clear_memory()
        trace_cache.reset_stats()
        recovered = compiled_for(build_program(), config)
        assert trace_cache.traces_equal(recovered, reference)
        assert trace_cache.stats()["errors"] == 1
        assert trace_cache.stats()["stores"] == 1  # healed
        # and the healed entry round-trips
        trace_cache.clear_memory()
        assert trace_cache.traces_equal(
            compiled_for(build_program(), config), reference
        )
        assert trace_cache.stats()["disk_hits"] == 1

    def test_concurrent_writers_never_tear_readers(self, cache_on):
        config = a64fx_config(camp_enabled=True)
        program = build_program()
        trace = compile_trace(program, config)
        stop = threading.Event()
        failures = []

        def writer():
            while not stop.is_set():
                trace_cache.put(build_program(), config, trace)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(40):
                trace_cache.clear_memory()
                loaded = trace_cache.fetch(build_program(), config)
                if loaded is not None and not trace_cache.traces_equal(
                    loaded, trace
                ):
                    failures.append("loaded trace differs")
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures
        # atomic rename means a reader can race a writer, but never
        # observes a half-written record
        assert trace_cache.stats()["errors"] == 0

    def test_put_survives_unwritable_root(self, cache_on, tmp_path,
                                          monkeypatch):
        # block the tier's root with a plain file: mkdir/replace raise
        # OSError (works even when the suite runs as root, where
        # permission bits alone would not stop writes)
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        (blocked / "traces").write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocked))
        config = a64fx_config(camp_enabled=True)
        program = build_program()
        trace = compiled_for(program, config)  # put fails, compile wins
        assert trace_cache.stats()["errors"] == 1
        assert trace_cache.traces_equal(
            trace, compile_trace(build_program(), config)
        )


class TestDisableControls:
    def test_env_variable_disables_both_tiers(self, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_DISABLE, "1")
        config = a64fx_config(camp_enabled=True)
        stats = PipelineSimulator(config).run(build_program(), engine="batch")
        assert trace_cache.entry_paths() == []
        assert trace_cache.stats() == {
            "memory_hits": 0, "disk_hits": 0, "misses": 0, "stores": 0,
            "errors": 0,
        }
        monkeypatch.delenv(trace_cache.ENV_DISABLE)
        with trace_caching(True):
            enabled_stats = PipelineSimulator(config).run(
                build_program(), engine="batch"
            )
        assert stats == enabled_stats

    def test_override_beats_environment_and_restores(self, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_DISABLE, "1")
        assert not trace_cache_enabled()
        with trace_caching(True):
            assert trace_cache_enabled()
        assert not trace_cache_enabled()
        set_trace_cache_enabled(False)
        monkeypatch.delenv(trace_cache.ENV_DISABLE)
        try:
            assert not trace_cache_enabled()
        finally:
            set_trace_cache_enabled(None)
        assert trace_cache_enabled()


class TestOpcodeTableMemo:
    def test_in_place_config_mutation_refreshes_decode(self):
        config = a64fx_config(camp_enabled=True)
        before = opcode_table(config)
        fu = next(iter(config.fu_latency))
        config.fu_latency[fu] += 5
        try:
            after = opcode_table(config)
            assert after is not before
            changed = [
                op for op in before
                if before[op][1] is not None
                and after[op][1] == before[op][1] + 5
            ]
            assert changed, "no opcode picked up the mutated latency"
        finally:
            config.fu_latency[fu] -= 5
        # restoring the values restores the memoized table
        assert opcode_table(config) is before


class TestMaintenance:
    def test_disk_stats_and_prune(self, cache_on):
        config = a64fx_config(camp_enabled=True)
        compiled_for(build_program(seed=11), config)
        compiled_for(build_program(seed=12), config)
        stats = trace_cache.disk_stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0
        removed, freed = trace_cache.prune(max_size_mb=0)
        assert removed == 2 and freed == stats["total_bytes"]
        assert trace_cache.disk_stats()["entries"] == 0

    def test_prune_by_age_keeps_fresh_entries(self, cache_on):
        config = a64fx_config(camp_enabled=True)
        compiled_for(build_program(seed=13), config)
        removed, _ = trace_cache.prune(max_age_days=1)
        assert removed == 0
        removed, _ = trace_cache.prune(max_age_days=0)
        assert removed == 1


class TestMemoryCap:
    """``$REPRO_TRACE_CACHE_MEM`` sizes (or disables) the memory tier."""

    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv(trace_cache.ENV_MEMORY_CAP, raising=False)
        assert trace_cache.memory_cap() == trace_cache.MEMORY_CAP

    def test_env_override_and_garbage(self, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_MEMORY_CAP, "3")
        assert trace_cache.memory_cap() == 3
        monkeypatch.setenv(trace_cache.ENV_MEMORY_CAP, "not-a-number")
        assert trace_cache.memory_cap() == trace_cache.MEMORY_CAP
        monkeypatch.setenv(trace_cache.ENV_MEMORY_CAP, "-4")
        assert trace_cache.memory_cap() == trace_cache.MEMORY_CAP

    def test_cap_bounds_the_lru(self, cache_on, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_MEMORY_CAP, "2")
        config = a64fx_config(camp_enabled=True)
        for seed in (21, 22, 23):
            compiled_for(build_program(seed=seed), config)
        assert len(trace_cache._memory) == 2

    def test_zero_disables_memory_tier(self, cache_on, monkeypatch):
        monkeypatch.setenv(trace_cache.ENV_MEMORY_CAP, "0")
        config = a64fx_config(camp_enabled=True)
        compiled_for(build_program(seed=24), config)
        assert len(trace_cache._memory) == 0
        # a fresh equal-content program warms from disk, not memory
        before = trace_cache.stats()
        compiled_for(build_program(seed=24), config)
        after = trace_cache.stats()
        assert after["disk_hits"] == before["disk_hits"] + 1
        assert after["memory_hits"] == before["memory_hits"]
        assert len(trace_cache._memory) == 0

    def test_zero_skips_stale_memory_entries(self, cache_on, monkeypatch):
        # entries inserted before the cap dropped to 0 must not hit
        monkeypatch.delenv(trace_cache.ENV_MEMORY_CAP, raising=False)
        config = a64fx_config(camp_enabled=True)
        compiled_for(build_program(seed=25), config)
        assert len(trace_cache._memory) == 1
        monkeypatch.setenv(trace_cache.ENV_MEMORY_CAP, "0")
        before = trace_cache.stats()
        compiled_for(build_program(seed=25), config)
        after = trace_cache.stats()
        assert after["memory_hits"] == before["memory_hits"]
        assert after["disk_hits"] == before["disk_hits"] + 1
