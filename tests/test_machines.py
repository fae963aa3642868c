"""Tests for the declarative machine-description subsystem."""

import json

import pytest

from repro.isa.instructions import FUClass, Opcode
from repro.machines import (
    FU_CLASS_NAMES,
    OPCODE_NAMES,
    MachineSpec,
    MachineSpecError,
    StoreBufferSpec,
    as_config,
    get_spec,
    machine_names,
    machines_digest,
)
from repro.machines.presets import PRESETS
from repro.memory.cache import CacheConfig
from repro.simulator.config import MachineConfig, StoreBufferConfig

#: the historical factory outputs, inlined verbatim so the registry can
#: never drift from what the paper experiments were validated against
def _legacy_a64fx(camp_enabled=False):
    return MachineConfig(
        name="a64fx" + ("+camp" if camp_enabled else ""),
        frequency_ghz=2.0,
        vector_length_bits=512,
        issue_width=2,
        window=32,
        fu_counts={
            FUClass.SCALAR: 2,
            FUClass.BRANCH: 1,
            FUClass.LOAD: 2,
            FUClass.STORE: 1,
            FUClass.VALU: 1,
            FUClass.VMUL: 1,
            FUClass.MATRIX: 1 if camp_enabled else 0,
        },
        fu_latency={
            FUClass.SCALAR: 1,
            FUClass.BRANCH: 1,
            FUClass.LOAD: 4,
            FUClass.STORE: 1,
            FUClass.VALU: 2,
            FUClass.VMUL: 4,
            FUClass.MATRIX: 6,
        },
        opcode_latency={
            Opcode.FMLA: 9,
            Opcode.VREDUCE: 6,
            Opcode.VREINTERPRET: 1,
            Opcode.VMOV: 1,
        },
        cache_configs=(
            CacheConfig("l1", 64 * 1024, 256, 8, load_to_use=4),
            CacheConfig("l2", 8 * 1024 * 1024, 256, 16, load_to_use=37),
        ),
        dram_latency=100,
        dram_bytes_per_cycle=128.0,
        dram_channels=4,
        store_buffer=StoreBufferConfig(entries=24, drain_latency=2),
        camp_enabled=camp_enabled,
    )


def _legacy_sargantana(camp_enabled=False):
    return MachineConfig(
        name="sargantana" + ("+camp" if camp_enabled else ""),
        frequency_ghz=1.0,
        vector_length_bits=128,
        issue_width=1,
        window=1,
        fu_counts={
            FUClass.SCALAR: 1,
            FUClass.BRANCH: 1,
            FUClass.LOAD: 1,
            FUClass.STORE: 1,
            FUClass.VALU: 1,
            FUClass.VMUL: 1,
            FUClass.MATRIX: 1 if camp_enabled else 0,
        },
        fu_latency={
            FUClass.SCALAR: 1,
            FUClass.BRANCH: 1,
            FUClass.LOAD: 2,
            FUClass.STORE: 1,
            FUClass.VALU: 2,
            FUClass.VMUL: 3,
            FUClass.MATRIX: 4,
        },
        opcode_latency={
            Opcode.FMLA: 5,
            Opcode.VREDUCE: 4,
        },
        fu_interval={
            FUClass.VMUL: 2,
        },
        cache_configs=(
            CacheConfig("l1", 32 * 1024, 64, 4, load_to_use=2),
            CacheConfig("l2", 512 * 1024, 64, 8, load_to_use=12),
        ),
        dram_latency=60,
        dram_bytes_per_cycle=8.0,
        store_buffer=StoreBufferConfig(entries=8, drain_latency=2),
        camp_enabled=camp_enabled,
    )


EXAMPLE_TOML = """
name = "toml-test"
description = "one machine, straight from TOML"
frequency_ghz = 1.25
vector_length_bits = 256
issue_width = 2
window = 8
cores = 2

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
load = 3
store = 1
valu = 2
vmul = 4
matrix = 5

[fu_interval]
vmul = 2

[opcode_latency]
fmla = 7

[[caches]]
name = "l1"
size_bytes = 32768
line_bytes = 64
ways = 4
load_to_use = 3

[[caches]]
name = "l2"
size_bytes = 1048576
line_bytes = 64
ways = 8
load_to_use = 15

[dram]
latency = 75
bytes_per_cycle = 16.0
channels = 2

[store_buffer]
entries = 12
drain_latency = 2

[sweep]
baseline = "gemmlowp"
methods = ["camp8", "gemmlowp"]
"""


class TestLegacyParity:
    """Registry-resolved configs equal the historical factory outputs."""

    @pytest.mark.parametrize("camp_enabled", [False, True])
    def test_a64fx(self, camp_enabled):
        assert get_spec("a64fx").config(camp_enabled) == \
            _legacy_a64fx(camp_enabled)

    @pytest.mark.parametrize("camp_enabled", [False, True])
    def test_sargantana(self, camp_enabled):
        assert get_spec("sargantana").config(camp_enabled) == \
            _legacy_sargantana(camp_enabled)

    def test_config_factories_delegate_to_registry(self):
        from repro.simulator.config import a64fx_config, sargantana_config

        assert a64fx_config(True) == get_spec("a64fx").config(True)
        assert sargantana_config() == get_spec("sargantana").config()


class TestNameTables:
    """The string name sets can never drift from the enums."""

    def test_fu_class_names_match_enum(self):
        assert FU_CLASS_NAMES == {fu.value for fu in FUClass}

    def test_opcode_names_match_enum(self):
        assert OPCODE_NAMES == {op.value for op in Opcode}


class TestRoundTrips:
    @pytest.mark.parametrize("spec", PRESETS, ids=lambda s: s.name)
    def test_dict_round_trip(self, spec):
        assert MachineSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", PRESETS, ids=lambda s: s.name)
    def test_json_round_trip(self, spec):
        data = json.loads(json.dumps(spec.to_dict()))
        assert MachineSpec.from_dict(data) == spec

    def test_toml_round_trip(self, tmp_path, fresh_registry):
        path = tmp_path / "toml-test.toml"
        path.write_text(EXAMPLE_TOML)
        spec = fresh_registry.load_file(path)
        assert spec.name == "toml-test"
        assert spec.vector_length_bits == 256
        assert spec.store_buffer == StoreBufferSpec(12, 2)
        assert spec.baseline == "gemmlowp"
        assert MachineSpec.from_dict(spec.to_dict()) == spec
        # and it produces a working simulator config
        config = spec.config(camp_enabled=True)
        assert config.units_of(FUClass.MATRIX) == 1
        assert config.interval_of(FUClass.VMUL) == 2

    def test_json_file_load(self, tmp_path, fresh_registry):
        spec = get_spec("sve2-edge").derive(name="json-test")
        path = tmp_path / "json-test.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = fresh_registry.load_file(path)
        assert loaded == spec
        assert fresh_registry.get("json-test") is loaded

    def test_config_camp_toggle(self):
        spec = get_spec("a64fx")
        assert spec.config(True).units_of(FUClass.MATRIX) == 1
        assert spec.config(False).units_of(FUClass.MATRIX) == 0
        assert spec.config(True).name == "a64fx+camp"

    def test_camp_on_matrixless_machine_is_actionable(self):
        data = get_spec("sargantana").to_dict()
        data["name"] = "no-matrix"
        del data["fu_counts"]["matrix"]
        del data["fu_latency"]["matrix"]
        spec = MachineSpec.from_dict(data)
        assert spec.config(camp_enabled=False).units_of(FUClass.MATRIX) == 0
        with pytest.raises(MachineSpecError) as excinfo:
            spec.config(camp_enabled=True)
        assert "no matrix units" in str(excinfo.value)

    def test_explicit_zero_matrix_units_also_rejected(self):
        data = get_spec("sargantana").to_dict()
        data["name"] = "zero-matrix"
        data["fu_counts"]["matrix"] = 0
        spec = MachineSpec.from_dict(data)
        with pytest.raises(MachineSpecError):
            spec.config(camp_enabled=True)


class TestValidation:
    def base(self):
        return get_spec("sargantana").to_dict()

    def expect_error(self, data, *needles):
        with pytest.raises(MachineSpecError) as excinfo:
            MachineSpec.from_dict(data)
        for needle in needles:
            assert needle in str(excinfo.value), str(excinfo.value)

    def test_unknown_fu_class(self):
        data = self.base()
        data["fu_counts"]["vdiv"] = 1
        self.expect_error(data, "unknown FU class", "vdiv", "valid classes")

    def test_unknown_opcode(self):
        data = self.base()
        data["opcode_latency"]["fsqrt"] = 9
        self.expect_error(data, "unknown opcode", "fsqrt")

    def test_missing_cache_field(self):
        data = self.base()
        del data["caches"][0]["ways"]
        self.expect_error(data, "cache level 0", "'l1'", "ways")

    def test_invalid_cache_geometry(self):
        data = self.base()
        data["caches"][0]["line_bytes"] = 48  # size not divisible
        self.expect_error(data, "cache level 0", "not divisible")

    def test_duplicate_cache_level_name(self):
        """Per-level miss rates are keyed by name: two levels named
        "l1" would silently collapse into one entry."""
        data = self.base()
        data["name"] = "twin-l1"
        data["caches"][1]["name"] = data["caches"][0]["name"]
        self.expect_error(data, "'twin-l1'", "repeated: l1")
        spec = get_spec("sargantana")
        with pytest.raises(MachineSpecError) as excinfo:
            spec.derive(caches=(spec.caches[0], spec.caches[0]))
        assert "repeated: l1" in str(excinfo.value)

    def test_missing_required_field(self):
        data = self.base()
        del data["frequency_ghz"]
        self.expect_error(data, "missing required field", "frequency_ghz")

    def test_unknown_top_level_field(self):
        data = self.base()
        data["turbo"] = True
        self.expect_error(data, "unknown field", "turbo", "valid fields")

    def test_missing_dram_field(self):
        data = self.base()
        del data["dram"]["channels"]
        self.expect_error(data, "dram", "channels")

    def test_baseline_must_be_in_methods(self):
        data = self.base()
        data["sweep"]["baseline"] = "openblas-fp32"
        self.expect_error(data, "baseline", "openblas-fp32", "method set")

    def test_vector_length_multiple_of_64(self):
        data = self.base()
        data["vector_length_bits"] = 100
        self.expect_error(data, "multiple of 64")

    def test_fu_count_without_latency(self):
        data = self.base()
        del data["fu_latency"]["vmul"]
        self.expect_error(data, "fu_latency is missing", "vmul")

    def test_nonpositive_core_parameter(self):
        data = self.base()
        data["issue_width"] = 0
        self.expect_error(data, "issue_width", "positive")


class TestDerive:
    def test_field_overrides(self):
        derived = get_spec("a64fx").derive(
            vector_length_bits=256, dram_channels=2
        )
        assert derived.vector_length_bits == 256
        assert derived.dram_channels == 2
        assert derived.frequency_ghz == get_spec("a64fx").frequency_ghz
        config = derived.config(camp_enabled=True)
        assert config.n_lanes == 4

    def test_auto_name_is_deterministic(self):
        a = get_spec("a64fx").derive(dram_channels=2)
        b = get_spec("a64fx").derive(dram_channels=2)
        assert a.name == b.name == "a64fx~dram_channels=2"

    def test_explicit_name(self):
        derived = get_spec("a64fx").derive(name="a64fx-nb", dram_channels=1)
        assert derived.name == "a64fx-nb"

    def test_unknown_field_rejected(self):
        with pytest.raises(MachineSpecError) as excinfo:
            get_spec("a64fx").derive(clock_domains=2)
        assert "clock_domains" in str(excinfo.value)
        assert "valid fields" in str(excinfo.value)

    def test_derived_spec_revalidates(self):
        with pytest.raises(MachineSpecError):
            get_spec("a64fx").derive(vector_length_bits=100)

    def test_cache_override_from_dicts(self):
        derived = get_spec("sargantana").derive(
            caches=[
                {"name": "l1", "size_bytes": 16384, "line_bytes": 64,
                 "ways": 4, "load_to_use": 2},
            ]
        )
        assert len(derived.caches) == 1
        assert derived.caches[0] == CacheConfig("l1", 16384, 64, 4, 2)

    def test_store_buffer_override_from_dict(self):
        derived = get_spec("a64fx").derive(
            store_buffer={"entries": 4, "drain_latency": 1}
        )
        assert derived.store_buffer == StoreBufferSpec(4, 1)


class TestRegistry:
    def test_presets_registered(self):
        names = machine_names()
        for expected in ("a64fx", "sargantana", "sve2-edge", "x280",
                         "hbm-server"):
            assert expected in names

    def test_unknown_machine_lists_available(self):
        with pytest.raises(KeyError) as excinfo:
            get_spec("z80")
        assert "z80" in str(excinfo.value)
        assert "a64fx" in str(excinfo.value)

    def test_duplicate_rejected_without_replace(self, fresh_registry):
        with pytest.raises(MachineSpecError) as excinfo:
            fresh_registry.register(get_spec("a64fx"))
        assert "already registered" in str(excinfo.value)
        fresh_registry.register(get_spec("a64fx"), replace=True)

    def test_fresh_registry_isolates(self, fresh_registry):
        fresh_registry.register(get_spec("a64fx").derive(name="scratch"))
        assert "scratch" in machine_names()

    def test_scratch_machine_did_not_leak(self):
        assert "scratch" not in machine_names()

    def test_env_path_loading(self, tmp_path, monkeypatch):
        from repro import machines

        path = tmp_path / "envmachine.toml"
        path.write_text(EXAMPLE_TOML)
        monkeypatch.setenv(machines.MACHINE_PATH_ENV, str(path))
        registry = machines.default_registry()
        assert "toml-test" in registry.names()

    def test_env_directory_loading(self, tmp_path, monkeypatch):
        from repro import machines

        (tmp_path / "one.toml").write_text(EXAMPLE_TOML)
        spec = MachineSpec.from_dict(
            dict(get_spec("x280").to_dict(), name="two")
        )
        (tmp_path / "two.json").write_text(json.dumps(spec.to_dict()))
        monkeypatch.setenv(machines.MACHINE_PATH_ENV, str(tmp_path))
        registry = machines.default_registry()
        assert "toml-test" in registry.names()
        assert "two" in registry.names()

    def test_bad_suffix_rejected(self, tmp_path, fresh_registry):
        path = tmp_path / "machine.yaml"
        path.write_text("nope")
        with pytest.raises(MachineSpecError) as excinfo:
            fresh_registry.load_file(path)
        assert "unsupported suffix" in str(excinfo.value)

    def test_parse_error_names_the_file(self, tmp_path, fresh_registry):
        path = tmp_path / "broken.toml"
        path.write_text("name = [unclosed")
        with pytest.raises(MachineSpecError) as excinfo:
            fresh_registry.load_file(path)
        assert "broken.toml" in str(excinfo.value)

    def test_malformed_spec_names_the_file(self, tmp_path, fresh_registry):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"name": "half"}))
        with pytest.raises(MachineSpecError) as excinfo:
            fresh_registry.load_file(path)
        assert "half.json" in str(excinfo.value)
        assert "missing required field" in str(excinfo.value)

    def test_as_config_coercions(self):
        config = get_spec("a64fx").config(camp_enabled=True)
        assert as_config("a64fx", camp_enabled=True) == config
        assert as_config(get_spec("a64fx"), camp_enabled=True) == config
        assert as_config(config) is config


class TestDigest:
    def test_digest_stable(self):
        assert machines_digest() == machines_digest()

    def test_digest_changes_on_registration(self, fresh_registry):
        before = machines_digest()
        fresh_registry.register(get_spec("a64fx").derive(name="probe"))
        assert machines_digest() != before

    def test_digest_changes_on_replacement(self, fresh_registry):
        before = machines_digest()
        fresh_registry.register(
            get_spec("a64fx").derive(dram_channels=2, name="a64fx"),
            replace=True,
        )
        assert machines_digest() != before

    def test_spec_digest_tracks_content(self):
        spec = get_spec("a64fx")
        assert spec.digest() == spec.digest()
        assert spec.digest() != spec.derive(dram_channels=2).digest()


class TestOrchestratorIntegration:
    def test_machine_file_edit_invalidates_cache_key(self, tmp_path,
                                                     fresh_registry):
        """Satellite: editing a user machine file must change the key."""
        from repro.experiments.cache import ResultCache
        from repro.experiments.orchestrator import REGISTRY, _cache_key

        cache = ResultCache(tmp_path)
        spec = REGISTRY["table1"]
        before = _cache_key(cache, spec, True, {})
        path = tmp_path / "mine.toml"
        path.write_text(EXAMPLE_TOML)
        fresh_registry.load_file(path)
        after = _cache_key(cache, spec, True, {})
        assert after != before
        # editing the file and reloading changes it again
        path.write_text(EXAMPLE_TOML.replace("latency = 75", "latency = 90"))
        fresh_registry.load_file(path)
        assert _cache_key(cache, spec, True, {}) not in (before, after)

    def test_sweep_baseline_comes_from_spec(self, fresh_registry):
        from repro.experiments import runner

        assert runner.baseline_for("a64fx") == "openblas-fp32"
        assert runner.baseline_for("sargantana") == "blis-int32"
        assert runner.methods_for("a64fx") == runner.A64FX_METHODS

    def test_runner_constants_track_the_active_registry(self,
                                                        fresh_registry):
        from repro.experiments import runner

        fresh_registry.register(
            get_spec("a64fx").derive(
                name="a64fx", baseline="handv-int8",
                methods=("camp8", "handv-int8"),
            ),
            replace=True,
        )
        assert runner.A64FX_BASELINE == "handv-int8"
        assert runner.A64FX_METHODS == ("camp8", "handv-int8")

    def test_driver_cache_never_serves_overridden_spec(self, fresh_drivers,
                                                       fresh_registry):
        from repro.experiments.runner import driver_for

        before = driver_for("camp8", "a64fx")
        assert before.config.dram_channels == 4
        fresh_registry.register(
            get_spec("a64fx").derive(name="a64fx", dram_channels=2),
            replace=True,
        )
        after = driver_for("camp8", "a64fx")
        assert after is not before
        assert after.config.dram_channels == 2

    def test_machine_sweep_covers_registry(self, fresh_registry):
        from repro.experiments import exp_machine_sweep

        rows = exp_machine_sweep.run(fast=True, size=32)
        assert {row.machine for row in rows} == set(machine_names())
        for row in rows:
            assert row.baseline == get_spec(row.machine).baseline
            assert row.method != row.baseline

    def test_machine_sweep_single_machine(self, fresh_registry):
        from repro.experiments import exp_machine_sweep

        rows = exp_machine_sweep.run(fast=True, size=32, machine="x280")
        assert rows and all(row.machine == "x280" for row in rows)

    def test_machine_sweep_picks_up_user_machine(self, tmp_path,
                                                 fresh_registry):
        from repro.experiments import exp_machine_sweep

        path = tmp_path / "user.toml"
        path.write_text(EXAMPLE_TOML)
        fresh_registry.load_file(path)
        rows = exp_machine_sweep.run(fast=True, size=32,
                                     machine="toml-test")
        assert [row.method for row in rows] == ["camp8"]
        assert rows[0].baseline == "gemmlowp"


class TestCommittedExamples:
    def test_example_machine_files_load(self, fresh_registry):
        """Every machine file under examples/machines/ stays valid."""
        from pathlib import Path

        examples = Path(__file__).parents[1] / "examples" / "machines"
        paths = sorted(examples.glob("*.toml")) + sorted(
            examples.glob("*.json")
        )
        assert paths, "no committed example machine files found"
        for path in paths:
            spec = fresh_registry.load_file(path)
            assert MachineSpec.from_dict(spec.to_dict()) == spec
            assert spec.config(camp_enabled=True).n_lanes >= 1

    def test_quad_channel_edge_runs_a_sweep(self, fresh_registry):
        from pathlib import Path

        from repro.experiments import exp_machine_sweep

        path = (Path(__file__).parents[1] / "examples" / "machines"
                / "quad-channel-edge.toml")
        fresh_registry.load_file(path)
        rows = exp_machine_sweep.run(fast=True, size=32,
                                     machine="quad-channel-edge")
        assert rows and all(r.baseline == "gemmlowp" for r in rows)


class TestMulticoreIntegration:
    def test_run_multicore_accepts_machine_name(self, fresh_registry):
        from repro.gemm.microkernel import get_kernel
        from repro.simulator.multicore import run_multicore

        kernel = get_kernel("handv-int8", vector_length_bits=128)
        program = kernel.build_call(32, first_k_block=True)
        by_name = run_multicore("sargantana", [program, program])
        by_config = run_multicore(
            get_spec("sargantana").config(), [program, program]
        )
        assert by_name.cycles == by_config.cycles
        assert by_name.cores == 2
