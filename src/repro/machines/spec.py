"""Declarative machine descriptions.

A :class:`MachineSpec` is the single source of truth for one simulated
platform: core parameters, the functional-unit table, cache levels,
DRAM organisation, the store buffer, and the sweep metadata the
experiment layer needs (default baseline method and method set). Specs
are frozen data — they serialize to/from plain dicts (and TOML/JSON
files, see :mod:`repro.machines.registry`), validate eagerly with
actionable errors, and derive ablation variants via :meth:`derive`.

A spec is *engine-free*: turning it into the simulator's
:class:`~repro.simulator.config.MachineConfig` happens in
:meth:`MachineSpec.config`, which is also where functional-unit and
opcode names become enum members. Keeping the enums (and transitively
numpy) out of this module preserves the orchestrator's warm-cache
property of never importing numpy — the machines digest that joins the
result-cache key only needs the plain data.
"""

import hashlib
import json
from dataclasses import dataclass, field, fields, replace

from repro.memory.cache import CacheConfig


class MachineSpecError(ValueError):
    """A machine description is malformed; the message says how."""


#: valid functional-unit class names — mirrors ``FUClass`` values
#: (pinned by a test so the two can never drift)
FU_CLASS_NAMES = frozenset(
    {"scalar", "branch", "load", "store", "valu", "vmul", "matrix"}
)

#: valid opcode names — mirrors ``Opcode`` values (test-pinned)
OPCODE_NAMES = frozenset(
    {
        "salu", "smul", "sload", "sstore", "branch",
        "vload", "vstore", "vload_strided",
        "vadd", "vmul", "vmla", "vdup", "vwiden", "vnarrow",
        "vreinterpret", "vreduce", "vzero", "vmov", "fmla",
        "camp", "mmla", "camp_store",
    }
)

_CACHE_FIELDS = ("name", "size_bytes", "line_bytes", "ways", "load_to_use")
_STORE_BUFFER_FIELDS = ("entries", "drain_latency")
_DRAM_FIELDS = ("latency", "bytes_per_cycle", "channels")
_SWEEP_FIELDS = ("baseline", "methods")


@dataclass(frozen=True)
class StoreBufferSpec:
    """Store buffer between the pipeline and the cache."""

    entries: int = 16
    drain_latency: int = 2


@dataclass(frozen=True)
class MachineSpec:
    """Full declarative description of one simulated machine.

    FU and opcode tables are keyed by *name* (the enum value strings);
    ``fu_counts["matrix"]`` is the number of matrix units the machine
    exposes when the CAMP unit is enabled — :meth:`config` zeroes it
    for ``camp_enabled=False``, matching the legacy factory behaviour.
    """

    name: str
    frequency_ghz: float
    vector_length_bits: int
    issue_width: int
    window: int
    fu_counts: dict
    fu_latency: dict
    caches: tuple
    baseline: str
    methods: tuple
    description: str = ""
    cores: int = 1
    fu_interval: dict = field(default_factory=dict)
    opcode_latency: dict = field(default_factory=dict)
    dram_latency: int = 90
    dram_bytes_per_cycle: float = 64.0
    dram_channels: int = 1
    store_buffer: StoreBufferSpec = field(default_factory=StoreBufferSpec)
    prefetch: bool = True

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise MachineSpecError("machine spec needs a non-empty name")
        self._check_positive("frequency_ghz", self.frequency_ghz)
        if self.vector_length_bits % 64:
            raise MachineSpecError(
                "machine %r: vector_length_bits must be a multiple of 64, "
                "got %r" % (self.name, self.vector_length_bits)
            )
        for attr in ("issue_width", "window", "cores", "dram_latency",
                     "dram_channels"):
            self._check_positive(attr, getattr(self, attr))
        self._check_positive("dram_bytes_per_cycle", self.dram_bytes_per_cycle)
        self._check_fu_table("fu_counts", self.fu_counts, minimum=0)
        self._check_fu_table("fu_latency", self.fu_latency, minimum=1)
        self._check_fu_table("fu_interval", self.fu_interval, minimum=1)
        missing_latency = [
            name for name in self.fu_counts
            if self.fu_counts[name] and name not in self.fu_latency
        ]
        if missing_latency:
            raise MachineSpecError(
                "machine %r: fu_latency is missing entries for: %s"
                % (self.name, ", ".join(sorted(missing_latency)))
            )
        unknown_ops = sorted(set(self.opcode_latency) - OPCODE_NAMES)
        if unknown_ops:
            raise MachineSpecError(
                "machine %r: unknown opcode(s) in opcode_latency: %s; "
                "valid opcodes: %s"
                % (self.name, ", ".join(unknown_ops),
                   ", ".join(sorted(OPCODE_NAMES)))
            )
        if not self.caches:
            raise MachineSpecError(
                "machine %r: at least one cache level is required" % self.name
            )
        for level in self.caches:
            if not isinstance(level, CacheConfig):
                raise MachineSpecError(
                    "machine %r: cache levels must be CacheConfig, got %r"
                    % (self.name, level)
                )
        names = [level.name for level in self.caches]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise MachineSpecError(
                "machine %r: cache level names must be unique; repeated: %s"
                % (self.name, ", ".join(repeated))
            )
        if not isinstance(self.store_buffer, StoreBufferSpec):
            raise MachineSpecError(
                "machine %r: store_buffer must be a StoreBufferSpec"
                % self.name
            )
        if not isinstance(self.methods, tuple) or not self.methods:
            raise MachineSpecError(
                "machine %r: methods must be a non-empty tuple of kernel "
                "names" % self.name
            )
        if self.baseline not in self.methods:
            raise MachineSpecError(
                "machine %r: baseline %r is not in its method set (%s)"
                % (self.name, self.baseline, ", ".join(self.methods))
            )

    def _check_positive(self, attr, value):
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value <= 0:
            raise MachineSpecError(
                "machine %r: %s must be a positive number, got %r"
                % (self.name, attr, value)
            )

    def _check_fu_table(self, table_name, table, minimum):
        if not isinstance(table, dict):
            raise MachineSpecError(
                "machine %r: %s must be a mapping of FU class -> int"
                % (self.name, table_name)
            )
        unknown = sorted(set(table) - FU_CLASS_NAMES)
        if unknown:
            raise MachineSpecError(
                "machine %r: unknown FU class(es) in %s: %s; valid classes: "
                "%s" % (self.name, table_name, ", ".join(unknown),
                        ", ".join(sorted(FU_CLASS_NAMES)))
            )
        for name, value in table.items():
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                raise MachineSpecError(
                    "machine %r: %s[%r] must be an int >= %d, got %r"
                    % (self.name, table_name, name, minimum, value)
                )

    # -- simulator bridge --------------------------------------------------

    def config(self, camp_enabled=False):
        """The :class:`~repro.simulator.config.MachineConfig` this spec
        describes, with the matrix unit toggled by ``camp_enabled``."""
        from repro.isa.instructions import FUClass, Opcode
        from repro.simulator.config import MachineConfig, StoreBufferConfig

        matrix_units = self.fu_counts.get("matrix", 0)
        if camp_enabled and not matrix_units:
            raise MachineSpecError(
                "machine %r declares no matrix units "
                "(fu_counts.matrix is 0 or absent); CAMP/MMLA kernels "
                "cannot run on it" % self.name
            )
        fu_counts = {FUClass(name): n for name, n in self.fu_counts.items()}
        fu_counts[FUClass.MATRIX] = matrix_units if camp_enabled else 0
        return MachineConfig(
            name=self.name + ("+camp" if camp_enabled else ""),
            frequency_ghz=self.frequency_ghz,
            vector_length_bits=self.vector_length_bits,
            issue_width=self.issue_width,
            window=self.window,
            fu_counts=fu_counts,
            fu_latency={
                FUClass(name): lat for name, lat in self.fu_latency.items()
            },
            opcode_latency={
                Opcode(name): lat
                for name, lat in self.opcode_latency.items()
            },
            fu_interval={
                FUClass(name): iv for name, iv in self.fu_interval.items()
            },
            cache_configs=tuple(self.caches),
            dram_latency=self.dram_latency,
            dram_bytes_per_cycle=self.dram_bytes_per_cycle,
            dram_channels=self.dram_channels,
            store_buffer=StoreBufferConfig(
                entries=self.store_buffer.entries,
                drain_latency=self.store_buffer.drain_latency,
            ),
            camp_enabled=camp_enabled,
            prefetch=self.prefetch,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        """Plain-dict form; ``MachineSpec.from_dict`` round-trips it."""
        return {
            "name": self.name,
            "description": self.description,
            "frequency_ghz": self.frequency_ghz,
            "vector_length_bits": self.vector_length_bits,
            "issue_width": self.issue_width,
            "window": self.window,
            "cores": self.cores,
            "prefetch": self.prefetch,
            "fu_counts": dict(self.fu_counts),
            "fu_latency": dict(self.fu_latency),
            "fu_interval": dict(self.fu_interval),
            "opcode_latency": dict(self.opcode_latency),
            "caches": [
                {
                    "name": level.name,
                    "size_bytes": level.size_bytes,
                    "line_bytes": level.line_bytes,
                    "ways": level.ways,
                    "load_to_use": level.load_to_use,
                }
                for level in self.caches
            ],
            "dram": {
                "latency": self.dram_latency,
                "bytes_per_cycle": self.dram_bytes_per_cycle,
                "channels": self.dram_channels,
            },
            "store_buffer": {
                "entries": self.store_buffer.entries,
                "drain_latency": self.store_buffer.drain_latency,
            },
            "sweep": {
                "baseline": self.baseline,
                "methods": list(self.methods),
            },
        }

    @classmethod
    def from_dict(cls, data):
        """Build and validate a spec from :meth:`to_dict`-shaped data."""
        if not isinstance(data, dict):
            raise MachineSpecError(
                "machine spec must be a mapping, got %r" % type(data).__name__
            )
        label = data.get("name", "<unnamed>")
        required = (
            "name", "frequency_ghz", "vector_length_bits", "issue_width",
            "window", "fu_counts", "fu_latency", "caches", "dram", "sweep",
        )
        optional = (
            "description", "cores", "prefetch", "fu_interval",
            "opcode_latency", "store_buffer",
        )
        missing = [key for key in required if key not in data]
        if missing:
            raise MachineSpecError(
                "machine spec %r is missing required field(s): %s"
                % (label, ", ".join(missing))
            )
        unknown = sorted(set(data) - set(required) - set(optional))
        if unknown:
            raise MachineSpecError(
                "machine spec %r has unknown field(s): %s; valid fields: %s"
                % (label, ", ".join(unknown),
                   ", ".join(sorted(required + optional)))
            )
        caches = _parse_caches(label, data["caches"])
        dram = _parse_section(label, "dram", data["dram"], _DRAM_FIELDS)
        sweep = _parse_section(label, "sweep", data["sweep"], _SWEEP_FIELDS)
        store_buffer = data.get("store_buffer", {})
        if not isinstance(store_buffer, dict):
            raise MachineSpecError(
                "machine spec %r: store_buffer must be a mapping with %s"
                % (label, "/".join(_STORE_BUFFER_FIELDS))
            )
        extra_sb = sorted(set(store_buffer) - set(_STORE_BUFFER_FIELDS))
        if extra_sb:
            raise MachineSpecError(
                "machine spec %r: unknown store_buffer field(s): %s"
                % (label, ", ".join(extra_sb))
            )
        methods = sweep["methods"]
        if not isinstance(methods, (list, tuple)):
            raise MachineSpecError(
                "machine spec %r: sweep.methods must be a list of kernel "
                "names, got %r" % (label, methods)
            )
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            frequency_ghz=data["frequency_ghz"],
            vector_length_bits=data["vector_length_bits"],
            issue_width=data["issue_width"],
            window=data["window"],
            cores=data.get("cores", 1),
            prefetch=data.get("prefetch", True),
            fu_counts=dict(data["fu_counts"]),
            fu_latency=dict(data["fu_latency"]),
            fu_interval=dict(data.get("fu_interval", {})),
            opcode_latency=dict(data.get("opcode_latency", {})),
            caches=caches,
            dram_latency=dram["latency"],
            dram_bytes_per_cycle=dram["bytes_per_cycle"],
            dram_channels=dram["channels"],
            store_buffer=StoreBufferSpec(
                entries=store_buffer.get("entries", 16),
                drain_latency=store_buffer.get("drain_latency", 2),
            ),
            baseline=sweep["baseline"],
            methods=tuple(methods),
        )

    # -- derivation --------------------------------------------------------

    def derive(self, name=None, **overrides):
        """A variant of this spec with some fields replaced.

        ``spec.derive(vector_length_bits=256, dram_channels=2)`` is the
        ablation workhorse: every keyword must be a spec field (caches
        accept a list of cache-level dicts, store_buffer a dict). The
        derived spec revalidates and gets a deterministic name unless
        one is given.
        """
        valid = {f.name for f in fields(self)} - {"name"}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise MachineSpecError(
                "cannot derive from machine %r: unknown field(s): %s; "
                "valid fields: %s"
                % (self.name, ", ".join(unknown), ", ".join(sorted(valid)))
            )
        if "caches" in overrides and not all(
            isinstance(level, CacheConfig) for level in overrides["caches"]
        ):
            overrides["caches"] = _parse_caches(
                name or self.name, list(overrides["caches"])
            )
        if "caches" in overrides:
            overrides["caches"] = tuple(overrides["caches"])
        if "methods" in overrides:
            overrides["methods"] = tuple(overrides["methods"])
        if isinstance(overrides.get("store_buffer"), dict):
            overrides["store_buffer"] = StoreBufferSpec(
                **overrides["store_buffer"]
            )
        if name is None:
            parts = []
            for key in sorted(overrides):
                value = overrides[key]
                if isinstance(value, (int, float, str, bool)):
                    parts.append("%s=%s" % (key, value))
                else:
                    parts.append(key)
            name = "%s~%s" % (self.name, ",".join(parts))
        return replace(self, name=name, **overrides)

    def digest(self):
        """Sha256 over the canonical JSON encoding of this spec."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_caches(label, levels):
    if not isinstance(levels, (list, tuple)) or not levels:
        raise MachineSpecError(
            "machine spec %r: caches must be a non-empty list of cache "
            "levels" % label
        )
    parsed = []
    for index, level in enumerate(levels):
        if not isinstance(level, dict):
            raise MachineSpecError(
                "machine spec %r: cache level %d must be a mapping with %s"
                % (label, index, "/".join(_CACHE_FIELDS))
            )
        missing = [key for key in _CACHE_FIELDS if key not in level]
        if missing:
            raise MachineSpecError(
                "machine spec %r: cache level %d (%r) is missing field(s): "
                "%s" % (label, index, level.get("name", "?"),
                        ", ".join(missing))
            )
        extra = sorted(set(level) - set(_CACHE_FIELDS))
        if extra:
            raise MachineSpecError(
                "machine spec %r: cache level %d (%r) has unknown field(s): "
                "%s; valid fields: %s"
                % (label, index, level.get("name", "?"), ", ".join(extra),
                   ", ".join(_CACHE_FIELDS))
            )
        try:
            parsed.append(CacheConfig(**level))
        except ValueError as error:
            raise MachineSpecError(
                "machine spec %r: cache level %d is invalid: %s"
                % (label, index, error)
            ) from None
    return tuple(parsed)


def _parse_section(label, section, data, allowed):
    if not isinstance(data, dict):
        raise MachineSpecError(
            "machine spec %r: %s must be a mapping with %s"
            % (label, section, "/".join(allowed))
        )
    missing = [key for key in allowed if key not in data]
    if missing:
        raise MachineSpecError(
            "machine spec %r: %s is missing field(s): %s"
            % (label, section, ", ".join(missing))
        )
    extra = sorted(set(data) - set(allowed))
    if extra:
        raise MachineSpecError(
            "machine spec %r: %s has unknown field(s): %s; valid fields: %s"
            % (label, section, ", ".join(extra), ", ".join(allowed))
        )
    return data
