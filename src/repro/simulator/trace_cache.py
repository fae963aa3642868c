"""Persistent cross-run cache for compiled traces.

Compiling a trace (:func:`repro.simulator.trace_compile.compile_trace`)
is pure: the resulting :class:`CompiledTrace` depends only on the
program's instruction content, the machine configuration, and the
compiler's own source. Sweep grids overwhelmingly share identical
(program, machine) pairs across points and across worker processes, so
compiled records are persisted content-addressed on

    sha256(program digest x machine digest x compile-source digest)

in a tier beside the experiment result cache: one
``<key>.rptc`` file per record under ``$REPRO_CACHE_DIR/traces``
(default ``~/.cache/repro-camp/traces``). Entries are written
atomically (tempfile + rename, so concurrent writers race harmlessly —
identical content, last rename wins) and verified on load against an
embedded checksum; torn, truncated or otherwise corrupt entries are
dropped and the trace is recompiled. A small in-memory LRU tier in
front of the disk tier serves repeat lookups within one process
(daemon-style reuse across distinct but identical ``Program`` objects).

The payload is a pickle of *builtin types only* (ints, bools, tuples,
lists, dicts) — never a class instance — so records survive unrelated
code churn; the compile-source digest in the key retires every record
whenever the compiler itself (or this module, or the opcode tables it
encodes) changes. The materialized ``tuple(set(...))`` dependence order
is persisted verbatim, which is what keeps scheduler tie-breaks — and
therefore :class:`~repro.simulator.stats.SimStats` — bit-identical
between compiled and cached paths.

``REPRO_NO_TRACE_CACHE=1`` (env, re-read on every lookup so forked or
spawned workers inherit it) or :func:`set_enabled` disable both tiers;
the compiled result is then always rebuilt in place.

This module deliberately does not import :mod:`repro.experiments`:
the simulator layer sits below the experiment layer, so the cache-root
resolution (``$REPRO_CACHE_DIR`` else ``~/.cache/repro-camp``) is
duplicated here and pinned against
:func:`repro.experiments.cache.default_cache_dir` by a test.
"""

import hashlib
import json
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from pathlib import Path

#: bumped whenever the persisted payload layout changes; joins the key,
#: so old records simply stop being found rather than misparsed
FORMAT_VERSION = 1

#: file container: magic + sha256(payload) + payload
MAGIC = b"RPTC0001"

ENV_DISABLE = "REPRO_NO_TRACE_CACHE"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: traces shorter than this skip the persistent tier: the per-program
#: memo in ``compiled_for`` already covers repeat runs of one object,
#: and for tiny traces the digest + disk round-trip costs more than
#: recompiling
MIN_PERSIST_INSTRUCTIONS = 64

#: in-memory LRU capacity (compiled records, not bytes); the default,
#: overridable per process through ``$REPRO_TRACE_CACHE_MEM``
MEMORY_CAP = 128

ENV_MEMORY_CAP = "REPRO_TRACE_CACHE_MEM"


def memory_cap():
    """Effective in-memory LRU capacity.

    ``$REPRO_TRACE_CACHE_MEM`` overrides :data:`MEMORY_CAP` when set to
    a non-negative integer (0 disables the memory tier entirely —
    lookups go straight to disk and nothing is retained). The
    environment is re-read on every call so forked/spawned workers
    inherit the choice, like :func:`enabled`.
    """
    raw = os.environ.get(ENV_MEMORY_CAP)
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            return MEMORY_CAP
        if cap >= 0:
            return cap
    return MEMORY_CAP

_PICKLE_PROTOCOL = 4

_DIGEST_ATTR = "_repro_content_digest"

_memory = OrderedDict()  # key -> CompiledTrace

_enabled_override = None  # None -> consult the environment


class TraceCacheStats:
    """Process-wide hit/miss accounting for both tiers."""

    __slots__ = ("memory_hits", "disk_hits", "misses", "stores", "errors")

    def __init__(self):
        self.reset()

    def reset(self):
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


_stats = TraceCacheStats()


def stats():
    """Counters since process start (or the last :func:`reset_stats`)."""
    return _stats.as_dict()


def reset_stats():
    _stats.reset()


def enabled():
    """Both cache tiers are active (override, else ``$REPRO_NO_TRACE_CACHE``).

    The environment is re-read on every call so worker processes forked
    or spawned after the CLI exports the variable inherit the choice.
    """
    if _enabled_override is not None:
        return _enabled_override
    return not os.environ.get(ENV_DISABLE)


def set_enabled(value):
    """Force the cache on/off process-wide (``None`` restores env control)."""
    global _enabled_override
    _enabled_override = None if value is None else bool(value)


def clear_memory():
    """Drop the in-memory tier (tests; mimics a fresh process)."""
    _memory.clear()


# ---------------------------------------------------------------------------
# key components


def program_digest(program):
    """Content digest of a program's instruction stream.

    Hashes every field :meth:`Instruction._key` compares (opcode,
    registers, dtype, addr, size, imm — everything except ``meta``,
    which never reaches the simulator). The digest is cached on the
    program object with a length guard, so builders that keep emitting
    into a program after a digest invalidate it naturally.
    """
    n = len(program)
    cached = getattr(program, _DIGEST_ATTR, None)
    if cached is not None and cached[0] == n:
        return cached[1]
    keys = [inst._key() for inst in program]
    digest = hashlib.sha256(
        pickle.dumps(keys, protocol=_PICKLE_PROTOCOL)
    ).hexdigest()
    try:
        setattr(program, _DIGEST_ATTR, (n, digest))
    except AttributeError:
        pass  # slotted/foreign program type: recompute next time
    return digest


def predigest(program):
    """Attach the content digest ahead of pickling to a pool worker.

    The cached ``(length, digest)`` attribute travels with the program,
    so every worker skips the digest pass and goes straight to its
    cache probe.
    """
    if len(program) >= MIN_PERSIST_INSTRUCTIONS:
        program_digest(program)


def machine_digest(config):
    """Digest of every :class:`MachineConfig` field, enum keys canonical.

    Computed fresh on every call — the dict-valued fields of the frozen
    dataclass are mutable in place, and a memo keyed on object identity
    would serve stale digests after exactly the kind of mutation the
    opcode-table memo bug served stale tables for.
    """
    payload = {
        "name": config.name,
        "frequency_ghz": config.frequency_ghz,
        "vector_length_bits": config.vector_length_bits,
        "issue_width": config.issue_width,
        "window": config.window,
        "fu_counts": sorted(
            (fu.value, count) for fu, count in config.fu_counts.items()
        ),
        "fu_latency": sorted(
            (fu.value, latency) for fu, latency in config.fu_latency.items()
        ),
        "opcode_latency": sorted(
            (op.value, latency)
            for op, latency in config.opcode_latency.items()
        ),
        "fu_interval": sorted(
            (fu.value, interval)
            for fu, interval in config.fu_interval.items()
        ),
        "cache_configs": [
            [c.name, c.size_bytes, c.line_bytes, c.ways, c.load_to_use]
            for c in config.cache_configs
        ],
        "dram_latency": config.dram_latency,
        "dram_bytes_per_cycle": config.dram_bytes_per_cycle,
        "dram_channels": config.dram_channels,
        "store_buffer": [
            config.store_buffer.entries, config.store_buffer.drain_latency
        ],
        "camp_enabled": config.camp_enabled,
        "prefetch": config.prefetch,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


_source_memo = None  # (fingerprint, digest)
_compile_files = None  # absolute path strings, resolved once per process


def _compile_source_files():
    global _compile_files
    if _compile_files is None:
        from repro.isa import instructions
        from repro.simulator import trace_compile

        _compile_files = tuple(
            os.path.abspath(path)
            for path in (trace_compile.__file__, __file__, instructions.__file__)
        )
    return _compile_files


def compile_source_digest():
    """Sha256 over the sources that define compiled-trace semantics.

    Covers the trace compiler, this module, and the ISA opcode tables.
    The file paths are resolved once per process; the memo sits behind
    a cheap mtime/size fingerprint (one ``os.stat`` per file) that is
    re-checked on every call, so an editable-install edit (or a
    long-lived daemon outliving a deploy) invalidates the memo instead
    of serving records keyed to dead source.
    """
    global _source_memo
    files = _compile_source_files()
    fingerprint = []
    for path in files:
        stat = os.stat(path)
        fingerprint.append((path, stat.st_mtime_ns, stat.st_size))
    fingerprint = tuple(fingerprint)
    memo = _source_memo
    if memo is not None and memo[0] == fingerprint:
        return memo[1]
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.basename(path).encode())
        digest.update(b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    hexdigest = digest.hexdigest()
    _source_memo = (fingerprint, hexdigest)
    return hexdigest


def trace_key(program, config, machine_dig=None):
    """The full content address of one (program, machine) compile."""
    if machine_dig is None:
        machine_dig = machine_digest(config)
    raw = "\0".join([
        "trace", str(FORMAT_VERSION), program_digest(program),
        machine_dig, compile_source_digest(),
    ])
    return hashlib.sha256(raw.encode()).hexdigest()


# ---------------------------------------------------------------------------
# disk layout


def cache_root(base=None):
    """The trace tier's directory, resolved from the environment.

    Resolved on *every* call (never cached in a module global): bench
    harnesses and tests redirect ``$REPRO_CACHE_DIR`` mid-process and
    the tier must follow. Mirrors
    :func:`repro.experiments.cache.default_cache_dir` + ``/traces``.
    """
    if base is not None:
        return Path(base) / "traces"
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env) / "traces"
    return Path.home() / ".cache" / "repro-camp" / "traces"


def entry_path(key, base=None):
    return cache_root(base) / key[:2] / (key + ".rptc")


def entry_paths(base=None):
    """Every persisted record file under the tier's root."""
    root = cache_root(base)
    if not root.is_dir():
        return []
    return sorted(root.glob("[0-9a-f][0-9a-f]/*.rptc"))


# ---------------------------------------------------------------------------
# serialization


def serialize_trace(trace):
    """Encode a :class:`CompiledTrace` as a checksummed byte record.

    The payload pickles builtin containers only — the shared per-opcode
    ``info`` tuples, the dependence tuples in their materialized
    ``tuple(set(...))`` order, the ``None``-for-empty ``dependents``
    convention — never the class itself, so a refactor of
    ``CompiledTrace`` cannot break old files (the source digest retires
    them first anyway).
    """
    payload = {
        "version": FORMAT_VERSION,
        "n": trace.n,
        "info": trace.info,
        "addr": trace.addr,
        "size": trace.size,
        "deps": trace.deps,
        "dependents": trace.dependents,
        "mix": trace.mix,
        "mem_index": trace.mem_index,
        "mem_addr": trace.mem_addr,
        "mem_size": trace.mem_size,
        "mem_write": trace.mem_write,
        "totals": trace.totals,
    }
    body = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
    return MAGIC + hashlib.sha256(body).digest() + body


def deserialize_trace(data):
    """Decode :func:`serialize_trace` output; raises on any corruption."""
    from repro.simulator.trace_compile import CompiledTrace

    prefix = len(MAGIC) + 32
    if len(data) < prefix or not data.startswith(MAGIC):
        raise ValueError("bad trace-cache magic")
    body = data[prefix:]
    if hashlib.sha256(body).digest() != data[len(MAGIC):prefix]:
        raise ValueError("trace-cache checksum mismatch")
    payload = pickle.loads(body)
    if not isinstance(payload, dict):
        raise ValueError("trace-cache payload is not a mapping")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError("trace-cache payload version mismatch")
    n = payload["n"]
    trace = CompiledTrace(
        n, payload["info"], payload["addr"], payload["size"],
        payload["deps"], payload["dependents"], payload["mix"],
        payload["mem_index"], payload["mem_addr"], payload["mem_size"],
        payload["mem_write"], totals=payload["totals"],
    )
    if not (len(trace.info) == len(trace.addr) == len(trace.size)
            == len(trace.deps) == len(trace.dependents) == n):
        raise ValueError("trace-cache column lengths disagree")
    if not (len(trace.mem_index) == len(trace.mem_addr)
            == len(trace.mem_size) == len(trace.mem_write)):
        raise ValueError("trace-cache memory columns disagree")
    return trace


def traces_equal(a, b):
    """Field-for-field equality of two compiled traces (tests, benches)."""
    return (
        a.n == b.n
        and a.info == b.info
        and a.addr == b.addr
        and a.size == b.size
        and a.deps == b.deps
        and a.dependents == b.dependents
        and a.mix == b.mix
        and a.mem_index == b.mem_index
        and a.mem_addr == b.mem_addr
        and a.mem_size == b.mem_size
        and a.mem_write == b.mem_write
        and a.totals == b.totals
    )


# ---------------------------------------------------------------------------
# the two tiers


def _memory_insert(key, trace):
    cap = memory_cap()
    if cap == 0:
        return
    _memory[key] = trace
    _memory.move_to_end(key)
    while len(_memory) > cap:
        _memory.popitem(last=False)


def _install_mix(program, trace):
    # exactly what compile_trace publishes, so classify_vector_mix is
    # O(1) on the cached path too
    try:
        program._vector_mix_cache = (trace.n, trace.mix)
    except AttributeError:
        pass


def fetch(program, config, machine_dig=None):
    """Look one compile up in the memory then disk tier, or ``None``.

    Disk entries that fail verification (torn write, truncation, bit
    rot, foreign bytes) are counted as errors, best-effort unlinked,
    and reported as misses — the caller recompiles and the next store
    heals the entry.
    """
    if not enabled():
        return None
    if len(program) < MIN_PERSIST_INSTRUCTIONS:
        return None
    key = trace_key(program, config, machine_dig)
    if memory_cap():
        trace = _memory.get(key)
        if trace is not None:
            _memory.move_to_end(key)
            _stats.memory_hits += 1
            _install_mix(program, trace)
            return trace
    path = entry_path(key)
    try:
        data = path.read_bytes()
    except OSError:
        _stats.misses += 1
        return None
    try:
        trace = deserialize_trace(data)
    except Exception:
        _stats.errors += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None
    _stats.disk_hits += 1
    _memory_insert(key, trace)
    _install_mix(program, trace)
    return trace


def put(program, config, trace, machine_dig=None):
    """Persist one freshly compiled trace into both tiers.

    Disk failures (read-only root, full disk, races on unlink) are
    counted and swallowed: the cache is an accelerator, never a
    correctness dependency.
    """
    if not enabled():
        return
    if trace.n < MIN_PERSIST_INSTRUCTIONS:
        return
    key = trace_key(program, config, machine_dig)
    _memory_insert(key, trace)
    path = entry_path(key)
    tmp = None
    try:
        data = serialize_trace(trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
        tmp = None
        _stats.stores += 1
    except OSError:
        _stats.errors += 1
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# maintenance (repro-camp cache stats|prune)


def disk_stats(base=None):
    """On-disk inventory of the trace tier (same shape as the result
    cache's :meth:`~repro.experiments.cache.ResultCache.disk_stats`)."""
    now = time.time()
    count = 0
    total = 0
    oldest = newest = None
    for path in entry_paths(base):
        try:
            stat = path.stat()
        except OSError:
            continue
        count += 1
        total += stat.st_size
        age = now - stat.st_mtime
        oldest = age if oldest is None else max(oldest, age)
        newest = age if newest is None else min(newest, age)
    return {
        "root": str(cache_root(base)),
        "entries": count,
        "total_bytes": total,
        "oldest_age_s": oldest,
        "newest_age_s": newest,
    }


def prune(max_age_days=None, max_size_mb=None, base=None):
    """Evict persisted records by age and/or total size (oldest first).

    Same policy as the result cache's ``prune``; returns
    ``(removed_count, freed_bytes)``.
    """
    stamped = []
    for path in entry_paths(base):
        try:
            stat = path.stat()
        except OSError:
            continue
        stamped.append((stat.st_mtime, stat.st_size, path))
    stamped.sort()  # oldest first
    removed = 0
    freed = 0

    def evict(entry):
        nonlocal removed, freed
        _, size, path = entry
        try:
            path.unlink()
        except OSError:
            return
        removed += 1
        freed += size

    survivors = []
    if max_age_days is not None:
        cutoff = time.time() - max_age_days * 86400.0
        for entry in stamped:
            if entry[0] < cutoff:
                evict(entry)
            else:
                survivors.append(entry)
    else:
        survivors = stamped
    if max_size_mb is not None:
        budget = max_size_mb * 1024 * 1024
        total = sum(size for _, size, _ in survivors)
        for entry in survivors:
            if total <= budget:
                break
            evict(entry)
            total -= entry[1]
    return removed, freed
