"""Compile instruction traces into structure-of-arrays form.

The batch pipeline engine never touches :class:`Instruction` objects in
its scheduling loop: a trace is compiled exactly once per (program,
machine config) pair into flat per-instruction records plus SSA
dependence edges, and every later pass works on those. The compiled
form also yields the Figure-17 vector-mix classification as a free
by-product, which is installed into the program's
``classify_vector_mix`` cache so experiment post-processing stops
re-walking the trace.

Per-opcode decode (functional-unit class, latency, initiation interval,
load/store/vector flags) depends only on the machine config's FU
tables, so it is memoized in a module-level table keyed by those
tables' *values* (an identity-keyed or attribute-stashed memo served
stale decode after in-place mutation of the frozen dataclass's dict
fields); per-instruction work is one dict lookup plus the register
dependence bookkeeping.

Compiled records are also persisted across runs through
:mod:`repro.simulator.trace_cache`: :func:`compiled_for` probes the
content-addressed cache before compiling and publishes fresh compiles
into it, so pool workers and resumed sweeps load shared records
instead of recompiling per shard.
"""

from collections import Counter

import numpy as np

from repro.isa.instructions import FUClass, OPCODE_FU, Opcode, VECTOR_OPCODES

LOAD_OPCODES = frozenset({Opcode.VLOAD, Opcode.VLOAD_STRIDED, Opcode.SLOAD})
STORE_OPCODES = frozenset({Opcode.VSTORE, Opcode.SSTORE})

#: stable functional-unit id assignment used by every compiled trace
FU_LIST = tuple(FUClass)
FU_INDEX = {fu: index for index, fu in enumerate(FU_LIST)}

# opcode-record slots (records shared by all instructions of one opcode)
FU_ID, LATENCY, INTERVAL, IS_LOAD, IS_STORE, IS_VECTOR = range(6)

_opcode_tables = {}

#: decode tables are tiny, but hypothesis fuzz sweeps thousands of
#: random configs through the engine — cap the memo so it cannot grow
#: without bound in one process
_TABLE_MEMO_CAP = 512


def _table_key(config):
    """The config content the decode table actually depends on.

    Value-based (not object identity, not an attribute stashed on the
    config): the dict fields of the frozen ``MachineConfig`` dataclass
    are mutable in place, and a table memoized per object silently kept
    serving pre-mutation decode.
    """
    return (
        tuple(sorted(
            (fu.value, latency) for fu, latency in config.fu_latency.items()
        )),
        tuple(sorted(
            (fu.value, interval)
            for fu, interval in config.fu_interval.items()
        )),
        tuple(sorted(
            (op.value, latency)
            for op, latency in config.opcode_latency.items()
        )),
    )


def opcode_table(config):
    """``opcode -> (fu_id, latency, interval, is_load, is_store, is_vector)``.

    The latency column resolves the scalar engine's per-issue logic
    ahead of time: ``opcode_latency`` overrides ``fu_latency``, and the
    accumulator-forwarding opcodes (CAMP / MMLA) pipeline at their
    initiation interval. Loads still get their real latency from the
    memory hierarchy at issue time; the column holds the L1-style
    baseline for them and is unused by the scheduler.
    """
    key = _table_key(config)
    table = _opcode_tables.get(key)
    if table is not None:
        return table
    table = {}
    for op in Opcode:
        fu = OPCODE_FU[op]
        interval = config.fu_interval.get(fu, 1)
        is_load = op in LOAD_OPCODES
        is_store = op in STORE_OPCODES
        if is_load or is_store:
            # the scalar engine never consults latency_of for memory
            # ops (loads resolve through the hierarchy, stores retire
            # through the buffer); the column is a decode-only baseline
            latency = config.fu_latency.get(fu, 0)
        else:
            if op in config.opcode_latency:
                latency = config.opcode_latency[op]
            elif fu in config.fu_latency:
                latency = config.fu_latency[fu]
            else:
                # unresolvable, exactly like config.latency_of: compile
                # raises the same KeyError the scalar engine would at
                # issue — but only if the trace actually uses the opcode
                latency = None
            if latency is not None and op in (Opcode.CAMP, Opcode.MMLA):
                # accumulator forwarding pipelines at the interval
                latency = interval
        table[op] = (
            FU_INDEX[fu],
            latency,
            interval,
            is_load,
            is_store,
            op in VECTOR_OPCODES,
        )
    if len(_opcode_tables) >= _TABLE_MEMO_CAP:
        _opcode_tables.clear()
    _opcode_tables[key] = table
    return table


class CompiledTrace:
    """One trace compiled against one machine config.

    ``info[i]`` is the instruction's decoded opcode record — a tuple
    *shared* between all instructions of the same opcode (no per-
    instruction allocation): ``(fu_id, latency, interval, is_load,
    is_store, is_vector)``. Memory operands live in the parallel
    ``addr`` / ``size`` columns.
    """

    __slots__ = (
        "n", "info", "addr", "size", "deps", "dependents", "mix",
        "mem_index", "mem_addr", "mem_size", "mem_write", "totals",
        "_arrays", "_period",
    )

    def __init__(self, n, info, addr, size, deps, dependents, mix,
                 mem_index, mem_addr, mem_size, mem_write, totals=None):
        self.n = n
        self.info = info              # list[shared opcode record tuples]
        self.addr = addr              # list[int]; 0 for non-memory ops
        self.size = size              # list[int]; 0 for non-memory ops
        self.deps = deps              # list[tuple[int, ...]] SSA dependences
        self.dependents = dependents  # list[list[int] | None] reverse edges
        self.mix = mix                # {"read": r, "write": w, "alu": a}
        self.mem_index = mem_index    # program order of memory ops
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.mem_write = mem_write
        #: (n_vector, n_loads, n_stores, bytes_loaded, bytes_stored,
        #: per-class busy cycles) — every instruction issues exactly
        #: once, so these SimStats counters are trace constants the
        #: schedulers never have to accumulate
        self.totals = totals
        self._arrays = None
        #: lazy steady-state period analysis (repro.simulator.period_replay);
        #: derived from the compiled columns, so never serialized
        self._period = None

    def vector_mix(self):
        """Figure-17 R/W/Alu classification of the vector instructions."""
        return dict(self.mix)

    def memory_arrays(self):
        """Memory-op streams as numpy arrays (program order)."""
        return (
            np.asarray(self.mem_index, dtype=np.int64),
            np.asarray(self.mem_addr, dtype=np.int64),
            np.asarray(self.mem_size, dtype=np.int64),
            np.asarray(self.mem_write, dtype=bool),
        )

    def arrays(self):
        """Full structure-of-arrays view (numpy), built on first use.

        Keys: ``fu_id``, ``latency``, ``interval``, ``is_load``,
        ``is_store``, ``is_vector``, ``addr``, ``size``. The scheduler
        itself consumes the plain-list form (CPython indexes lists
        faster than 0-d numpy scalars); the numpy view serves analysis
        passes and tests.
        """
        if self._arrays is None:
            info = self.info
            self._arrays = {
                "fu_id": np.fromiter((r[FU_ID] for r in info), np.int16, self.n),
                "latency": np.fromiter((r[LATENCY] for r in info), np.int32, self.n),
                "interval": np.fromiter((r[INTERVAL] for r in info), np.int32, self.n),
                "is_load": np.fromiter((r[IS_LOAD] for r in info), bool, self.n),
                "is_store": np.fromiter((r[IS_STORE] for r in info), bool, self.n),
                "is_vector": np.fromiter((r[IS_VECTOR] for r in info), bool, self.n),
                "addr": np.asarray(self.addr, dtype=np.int64),
                "size": np.asarray(self.size, dtype=np.int64),
            }
        return self._arrays


#: process-wide count of actual trace compiles (memo and cache hits do
#: not count); pool workers report deltas so the fan-out benches can
#: assert the parent shipped every compiled record
compile_events = 0


def compile_trace(program, config):
    """Compile ``program`` for ``config`` into a :class:`CompiledTrace`.

    Dependences are extracted SSA-style exactly like the scalar engine:
    each instruction depends on the specific prior writer of each of
    its source registers (register renaming — architectural reuse does
    not serialize), and the dependence tuple is built with the same
    ``tuple(sorted(set(...)))`` construction so stall attribution
    tie-breaks identically. Sorted order is also what makes dependence
    tuples *shift-stable* — ``deps[i + P]`` of a periodic trace region
    lines up position-for-position with ``deps[i]`` — which the
    periodic-replay detector relies on for stall-blame correspondence.
    """
    global compile_events
    compile_events += 1
    table = opcode_table(config)
    instructions = list(program)
    n = len(instructions)
    # decode pass: one shared record per opcode, C-speed loops
    info = [table[inst.opcode] for inst in instructions]
    rec_counts = Counter(info)
    for rec in rec_counts:
        if rec[1] is None:
            # the scalar engine's latency_of would raise this KeyError
            # at the instruction's first issue; surface it at compile
            raise KeyError(FU_LIST[rec[0]])
    addr_col = [0] * n
    size_col = [0] * n
    deps = [()] * n
    dependents = [None] * n
    mem_index = []
    mem_addr = []
    mem_size = []
    mem_write = []
    mi_append = mem_index.append
    ma_append = mem_addr.append
    ms_append = mem_size.append
    mw_append = mem_write.append
    mix_read = mix_write = mix_alu = 0
    last_writer = {}
    lw_get = last_writer.get
    for i, inst in enumerate(instructions):
        rec = info[i]
        if rec[3] or rec[4]:
            addr = inst.addr
            size = inst.size
            addr_col[i] = addr
            size_col[i] = size
            mi_append(i)
            ma_append(addr)
            ms_append(size)
            mw_append(rec[4])
        src = inst.src
        if src:
            if len(src) == 1:
                w = lw_get(src[0])
                if w is not None:
                    dd = (w,)
                    deps[i] = dd
                    lst = dependents[w]
                    if lst is None:
                        dependents[w] = [i]
                    else:
                        lst.append(i)
            else:
                dep_list = [w for w in map(lw_get, src) if w is not None]
                if dep_list:
                    dd = tuple(sorted(set(dep_list)))
                    deps[i] = dd
                    for d in dd:
                        lst = dependents[d]
                        if lst is None:
                            dependents[d] = [i]
                        else:
                            lst.append(i)
        dst = inst.dst
        if dst:
            if len(dst) == 1:
                last_writer[dst[0]] = i
            else:
                for d in dst:
                    last_writer[d] = i
    # mix and counter totals from the record counts
    class_busy = [0] * len(FU_LIST)
    n_vector = n_loads = n_stores = 0
    for rec, count in rec_counts.items():
        class_busy[rec[0]] += rec[2] * count
        if rec[3]:
            n_loads += count
        elif rec[4]:
            n_stores += count
        if rec[5]:
            n_vector += count
            if rec[3]:
                mix_read += count
            elif rec[4]:
                mix_write += count
            else:
                mix_alu += count
    bytes_loaded = bytes_stored = 0
    for size, write in zip(mem_size, mem_write):
        if write:
            bytes_stored += size
        else:
            bytes_loaded += size
    mix = {"read": mix_read, "write": mix_write, "alu": mix_alu}
    totals = (n_vector, n_loads, n_stores, bytes_loaded, bytes_stored,
              class_busy)
    # publish the mix so Program.classify_vector_mix becomes O(1)
    program._vector_mix_cache = (n, mix)
    return CompiledTrace(n, info, addr_col, size_col, deps, dependents, mix,
                         mem_index, mem_addr, mem_size, mem_write,
                         totals=totals)


_COMPILED_ATTR = "_compiled_traces"


def compiled_for(program, config):
    """Memoized :func:`compile_trace` with a persistent tier behind it.

    The in-process memo lives on the program object as a small list of
    ``(machine digest, length, trace)`` entries — content-keyed (an
    identity-compared config kept serving stale traces after in-place
    mutation) with a length guard in case a builder keeps emitting into
    the program after a compile. Memo misses probe the cross-run
    :mod:`repro.simulator.trace_cache` before compiling, and fresh
    compiles are published back into it.
    """
    from repro.simulator import trace_cache

    n = len(program)
    machine_dig = trace_cache.machine_digest(config)
    entries = getattr(program, _COMPILED_ATTR, None)
    if entries is not None:
        for dig, length, trace in entries:
            if dig == machine_dig and length == n:
                return trace
    trace = trace_cache.fetch(program, config, machine_dig)
    if trace is None:
        from repro.simulator import profiling

        with profiling.phase("trace compile"):
            trace = compile_trace(program, config)
        trace_cache.put(program, config, trace, machine_dig)
    if entries is None:
        entries = []
        try:
            setattr(program, _COMPILED_ATTR, entries)
        except AttributeError:
            return trace  # slotted/foreign program type: skip memoization
    entries.append((machine_dig, n, trace))
    return trace
