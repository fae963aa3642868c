"""Batch scoreboard pipeline engine.

Produces :class:`~repro.simulator.stats.SimStats` bit-identical to the
scalar reference loop in :mod:`repro.simulator.pipeline`, several times
faster. The trace is compiled once into structure-of-arrays form
(:mod:`repro.simulator.trace_compile`) — or loaded from the cross-run
compiled-trace cache (:mod:`repro.simulator.trace_cache`) when an
earlier run, another worker process, or a resumed sweep already
compiled the identical (program, machine) pair; scheduling then takes
one of two exact engines, chosen by the machine's lookahead window:

- **In-order direct issue** (``window == 1``). Issue order equals
  program order, so each instruction's issue cycle is computed in one
  pass from its operand-ready cycle, the store-buffer drain threshold
  and its functional unit's next-free time — no per-cycle loop at all.
  Stall cycles between issues are attributed in closed form (the
  blocking reason is constant within each phase of a gap). Program-
  order memory also means all cache effects can be replayed up front in
  bulk through
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.resolve_batch` (the
  same batched core as ``access_batch``) instead of one
  ``hierarchy.access`` call per load; only the DRAM portion — whose
  latency depends on the issue cycle — is charged lazily at issue, in
  the order the scalar walk would.

- **Window scan with sleep-run skipping** (windowed machines).
  Replicates the scalar per-cycle scan over the first ``window``
  pending instructions, but caches maximal runs of consecutive
  sleeping instructions keyed by the earliest cycle any member could
  issue, skipping a whole run in O(1). Members whose operand-ready
  cycle is still unknown are covered by a ``run_of`` back-pointer: the
  moment their wake is assigned — at a producer's issue, always at
  least one cycle ahead — the containing run's bound is lowered to it
  (lowering can only make skipping less aggressive, never unsound).

Both compress no-issue gaps into one bulk-classified clock jump, and
both take the SimStats counters that are trace constants
(instruction/vector/load/store counts, byte totals, per-class busy
cycles) straight from the compile pass instead of accumulating them
per issue. Out-of-order machines keep per-issue memory resolution
because a data-blocked store can be bypassed by younger loads,
changing the access order the cache model must see.

Issue-width and lookahead-window semantics, FU pool allocation order,
store-buffer occupancy, stall taxonomy tie-breaking and unsupported-
instruction errors replicate the scalar loop decision for decision;
the equivalence suite in ``tests/test_simulator_batch.py`` sweeps both
machine configs (plus randomized configs and traces) against the
scalar engine for both schedulers.
"""

import numpy as np

from repro.isa.instructions import FUClass
from repro.simulator import profiling
from repro.simulator.period_replay import replayer_for
from repro.simulator.stats import SimStats
from repro.simulator.trace_compile import FU_LIST, compiled_for

_INF = 1 << 60


def run_batch(simulator, program, warm_addresses=()):
    """Run ``program`` on ``simulator`` with the batch engine."""
    config = simulator.config
    hierarchy = simulator.hierarchy
    warm = np.asarray(list(warm_addresses), dtype=np.int64)
    if warm.size:
        with profiling.phase("memory replay"):
            hierarchy.access_batch(warm)
    stats_base = {
        cache.config.name: (cache.stats.hits, cache.stats.misses)
        for cache in hierarchy.caches
    }
    hierarchy.rebase_queues()

    trace = compiled_for(program, config)
    schedule = _schedule_inorder if config.window == 1 else _schedule_scan
    with profiling.phase("schedule"):
        stats = schedule(trace, program, config, hierarchy)

    for cache in hierarchy.caches:
        hits_0, misses_0 = stats_base[cache.config.name]
        misses = cache.stats.misses - misses_0
        accesses = (cache.stats.hits - hits_0) + misses
        stats.cache_miss_rates[cache.config.name] = (
            misses / accesses if accesses else 0.0
        )
    return stats


def _unsupported(config, program, index):
    from repro.simulator.pipeline import UnsupportedInstructionError

    inst = program[index]
    raise UnsupportedInstructionError(
        "machine %r has no %s unit (instruction %s)"
        % (config.name, inst.fu_class.value, inst)
    )


def _make_pools(config):
    pools = [None] * len(FU_LIST)
    for fu, count in config.fu_counts.items():
        if count:
            pools[FU_LIST.index(fu)] = [0] * count
    return pools


def _finish(stats, trace, cycle, last_completion, st_fu, st_rd, st_wr,
            issue_cycles):
    n_vector, n_loads, n_stores, b_loaded, b_stored, class_busy = trace.totals
    stats.cycles = cycle if cycle > last_completion else last_completion
    stats.instructions = trace.n
    stats.vector_instructions = n_vector
    stats.loads = n_loads
    stats.stores = n_stores
    stats.bytes_loaded = b_loaded
    stats.bytes_stored = b_stored
    for fu_id, busy in enumerate(class_busy):
        if busy:
            stats.fu_busy_cycles[FU_LIST[fu_id]] = busy
    stats.stall_cycles_fu = st_fu
    stats.stall_cycles_read = st_rd
    stats.stall_cycles_write = st_wr
    stats.issue_cycles = issue_cycles
    return stats


def _schedule_inorder(trace, program, config, hierarchy):
    """Direct-issue scheduler for strictly in-order machines (window 1)."""
    n = trace.n
    info = trace.info
    deps = trace.deps

    stats = SimStats()
    if n == 0:
        return stats

    pools = _make_pools(config)
    sb_entries = config.store_buffer.entries
    sb_drain = config.store_buffer.drain_latency
    dram_access = hierarchy.dram.access
    llc_line_bytes = hierarchy.caches[-1].config.line_bytes
    llc_load_to_use = hierarchy.caches[-1].config.load_to_use

    # memory ops issue in program order: bulk-replay their cache
    # effects now, charge the (issue-cycle-dependent) DRAM part lazily
    mem_base = mem_dram = mem_dram_addr = None
    mem_ptr = dram_ptr = 0
    if trace.mem_index:
        _idx, addrs, sizes, writes = trace.memory_arrays()
        with profiling.phase("memory replay"):
            base, dram_lines, dram_addrs = hierarchy.resolve_batch(
                addrs, sizes, writes)
        mem_base = base.tolist()
        mem_dram = dram_lines.tolist()
        mem_dram_addr = dram_addrs.tolist()

    complete_at = [0] * n
    store_buffer = []
    sb_head = 0
    store_tail = 0
    cycle = 0  # the cycle the *next* instruction is first considered
    last_completion = 0
    st_fu = st_rd = st_wr = 0

    for i in range(n):
        rec = info[i]
        is_store = rec[4]
        dd = deps[i]
        if dd:
            ready = complete_at[dd[0]]
            if len(dd) > 1:
                for d in dd[1:]:
                    c = complete_at[d]
                    if c > ready:
                        ready = c
        else:
            ready = 0
        # phase 1: operands not ready
        if ready > cycle:
            gap = ready - cycle
            if is_store:
                st_wr += gap
            else:
                blocking = dd[0]
                if len(dd) > 1:
                    best = complete_at[blocking]
                    for d in dd[1:]:
                        c = complete_at[d]
                        if c > best:
                            best = c
                            blocking = d
                if info[blocking][3]:
                    st_rd += gap
                else:
                    st_fu += gap
            cycle = ready
        # phase 2: structural hazards (store-buffer room, then the FU)
        t = cycle
        if is_store:
            while sb_head < len(store_buffer) and store_buffer[sb_head] <= t:
                sb_head += 1
            pend = len(store_buffer) - sb_head
            if pend >= sb_entries:
                room = store_buffer[sb_head + pend - sb_entries]
                if room > t:
                    t = room
        pool = pools[rec[0]]
        if pool is None:
            _unsupported(config, program, i)
        free = pool[0]
        for f in pool:
            if f < free:
                free = f
        if free > t:
            t = free
        if t > cycle:
            gap = t - cycle
            if is_store or FU_LIST[rec[0]] is FUClass.STORE:
                st_wr += gap
            else:
                st_fu += gap
        # issue at t (first unit free at t, as the scalar scan picks)
        for u, f in enumerate(pool):
            if f <= t:
                pool[u] = t + rec[2]
                break
        if rec[3]:  # load
            latency = mem_base[mem_ptr]
            n_dram = mem_dram[mem_ptr]
            mem_ptr += 1
            while n_dram:
                lat = dram_access(llc_line_bytes, t,
                                  addr=mem_dram_addr[dram_ptr]) + llc_load_to_use
                dram_ptr += 1
                if lat > latency:
                    latency = lat
                n_dram -= 1
        elif is_store:
            n_dram = mem_dram[mem_ptr]
            mem_ptr += 1
            while n_dram:
                dram_access(llc_line_bytes, t,
                            addr=mem_dram_addr[dram_ptr], write=True)
                dram_ptr += 1
                n_dram -= 1
            if store_tail < t:
                store_tail = t
            store_tail += sb_drain
            store_buffer.append(store_tail)
            latency = 1
            if store_tail > last_completion:
                last_completion = store_tail
        else:
            latency = rec[1]
        done = t + latency
        complete_at[i] = done
        if done > last_completion:
            last_completion = done
        cycle = t + 1

    return _finish(stats, trace, cycle, last_completion,
                   st_fu, st_rd, st_wr, n)


def _schedule_scan(trace, program, config, hierarchy):
    """Linked-list window scan with sleep-run skipping."""
    n = trace.n
    info = trace.info
    addr_col = trace.addr
    size_col = trace.size
    deps = trace.deps
    dependents = trace.dependents

    stats = SimStats()
    if n == 0:
        return stats

    pools = _make_pools(config)
    window = config.window
    width = config.issue_width
    sb_entries = config.store_buffer.entries
    sb_drain = config.store_buffer.drain_latency
    access = hierarchy.access

    wake = [0] * n       # operand-ready cycle; _INF until producers issued
    n_wait = [0] * n
    ready_acc = [0] * n
    for i, dd in enumerate(deps):
        if dd:
            n_wait[i] = len(dd)
            wake[i] = _INF
    complete_at = [0] * n

    nxt = list(range(1, n + 2))
    prv = list(range(-1, n + 1))
    head_node = n
    nxt[head_node] = 0
    prv[0] = head_node

    # Cached maximal runs of consecutive sleeping instructions; see the
    # module docstring for the `run_of` lowering invariant.
    run_until = [0] * n
    run_last = [0] * n
    run_cnt = [0] * n
    run_of = list(range(n))

    store_buffer = []
    sb_head = 0
    store_tail = 0
    cycle = 0
    last_completion = 0
    st_fu = st_rd = st_wr = issue_cycles = 0

    replayer = replayer_for(trace, config, hierarchy, pools, wake, n_wait,
                            ready_acc, complete_at, nxt, prv, head_node)
    rp_next = replayer.next_trigger if replayer is not None else _INF
    rec_mem = None
    rec_iss = None
    max_issued = -1

    while True:
        i = nxt[head_node]
        if i >= n:
            break
        if rp_next <= i:
            (rp_next, rec_mem, rec_iss, k, cycle, sb_head, store_tail,
             last_completion, st_fu, st_rd, st_wr, issue_cycles,
             max_issued) = replayer.on_boundary(
                i, cycle, max_issued, store_buffer, sb_head, store_tail,
                last_completion, st_fu, st_rd, st_wr, issue_cycles,
                rec_mem, rec_iss)
            if k:
                # the fast-forward leaves sleep-run caches stale for the
                # translated region; zero them so new scans rebuild
                zero_hi = replayer.last_f2 + window
                if zero_hi > n:
                    zero_hi = n
                run_until[i:zero_hi] = [0] * (zero_hi - i)
            continue
        issued_now = 0
        scanned = 0
        while i < n and scanned < window:
            w = wake[i]
            if w > cycle:
                # sleeping: skip (or rebuild) the cached run headed here
                if run_until[i] > cycle:
                    cnt = run_cnt[i]
                    if scanned + cnt >= window:
                        break
                    scanned += cnt
                    i = nxt[run_last[i]]
                    continue
                until = w
                cnt = 1
                last = i
                run_of[i] = i
                j = nxt[i]
                while j < n and cnt < window:
                    wj = wake[j]
                    if wj <= cycle:
                        break
                    if wj < until:
                        until = wj
                    cnt += 1
                    last = j
                    run_of[j] = i
                    run_until[j] = 0  # kill any stale run headed at j
                    j = nxt[j]
                run_until[i] = until
                run_last[i] = last
                run_cnt[i] = cnt
                if scanned + cnt >= window:
                    break
                scanned += cnt
                i = j
                continue
            scanned += 1
            fu_id, lat, interval, is_load, is_store, _ = info[i]
            if is_store:  # store: buffer must have room
                sb_len = len(store_buffer)
                while sb_head < sb_len and store_buffer[sb_head] <= cycle:
                    sb_head += 1
                if (sb_len - sb_head) >= sb_entries:
                    i = nxt[i]
                    continue
            pool = pools[fu_id]
            if pool is None:
                _unsupported(config, program, i)
            if pool[0] <= cycle:
                unit = 0
            else:
                unit = -1
                for u in range(1, len(pool)):
                    if pool[u] <= cycle:
                        unit = u
                        break
                if unit < 0:
                    i = nxt[i]
                    continue
            # --- issue i at `cycle` ---
            pool[unit] = cycle + interval
            if i > max_issued:
                max_issued = i
            if is_load:
                latency = access(addr_col[i], size_col[i], is_write=False,
                                 now_cycle=cycle).latency
                if rec_mem is not None:
                    rec_mem.append((i, cycle, latency, False))
            elif is_store:
                access(addr_col[i], size_col[i], is_write=True, now_cycle=cycle)
                if rec_mem is not None:
                    rec_mem.append((i, cycle, 0, True))
                if store_tail < cycle:
                    store_tail = cycle
                store_tail += sb_drain
                store_buffer.append(store_tail)
                latency = 1
                if store_tail > last_completion:
                    last_completion = store_tail
            else:
                latency = lat
            done = cycle + latency
            complete_at[i] = done
            if rec_iss is not None:
                rec_iss.append((i, done))
            if done > last_completion:
                last_completion = done
            dl = dependents[i]
            if dl is not None:
                for j in dl:
                    if ready_acc[j] < done:
                        ready_acc[j] = done
                    left = n_wait[j] - 1
                    n_wait[j] = left
                    if not left:
                        v = ready_acc[j]
                        wake[j] = v
                        # j may sit inside a cached sleep-run whose
                        # bound assumed j could not wake: lower it
                        h = run_of[j]
                        if run_until[h] > v:
                            run_until[h] = v
            p = prv[i]
            q = nxt[i]
            nxt[p] = q
            prv[q] = p
            issued_now += 1
            if issued_now >= width:
                break
            i = q
        if issued_now:
            issue_cycles += 1
            cycle += 1
            continue
        head = nxt[head_node]
        if head >= n:
            break
        # --- no issue: classify the stall and jump to the next event ---
        nxt_evt = _INF
        j = head
        sc = 0
        while j < n and sc < window:
            wj = wake[j]
            if wj > cycle:
                if run_until[j] > cycle:
                    if run_until[j] < nxt_evt:
                        nxt_evt = run_until[j]
                    cnt = run_cnt[j]
                    if sc + cnt >= window:
                        break
                    sc += cnt
                    j = nxt[run_last[j]]
                    continue
                if wj < nxt_evt:
                    nxt_evt = wj
                sc += 1
                j = nxt[j]
                continue
            sc += 1
            rec = info[j]
            if rec[4]:
                pend = len(store_buffer) - sb_head
                if pend >= sb_entries:
                    t = store_buffer[sb_head + pend - sb_entries]
                    if t < nxt_evt:
                        nxt_evt = t
                    j = nxt[j]
                    continue
            pool = pools[rec[0]]
            if pool is None:
                _unsupported(config, program, j)
            m = pool[0]
            for free in pool:
                if free < m:
                    m = free
            if cycle < m < nxt_evt:
                nxt_evt = m
            j = nxt[j]
        if nxt_evt <= cycle or nxt_evt >= _INF:
            raise AssertionError(
                "batch scheduler made no progress at cycle %d" % cycle
            )
        cycle, st_fu, st_rd, st_wr = _classify_gap(
            trace, complete_at, nxt[head_node], wake[nxt[head_node]],
            cycle, nxt_evt, st_fu, st_rd, st_wr,
        )

    return _finish(stats, trace, cycle, last_completion,
                   st_fu, st_rd, st_wr, issue_cycles)


def _classify_gap(trace, complete_at, head, ready, cycle, nxt_evt,
                  st_fu, st_rd, st_wr):
    """Attribute the stall cycles of one no-issue gap in bulk.

    The oldest pending instruction's blocking reason is constant within
    each phase of the gap: while its operands are not ready the stall
    is read/fu (store: write) after its latest producer; once ready,
    the remaining cycles are structural (fu, or write for stores).
    """
    info = trace.info
    gap = nxt_evt - cycle
    head_rec = info[head]
    if head_rec[4]:
        # a store blocked on data or buffer space is a write stall
        st_wr += gap
    else:
        if ready > cycle:
            phase1 = (ready if ready < nxt_evt else nxt_evt) - cycle
        else:
            phase1 = 0
        phase2 = gap - phase1
        if phase1:
            dd = trace.deps[head]
            blocking = dd[0]
            if len(dd) > 1:
                best = complete_at[blocking]
                for d in dd[1:]:
                    c = complete_at[d]
                    if c > best:
                        best = c
                        blocking = d
            if info[blocking][3]:
                st_rd += phase1
            else:
                st_fu += phase1
        if phase2:
            if FU_LIST[head_rec[0]] is FUClass.STORE:
                st_wr += phase2
            else:
                st_fu += phase2
    return nxt_evt, st_fu, st_rd, st_wr

