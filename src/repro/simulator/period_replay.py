"""Periodic steady-state replay for the windowed batch scheduler.

The GEMM traces the batch pipeline schedules are dominated by software
loops: long regions where instruction ``i + P`` is a structural copy of
instruction ``i`` — same decoded record, and every dependence edge
either carried (producer shifted by exactly ``P``) or loop-invariant
(same producer). Inside such a region the scheduler's steady state is
*periodic-translating*: once the canonical scheduler state at two
consecutive period boundaries matches modulo a uniform shift of
``(P instructions, C cycles)``, every later period repeats the same
schedule shifted again — until a memory access observes a different
latency than the previous period did.

This module exploits that in two pieces:

- **Static detection** (:func:`period_info`, cached on the compiled
  trace): find the period ``P`` and the longest run ``[lo, hi)`` of
  indices whose decoded record equals their ``-P`` neighbour's and
  whose dependence tuples line up position-for-position with deltas in
  ``{0, P}`` (dep tuples are sorted, hence shift-stable — see
  ``trace_compile``). Positional correspondence is what keeps
  stall-blame tie-breaking (`first maximal producer`) aligned across
  periods.

- **Runtime replay** (:class:`PeriodicReplayer`, driven by the window
  scan scheduler): at each boundary ``b = lo + q*P`` capture a
  relative signature of the canonical scheduler state (pending set,
  per-instruction wake/ready/completion clamped to the current cycle,
  FU pools, store buffer). When two consecutive boundary signatures
  match, whole periods are *replayed* instead of scheduled: the
  period's recorded memory accesses are performed for real — shifted
  by ``(m*P, m*C)`` — under
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.begin_speculation`,
  and each load's latency is verified against the recorded one. A
  mismatch rolls the hierarchy back and falls out to the scalar loop
  at the exact pre-period state; a match commits and the scheduler
  state is reconstructed at the end of the chain by translating the
  captured signature. Stall counters advance by ``k`` times the
  recorded per-period deltas. A period with no memory operations
  verifies for free (pure-compute loops replay at zero cost).

Clamping soundness: canonical values that are ``<= cycle`` are
interchangeable with any other ``<= cycle`` value — every consumer
(wake maxima, pool first-free-unit selection, store-buffer drain,
stall blame when the head's wake exceeds ``cycle``) only distinguishes
*future* values, except the store-buffer serialization point which
tests ``store_tail < cycle`` and therefore keeps the ``== cycle`` case
distinct in the signature.

SimStats stay bit-identical to the scalar engines on every path; the
equivalence suite sweeps periodic traces with replay on and off.
Set ``REPRO_NO_PERIOD_REPLAY=1`` to disable replay globally.
"""

import os

import numpy as np

_INF = 1 << 60

#: traces shorter than this are never analyzed
MIN_N = 512
#: the valid run must span at least this many periods
MIN_PERIODS = 4
#: ... and at least this many instructions — replay bookkeeping is not
#: worth setting up for short bursts
MIN_REGION = 256
#: reject regions whose carried-dependence span exceeds this many
#: periods (signature capture cost grows with the span)
MAX_SPAN_PERIODS = 8
#: consecutive-failure backoff cap, in boundary crossings
MAX_COOLDOWN = 64
#: boundaries are placed every multiple of the period of at least this
#: many instructions — small structural periods would otherwise make
#: signature capture itself the hot loop
MIN_STRIDE = 16
#: how many recent boundary signatures to retain for matching; the
#: schedule period is often a multiple of the structural period (e.g.
#: one cache-line miss every line_bytes / elem_bytes iterations), so a
#: crossing must be comparable against several strides back
HIST_DEPTH = 48

_ENV_DISABLE = "REPRO_NO_PERIOD_REPLAY"


def replay_enabled():
    return os.environ.get(_ENV_DISABLE, "") in ("", "0")


class PeriodInfo:
    """Static periodicity of one compiled trace (config-specific)."""

    __slots__ = ("period", "lo", "hi", "span", "invariants", "inv_max",
                 "far_edges")

    def __init__(self, period, lo, hi, span, invariants, far_edges):
        self.period = period
        self.lo = lo
        self.hi = hi
        self.span = span
        self.invariants = invariants
        self.inv_max = max(invariants) if invariants else -1
        #: edges from in-region producers to consumers beyond ``hi``;
        #: replay must apply their wake bookkeeping explicitly because
        #: out-of-region consumers are not covered by the signature
        self.far_edges = far_edges


def _candidate_periods(codes, n):
    """Candidate periods from modal occurrence-position differences.

    A record that recurs ``c`` times per loop iteration satisfies
    ``pos[i + c] - pos[i] == P`` for every steady occurrence, so the
    modal difference at stride ``c`` recovers ``P`` even when the raw
    gaps alternate (iterations of uneven length — e.g. a prefetch load
    folded into every fourth copy). Examine the rarer records (fewest
    occurrences per iteration) at small strides.
    """
    counts = np.bincount(codes)
    candidates = []
    examined = 0
    for code in np.argsort(counts, kind="stable"):
        cnt = int(counts[code])
        if cnt < 4 or cnt > n // 2:
            continue
        positions = np.flatnonzero(codes == code)
        for stride in range(1, min(8, cnt - 1) + 1):
            diffs = positions[stride:] - positions[:-stride]
            vals, hits = np.unique(diffs, return_counts=True)
            j = int(np.argmax(hits))
            gap = int(vals[j])
            # demand a clear mode: most steady occurrences agree
            if 3 * int(hits[j]) < 2 * (cnt - stride):
                continue
            if gap > 0 and 4 * gap <= n and gap not in candidates:
                candidates.append(gap)
        examined += 1
        if examined >= 4 or len(candidates) >= 12:
            break
    return candidates


def _longest_valid_run(codes, cnt, cols, period, n):
    """Longest run of indices that are valid ``+period`` copies.

    Index ``i`` is valid when its record equals ``i - period``'s, its
    dependence tuple maps onto the earlier one position-for-position
    with per-position deltas in ``{0, period}``, and the delta vector
    equals the previous copy's. Uniform per-position deltas make the
    mapping compose: translation by any multiple ``g * period`` keeps
    carried edges carried (``+ g*period``) and invariant edges
    invariant — the runtime matches boundary states several periods
    apart (schedule periods are often a cache-line multiple of the
    structural period), so single-step validity is not enough.
    """
    if period >= n:
        return 0, 0
    good = np.zeros(n, dtype=bool)
    ok = (codes[period:] == codes[:-period]) & (cnt[period:] == cnt[:-period])
    deltas = []
    for col in cols:
        x = col[period:]
        have = x >= 0
        # cnt equality forces equal presence patterns (dep tuples are
        # sorted, so slot k exists iff k < len); absent-in-both slots
        # get a sentinel that compares equal in the stability test
        d = np.where(have, x - col[:-period], -1)
        ok &= ~have | (d == 0) | (d == period)
        deltas.append(d)
    good[period:] = ok
    if deltas and n > 2 * period:
        stable = np.ones(n - 2 * period, dtype=bool)
        for d in deltas:
            stable &= d[period:] == d[:-period]
        # a delta-vector change between consecutive in-run copies
        # breaks the run (slightly conservative at run starts)
        good[2 * period:] &= stable | ~ok[:-period]
    bad = np.flatnonzero(~good)
    starts = bad + 1
    ends = np.append(bad[1:], n)
    lens = ends - starts
    j = int(np.argmax(lens))
    if lens[j] <= 0:
        return 0, 0
    return int(starts[j]), int(ends[j])


def _analyze(trace):
    n = trace.n
    if n < MIN_N:
        return None
    info = trace.info
    deps = trace.deps
    code_of = {}
    codes = []
    for rec in info:
        code = code_of.get(rec)
        if code is None:
            code = len(code_of)
            code_of[rec] = code
        codes.append(code)
    codes = np.asarray(codes, dtype=np.int64)

    # dependence tuples as sentinel-padded columns for the vectorized
    # run scan (dep counts are tiny: at most a few sources per op)
    max_k = max(map(len, deps))
    cnt = np.zeros(n, dtype=np.int64)
    cols = [np.full(n, -1, dtype=np.int64) for _ in range(max_k)]
    for i, dd in enumerate(deps):
        if dd:
            cnt[i] = len(dd)
            for k, d in enumerate(dd):
                cols[k][i] = d

    best = None
    for period in _candidate_periods(codes, n):
        lo, hi = _longest_valid_run(codes, cnt, cols, period, n)
        if hi - lo < MIN_PERIODS * period or hi - lo < MIN_REGION:
            continue
        if (best is None or hi - lo > best[1] - best[0]
                or (hi - lo == best[1] - best[0] and period < best[2])):
            best = (lo, hi, period)
    if best is None:
        return None
    lo, hi, period = best

    span = 0
    invariants = set()
    for i in range(lo, hi):
        d0 = deps[i - period]
        for d, p0 in zip(deps[i], d0):
            if d == p0:
                invariants.add(d)
            else:
                s = i - d
                if s > span:
                    span = s
    if span > MAX_SPAN_PERIODS * period:
        return None

    far = {}
    for j in range(hi, n):
        for d in deps[j]:
            if lo <= d < hi:
                far.setdefault(d, []).append(j)
    far_edges = tuple(sorted((d, tuple(js)) for d, js in far.items()))
    return PeriodInfo(period, lo, hi, span, frozenset(invariants), far_edges)


def period_info(trace):
    """Cached :class:`PeriodInfo` for ``trace`` (None if aperiodic)."""
    cached = trace._period
    if cached is None:
        cached = _analyze(trace)
        trace._period = cached if cached is not None else False
        return cached
    return cached or None


def replayer_for(trace, config, hierarchy, pools, wake, n_wait, ready_acc,
                 complete_at, nxt, prv, head_node):
    """A :class:`PeriodicReplayer` bound to one scheduler run, or None."""
    if config.window <= 1 or not replay_enabled():
        return None
    pinfo = period_info(trace)
    if pinfo is None:
        return None
    return PeriodicReplayer(pinfo, trace, config, hierarchy, pools, wake,
                            n_wait, ready_acc, complete_at, nxt, prv,
                            head_node)


class PeriodicReplayer:
    """Boundary-crossing state machine driving one scheduler run.

    The scheduler calls :meth:`on_boundary` from the top of its outer
    loop whenever the oldest pending instruction has reached
    ``next_trigger``, passing (and receiving back) its scalar locals.
    Everything list-shaped (wake/ready/completion columns, the pending
    linked list, FU pools) is shared by reference.
    """

    def __init__(self, pinfo, trace, config, hierarchy, pools, wake,
                 n_wait, ready_acc, complete_at, nxt, prv, head_node):
        self.period = pinfo.period
        self.lo = pinfo.lo
        self.hi = pinfo.hi
        self.span = pinfo.span
        self.invariants = pinfo.invariants
        self.inv_max = pinfo.inv_max
        self.far_edges = pinfo.far_edges
        self.n = trace.n
        self.addr_col = trace.addr
        self.size_col = trace.size
        self.window = config.window
        self.hierarchy = hierarchy
        self.pools = pools
        self.wake = wake
        self.n_wait = n_wait
        self.ready_acc = ready_acc
        self.complete_at = complete_at
        self.nxt = nxt
        self.prv = prv
        self.head_node = head_node
        stride = pinfo.period
        if stride < MIN_STRIDE:
            stride *= -(-MIN_STRIDE // stride)
        self.stride = stride
        self.next_trigger = pinfo.lo + stride
        #: recent crossings: [b, cycle, sig, counters, off_mem, off_iss]
        self.history = []
        self.cooldown = 0
        self._fail_streak = 0
        self.last_f2 = 0       # first never-issued index after a replay

    # -- boundary handling -------------------------------------------------

    def on_boundary(self, head, cycle, max_issued, store_buffer, sb_head,
                    store_tail, last_completion, st_fu, st_rd, st_wr,
                    issue_cycles, rec_mem, rec_iss):
        """Handle the crossing of ``next_trigger`` by the pending head.

        Returns the (possibly fast-forwarded) scheduler locals:
        ``(next_trigger, rec_mem, rec_iss, k, cycle, sb_head,
        store_tail, last_completion, st_fu, st_rd, st_wr, issue_cycles,
        max_issued)`` where ``k`` is the number of replayed periods.
        """
        stride = self.stride
        b = self.next_trigger
        if head >= b + stride:
            # out-of-order issue drained the head past one or more
            # boundaries in one burst; skip them — their signatures go
            # uncaptured, but the continuous recording stays valid
            b += ((head - b) // stride) * stride
        if rec_mem is None:
            rec_mem = []
            rec_iss = []
        sig = self._capture(b, cycle, head, max_issued, store_buffer,
                            sb_head, store_tail, last_completion)
        counters = (st_fu, st_rd, st_wr, issue_cycles)
        k = 0
        history = self.history
        if self.cooldown == 0 and b >= self.span:
            # newest-first: the most recent match gives the smallest
            # effective period (the schedule's true super-period)
            for idx in range(len(history) - 1, -1, -1):
                ent = history[idx]
                if ent[2] != sig:
                    continue
                period_eff = b - ent[0]
                cycles_per = cycle - ent[1]
                if (cycles_per > 0 and self.inv_max < head
                        and self._invariants_quiet(cycle)):
                    k = self._replay_chain(b, cycle, cycles_per, period_eff,
                                           max_issued, rec_mem[ent[4]:])
                    if k:
                        self._fail_streak = 0
                        h_ctr = ent[3]
                        st_fu += k * (st_fu - h_ctr[0])
                        st_rd += k * (st_rd - h_ctr[1])
                        st_wr += k * (st_wr - h_ctr[2])
                        issue_cycles += k * (issue_cycles - h_ctr[3])
                        counters = (st_fu, st_rd, st_wr, issue_cycles)
                        self._apply_far_edges(k, period_eff, cycles_per,
                                              rec_iss[ent[5]:])
                        b += k * period_eff
                        cycle += k * cycles_per
                        max_issued += k * period_eff
                        (sb_head, store_tail,
                         last_completion) = self._reconstruct(
                            sig, b, cycle, store_buffer, last_completion)
                        del history[:]
                        del rec_mem[:]
                        del rec_iss[:]
                    else:
                        self._fail_streak += 1
                        self.cooldown = min(2 << self._fail_streak,
                                            MAX_COOLDOWN)
                break
        if not k and self.cooldown:
            self.cooldown -= 1
        next_trigger = b + stride
        if next_trigger + stride + self.window > self.hi:
            # too close to the region end for another verifiable period
            next_trigger = _INF
            rec_mem = None
            rec_iss = None
            del history[:]
        else:
            history.append([b, cycle, sig, counters,
                            len(rec_mem), len(rec_iss)])
            if len(history) > HIST_DEPTH:
                del history[0]
                cut_m = history[0][4]
                cut_i = history[0][5]
                if cut_m:
                    del rec_mem[:cut_m]
                    for ent in history:
                        ent[4] -= cut_m
                if cut_i:
                    del rec_iss[:cut_i]
                    for ent in history:
                        ent[5] -= cut_i
        self.next_trigger = next_trigger
        return (next_trigger, rec_mem, rec_iss, k, cycle, sb_head,
                store_tail, last_completion, st_fu, st_rd, st_wr,
                issue_cycles, max_issued)

    def _apply_far_edges(self, k, period, cycles_per, rec_iss):
        """Apply the wake bookkeeping replay skipped for far consumers.

        Every index issued in replay period ``m`` is the ``+ m*period``
        copy of an index issued in the recorded period (the signature
        match forces period issue sets to be exact translates), so a
        far producer's completion is its recorded copy's completion
        shifted by ``m * cycles_per``. ``period`` here is the effective
        (matched) period, a multiple of the structural one.
        """
        far = self.far_edges
        if not far:
            return
        rec_done = {}
        min_i = _INF
        max_i = -1
        for i, done in rec_iss:
            rec_done[i] = done
            if i < min_i:
                min_i = i
            if i > max_i:
                max_i = i
        if max_i < 0:
            return
        ready_acc = self.ready_acc
        n_wait = self.n_wait
        wake = self.wake
        complete_at = self.complete_at
        for d, consumers in far:
            m = -((max_i - d) // period)
            if m < 1:
                m = 1
            m_hi = (d - min_i) // period
            if m_hi > k:
                m_hi = k
            while m <= m_hi:
                done = rec_done.get(d - m * period)
                if done is not None:
                    done += m * cycles_per
                    complete_at[d] = done
                    for j in consumers:
                        if ready_acc[j] < done:
                            ready_acc[j] = done
                        left = n_wait[j] - 1
                        n_wait[j] = left
                        if not left:
                            wake[j] = ready_acc[j]
                    break
                m += 1

    def _invariants_quiet(self, cycle):
        complete_at = self.complete_at
        for d in self.invariants:
            if complete_at[d] > cycle:
                return False
        return True

    # -- signature capture -------------------------------------------------

    def _capture(self, b, cycle, head, max_issued, store_buffer, sb_head,
                 store_tail, last_completion):
        """Canonical scheduler state relative to ``(b, cycle)``.

        Values at or below ``cycle`` are clamped (they are mutually
        interchangeable for every consumer); future values become
        cycle-relative offsets so that translated states compare equal.
        """
        span = self.span
        f_next = max_issued + 1  # first never-issued index; >= head
        lo = b - span
        if lo < 0:
            lo = 0
        # clamp to the valid region: beyond ``hi`` the trace is not a
        # periodic copy, so translated state would be meaningless there
        # (far consumers get their exact bookkeeping separately)
        hi_r = f_next + span
        if hi_r > self.hi:
            hi_r = self.hi
        wake = self.wake
        n_wait = self.n_wait
        ready_acc = self.ready_acc
        complete_at = self.complete_at
        nxt = self.nxt

        pend = []
        i = head
        while i < f_next:
            pend.append(i - b)
            i = nxt[i]

        state = []
        for j in range(lo, hi_r):
            w = wake[j]
            if w >= _INF:
                w = -1
            elif w > cycle:
                w -= cycle
            else:
                w = 0
            ra = ready_acc[j]
            ra = ra - cycle if ra > cycle else 0
            ca = complete_at[j]
            ca = ca - cycle if ca > cycle else 0
            state.append((w, n_wait[j], ra, ca))

        pools_sig = tuple(
            None if pool is None else
            tuple((f - cycle) if f > cycle else 0 for f in pool)
            for pool in self.pools
        )
        sb_sig = tuple(t - cycle for t in store_buffer[sb_head:] if t > cycle)
        # the drain serialization point distinguishes == cycle from
        # < cycle (the scalar engines test `store_tail < cycle`)
        tail_sig = store_tail - cycle if store_tail >= cycle else -1
        lc_sig = last_completion - cycle if last_completion > cycle else 0
        return (head - b, f_next - b, b - lo, hi_r - b, tuple(pend),
                tuple(state), pools_sig, sb_sig, tail_sig, lc_sig)

    # -- replay ------------------------------------------------------------

    def _replay_chain(self, b, cycle, cycles_per, period, max_issued,
                      rec_mem):
        """Replay verified periods; returns how many committed."""
        hi = self.hi
        window = self.window
        hierarchy = self.hierarchy
        access = hierarchy.access
        addr_col = self.addr_col
        size_col = self.size_col
        f_next = max_issued + 1
        k = 0
        while f_next + (k + 1) * period + window <= hi:
            shift_i = (k + 1) * period
            shift_c = (k + 1) * cycles_per
            token = hierarchy.begin_speculation()
            ok = True
            for i, t, lat, is_write in rec_mem:
                result = access(addr_col[i + shift_i], size_col[i + shift_i],
                                is_write=is_write, now_cycle=t + shift_c)
                if not is_write and result.latency != lat:
                    ok = False
                    break
            if not ok:
                hierarchy.rollback_speculation(token)
                break
            hierarchy.commit_speculation(token)
            k += 1
        return k

    # -- state reconstruction ----------------------------------------------

    def _reconstruct(self, sig, b2, c2, store_buffer, last_completion_in):
        """Translate the captured signature to ``(b2, c2)`` in place."""
        (_head_rel, f_rel, lo_rel, _hi_rel, pend, state, pools_sig, sb_sig,
         tail_sig, lc_sig) = sig
        n = self.n
        stop = self.hi
        wake = self.wake
        n_wait = self.n_wait
        ready_acc = self.ready_acc
        complete_at = self.complete_at
        nxt = self.nxt
        prv = self.prv

        j = b2 - lo_rel
        for w, nw, ra, ca in state:
            if j >= stop:
                break
            wake[j] = _INF if w < 0 else (w + c2 if w else 0)
            n_wait[j] = nw
            ready_acc[j] = ra + c2 if ra else 0
            complete_at[j] = ca + c2 if ca else 0
            j += 1

        node = self.head_node
        for rel in pend:
            i = b2 + rel
            nxt[node] = i
            prv[i] = node
            node = i
        f2 = b2 + f_rel
        nxt[node] = f2
        if f2 <= n:
            prv[f2] = node
        self.last_f2 = f2

        for pool, psig in zip(self.pools, pools_sig):
            if pool is not None:
                for unit, f in enumerate(psig):
                    pool[unit] = f + c2 if f else 0

        store_buffer[:] = [t + c2 for t in sb_sig]
        store_tail = tail_sig + c2 if tail_sig >= 0 else 0
        last_completion = lc_sig + c2 if lc_sig else last_completion_in
        return 0, store_tail, last_completion


__all__ = ["PeriodInfo", "PeriodicReplayer", "period_info", "replay_enabled",
           "replayer_for"]
