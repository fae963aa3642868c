"""Vectorized batch replay for the set-associative LRU caches.

The Figure 1 / Figure 17 cache studies replay element-granular address
streams that are millions of accesses long; driving them through
``Cache.lookup`` one Python call at a time dominates the suite's
wall-clock. This module simulates the same caches over numpy arrays of
addresses in chunks, access-for-access equivalent to the scalar
:class:`~repro.memory.cache.Cache` (identical hit/miss/eviction/
writeback/prefetch-hit counts and identical final line state).

How it works
------------
Accesses to different sets of a set-associative cache never interact,
and within one set a *run* of consecutive accesses to the same line is
one demand fetch followed by guaranteed MRU hits. ``batch_lookup``
therefore:

1. splits a chunk of addresses into (set, tag) with numpy,
2. stable-sorts by set — grouping each set's subsequence while
   preserving its program order,
3. collapses same-line runs within each set (per-run length and OR'd
   write flag via ``np.logical_or.reduceat``), and
4. hands the collapsed runs to :meth:`Cache.lookup_runs
   <repro.memory.cache.Cache.lookup_runs>`, which walks the cache's own
   per-set dicts in place (``OrderedDict`` insertion order == LRU
   order, ``move_to_end`` == MRU promotion). No state is exported or
   imported, and only the touched sets are visited.

Only the collapsed runs touch Python bytecode; on the GEMM-shaped
streams of the cache studies this is a small fraction of the raw
accesses, and everything else is numpy. Misses are reported by original
stream index so a multi-level hierarchy can feed each level the exact
miss subsequence, in order, that the scalar walk produces.

The batch path models *demand* accesses only. Hierarchies with stride
prefetchers enabled fall back to the scalar path in
:meth:`~repro.memory.hierarchy.MemoryHierarchy.access_batch` — the
prefetcher table update is inherently sequential.
"""

from itertools import repeat

import numpy as np


def batch_lookup(cache, addrs, is_write, collect_misses=True):
    """Replay a chunk of demand accesses through ``cache``.

    ``addrs`` is a 1-D integer array of byte addresses (any alignment;
    one line-granule access each, like ``Cache.lookup``), ``is_write``
    a boolean array of the same length or a scalar. Updates
    ``cache.stats`` and the cache's line state exactly as the
    equivalent sequence of ``cache.lookup`` calls would, and returns a
    sorted array of the indices into ``addrs`` that missed (empty when
    ``collect_misses`` is False — the last level of a hierarchy has no
    consumer for its miss stream).
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    n = addrs.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    writes = np.broadcast_to(np.asarray(is_write, dtype=bool), (n,))

    config = cache.config
    n_sets = config.n_sets
    lines = addrs // config.line_bytes
    set_ids = lines % n_sets

    order = np.argsort(set_ids, kind="stable")
    lines_sorted = lines[order]
    writes_sorted = writes[order]

    # Run heads: a line change always starts a new run (equal lines
    # imply equal sets, so runs cannot straddle a set boundary).
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(lines_sorted[1:], lines_sorted[:-1], out=new_run[1:])
    heads = np.flatnonzero(new_run)

    run_sets = (lines_sorted[heads] % n_sets).tolist()
    run_tags = (lines_sorted[heads] // n_sets).tolist()
    run_lengths = np.diff(np.append(heads, n)).tolist()
    run_writes = np.logical_or.reduceat(writes_sorted, heads).tolist()
    miss_heads = []
    if collect_misses:
        run_indices, on_miss = order[heads].tolist(), miss_heads.append
    else:
        run_indices, on_miss = repeat(0), lambda idx: None
    cache.lookup_runs(run_sets, run_tags, run_lengths, run_writes,
                      run_indices, on_miss)

    miss_idx = np.asarray(miss_heads, dtype=np.int64)
    miss_idx.sort()
    return miss_idx


def coalesce_chunks(chunks, target=1 << 16):
    """Re-batch an (addrs, writes) chunk stream into ~``target``-sized chunks.

    The fine-grained generators (packing panels, micro-kernel tiles)
    naturally yield small chunks; merging them amortizes the per-chunk
    numpy fixed costs without changing the access sequence.
    """
    pending_a = []
    pending_w = []
    pending_n = 0
    for addrs, writes in chunks:
        addrs = np.asarray(addrs, dtype=np.int64)
        pending_a.append(addrs)
        pending_w.append(np.broadcast_to(np.asarray(writes, dtype=bool), addrs.shape))
        pending_n += addrs.size
        if pending_n >= target:
            yield np.concatenate(pending_a), np.concatenate(pending_w)
            pending_a, pending_w, pending_n = [], [], 0
    if pending_n:
        yield np.concatenate(pending_a), np.concatenate(pending_w)


__all__ = ["batch_lookup", "coalesce_chunks"]
