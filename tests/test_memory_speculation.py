"""Speculative access sequences on MemoryHierarchy roll back exactly.

The periodic-replay scheduler performs a whole period's memory accesses
before it knows the period's schedule prediction held; on a mismatch it
must rewind the hierarchy to the pre-period state bit-for-bit. These
tests drive randomized access sequences through speculate/rollback and
compare every observable — per-level stats, line state and LRU order,
prefetcher tables, DRAM clocks — against an untouched twin hierarchy,
and verify that committed speculation behaves exactly like plain
access sequences.
"""

import random

import pytest

from repro.memory.cache import DIRTY, PREFETCHED, Cache, CacheConfig
from repro.memory.dram import Dram, MultiChannelDram, RecordingDram
from repro.memory.hierarchy import MemoryHierarchy


def _configs():
    return [
        CacheConfig(name="l1", size_bytes=4096, line_bytes=64, ways=2,
                    load_to_use=3),
        CacheConfig(name="l2", size_bytes=16384, line_bytes=64, ways=4,
                    load_to_use=11),
    ]


def _state_fingerprint(hierarchy):
    caches = []
    for cache in hierarchy.caches:
        caches.append((
            vars(cache.stats).copy(),
            sorted((set_index,
                    [(tag, bool(flags & DIRTY), bool(flags & PREFETCHED))
                     for tag, flags in ways.items()])
                   for set_index, ways in cache._sets.items()),
        ))
    prefetchers = [
        None if p is None else p.snapshot() for p in hierarchy.prefetchers
    ]
    dram = hierarchy.dram
    fingerprint = [caches, prefetchers, hierarchy.demand_accesses,
                   dram.bytes_transferred]
    if isinstance(dram, MultiChannelDram):
        fingerprint.append((tuple(dram._next_free), tuple(dram._busy),
                            dram._rr))
    else:
        fingerprint.append(dram._next_free_cycle)
    if isinstance(dram, RecordingDram):
        fingerprint.append(list(dram.events))
    return fingerprint


def _random_accesses(rng, count=200):
    return [
        (rng.randrange(0, 1 << 16), rng.choice([1, 4, 64, 100]),
         rng.random() < 0.3, rng.randrange(0, 500))
        for _ in range(count)
    ]


def _drive(hierarchy, accesses):
    return [
        hierarchy.access(addr, size, is_write=write, now_cycle=cycle)
        for addr, size, write, cycle in accesses
    ]


@pytest.mark.parametrize("warm_count", [150, 0])
@pytest.mark.parametrize("prefetch", [True, False])
@pytest.mark.parametrize("dram_cls", [Dram, RecordingDram, MultiChannelDram])
def test_rollback_restores_every_observable(prefetch, dram_cls, warm_count):
    # warm_count=0: speculation first-touches every set it allocates,
    # and rollback must drop those sets again
    rng = random.Random(1234)
    h = MemoryHierarchy.from_configs(_configs(), dram_cls(), prefetch=prefetch)
    twin = MemoryHierarchy.from_configs(_configs(), dram_cls(),
                                        prefetch=prefetch)
    warm = _random_accesses(rng, warm_count)
    _drive(h, warm)
    _drive(twin, warm)

    token = h.begin_speculation()
    _drive(h, _random_accesses(rng, 120))
    h.rollback_speculation(token)

    assert _state_fingerprint(h) == _state_fingerprint(twin)


@pytest.mark.parametrize("prefetch", [True, False])
def test_commit_matches_plain_run(prefetch):
    rng = random.Random(99)
    h = MemoryHierarchy.from_configs(_configs(), Dram(), prefetch=prefetch)
    twin = MemoryHierarchy.from_configs(_configs(), Dram(), prefetch=prefetch)
    warm = _random_accesses(rng, 100)
    spec = _random_accesses(rng, 100)
    _drive(h, warm)
    _drive(twin, warm)

    token = h.begin_speculation()
    speculative = _drive(h, spec)
    h.commit_speculation(token)
    plain = _drive(twin, spec)

    assert speculative == plain
    assert _state_fingerprint(h) == _state_fingerprint(twin)


def test_rollback_then_replay_is_exact():
    """Latencies after a rollback equal the never-speculated latencies."""
    rng = random.Random(7)
    h = MemoryHierarchy.from_configs(_configs(), Dram(), prefetch=True)
    twin = MemoryHierarchy.from_configs(_configs(), Dram(), prefetch=True)
    warm = _random_accesses(rng, 80)
    tail = _random_accesses(rng, 80)
    _drive(h, warm)
    _drive(twin, warm)

    token = h.begin_speculation()
    _drive(h, _random_accesses(rng, 60))  # abandoned speculative work
    h.rollback_speculation(token)

    assert _drive(h, tail) == _drive(twin, tail)
    assert _state_fingerprint(h) == _state_fingerprint(twin)


@pytest.mark.parametrize("warm_count", [100, 0])
def test_batch_paths_roll_back_under_journal(warm_count):
    """resolve_batch / access_batch are journal-safe (batch_lookup path)."""
    import numpy as np

    rng = random.Random(41)
    h = MemoryHierarchy.from_configs(_configs(), Dram(), prefetch=False)
    twin = MemoryHierarchy.from_configs(_configs(), Dram(), prefetch=False)
    warm = _random_accesses(rng, warm_count)
    _drive(h, warm)
    _drive(twin, warm)

    addrs = np.asarray([rng.randrange(0, 1 << 16) for _ in range(300)])
    sizes = np.asarray([rng.choice([1, 4, 64]) for _ in range(300)])

    token = h.begin_speculation()
    h.resolve_batch(addrs, sizes, is_write=False)
    h.access_batch(addrs[:50], is_write=True)
    h.rollback_speculation(token)

    assert _state_fingerprint(h) == _state_fingerprint(twin)
