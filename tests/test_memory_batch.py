"""Equivalence tests for the vectorized batch cache-replay engine.

The batch engine (:mod:`repro.memory.batch`) must be access-for-access
equivalent to the scalar :class:`~repro.memory.cache.Cache`: identical
hit/miss/eviction/writeback/prefetch-hit counts *and* identical final
line state (tags, LRU order, dirty bits), on random streams, on the
GEMM-shaped streams of the Figure 1 study, and across arbitrary chunk
boundaries.
"""

import numpy as np
import pytest

from repro.gemm.blocking import BlockingParams
from repro.gemm.naive import naive_address_chunks, naive_address_stream
from repro.gemm.traces import (
    batch_miss_rate_of,
    blocked_address_chunks,
    blocked_address_stream,
    miss_rate_of,
    replay,
    replay_batch,
)
from repro.isa.dtypes import DType
from repro.memory.batch import batch_lookup, coalesce_chunks
from repro.memory.cache import DIRTY, PREFETCHED, Cache, CacheConfig
from repro.memory.dram import Dram
from repro.memory.hierarchy import MemoryHierarchy


def line_state(cache):
    """Per allocated set, by set index: (tag, dirty, prefetched) in LRU order.

    Sorted because batch replay allocates sets in set-index order, so
    the scalar and batch paths fill ``cache._sets`` in different orders.
    """
    return sorted(
        (set_index, [(tag, bool(flags & DIRTY), bool(flags & PREFETCHED))
                     for tag, flags in ways.items()])
        for set_index, ways in cache._sets.items()
    )


def scalar_replay(cache, addrs, writes):
    for addr, is_write in zip(addrs.tolist(), writes.tolist()):
        cache.lookup(addr, is_write=is_write)


GEOMETRIES = [
    (64 * 1024, 256, 8),  # the A64FX-like L1 of the Figure 1 study
    (1024, 64, 2),
    (4096, 128, 4),
    (6144, 64, 3),        # non-power-of-two set count
    (512, 64, 8),         # single set (fully associative)
]


class TestBatchLookupEquivalence:
    @pytest.mark.parametrize("size,line,ways", GEOMETRIES)
    def test_random_stream_matches_scalar(self, size, line, ways):
        rng = np.random.default_rng(42)
        addrs = rng.integers(0, 1 << 16, size=8000)
        writes = rng.random(8000) < 0.3
        scalar = Cache(CacheConfig("l1", size, line, ways, 4))
        batch = Cache(CacheConfig("l1", size, line, ways, 4))
        scalar_replay(scalar, addrs, writes)
        batch_lookup(batch, addrs, writes)
        assert vars(scalar.stats) == vars(batch.stats)
        assert line_state(scalar) == line_state(batch)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_chunk_boundaries_carry_state(self, mixed):
        # mixed: alternate chunks go through the scalar lookup/prefetch
        # calls and through batch_lookup on the same cache
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 14, size=5000)
        writes = rng.random(5000) < 0.5
        prefetches = rng.integers(0, 1 << 14, size=(6, 8)).tolist()
        scalar = Cache(CacheConfig("l1", 2048, 64, 4, 4))
        batch = Cache(CacheConfig("l1", 2048, 64, 4, 4))
        bounds = [0, 1, 17, 1000, 1001, 4999, 5000]
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if mixed:
                for addr in prefetches[i]:
                    scalar.prefetch(addr)
                    batch.prefetch(addr)
            scalar_replay(scalar, addrs[lo:hi], writes[lo:hi])
            if mixed and i % 2:
                scalar_replay(batch, addrs[lo:hi], writes[lo:hi])
            else:
                batch_lookup(batch, addrs[lo:hi], writes[lo:hi])
        if mixed:
            assert scalar.stats.prefetch_hits > 0
        assert vars(scalar.stats) == vars(batch.stats)
        assert line_state(scalar) == line_state(batch)

    def test_miss_indices_in_stream_order(self):
        cache = Cache(CacheConfig("l1", 1024, 64, 2, 4))
        addrs = np.array([0, 64, 0, 4096, 64, 128, 0])
        miss_idx = batch_lookup(cache, addrs, False)
        scalar = Cache(CacheConfig("l1", 1024, 64, 2, 4))
        expected = [
            i for i, a in enumerate(addrs.tolist()) if not scalar.lookup(a)
        ]
        assert miss_idx.tolist() == expected

    def test_prefetched_lines_count_prefetch_hits(self):
        scalar = Cache(CacheConfig("l1", 1024, 64, 2, 4))
        batch = Cache(CacheConfig("l1", 1024, 64, 2, 4))
        for cache in (scalar, batch):
            cache.prefetch(0)
            cache.prefetch(64)
        addrs = np.array([0, 0, 64, 128])
        scalar_replay(scalar, addrs, np.zeros(4, bool))
        batch_lookup(batch, addrs, np.zeros(4, bool))
        assert scalar.stats.prefetch_hits == batch.stats.prefetch_hits == 2
        assert vars(scalar.stats) == vars(batch.stats)
        assert line_state(scalar) == line_state(batch)

    def test_write_runs_set_dirty_for_later_writeback(self):
        # a collapsed run whose only write is mid-run must still mark
        # the line dirty so its eventual eviction counts a writeback
        config = CacheConfig("l1", 128, 64, 1, 4)  # 2 sets, direct-mapped
        scalar, batch = Cache(config), Cache(config)
        addrs = np.array([0, 0, 0, 128, 0])  # 128 evicts line 0 (same set)
        writes = np.array([False, True, False, False, False])
        scalar_replay(scalar, addrs, writes)
        batch_lookup(batch, addrs, writes)
        assert scalar.stats.writebacks == batch.stats.writebacks == 1
        assert vars(scalar.stats) == vars(batch.stats)

    def test_empty_chunk_is_noop(self):
        cache = Cache(CacheConfig("l1", 1024, 64, 2, 4))
        miss_idx = batch_lookup(cache, np.empty(0, dtype=np.int64), False)
        assert miss_idx.size == 0
        assert cache.stats.accesses == 0


def l1_only(size=64 * 1024, line=256, ways=8):
    return MemoryHierarchy.from_configs(
        [CacheConfig("l1", size, line, ways, load_to_use=4)], Dram(), prefetch=False
    )


def two_level():
    return MemoryHierarchy.from_configs(
        [
            CacheConfig("l1", 4096, 64, 4, 4),
            CacheConfig("l2", 32 * 1024, 128, 8, 12),
        ],
        Dram(),
        prefetch=False,
    )


class TestHierarchyBatch:
    def test_two_level_matches_scalar(self):
        rng = np.random.default_rng(9)
        addrs = rng.integers(0, 1 << 16, size=10000)
        writes = rng.random(10000) < 0.25
        scalar, batch = two_level(), two_level()
        for addr, is_write in zip(addrs.tolist(), writes.tolist()):
            scalar.access(addr, 1, is_write=is_write)
        batch.access_batch(addrs[:3333], writes[:3333])
        batch.access_batch(addrs[3333:], writes[3333:])
        for level in ("l1", "l2"):
            assert vars(scalar.level(level).stats) == vars(batch.level(level).stats)
            assert line_state(scalar.level(level)) == line_state(batch.level(level))
        assert scalar.dram.bytes_transferred == batch.dram.bytes_transferred
        assert scalar.demand_accesses == batch.demand_accesses

    def test_prefetch_hierarchy_falls_back_to_scalar(self):
        def make():
            return MemoryHierarchy.from_configs(
                [CacheConfig("l1", 4096, 64, 4, 4)], Dram(), prefetch=True
            )

        addrs = (np.arange(3000, dtype=np.int64) * 64) % (1 << 14)
        scalar, batch = make(), make()
        for addr in addrs.tolist():
            scalar.access(addr, 1)
        batch.access_batch(addrs)
        assert vars(scalar.level("l1").stats) == vars(batch.level("l1").stats)
        assert scalar.level("l1").stats.prefetch_fills > 0  # fallback exercised them
        assert scalar.demand_accesses == batch.demand_accesses


class TestGemmStreamEquivalence:
    BLOCKING = BlockingParams(m_r=4, n_r=8, mc=16, kc=32, nc=16)

    def test_naive_chunks_match_scalar_stream(self):
        for max_accesses in (None, 100, 101, 4000):
            stream = list(
                naive_address_stream(12, 9, 7, DType.INT64, max_accesses=max_accesses)
            )
            flat = [
                (addr, is_write)
                for addrs, writes in naive_address_chunks(
                    12, 9, 7, DType.INT64, max_accesses=max_accesses
                )
                for addr, is_write in zip(addrs.tolist(), writes.tolist())
            ]
            assert stream == flat

    def test_blocked_chunks_match_scalar_stream(self):
        for max_accesses in (None, 500, 501, 3333):
            stream = list(
                blocked_address_stream(
                    40, 24, 56, self.BLOCKING, max_accesses=max_accesses
                )
            )
            flat = [
                (addr, is_write)
                for addrs, writes in blocked_address_chunks(
                    40, 24, 56, self.BLOCKING, max_accesses=max_accesses
                )
                for addr, is_write in zip(addrs.tolist(), writes.tolist())
            ]
            assert stream == flat

    def test_naive_replay_batch_matches_replay(self):
        scalar = replay(naive_address_stream(24, 16, 8, DType.INT64), l1_only())
        batch = replay_batch(naive_address_chunks(24, 16, 8, DType.INT64), l1_only())
        assert vars(scalar.level("l1").stats) == vars(batch.level("l1").stats)
        assert line_state(scalar.level("l1")) == line_state(batch.level("l1"))

    def test_blocked_replay_batch_matches_replay(self):
        scalar_rate = miss_rate_of(
            blocked_address_stream(32, 32, 32, self.BLOCKING), l1_only(size=4096)
        )
        batch_rate = batch_miss_rate_of(
            blocked_address_chunks(32, 32, 32, self.BLOCKING), l1_only(size=4096)
        )
        assert scalar_rate == batch_rate

    def test_coalesce_preserves_sequence(self):
        chunks = list(blocked_address_chunks(32, 32, 32, self.BLOCKING))
        flat = np.concatenate([addrs for addrs, _ in chunks])
        flat_w = np.concatenate(
            [np.broadcast_to(w, a.shape) for a, w in chunks]
        )
        merged = list(coalesce_chunks(iter(chunks), target=1000))
        assert all(addrs.size >= 1000 for addrs, _ in merged[:-1])
        assert np.array_equal(np.concatenate([a for a, _ in merged]), flat)
        assert np.array_equal(np.concatenate([w for _, w in merged]), flat_w)
