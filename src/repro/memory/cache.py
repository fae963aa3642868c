"""Set-associative write-back / write-allocate cache with true LRU."""

from collections import OrderedDict
from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    ways: int
    load_to_use: int  # cycles on hit

    def __post_init__(self):
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError(
                "%s: size %d not divisible by line*ways (%d*%d)"
                % (self.name, self.size_bytes, self.line_bytes, self.ways)
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("%s: line size must be a power of two" % self.name)

    @property
    def n_sets(self):
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self):
        for name in vars(self):
            setattr(self, name, 0)


#: per-line flag bits stored as the value of a set's ``tag -> flags`` entry
DIRTY = 1
PREFETCHED = 2


class Cache:
    """One cache level.

    ``lookup`` probes and updates LRU/allocation; demand accesses and
    prefetch fills are distinguished so prefetch effectiveness can be
    reported. LRU is exact: each set is an ``OrderedDict`` mapping tag
    to int flags (:data:`DIRTY`, :data:`PREFETCHED`), least recently
    used first, allocated the first time the set is touched.
    """

    def __init__(self, config):
        self.config = config
        self.stats = CacheStats()
        self._sets = {}  # {set_index: OrderedDict[tag -> flags]}
        # copy-on-write undo journal for speculative access sequences:
        # None when not speculating, else {set_index: pre-image copy of
        # the set, or None if the set did not exist yet}
        self._journal = None

    def _split(self, addr):
        line = addr // self.config.line_bytes
        return line % self.config.n_sets, line // self.config.n_sets

    def _ways(self, set_index):
        """The set's ``OrderedDict``; allocates it and journals its pre-image."""
        ways = self._sets.get(set_index)
        journal = self._journal
        if journal is not None and set_index not in journal:
            journal[set_index] = None if ways is None else ways.copy()
        if ways is None:
            ways = self._sets[set_index] = OrderedDict()
        return ways

    def line_address(self, addr):
        return (addr // self.config.line_bytes) * self.config.line_bytes

    def lookup(self, addr, is_write=False):
        """Demand access. Returns True on hit; allocates on miss."""
        line = addr // self.config.line_bytes
        n_sets = self.config.n_sets
        tag = line // n_sets
        ways = self._ways(line % n_sets)
        flags = ways.get(tag)
        if flags is None:
            self.stats.misses += 1
            self._fill(ways, tag, DIRTY if is_write else 0)
            return False
        ways.move_to_end(tag)
        if flags & PREFETCHED:
            self.stats.prefetch_hits += 1
            ways[tag] = flags = flags & ~PREFETCHED
        if is_write:
            ways[tag] = flags | DIRTY
        self.stats.hits += 1
        return True

    def lookup_runs(self, run_sets, run_tags, run_lengths, run_writes,
                    run_indices, on_miss):
        """Replay collapsed same-line runs of demand accesses.

        Run ``i`` is ``run_lengths[i]`` consecutive accesses to tag
        ``run_tags[i]`` in set ``run_sets[i]``: one demand access
        followed by guaranteed MRU hits, dirtying the line if
        ``run_writes[i]``. Runs arrive grouped by set, each set's runs
        in program order (see :func:`repro.memory.batch.batch_lookup`).
        ``on_miss(run_indices[i])`` is called for every run whose first
        access misses. Stats and line state end exactly as after the
        equivalent :meth:`lookup` calls.
        """
        ways_limit = self.config.ways
        hits = misses = evictions = writebacks = prefetch_hits = 0
        current_set = -1
        ways = None
        for s, tag, length, wrote, idx in zip(
            run_sets, run_tags, run_lengths, run_writes, run_indices
        ):
            if s != current_set:
                current_set = s
                ways = self._ways(s)
            flags = ways.get(tag)
            if flags is not None:
                ways.move_to_end(tag)
                if flags & PREFETCHED:
                    prefetch_hits += 1
                    ways[tag] = flags = flags & ~PREFETCHED
                if wrote:
                    ways[tag] = flags | DIRTY
                hits += length
            else:
                misses += 1
                hits += length - 1
                on_miss(idx)
                if len(ways) >= ways_limit:
                    evictions += 1
                    if ways.popitem(last=False)[1] & DIRTY:
                        writebacks += 1
                ways[tag] = DIRTY if wrote else 0

        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        stats.prefetch_hits += prefetch_hits

    def contains(self, addr):
        """Probe without updating LRU or stats."""
        set_index, tag = self._split(addr)
        ways = self._sets.get(set_index)
        return ways is not None and tag in ways

    def prefetch(self, addr):
        """Fill a line speculatively (no stats hit/miss accounting)."""
        set_index, tag = self._split(addr)
        ways = self._ways(set_index)
        if tag in ways:
            return False
        self._fill(ways, tag, PREFETCHED)
        self.stats.prefetch_fills += 1
        return True

    def _fill(self, ways, tag, flags):
        if len(ways) >= self.config.ways:
            self.stats.evictions += 1
            if ways.popitem(last=False)[1] & DIRTY:  # LRU victim
                self.stats.writebacks += 1
        ways[tag] = flags

    def begin_journal(self):
        """Arm the copy-on-write journal; returns the stats pre-image."""
        self._journal = {}
        s = self.stats
        return (s.hits, s.misses, s.evictions, s.writebacks,
                s.prefetch_fills, s.prefetch_hits)

    def commit_journal(self):
        self._journal = None

    def rollback_journal(self, stats_snapshot):
        """Undo every mutation since :meth:`begin_journal`."""
        s = self.stats
        (s.hits, s.misses, s.evictions, s.writebacks,
         s.prefetch_fills, s.prefetch_hits) = stats_snapshot
        sets = self._sets
        for set_index, ways in self._journal.items():
            if ways is None:
                del sets[set_index]
            else:
                sets[set_index] = ways
        self._journal = None

    def invalidate_all(self):
        self._sets = {}

    @property
    def occupancy(self):
        lines = sum(len(ways) for ways in self._sets.values())
        return lines * self.config.line_bytes / self.config.size_bytes
