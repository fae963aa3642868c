"""Content-addressed on-disk cache for experiment results.

Every cache entry is keyed by the tuple

    (experiment name, fast flag, source digest, config digest)

hashed into one sha256 hex key. The *source digest* fingerprints every
``.py`` file under ``src/repro`` (path + content), so any code change —
a kernel tweak, a new blocking heuristic — invalidates all entries; the
*config digest* canonicalizes the run's keyword arguments, so changing
sweep parameters invalidates just that run. Entries are JSON payloads
(records + formatted text + metadata) written atomically, one file per
key, under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-camp``).

Beneath those whole-run entries sits a *point-granular* layer keyed by
(experiment, point id, source digest, point-config digest, the point's
machine-spec digest, pipeline engine): one entry per grid cell of a
sweep, so changing one grid dimension value recomputes only the
affected cells while the rest load from cache. ``prune`` /
``disk_stats`` keep the one-file-per-key store bounded and observable.
"""

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

#: the package source tree whose content keys the cache (src/repro)
SOURCE_ROOT = Path(__file__).resolve().parents[1]

_source_digests = {}  # root -> (tree fingerprint, digest)


def _tree_files(root):
    """``(relative path, absolute path)`` of every .py file under ``root``.

    One ``os.scandir`` pass that skips ``__pycache__`` and does not
    follow symlinked directories, ordered like ``sorted(root.rglob("*.py"))``
    on POSIX: by path-component tuple, not by joined string, so
    ``a.py`` < ``a/b.py`` < ``a_b.py``.
    """
    found = []
    pending = [(os.fspath(root), ())]
    while pending:
        directory, parts = pending.pop()
        try:
            entries = os.scandir(directory)
        except OSError:
            continue
        with entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    if entry.name != "__pycache__":
                        pending.append((entry.path, parts + (entry.name,)))
                elif entry.name.endswith(".py"):
                    found.append((parts + (entry.name,), entry.path))
    found.sort()
    return [(os.sep.join(parts), path) for parts, path in found]


def _tree_fingerprint(files):
    """Cheap (stat-only) change detector for the memoized tree digest."""
    fingerprint = []
    for relative, path in files:
        try:
            stat = os.stat(path)
        except OSError:
            continue
        fingerprint.append((relative, stat.st_mtime_ns, stat.st_size))
    return tuple(fingerprint)


def source_digest(root=None):
    """Sha256 over every .py file under ``root`` (path and content).

    Memoized per process behind an mtime/size fingerprint that is
    re-checked on every call — one ``os.scandir`` walk plus one
    ``os.stat`` per file, no file reads — so a long-lived process
    (editable install, ``repro serve`` daemon) never keys against a
    dead digest. A fingerprint mismatch — file edited, added, removed
    or renamed — re-hashes the files of that same listing.
    """
    root = Path(root) if root is not None else SOURCE_ROOT
    files = _tree_files(root)
    fingerprint = _tree_fingerprint(files)
    cached = _source_digests.get(root)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    digest = hashlib.sha256()
    for relative, path in files:
        digest.update(relative.encode())
        digest.update(b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    _source_digests[root] = (fingerprint, digest.hexdigest())
    return _source_digests[root][1]


def _canonical_config(value, where="$"):
    """Restrict config values to types with an unambiguous encoding.

    The old ``json.dumps(..., default=str)`` silently coerced arbitrary
    objects through ``str()``, so two distinct configs whose reprs
    collided (or one object whose repr drifted across versions) could
    alias a cache entry. Only JSON-native types plus tuples and
    ``pathlib`` paths are accepted; anything else raises a ``TypeError``
    naming the offending key path.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [
            _canonical_config(v, "%s[%d]" % (where, i))
            for i, v in enumerate(value)
        ]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    "config key %r at %s is %s; cache keys require string "
                    "keys" % (key, where, type(key).__name__)
                )
            out[key] = _canonical_config(item, "%s.%s" % (where, key))
        return out
    raise TypeError(
        "config value at %s is %r (%s); cache keys accept only JSON-native "
        "types, tuples and pathlib paths — digest the object explicitly "
        "(e.g. a machine spec's .digest()) and pass the hex string instead"
        % (where, value, type(value).__name__)
    )


def config_digest(params):
    """Sha256 of the canonical JSON encoding of a run's parameters."""
    canonical = json.dumps(_canonical_config(params), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_cache_dir():
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-camp"


def cache_disabled():
    """True when ``REPRO_NO_RESULT_CACHE`` hard-disables result reuse.

    Used by the golden-drift CI job (``pytest --no-cache``): a stale
    cache entry must never stand in for a live experiment run, no
    matter who constructs the :class:`ResultCache`.
    """
    return bool(os.environ.get("REPRO_NO_RESULT_CACHE"))


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: point-granular entries (per grid cell) are accounted separately
    #: so tests and progress lines can tell cell reuse from run reuse
    point_hits: int = 0
    point_misses: int = 0
    point_stores: int = 0


class ResultCache:
    """One-file-per-key JSON store with hit/miss accounting."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    def key_for(self, experiment, fast, source_dig, config_dig):
        raw = "\0".join([experiment, "fast" if fast else "full",
                         source_dig, config_dig])
        return hashlib.sha256(raw.encode()).hexdigest()

    def point_key_for(self, experiment, point_id, source_dig, config_dig,
                      machines_dig, engine):
        """Key for one grid point, layered beneath the whole-run entry.

        Unlike the whole-run key, the machines digest here is the digest
        of the *point's own* machine spec (when the point is pinned to
        one), so editing one machine file invalidates only that
        machine's cells; the engine joins the key because scalar and
        batch runs must never alias.
        """
        raw = "\0".join(["point", experiment, point_id, source_dig,
                         config_dig, machines_dig, engine])
        return hashlib.sha256(raw.encode()).hexdigest()

    def load_point(self, key):
        """Point-granular load with separate hit/miss accounting."""
        payload = self.load(key, _point=True)
        return payload

    def store_point(self, key, payload):
        self.store(key, payload, _point=True)

    def path_for(self, key):
        return self.root / key[:2] / (key + ".json")

    def load(self, key, _point=False):
        """Return the stored payload dict, or None on a miss."""
        if cache_disabled():
            self._count_load(False, _point)
            return None
        path = self.path_for(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self._count_load(False, _point)
            return None
        self._count_load(True, _point)
        return payload

    def _count_load(self, hit, point):
        if point:
            if hit:
                self.stats.point_hits += 1
            else:
                self.stats.point_misses += 1
        elif hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1

    def store(self, key, payload, _point=False):
        """Atomically persist a payload (tempfile + rename)."""
        if cache_disabled():
            return
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=False)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if _point:
            self.stats.point_stores += 1
        else:
            self.stats.stores += 1

    def entries(self):
        """Every stored entry file (excludes journals and tempfiles)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("[0-9a-f][0-9a-f]/*.json"))

    def disk_stats(self):
        """On-disk inventory: entry count, bytes, oldest/newest ages."""
        now = time.time()
        count = 0
        total = 0
        oldest = newest = None
        for path in self.entries():
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
            "root": str(self.root),
            "entries": count,
            "total_bytes": total,
            "oldest_age_s": oldest,
            "newest_age_s": newest,
        }

    def prune(self, max_age_days=None, max_size_mb=None):
        """Evict entries by age and/or total size (oldest first).

        The one-file-per-key store grows without bound otherwise; this
        removes every entry older than ``max_age_days``, then — if the
        survivors still exceed ``max_size_mb`` — evicts oldest-first
        until the store fits. Returns ``(removed_count, freed_bytes)``.
        """
        stamped = []
        for path in self.entries():
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
