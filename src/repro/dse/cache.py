"""Content-addressed result cache for design-space evaluations.

One statistical-simulation evaluation is fully determined by the
profile content, the machine configuration, the synthesis seed and the
reduction factor — so its metrics are cached under
``sha256(profile_hash, config_hash, seed, reduction_factor)``.
Re-running a sweep, extending a grid, or running a second sweep that
overlaps the first all skip the already-evaluated points, whatever
order or process produced them.

The cache is a **shared concurrent store**: multiple sweeps — and the
service daemon's jobs — read and write one directory simultaneously.
Entry files are written atomically with an embedded SHA-256 checksum
(reusing :mod:`repro.runner.checkpoint`'s scheme), so a killed sweep
can never leave a half-written entry: a truncated or bit-flipped file
raises :class:`~repro.errors.ArtifactCorruptError` at read time, is
discarded, and the point is simply re-evaluated.  Alongside the
entries lives a **maintained count/size index**, sharded by the same
two-hex-digit prefix as the objects and updated under a per-shard
``flock``, so ``len(cache)`` / ``total_bytes()`` are O(shards) instead
of a full directory scan, and the index doubles as the LRU book for
size-bounded eviction (``max_entries`` / ``max_bytes``).  A corrupt or
missing shard index is rebuilt from the object files it describes —
the objects stay the source of truth; the index is an accelerator
with self-healing, like everything else here.

Layout::

    <cache_dir>/
        objects/<key[:2]>/<key>.json    # one evaluation result each
        index/<key[:2]>.json            # {key: [bytes, last-access]}
        locks/<key[:2]>.lock            # flock target per shard
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ArtifactCorruptError
from repro.obs import events as obs_events
from repro.runner.checkpoint import read_json_checked, write_json_atomic
from repro.dse.space import canonical_json

#: Sentinel: "no explicit plan given, consult the environment".
_ENV_PLAN = object()

#: Bump when the cached payload schema changes; part of the key, so a
#: schema change is an automatic cold cache rather than a misread.
CACHE_FORMAT = 1

#: Bump when the shard-index layout changes; a mismatched index is
#: rebuilt from the object files rather than misread.
INDEX_FORMAT = 1


def result_key(profile_hash: str, config_hash: str, seed: int,
               reduction_factor: float, mode: str = "scalar") -> str:
    """The content address of one evaluation.

    *mode* distinguishes draw-sequence families: the columnar batch
    kernels are statistically equivalent to the scalar generator but
    use a different RNG stream, so their metrics must never be served
    from a scalar entry (or vice versa).  ``"scalar"`` is omitted from
    the hashed payload so every pre-existing cache entry keeps its key.
    """
    payload = {
        "format": CACHE_FORMAT,
        "profile": profile_hash,
        "config": config_hash,
        "seed": seed,
        "reduction_factor": reduction_factor,
    }
    if mode != "scalar":
        payload["mode"] = mode
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one sweep."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_discarded: int = 0
    io_errors: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_discarded": self.corrupt_discarded,
            "io_errors": self.io_errors,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ResultCache:
    """Content-addressed store of evaluation metrics on disk.

    ``fault_plan`` defaults to whatever ``REPRO_CHAOS`` asks for; pass
    ``None`` to disable injection explicitly.  The cache is an
    accelerator, so every fault — injected or real — is contained: a
    failed read is a miss, a failed write skips caching, and the sweep
    re-evaluates.

    ``max_entries`` / ``max_bytes`` bound the store; crossing a bound
    evicts least-recently-used entries (access order comes from the
    maintained shard indexes, refreshed on every hit).  ``None`` means
    unbounded, the pre-service behavior.
    """

    cache_dir: Union[str, Path]
    fault_plan: Any = _ENV_PLAN
    stats: CacheStats = field(default_factory=CacheStats)
    max_entries: Optional[int] = None
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.fault_plan is _ENV_PLAN:
            from repro.faults import plan_from_env

            self.fault_plan = plan_from_env()
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {self.max_entries}")
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ValueError(
                f"max_bytes must be >= 1, got {self.max_bytes}")
        self.cache_dir = Path(self.cache_dir)
        (self.cache_dir / "objects").mkdir(parents=True, exist_ok=True)
        (self.cache_dir / "index").mkdir(exist_ok=True)
        (self.cache_dir / "locks").mkdir(exist_ok=True)

    # -- paths and locking ---------------------------------------------

    def _path(self, key: str) -> Path:
        return self.cache_dir / "objects" / key[:2] / (key + ".json")

    def _index_path(self, shard: str) -> Path:
        return self.cache_dir / "index" / (shard + ".json")

    @contextmanager
    def _shard_lock(self, shard: str) -> Iterator[None]:
        """Exclusive advisory lock for one shard's index — the only
        mutable structure two processes contend on.  Object files are
        immutable-by-content and written atomically, so they need no
        lock of their own."""
        lock_path = self.cache_dir / "locks" / (shard + ".lock")
        handle = open(lock_path, "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()

    # -- shard index ----------------------------------------------------

    def _rebuild_shard(self, shard: str) -> Dict[str, List[float]]:
        """Reconstruct one shard's index from its object files (the
        self-healing path for a missing, stale or corrupt index)."""
        entries: Dict[str, List[float]] = {}
        shard_dir = self.cache_dir / "objects" / shard
        if shard_dir.is_dir():
            for path in shard_dir.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries[path.stem] = [float(stat.st_size),
                                      stat.st_mtime]
        return entries

    def _load_shard(self, shard: str) -> Dict[str, List[float]]:
        """One shard's ``{key: [size, atime]}`` map; call under the
        shard lock when the result feeds a write-back."""
        path = self._index_path(shard)
        try:
            document = read_json_checked(path)
            if document.get("format") == INDEX_FORMAT and isinstance(
                    document.get("entries"), dict):
                return {key: [float(value[0]), float(value[1])]
                        for key, value in document["entries"].items()}
        except (ArtifactCorruptError, OSError):
            pass
        return self._rebuild_shard(shard)

    def _store_shard(self, shard: str,
                     entries: Dict[str, List[float]]) -> None:
        try:
            write_json_atomic(self._index_path(shard),
                              {"format": INDEX_FORMAT,
                               "entries": entries})
        except OSError:
            # The index is an accelerator: a failed update leaves the
            # stale file in place and the next self-heal rebuilds it.
            self.stats.io_errors += 1

    def _update_shard(self, shard: str, *,
                      touch: Optional[Tuple[str, float]] = None,
                      drop: Optional[str] = None) -> None:
        """Apply one index mutation under the shard lock."""
        with self._shard_lock(shard):
            entries = self._load_shard(shard)
            if drop is not None:
                entries.pop(drop, None)
            if touch is not None:
                key, size = touch
                entries[key] = [size, time.time()]
            self._store_shard(shard, entries)

    def _shards(self) -> List[str]:
        return sorted(path.name for path
                      in (self.cache_dir / "objects").iterdir()
                      if path.is_dir())

    def _scan_index(self) -> Dict[str, Dict[str, List[float]]]:
        """Every shard's entries, self-healing as it reads."""
        return {shard: self._load_shard(shard)
                for shard in self._shards()}

    # -- fault hooks ----------------------------------------------------

    def _maybe_io_error(self, op: str, key: str) -> None:
        if self.fault_plan is not None:
            self.fault_plan.maybe_io_error(op, key)

    # -- store operations ----------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached entry for *key*, or None on a miss.

        A corrupt entry (checksum mismatch, truncation) is deleted and
        reported as a miss — the caller re-evaluates and overwrites it.
        An unreadable entry (IO error) is left in place and reported
        as a miss; enough consecutive IO errors open the ``cache``
        circuit breaker and reads degrade to unconditional misses
        (writes keep flowing, so the store still fills back up).  A
        hit refreshes the entry's recency in the shard index, feeding
        LRU eviction.
        """
        from repro.health.ladder import get_ladder

        ladder = get_ladder()
        if ladder.is_open("cache"):
            self.stats.misses += 1
            return None
        path = self._path(key)
        if not path.exists():
            self.stats.misses += 1
            self._deindex_phantom(key, path)
            return None
        try:
            self._maybe_io_error("cache_get", key)
            payload = read_json_checked(path)
        except ArtifactCorruptError:
            path.unlink(missing_ok=True)
            self._update_shard(key[:2], drop=key)
            self.stats.corrupt_discarded += 1
            self.stats.misses += 1
            return None
        except OSError as exc:
            self.stats.io_errors += 1
            self.stats.misses += 1
            ladder.note_failure("cache",
                                reason=f"read: {type(exc).__name__}")
            obs_events.emit("cache_io_error", level="warning",
                            msg=(f"cache read failed for "
                                 f"{key[:12]}...; treating as a miss "
                                 f"({exc})"),
                            op="get", key=key,
                            error=type(exc).__name__)
            return None
        ladder.note_success("cache")
        self.stats.hits += 1
        try:
            size = float(path.stat().st_size)
        except OSError:
            size = 0.0
        self._update_shard(key[:2], touch=(key, size))
        return payload

    def _deindex_phantom(self, key: str, path: Path) -> None:
        """A key the index remembers but no object file backs.

        A ``kill -9`` mid-``put`` (or mid-evict) can leave the shard
        index pointing at an entry that never landed, plus the dead
        writer's orphaned ``*.tmp``.  Dropping the phantom on the
        first read that notices keeps ``len()`` / ``total_bytes()`` /
        eviction honest instead of recounting the ghost forever.
        Orphan tmps are swept only when their writer pid is dead — a
        live writer's in-flight tmp must survive its ``os.replace``.
        """
        shard = key[:2]
        indexed = key in self._load_shard(shard)
        orphans = (list(path.parent.glob(path.name + ".*.tmp"))
                   if path.parent.is_dir() else [])
        if not indexed and not orphans:
            return
        for orphan in orphans:
            # <key>.json.<pid>.<serial>.tmp
            parts = orphan.name.split(".")
            try:
                pid = int(parts[-3])
            except (IndexError, ValueError):
                pid = None
            if pid is not None:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    pass  # dead owner: debris
                else:
                    continue  # writer still alive (or not ours)
            orphan.unlink(missing_ok=True)
        if indexed:
            self._update_shard(shard, drop=key)
            obs_events.emit(
                "cache_phantom_dropped", level="debug",
                msg=(f"de-indexed phantom cache entry {key[:12]}... "
                     f"(object never landed; writer died mid-put)"),
                key=key, orphans=len(orphans))

    def put(self, key: str, metrics: Dict[str, float],
            meta: Optional[Dict[str, Any]] = None) -> Optional[Path]:
        """Store one evaluation's *metrics* (plus provenance *meta*).

        Returns the entry path, or None when the write failed with an
        IO error — the result is simply not cached; the caller already
        holds the metrics.
        """
        path = self._path(key)
        payload: Dict[str, Any] = {"metrics": dict(metrics)}
        if meta:
            payload["meta"] = dict(meta)
        try:
            self._maybe_io_error("cache_put", key)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_json_atomic(path, payload)
        except OSError as exc:
            self.stats.io_errors += 1
            from repro.health.ladder import get_ladder

            get_ladder().note_failure(
                "cache", reason=f"write: {type(exc).__name__}")
            obs_events.emit("cache_io_error", level="warning",
                            msg=(f"cache write failed for "
                                 f"{key[:12]}...; result not cached "
                                 f"({exc})"),
                            op="put", key=key,
                            error=type(exc).__name__)
            return None
        self.stats.writes += 1
        try:
            size = float(path.stat().st_size)
        except OSError:
            size = 0.0
        self._update_shard(key[:2], touch=(key, size))
        obs_events.emit("cache_write", level="debug", key=key,
                        bytes=int(size))
        if self.fault_plan is not None:
            self.fault_plan.maybe_corrupt_artifact(path)
        self._maybe_evict()
        return path

    # -- size accounting and eviction -----------------------------------

    def __len__(self) -> int:
        """Entry count from the maintained indexes — O(shards), not
        O(entries)."""
        return sum(len(entries)
                   for entries in self._scan_index().values())

    def total_bytes(self) -> int:
        """Aggregate payload size from the maintained indexes."""
        return int(sum(value[0]
                       for entries in self._scan_index().values()
                       for value in entries.values()))

    def rebuild_index(self) -> Tuple[int, int]:
        """Force-rebuild every shard index from the object files;
        returns ``(entries, bytes)``.  The recovery tool for an index
        that drifted (e.g. files removed behind the cache's back)."""
        count = size = 0
        for shard in self._shards():
            with self._shard_lock(shard):
                entries = self._rebuild_shard(shard)
                self._store_shard(shard, entries)
            count += len(entries)
            size += int(sum(value[0] for value in entries.values()))
        return count, size

    def _maybe_evict(self) -> None:
        if self.max_entries is None and self.max_bytes is None:
            return
        index = self._scan_index()
        count = sum(len(entries) for entries in index.values())
        size = sum(value[0] for entries in index.values()
                   for value in entries.values())
        over_count = (self.max_entries is not None
                      and count > self.max_entries)
        over_size = (self.max_bytes is not None
                     and size > self.max_bytes)
        if not over_count and not over_size:
            return
        # Oldest-first across all shards; evict until back under both
        # bounds.  Each eviction re-checks under the shard lock, so
        # two processes evicting concurrently cannot double-count.
        victims = sorted(
            ((value[1], shard, key, value[0])
             for shard, entries in index.items()
             for key, value in entries.items()),
            key=lambda item: item[0])
        evicted = 0
        for _, shard, key, entry_size in victims:
            if not ((self.max_entries is not None
                     and count > self.max_entries)
                    or (self.max_bytes is not None
                        and size > self.max_bytes)):
                break
            with self._shard_lock(shard):
                entries = self._load_shard(shard)
                if key not in entries:
                    continue  # another process got there first
                del entries[key]
                self._path(key).unlink(missing_ok=True)
                self._store_shard(shard, entries)
            count -= 1
            size -= entry_size
            evicted += 1
            self.stats.evictions += 1
        if evicted:
            obs_events.emit("cache_evict", level="debug",
                            msg=(f"evicted {evicted} LRU cache "
                                 f"entr(ies) to stay within bounds"),
                            evicted=evicted, entries=count,
                            bytes=int(size))
