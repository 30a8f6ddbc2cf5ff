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
Entry files are named by their content address and written atomically
with an embedded SHA-256 checksum (reusing
:mod:`repro.runner.checkpoint`'s scheme), so concurrent writers need
no lock and a killed sweep can never leave a half-written entry: a
truncated or bit-flipped file raises
:class:`~repro.errors.ArtifactCorruptError` at read time, is
discarded, and the point is simply re-evaluated.

Layout::

    <cache_dir>/
        objects/<key[:2]>/<key>.json    # one evaluation result each
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ArtifactCorruptError
from repro.obs import events as obs_events
from repro.runner.checkpoint import read_json_checked, write_json_atomic
from repro.dse.space import canonical_json

#: Sentinel: "no explicit plan given, consult the environment".
_ENV_PLAN = object()

#: Bump when the cached payload schema changes; part of the key, so a
#: schema change is an automatic cold cache rather than a misread.
CACHE_FORMAT = 1


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
    """

    cache_dir: Union[str, Path]
    fault_plan: Any = _ENV_PLAN
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.fault_plan is _ENV_PLAN:
            from repro.faults import plan_from_env

            self.fault_plan = plan_from_env()
        self.cache_dir = Path(self.cache_dir)
        (self.cache_dir / "objects").mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.cache_dir / "objects" / key[:2] / (key + ".json")

    def _maybe_io_error(self, op: str, key: str) -> None:
        if self.fault_plan is not None:
            self.fault_plan.maybe_io_error(op, key)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached entry for *key*, or None on a miss.

        A corrupt entry (checksum mismatch, truncation) is deleted and
        reported as a miss — the caller re-evaluates and overwrites it.
        An unreadable entry (IO error) is left in place and reported
        as a miss; enough consecutive IO errors open the ``cache``
        circuit breaker and reads degrade to unconditional misses
        (writes keep flowing, so the store still fills back up).
        """
        from repro.health.ladder import get_ladder

        ladder = get_ladder()
        if ladder.is_open("cache"):
            self.stats.misses += 1
            return None
        path = self._path(key)
        if not path.exists():
            self.stats.misses += 1
            _sweep_dead_tmps(path)
            return None
        try:
            self._maybe_io_error("cache_get", key)
            payload = read_json_checked(path)
        except ArtifactCorruptError:
            path.unlink(missing_ok=True)
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
        return payload

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
        obs_events.emit("cache_write", level="debug", key=key)
        if self.fault_plan is not None:
            self.fault_plan.maybe_corrupt_artifact(path)
        return path


def _sweep_dead_tmps(path: Path) -> None:
    """Delete the orphaned ``*.tmp`` files of writers that died
    mid-``put`` of *path* (a ``kill -9`` before the atomic rename).

    A tmp is swept only when its writer pid is dead — a live writer's
    in-flight tmp must survive its ``os.replace``.  A pid we may not
    signal (``PermissionError``: another user's process, as on a
    shared cache directory) is alive.
    """
    if not path.parent.is_dir():
        return
    for orphan in path.parent.glob(path.name + ".*.tmp"):
        # <key>.json.<pid>.<serial>.tmp
        try:
            pid = int(orphan.name.split(".")[-3])
        except (IndexError, ValueError):
            pid = None
        if pid is not None:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                pass  # dead owner: debris
            except PermissionError:
                continue  # alive, owned by another user
            else:
                continue  # writer still alive
        orphan.unlink(missing_ok=True)
