"""End-to-end health budgets: deadlines, RSS guardrails, heartbeats.

One :class:`HealthPolicy` travels the whole stack — CLI flag or
``REPRO_HEALTH`` environment spec → :class:`~repro.dse.engine.
SweepEngine` → pool-worker initargs — and one :class:`Budget` per
process enforces it from *cooperative checkpoints* planted inside the
hot loops (the superscalar pipeline's timing loop, both synthesis
walks).  A checkpoint is a single integer comparison in the loop plus,
every so often, three cheap checks:

* **deadline** — wall clock past the absolute budget raises
  :class:`~repro.errors.DeadlineExceededError` *inside* the
  simulation, so an over-budget point stops within milliseconds
  instead of at the next pool barrier;
* **heartbeat** — progress (cycles or instructions committed) is
  written into the worker's lease file, which the
  :class:`~repro.dse.supervisor.PoolSupervisor` polls: a live-but-hung
  worker whose beat goes stale is killed and attributed exactly like a
  crashed one;
* **RSS** — ``/proc/self/status`` VmRSS against two ceilings: the soft
  ceiling trips the vector rung of the degradation ladder (drop the
  big allocations, keep the sweep alive), the hard ceiling
  dumps the flight recorder and raises
  :class:`~repro.errors.MemoryBudgetError` — a clean structured
  failure instead of an OOM-killer lottery.

The spec grammar mirrors ``REPRO_CHAOS``::

    REPRO_HEALTH="deadline=120;soft-rss=512;hard-rss=1024;hang-timeout=10"

Keys: ``deadline`` (seconds), ``soft-rss`` / ``hard-rss`` (MB),
``hang-timeout`` (seconds; 0 disables the watchdog), ``poll-interval``
(supervisor watchdog poll, seconds), ``canary`` (run the vector
statistical canary every Nth vector evaluation; 0 = off) and
``canary-force`` (1 = treat every canary as failed — the forced-drift
test hook).
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.errors import (
    DeadlineExceededError,
    HealthSpecError,
    MemoryBudgetError,
)
from repro.obs import events
from repro.obs.metrics import get_registry

#: Minimum wall-clock gap between two heartbeat writes (seconds); the
#: checkpoints fire far more often than this, the throttle keeps the
#: lease-file traffic negligible.
BEAT_INTERVAL = 0.2

#: Minimum wall-clock gap between two /proc/self/status reads.
RSS_INTERVAL = 0.5


@dataclass(frozen=True)
class HealthPolicy:
    """The containment budget one run operates under.

    ``deadline`` is *relative* seconds here; the engine pins it to an
    absolute wall-clock instant when the sweep starts so every worker
    races the same clock.
    """

    deadline: Optional[float] = None
    soft_rss_mb: Optional[float] = None
    hard_rss_mb: Optional[float] = None
    hang_timeout: float = 30.0
    poll_interval: float = 0.5
    canary_interval: int = 0
    canary_force: bool = False

    def __post_init__(self) -> None:
        for name in ("deadline", "soft_rss_mb", "hard_rss_mb"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise HealthSpecError(
                    f"{name} must be positive, got {value}")
        if self.hang_timeout < 0:
            raise HealthSpecError(
                f"hang_timeout must be >= 0, got {self.hang_timeout}")
        if self.poll_interval <= 0:
            raise HealthSpecError(
                f"poll_interval must be positive, "
                f"got {self.poll_interval}")
        if self.canary_interval < 0:
            raise HealthSpecError(
                f"canary interval must be >= 0, "
                f"got {self.canary_interval}")
        if (self.soft_rss_mb is not None and self.hard_rss_mb is not None
                and self.hard_rss_mb < self.soft_rss_mb):
            raise HealthSpecError(
                f"hard-rss ({self.hard_rss_mb}) must be >= soft-rss "
                f"({self.soft_rss_mb})")

    # -- spec / payload round-trips -----------------------------------

    @classmethod
    def parse(cls, spec: str) -> "HealthPolicy":
        """Parse a ``REPRO_HEALTH``-style spec string."""
        kwargs: Dict[str, Any] = {}
        for segment in spec.split(";"):
            segment = segment.strip()
            if not segment:
                continue
            if "=" not in segment:
                raise HealthSpecError(
                    f"health spec segment {segment!r} is not key=value")
            key, _, raw = segment.partition("=")
            key = key.strip()
            raw = raw.strip()
            try:
                if key == "deadline":
                    kwargs["deadline"] = float(raw)
                elif key == "soft-rss":
                    kwargs["soft_rss_mb"] = float(raw)
                elif key == "hard-rss":
                    kwargs["hard_rss_mb"] = float(raw)
                elif key == "hang-timeout":
                    kwargs["hang_timeout"] = float(raw)
                elif key == "poll-interval":
                    kwargs["poll_interval"] = float(raw)
                elif key == "canary":
                    kwargs["canary_interval"] = int(raw)
                elif key == "canary-force":
                    kwargs["canary_force"] = raw not in ("0", "false", "")
                else:
                    raise HealthSpecError(
                        f"unknown health spec key {key!r}")
            except ValueError as exc:
                raise HealthSpecError(
                    f"bad value for health key {key!r}: {raw!r}"
                ) from exc
        return cls(**kwargs)

    @classmethod
    def from_env(cls) -> "HealthPolicy":
        spec = os.environ.get("REPRO_HEALTH", "")
        return cls.parse(spec) if spec else cls()

    def with_deadline(self,
                      deadline: Optional[float]) -> "HealthPolicy":
        """This policy with the deadline replaced (CLI flag wins over
        the environment spec)."""
        if deadline is None:
            return self
        return replace(self, deadline=deadline)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "deadline": self.deadline,
            "soft_rss_mb": self.soft_rss_mb,
            "hard_rss_mb": self.hard_rss_mb,
            "hang_timeout": self.hang_timeout,
            "poll_interval": self.poll_interval,
            "canary_interval": self.canary_interval,
            "canary_force": self.canary_force,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "HealthPolicy":
        return cls(**payload)


def rss_mb() -> Optional[float]:
    """Resident set size in MB from ``/proc/self/status``, or None on
    platforms without procfs (the guardrail degrades to inactive)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, IndexError, ValueError):
        return None
    return None


class Budget:
    """One process's live enforcement state for a policy."""

    def __init__(self, policy: HealthPolicy,
                 deadline_at: Optional[float] = None) -> None:
        self.policy = policy
        self.deadline_at = deadline_at
        self._lease_dir: Optional[str] = None
        self._task_id: Optional[str] = None
        self._dispatch = 1
        self._last_beat = 0.0
        self._last_rss = 0.0
        self._soft_tripped = False

    # -- heartbeat target ---------------------------------------------

    def begin_task(self, lease_dir: Optional[str], task_id: str,
                   dispatch: int = 1) -> None:
        """Point subsequent heartbeats at *task_id*'s lease file."""
        self._task_id = task_id
        self._dispatch = dispatch
        self._lease_dir = lease_dir or None
        self._last_beat = 0.0

    def end_task(self) -> None:
        self._task_id = None
        self._lease_dir = None

    def _write_beat(self, progress: int) -> None:
        if self._lease_dir is None:
            return
        from repro.runner.lease import write_lease

        try:
            write_lease(self._lease_dir, self._task_id, self._dispatch,
                        progress=progress)
        except OSError:
            pass  # a lost beat is at worst a late watchdog kill

    # -- the checkpoint -----------------------------------------------

    def expired(self) -> bool:
        return (self.deadline_at is not None
                and time.time() > self.deadline_at)

    def checkpoint(self, progress: int = 0) -> None:
        """The cooperative cancel point the hot loops call.

        Order matters: the heartbeat is written *before* the deadline
        check so a point that dies on the deadline still leaves a
        fresh beat (the supervisor must attribute it to the deadline,
        not to a hang).
        """
        now = time.time()
        if now - self._last_beat >= BEAT_INTERVAL:
            self._last_beat = now
            self._write_beat(progress)
        if self.deadline_at is not None and now > self.deadline_at:
            get_registry().counter("health.deadlines_exceeded").inc()
            events.emit(
                "health.deadline_exceeded", level="warning",
                msg=f"deadline exceeded "
                    f"({now - self.deadline_at:.1f}s over) "
                    f"in {self._task_id or 'serial run'}",
                task=self._task_id, over_by=round(now - self.deadline_at, 3))
            raise DeadlineExceededError(
                f"health deadline exceeded "
                f"({now - self.deadline_at:.1f}s past budget)")
        policy = self.policy
        if ((policy.soft_rss_mb is not None
             or policy.hard_rss_mb is not None)
                and now - self._last_rss >= RSS_INTERVAL):
            self._last_rss = now
            self._check_rss()

    def _check_rss(self) -> None:
        current = rss_mb()
        if current is None:
            return
        policy = self.policy
        if (policy.hard_rss_mb is not None
                and current >= policy.hard_rss_mb):
            get_registry().counter("health.rss_hard_breaches").inc()
            events.emit(
                "health.rss_hard", level="error",
                msg=f"RSS {current:.0f} MB >= hard ceiling "
                    f"{policy.hard_rss_mb:.0f} MB; failing point cleanly",
                rss_mb=round(current, 1),
                ceiling_mb=policy.hard_rss_mb, task=self._task_id)
            try:
                from repro.obs import flightrec

                flightrec.dump("rss-hard-ceiling",
                               rss_mb=round(current, 1),
                               ceiling_mb=policy.hard_rss_mb,
                               task=self._task_id)
            except Exception:
                pass
            raise MemoryBudgetError(
                f"RSS {current:.0f} MB crossed the hard ceiling "
                f"{policy.hard_rss_mb:.0f} MB")
        if (policy.soft_rss_mb is not None
                and current >= policy.soft_rss_mb
                and not self._soft_tripped):
            self._soft_tripped = True
            get_registry().counter("health.rss_soft_breaches").inc()
            events.emit(
                "health.rss_soft", level="warning",
                msg=f"RSS {current:.0f} MB >= soft ceiling "
                    f"{policy.soft_rss_mb:.0f} MB; degrading to the "
                    f"scalar rung",
                rss_mb=round(current, 1),
                ceiling_mb=policy.soft_rss_mb, task=self._task_id)
            from repro.health.ladder import get_ladder

            # The columnar path holds the largest per-point
            # allocations; the scalar rung routes evaluations through
            # the scalar generator.
            get_ladder().trip("vector", reason="soft RSS ceiling")
            gc.collect()


#: The process's installed budget; checkpoints are no-ops without one.
_ACTIVE: Optional[Budget] = None


def install_budget(budget: Optional[Budget]) -> None:
    global _ACTIVE
    _ACTIVE = budget


def active_budget() -> Optional[Budget]:
    return _ACTIVE


def checkpoint(progress: int = 0) -> None:
    """Module-level cancel point (what the hot loops import).  A
    single None check when no budget is installed."""
    if _ACTIVE is not None:
        _ACTIVE.checkpoint(progress)


def check_expired() -> None:
    """Fail fast before starting new work when the deadline already
    passed (cheaper than waiting for the first in-loop checkpoint)."""
    if _ACTIVE is not None and _ACTIVE.expired():
        _ACTIVE.checkpoint()  # raises with the full event/counter path


__all__ = [
    "BEAT_INTERVAL", "RSS_INTERVAL", "HealthPolicy", "Budget",
    "rss_mb", "install_budget", "active_budget", "checkpoint",
    "check_expired",
]
