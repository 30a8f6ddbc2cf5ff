"""The degradation ladder: one explicit rung table per dependency.

Before this module the codebase already degraded gracefully — the
columnar path fell back to the scalar generator, a barren pool fell
back to serial, a flaky cache read counted as a miss — but each
fallback was an ad-hoc ``except`` clause that left no trace.  The ladder makes every one of
those transitions *explicit* and *observable*: a per-dependency circuit
breaker holds the current rung, every rung change is emitted as a
``health.rung_change`` event plus ``health.rung.<dependency>`` gauge,
and the daemon's ``health`` verb (surfaced in ``repro top``) renders
the whole table.

Breakers are **process-local**: a pool worker that trips its vector
breaker degrades its own evaluations without a cross-process consensus
protocol.  That is the correct scope — the conditions that trip a rung
(RSS pressure, drifting draws) are properties of one process.

The rung table (primary → degraded):

==========  ============  ============  ====================================
dependency  primary       degraded      tripped by
==========  ============  ============  ====================================
vector      vector        scalar        statistical canary drift, soft RSS
pool        parallel      serial        pool rebuild budget exhausted
cache       read-write    read-bypass   consecutive cache IO failures
==========  ============  ============  ====================================
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.obs import events
from repro.obs.metrics import get_registry

#: dependency -> (primary rung, degraded rung).
RUNGS: Dict[str, tuple] = {
    "vector": ("vector", "scalar"),
    "pool": ("parallel", "serial"),
    "cache": ("read-write", "read-bypass"),
}

#: Consecutive failures a counted breaker absorbs before opening.
#: ``trip()`` bypasses the count (one strike) — used for conditions
#: that are definitive on first sight (canary drift, soft RSS);
#: ``note_failure()`` honors it — used for conditions that are only
#: meaningful as a streak (cache IO flakes).
DEFAULT_THRESHOLD = 5


class CircuitBreaker:
    """One dependency's breaker: closed = primary rung, open =
    degraded rung.  ``note_success`` resets the failure streak but
    never closes an open breaker — rungs only move down within one
    process lifetime, so a sweep's results stay internally
    consistent."""

    def __init__(self, dependency: str,
                 threshold: int = DEFAULT_THRESHOLD) -> None:
        self.dependency = dependency
        self.threshold = threshold
        self.failures = 0
        self.open = False
        self.reason = ""

    @property
    def rung(self) -> str:
        primary, degraded = RUNGS[self.dependency]
        return degraded if self.open else primary

    def snapshot(self) -> Dict[str, object]:
        primary, degraded = RUNGS[self.dependency]
        return {
            "rung": self.rung,
            "degraded": self.open,
            "primary": primary,
            "failures": self.failures,
            "reason": self.reason,
        }


class DegradationLadder:
    """All breakers of one process, behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._breakers = {name: CircuitBreaker(name) for name in RUNGS}

    def _open(self, breaker: CircuitBreaker, reason: str) -> None:
        # Caller holds the lock.
        primary, degraded = RUNGS[breaker.dependency]
        breaker.open = True
        breaker.reason = reason
        registry = get_registry()
        registry.counter("health.breaker_trips").inc()
        registry.counter("health.rung_changes").inc()
        registry.gauge(f"health.rung.{breaker.dependency}").set(1)
        events.emit(
            "health.breaker_trip", level="warning",
            msg=f"{breaker.dependency} breaker open: {reason}",
            dependency=breaker.dependency, reason=reason,
            failures=breaker.failures)
        events.emit(
            "health.rung_change", level="warning",
            msg=f"{breaker.dependency}: {primary} -> {degraded} "
                f"({reason})",
            dependency=breaker.dependency, rung_from=primary,
            rung_to=degraded, reason=reason)

    def trip(self, dependency: str, reason: str = "") -> bool:
        """Open *dependency*'s breaker immediately (one strike).
        Returns True when this call changed the rung."""
        with self._lock:
            breaker = self._breakers[dependency]
            if breaker.open:
                return False
            breaker.failures += 1
            self._open(breaker, reason)
            return True

    def note_failure(self, dependency: str, reason: str = "") -> bool:
        """Record one failure against a counted breaker; opens it once
        the consecutive-failure streak reaches the threshold.  Returns
        True when this call opened the breaker."""
        with self._lock:
            breaker = self._breakers[dependency]
            if breaker.open:
                return False
            breaker.failures += 1
            if breaker.failures < breaker.threshold:
                return False
            self._open(breaker, reason)
            return True

    def note_success(self, dependency: str) -> None:
        """A primary-rung operation succeeded: reset the streak."""
        with self._lock:
            breaker = self._breakers[dependency]
            if not breaker.open:
                breaker.failures = 0

    def is_open(self, dependency: str) -> bool:
        with self._lock:
            return self._breakers[dependency].open

    def rung(self, dependency: str) -> str:
        with self._lock:
            return self._breakers[dependency].rung

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready rung table (the ``health`` verb's payload)."""
        with self._lock:
            return {name: breaker.snapshot()
                    for name, breaker in sorted(self._breakers.items())}


_LADDER: Optional[DegradationLadder] = None
_LADDER_LOCK = threading.Lock()


def get_ladder() -> DegradationLadder:
    """The process-wide ladder (created on first use)."""
    global _LADDER
    with _LADDER_LOCK:
        if _LADDER is None:
            _LADDER = DegradationLadder()
        return _LADDER


def reset_ladder() -> None:
    """Drop the process ladder (tests; a fresh pool worker starts
    fresh anyway because it is a fresh process)."""
    global _LADDER
    with _LADDER_LOCK:
        _LADDER = None


__all__ = [
    "RUNGS", "DEFAULT_THRESHOLD", "CircuitBreaker", "DegradationLadder",
    "get_ladder", "reset_ladder",
]
