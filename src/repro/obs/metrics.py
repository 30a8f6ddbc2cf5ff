"""Metrics registry: counters, gauges and timing histograms.

Pipeline, profiler, branch units, caches, the fault-tolerant runner and
the design-space engine all register into one process-wide
:class:`MetricsRegistry`; a run snapshots it into ``metrics.json``
alongside checkpoints and BENCH files, so "where did the time go / how
many retries / what was the RUU occupancy" is answerable after the fact
without re-running anything.

The snapshot round-trips: :meth:`MetricsRegistry.from_payload` restores
a registry whose :meth:`~MetricsRegistry.snapshot` equals the original
(the property the regression tests pin down).
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs import events

#: Bump when the metrics.json layout changes incompatibly.
SNAPSHOT_SCHEMA = 1

#: Histogram names with this prefix are per-phase wall-clock spans
#: (written by :func:`repro.obs.tracing.trace_span`).
PHASE_PREFIX = "phase."


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time float (last write wins)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = float(value)


#: Bucket index assigned to observations <= 0 (below every power of
#: two representable as a float; 2**-1075 rounds to the smallest
#: subnormal, so no real observation sorts under it).
_ZERO_BUCKET = -1075

#: Largest exponent we exponentiate when turning a bucket index back
#: into an upper bound (2.0**1024 overflows).
_MAX_EXPONENT = 1023


class TimingHistogram:
    """Streaming summary of observed durations (or any float).

    Besides count/total/min/max, observations land in log2-spaced
    buckets (index ``ceil(log2(value))``, i.e. the bucket upper bound
    is the next power of two), which is enough resolution to report
    p50/p95/p99 tail latency without storing samples and makes
    histograms mergeable across processes.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self, count: int = 0, total: float = 0.0,
                 minimum: Optional[float] = None,
                 maximum: Optional[float] = None,
                 buckets: Optional[Dict[int, int]] = None) -> None:
        self.count = count
        self.total = total
        self.min = minimum
        self.max = maximum
        self.buckets: Dict[int, int] = dict(buckets or {})

    @staticmethod
    def _bucket_index(value: float) -> int:
        if value <= 0.0:
            return _ZERO_BUCKET
        return max(_ZERO_BUCKET, math.ceil(math.log2(value)))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        index = self._bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> Optional[float]:
        """Upper bound of the bucket holding the q-th observation.

        ``None`` when no bucketed observations exist (empty histogram,
        or one restored from a pre-bucket payload).  The bound is
        clamped to the exact [min, max] envelope so degenerate
        distributions report exact values.
        """
        if not self.buckets:
            return None
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        bucketed = sum(self.buckets.values())
        rank = max(1, math.ceil(quantile * bucketed))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                if index == _ZERO_BUCKET:
                    bound = 0.0
                else:
                    bound = 2.0 ** min(index, _MAX_EXPONENT)
                if self.min is not None:
                    bound = max(bound, self.min)
                if self.max is not None:
                    bound = min(bound, self.max)
                return bound
        return self.max  # pragma: no cover - rank <= bucketed

    def merge(self, other: "TimingHistogram") -> "TimingHistogram":
        """Fold *other*'s observations into this histogram (in place)."""
        self.count += other.count
        self.total += other.total
        for bound, current in (("min", min), ("max", max)):
            theirs = getattr(other, bound)
            if theirs is not None:
                ours = getattr(self, bound)
                setattr(self, bound,
                        theirs if ours is None else current(ours, theirs))
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        return self

    def to_payload(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": {str(index): n
                        for index, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TimingHistogram":
        return cls(count=int(payload.get("count", 0)),
                   total=float(payload.get("total", 0.0)),
                   minimum=payload.get("min"),
                   maximum=payload.get("max"),
                   buckets={int(index): int(n)
                            for index, n
                            in payload.get("buckets", {}).items()})


class MetricsRegistry:
    """Named counters, gauges and histograms behind one lock.

    Names are dot-separated (``runner.retries``,
    ``pipeline.ruu_occupancy``, ``phase.simulate``); the catalog lives
    in ``docs/observability.md``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, TimingHistogram] = {}

    # -- accessors (get-or-create) -------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> TimingHistogram:
        with self._lock:
            return self._histograms.setdefault(name, TimingHistogram())

    # -- snapshot / restore --------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The full state as a JSON-serializable document.

        ``phases`` is a derived convenience view of the ``phase.*``
        histograms keyed by bare phase name — the per-run wall-clock
        breakdown the BENCH files embed.
        """
        with self._lock:
            counters = {name: c.value
                        for name, c in sorted(self._counters.items())}
            gauges = {name: g.value
                      for name, g in sorted(self._gauges.items())}
            histograms = {name: h.to_payload()
                          for name, h in sorted(self._histograms.items())}
        phases = {name[len(PHASE_PREFIX):]: payload
                  for name, payload in histograms.items()
                  if name.startswith(PHASE_PREFIX)}
        return {
            "schema": SNAPSHOT_SCHEMA,
            "run": events.run_id(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "phases": phases,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` document."""
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            registry._counters[name] = Counter(int(value))
        for name, value in payload.get("gauges", {}).items():
            registry._gauges[name] = Gauge(float(value))
        for name, hist in payload.get("histograms", {}).items():
            registry._histograms[name] = \
                TimingHistogram.from_payload(hist)
        return registry

    def write(self, path: Union[str, Path]) -> Path:
        """Write the snapshot to *path* atomically."""
        from repro.runner.checkpoint import write_text_atomic

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_text_atomic(path, json.dumps(self.snapshot(), indent=2,
                                           sort_keys=True) + "\n")
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "MetricsRegistry":
        return cls.from_payload(json.loads(Path(path).read_text()))


_REGISTRY = MetricsRegistry()
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (returns the previous one)."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        previous, _REGISTRY = _REGISTRY, registry
    return previous


def reset_registry() -> MetricsRegistry:
    """Install a fresh default registry (tests; start of a CLI run)."""
    return set_registry(MetricsRegistry())


def record_simulation(result: Any,
                      registry: Optional[MetricsRegistry] = None) -> None:
    """Publish one pipeline run's occupancies and activity.

    Duck-typed over :class:`repro.cpu.results.SimulationResult` so the
    obs layer never imports the cpu layer.  Gauges hold the most recent
    run's occupancies; counters accumulate cycles, instructions and
    per-unit activity across runs.
    """
    registry = registry or get_registry()
    registry.counter("pipeline.runs").inc()
    registry.counter("pipeline.cycles").inc(int(result.cycles))
    registry.counter("pipeline.instructions").inc(
        int(result.instructions))
    registry.counter("pipeline.squashed_instructions").inc(
        int(getattr(result, "squashed_instructions", 0)))
    registry.counter("pipeline.branch_mispredictions").inc(
        int(getattr(result, "branch_mispredictions", 0)))
    registry.gauge("pipeline.ipc").set(result.ipc)
    registry.gauge("pipeline.ruu_occupancy").set(
        result.avg_ruu_occupancy)
    registry.gauge("pipeline.lsq_occupancy").set(
        result.avg_lsq_occupancy)
    registry.gauge("pipeline.ifq_occupancy").set(
        result.avg_ifq_occupancy)
    for unit, count in getattr(result, "activity", {}).items():
        registry.counter(f"pipeline.activity.{unit}").inc(int(count))
