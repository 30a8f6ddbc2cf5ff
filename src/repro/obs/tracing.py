"""Phase tracing: nested wall-clock spans over the pipeline's phases.

``with trace_span("profile", bench="gzip"):`` wraps one phase of the
Figure 1 pipeline (profile → reduce → synthesize → simulate); on exit
the span's elapsed time lands in the metrics registry as the
``phase.<name>`` timing histogram and a ``span_end`` event goes to the
structured log.  Spans nest (a ``reduce`` span inside ``synthesize``);
the innermost active span contributes its phase/bench/seed fields to
every event emitted inside it, so a ``unit_retry`` event knows which
phase it interrupted without every call site threading context.

Every span carries a 64-bit hex ``span_id``, and — when fleet
telemetry is active (:mod:`repro.obs.telemetry`) — a ``trace_id``
shared across processes plus a ``parent_id`` linking it into the
cross-process tree.  The parent is the innermost active span of this
thread if any, else the process's adopted
:class:`~repro.obs.telemetry.TraceContext` parent, so a worker span's
chain resolves back through the pool-init handoff to the CLI span
that caused it.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import events, telemetry
from repro.obs.metrics import (
    PHASE_PREFIX,
    MetricsRegistry,
    get_registry,
)

_LOCAL = threading.local()


def new_span_id() -> str:
    """A fresh 64-bit hex span id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One active (or finished) phase span."""

    __slots__ = ("phase", "fields", "started", "elapsed", "depth",
                 "span_id", "trace_id", "parent_id", "wall_started")

    def __init__(self, phase: str, fields: Dict[str, Any],
                 depth: int, trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None) -> None:
        self.phase = phase
        self.fields = fields
        self.depth = depth
        self.span_id = new_span_id()
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.started = time.monotonic()
        self.wall_started = time.time()
        self.elapsed: Optional[float] = None


def _stack() -> List[Span]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def current_span() -> Optional[Span]:
    """The innermost active span of this thread, or None."""
    stack = _stack()
    return stack[-1] if stack else None


def current_span_id() -> Optional[str]:
    """The innermost active span's id (for context propagation)."""
    span = current_span()
    return span.span_id if span else None


def _span_context() -> Dict[str, Any]:
    """Ambient event fields from the active span (registered with the
    event log at import time)."""
    span = current_span()
    if span is None:
        return {}
    context: Dict[str, Any] = {"phase": span.phase}
    if span.trace_id is not None:
        context["trace"] = span.trace_id
        context["span"] = span.span_id
    for key in ("bench", "seed"):
        if key in span.fields:
            context[key] = span.fields[key]
    return context


events.register_context_provider(_span_context)


@contextmanager
def trace_span(phase: str,
               registry: Optional[MetricsRegistry] = None,
               **fields: Any) -> Iterator[Span]:
    """Time one pipeline phase; record it as histogram + events.

    Timing uses the monotonic clock, so spans are immune to wall-clock
    adjustments; a child span's elapsed time can never exceed its
    parent's.
    """
    parent = current_span()
    if parent is not None:
        trace_id = parent.trace_id
        parent_id = parent.span_id
    else:
        context = telemetry.current_context()
        trace_id = context.trace_id if context else None
        parent_id = context.parent_span_id if context else None
    span = Span(phase, fields, depth=len(_stack()),
                trace_id=trace_id, parent_id=parent_id)
    _stack().append(span)
    events.emit("span_start", level="debug", depth=span.depth, **fields)
    try:
        yield span
    finally:
        span.elapsed = time.monotonic() - span.started
        try:
            # Emitted while the span is still on the stack, so the
            # event self-identifies: its ``phase`` field is this span's.
            events.emit("span_end", level="debug", depth=span.depth,
                        elapsed=round(span.elapsed, 6), **fields)
        finally:
            stack = _stack()
            if stack and stack[-1] is span:
                stack.pop()
            (registry or get_registry()).histogram(
                PHASE_PREFIX + phase).observe(span.elapsed)
            if span.trace_id is not None:
                try:
                    telemetry.record_span(span)
                except Exception:  # never let telemetry sink a phase
                    pass


def phase_breakdown(registry: Optional[MetricsRegistry] = None
                    ) -> Dict[str, Dict[str, Any]]:
    """Per-phase wall-clock summary: ``{phase: {count, total, ...}}``."""
    return (registry or get_registry()).snapshot()["phases"]
