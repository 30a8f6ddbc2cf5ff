"""Fleet telemetry: one trace identity across every repro process.

A sweep is a fleet — CLI, supervisor, N pool workers — and each
process has its own event log and metrics registry.  This module gives
them a shared identity:

* A :class:`TraceContext` (``trace_id`` + the parent span to hang
  child spans off) is minted once at the CLI entry point and shipped
  to workers through pool-init args (:func:`propagation_payload` /
  :func:`adopt`).
* While a context is active, every span finished by
  :func:`repro.obs.tracing.trace_span` is appended to a per-process
  ``trace-<pid>.jsonl`` file in the trace directory; ``repro trace
  <run-dir>`` stitches those files into one tree
  (:mod:`repro.obs.traceview`).
* The process's :class:`~repro.obs.metrics.MetricsRegistry` is
  periodically snapshotted to ``metrics-<pid>.json`` in the same
  directory, so cross-process aggregation
  (:func:`repro.obs.exposition.aggregate_run_dir`, ``repro trace
  --openmetrics``) can see worker-side counters without any IPC.

Everything degrades to a no-op when no context is active: processes
that never call :func:`start` or :func:`adopt` emit exactly the same
events and metrics as before this module existed.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs import events
from repro.obs.metrics import get_registry

#: Bump when trace-<pid>.jsonl records change incompatibly.
TRACE_SCHEMA = 1

#: Seconds between opportunistic metrics-<pid>.json flushes.
METRICS_FLUSH_INTERVAL = 1.0


def new_trace_id() -> str:
    """A fresh 128-bit hex trace id."""
    return uuid.uuid4().hex


class TraceContext:
    """The propagated identity: which trace, and which span to parent to."""

    __slots__ = ("trace_id", "parent_span_id")

    def __init__(self, trace_id: Optional[str] = None,
                 parent_span_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.parent_span_id = parent_span_id

    def child(self, parent_span_id: Optional[str]) -> "TraceContext":
        return TraceContext(self.trace_id, parent_span_id)

    def to_wire(self) -> Dict[str, Any]:
        """Compact dict shipped through pool initargs."""
        return {"trace": self.trace_id, "parent": self.parent_span_id}

    @classmethod
    def from_wire(cls, payload: Optional[Dict[str, Any]]
                  ) -> Optional["TraceContext"]:
        if not isinstance(payload, dict) or not payload.get("trace"):
            return None
        return cls(str(payload["trace"]),
                   payload.get("parent") and str(payload["parent"]))


class _State:
    __slots__ = ("context", "trace_dir", "handle", "lock",
                 "last_metrics_flush", "atexit_registered")

    def __init__(self) -> None:
        self.context: Optional[TraceContext] = None
        self.trace_dir: Optional[Path] = None
        self.handle = None
        self.lock = threading.Lock()
        self.last_metrics_flush = 0.0
        self.atexit_registered = False


_STATE = _State()


def start(trace_dir: Optional[Union[str, Path]] = None,
          context: Optional[TraceContext] = None) -> TraceContext:
    """Activate telemetry for this process.

    Mints a fresh :class:`TraceContext` unless one is passed (a worker
    adopting its parent's).  With a *trace_dir*, finished spans append
    to ``trace-<pid>.jsonl`` and metrics flush to ``metrics-<pid>.json``
    there.
    """
    with _STATE.lock:
        _close_handle_locked()
        _STATE.context = context or TraceContext()
        _STATE.trace_dir = Path(trace_dir) if trace_dir else None
        if _STATE.trace_dir is not None:
            _STATE.trace_dir.mkdir(parents=True, exist_ok=True)
        if not _STATE.atexit_registered:
            atexit.register(_atexit_flush)
            _STATE.atexit_registered = True
        return _STATE.context


def reset() -> None:
    """Deactivate telemetry (tests; start of a CLI run)."""
    with _STATE.lock:
        _close_handle_locked()
        _STATE.context = None
        _STATE.trace_dir = None
        _STATE.last_metrics_flush = 0.0


def current_context() -> Optional[TraceContext]:
    """The process's active context, None when telemetry is off."""
    return _STATE.context


def trace_directory() -> Optional[Path]:
    """Where this process is writing trace/metrics files, if anywhere."""
    return _STATE.trace_dir


def propagation_payload() -> Optional[Dict[str, Any]]:
    """The wire form handed to child processes (pool initargs).

    The parent span is the caller's innermost active span when there is
    one — so worker spans hang off the ``sweep`` span that spawned
    them, not off the root.
    """
    context = current_context()
    if context is None:
        return None
    from repro.obs import tracing  # lazy: tracing imports telemetry

    parent = tracing.current_span_id() or context.parent_span_id
    payload = context.child(parent).to_wire()
    if _STATE.trace_dir is not None:
        payload["trace_dir"] = str(_STATE.trace_dir)
    return payload


def adopt(payload: Optional[Dict[str, Any]]) -> Optional[TraceContext]:
    """Child-process side of :func:`propagation_payload`."""
    context = TraceContext.from_wire(payload)
    if context is None:
        return None
    return start(trace_dir=(payload or {}).get("trace_dir"),
                 context=context)


# -- span + metrics recording ------------------------------------------


def _json_safe(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def record_span(span: Any) -> None:
    """Append one finished span to trace-<pid>.jsonl (no-op without a
    trace dir)."""
    with _STATE.lock:
        if _STATE.trace_dir is None or span.trace_id is None:
            return
        handle = _STATE.handle
        if handle is None:
            path = _STATE.trace_dir / f"trace-{os.getpid()}.jsonl"
            handle = _STATE.handle = path.open("a", encoding="utf-8")
        record = {
            "schema": TRACE_SCHEMA,
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "phase": span.phase,
            "ts": round(span.wall_started, 6),
            "elapsed": round(span.elapsed or 0.0, 6),
            "depth": span.depth,
            "fields": {key: _json_safe(value)
                       for key, value in span.fields.items()},
        }
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
    flush_metrics()


def flush_metrics(force: bool = False) -> Optional[Path]:
    """Snapshot this process's registry to metrics-<pid>.json.

    Rate-limited to :data:`METRICS_FLUSH_INTERVAL` unless *force*, so
    span-heavy workers don't spend their time serializing snapshots.
    """
    with _STATE.lock:
        if _STATE.trace_dir is None:
            return None
        now = time.monotonic()
        if not force and \
                now - _STATE.last_metrics_flush < METRICS_FLUSH_INTERVAL:
            return None
        _STATE.last_metrics_flush = now
        target = _STATE.trace_dir / f"metrics-{os.getpid()}.json"
    return get_registry().write(target)


def _close_handle_locked() -> None:
    if _STATE.handle is not None:
        try:
            _STATE.handle.close()
        except OSError:
            pass
        _STATE.handle = None


def _atexit_flush() -> None:
    try:
        flush_metrics(force=True)
    except Exception:
        pass
    with _STATE.lock:
        _close_handle_locked()


# -- ambient event fields ----------------------------------------------


def _telemetry_context() -> Dict[str, Any]:
    """Every event in a telemetry-active process carries trace + pid.

    Registered before the tracing provider, so an active span's more
    specific trace/span fields win.
    """
    context = current_context()
    if context is None:
        return {}
    return {"trace": context.trace_id, "pid": os.getpid()}


events.register_context_provider(_telemetry_context)
