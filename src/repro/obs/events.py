"""Structured event log: JSON-lines records over stdlib ``logging``.

Every pipeline phase, runner unit and design-space evaluation reports
what it did as an *event* — a flat record carrying the run id, a
wall-clock timestamp, a monotonic offset since the run started, the
emitting phase (from the active :func:`~repro.obs.tracing.trace_span`)
and free-form fields (benchmark, seed, attempt, ...).  Events flow
through one ``logging.Logger`` with two renderings:

* a **human console handler** on stderr (``--quiet``/``--verbose``
  select the level) for interactive progress, and
* a **JSON-lines file sink** (``--log-json PATH``) that records every
  event at DEBUG level for machine analysis.

The schema is stable (see ``docs/observability.md``): each line is one
JSON object whose required fields are :data:`REQUIRED_FIELDS`; extra
per-event fields ride alongside.  Unconfigured library use stays
silent below WARNING (logging's last-resort handler surfaces genuine
failures), so importing :mod:`repro` never spams scripts or tests.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

#: Bump when the JSON-lines record layout changes incompatibly.
SCHEMA = 1

#: Fields present on every emitted JSON line (the stable contract that
#: the obs-smoke CI job and the schema tests validate).
REQUIRED_FIELDS = ("schema", "run", "seq", "ts", "t", "level", "event")

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

_LOGGER = logging.getLogger("repro.obs")
_LOGGER.setLevel(logging.DEBUG)
_LOGGER.propagate = False

#: Callables returning ambient fields (the tracing module registers one
#: that contributes the active span's phase/benchmark/seed); kept as an
#: injection point so events.py never imports tracing.py.
_CONTEXT_PROVIDERS: List[Callable[[], Dict[str, Any]]] = []

#: In-process subscribers receiving every emitted payload dict (the
#: flight recorder registers one to keep a process's last events).
#: Sinks see events regardless of handler levels — a crash dump wants
#: debug-level progress even when the console does not.
_SINKS: List[Callable[[Dict[str, Any]], None]] = []


class _State:
    """Mutable per-process observability state."""

    def __init__(self) -> None:
        self.run_id: Optional[str] = None
        self.t0 = time.monotonic()
        self.seq = 0
        self.lock = threading.Lock()
        self.configured = False
        self.log_json_path: Optional[Path] = None
        self.profile_mode: Optional[str] = None
        self.profile_dir: Optional[Path] = None


_STATE = _State()


def register_context_provider(
        provider: Callable[[], Dict[str, Any]]) -> None:
    """Register a callable whose returned fields are merged (lowest
    precedence) into every emitted event."""
    if provider not in _CONTEXT_PROVIDERS:
        _CONTEXT_PROVIDERS.append(provider)


def add_sink(sink: Callable[[Dict[str, Any]], None]) -> None:
    """Subscribe *sink* to every emitted event payload.

    Sinks run synchronously on the emitting thread and must never
    raise (failures are swallowed — observability cannot take down the
    observed).  They bypass handler level gates, so register sinks
    sparingly: every emit pays for them.
    """
    if sink not in _SINKS:
        _SINKS.append(sink)


def remove_sink(sink: Callable[[Dict[str, Any]], None]) -> None:
    """Unsubscribe a sink registered with :func:`add_sink`."""
    if sink in _SINKS:
        _SINKS.remove(sink)


def new_run_id() -> str:
    """A fresh, short, filesystem-safe run identifier."""
    return uuid.uuid4().hex[:12]


def run_id() -> Optional[str]:
    """The configured run id, or None before :func:`configure`."""
    return _STATE.run_id


def log_json_path() -> Optional[Path]:
    """Where the JSON-lines sink writes, or None when disabled."""
    return _STATE.log_json_path


def profile_mode() -> Optional[str]:
    return _STATE.profile_mode


def profile_dir() -> Optional[Path]:
    return _STATE.profile_dir


class _JsonLinesFormatter(logging.Formatter):
    """One JSON object per record, from the attached event payload."""

    def format(self, record: logging.LogRecord) -> str:
        payload = getattr(record, "repro_event", None)
        if payload is None:  # foreign record routed at this logger
            payload = _event_payload("log", record.getMessage(),
                                     record.levelname.lower(), {})
        return json.dumps(payload, sort_keys=True, default=str)


class _ConsoleFormatter(logging.Formatter):
    """Human rendering: message if given, else ``event key=value ...``;
    errors keep the CLI's traditional ``error:`` prefix."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = getattr(record, "repro_event", {})
        message = record.getMessage()
        if message == payload.get("event"):
            fields = " ".join(
                f"{key}={value}" for key, value in sorted(payload.items())
                if key not in REQUIRED_FIELDS + ("msg",))
            message = payload.get("event", message)
            if fields:
                message = f"{message} {fields}"
        if record.levelno >= logging.ERROR:
            return f"error: {message}"
        if record.levelno >= logging.WARNING \
                and not message.lower().startswith(("warning", "note")):
            return f"warning: {message}"
        return message


def _event_payload(event: str, msg: Optional[str], level: str,
                   fields: Dict[str, Any]) -> Dict[str, Any]:
    with _STATE.lock:
        _STATE.seq += 1
        seq = _STATE.seq
    payload: Dict[str, Any] = {}
    for provider in _CONTEXT_PROVIDERS:
        try:
            payload.update(provider())
        except Exception:  # noqa: BLE001 — context must never break emit
            pass
    payload.update(fields)
    payload.update({
        "schema": SCHEMA,
        "run": _STATE.run_id or "unconfigured",
        "seq": seq,
        "ts": time.time(),
        "t": round(time.monotonic() - _STATE.t0, 6),
        "level": level,
        "event": event,
    })
    if msg is not None:
        payload["msg"] = msg
    return payload


def emit(event: str, msg: Optional[str] = None, level: str = "info",
         **fields: Any) -> None:
    """Emit one structured event.

    *event* is a stable machine-readable name (``unit_retry``,
    ``span_end``, ...); *msg* an optional human sentence for the
    console; *fields* ride along on the JSON line.  Cheap when nothing
    listens at *level*: the logger's own level is pinned to DEBUG, so
    the gate is the attached handlers' thresholds — with no handlers
    (unconfigured library use) only WARNING and above proceed, for
    logging's last-resort handler.  Hot phases emit a span event per
    call, so the drop path must not build the payload or LogRecord.
    """
    levelno = _LEVELS[level]
    handlers = _LOGGER.handlers
    if handlers:
        handled = levelno >= min(h.level for h in handlers)
    else:
        handled = levelno >= logging.WARNING
    if not handled and not _SINKS:
        return
    payload = _event_payload(event, msg, level, fields)
    for sink in list(_SINKS):
        try:
            sink(payload)
        except Exception:  # noqa: BLE001 — sinks must never break emit
            pass
    if handled:
        _LOGGER.log(levelno, msg if msg is not None else event,
                    extra={"repro_event": payload})


def error(msg: str, event: str = "error", **fields: Any) -> None:
    """Shorthand for an ERROR-level event (CLI failure paths)."""
    emit(event, msg=msg, level="error", **fields)


def warn(msg: str, event: str = "warning", **fields: Any) -> None:
    emit(event, msg=msg, level="warning", **fields)


def info(msg: str, event: str = "status", **fields: Any) -> None:
    """A human progress line (also recorded on the JSON sink)."""
    emit(event, msg=msg, level="info", **fields)


def debug(msg: str, event: str = "debug", **fields: Any) -> None:
    emit(event, msg=msg, level="debug", **fields)


def _close_handlers() -> None:
    for handler in list(_LOGGER.handlers):
        _LOGGER.removeHandler(handler)
        try:
            handler.close()
        except Exception:  # noqa: BLE001 — best-effort teardown
            pass


def configure(
    run_id: Optional[str] = None,
    console: bool = True,
    console_level: str = "info",
    log_json: Optional[Union[str, Path]] = None,
    profile: Optional[str] = None,
    profile_dir: Optional[Union[str, Path]] = None,
    stream=None,
) -> str:
    """Install the run's handlers; returns the run id.

    Reconfiguring replaces previous handlers (file sinks are closed),
    so repeated CLI invocations in one process — the test suite — do
    not accumulate handlers or hold stale streams.
    """
    if profile not in (None, "cprofile"):
        raise ValueError(f"unknown profile mode {profile!r}; "
                         f"supported: cprofile")
    if console_level not in _LEVELS:
        raise ValueError(f"unknown console level {console_level!r}")
    _close_handlers()
    _STATE.run_id = run_id or new_run_id()
    _STATE.t0 = time.monotonic()
    _STATE.seq = 0
    _STATE.configured = True
    _STATE.profile_mode = profile
    _STATE.profile_dir = Path(profile_dir) if profile_dir else None
    _STATE.log_json_path = None
    if console:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setLevel(_LEVELS[console_level])
        handler.setFormatter(_ConsoleFormatter())
        _LOGGER.addHandler(handler)
    if log_json:
        path = Path(log_json)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        file_handler = logging.FileHandler(path, encoding="utf-8")
        file_handler.setLevel(logging.DEBUG)
        file_handler.setFormatter(_JsonLinesFormatter())
        _LOGGER.addHandler(file_handler)
        _STATE.log_json_path = path
    return _STATE.run_id


def reset() -> None:
    """Tear down handlers, sinks and state (tests; end of a CLI
    run)."""
    _close_handlers()
    _SINKS.clear()
    _STATE.run_id = None
    _STATE.t0 = time.monotonic()
    _STATE.seq = 0
    _STATE.configured = False
    _STATE.profile_mode = None
    _STATE.profile_dir = None
    _STATE.log_json_path = None


def is_configured() -> bool:
    return _STATE.configured
