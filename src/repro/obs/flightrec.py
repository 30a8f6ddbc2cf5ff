"""Crash flight recorder: the last N events, dumped on the way down.

Every installed process keeps a bounded ring buffer of the most recent
event payloads (an :mod:`repro.obs.events` sink, so it sees debug-level
events regardless of console verbosity).  When the process dies —
unhandled exception, SIGTERM, or a chaos-injected worker kill — the
buffer is written to ``flightrec-<pid>.jsonl`` so the supervisor's
crash attribution and quarantine manifests can say what the worker was
doing in its final moments, not just that it vanished.

The dump path is deliberately boring: open, write lines, close.  No
registry lookups, no new events mid-dump (the ``flightrec.dump`` event
and counter fire *after* the file is safely on disk).  The SIGTERM
handler takes no lock at all: it runs on the main thread between two
bytecodes, possibly while that thread holds the recorder's or the
metrics registry's (non-reentrant) lock, so it snapshots the buffer
unlocked and skips the event and counter.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Union

from repro.obs import events
from repro.obs.metrics import get_registry

#: Bump when flightrec-<pid>.jsonl records change incompatibly.
FLIGHT_SCHEMA = 1

#: Ring-buffer capacity unless overridden.
DEFAULT_CAPACITY = 256


def dump_filename(pid: Optional[int] = None) -> str:
    return f"flightrec-{pid if pid is not None else os.getpid()}.jsonl"


class FlightRecorder:
    """Bounded ring buffer of event payloads + the dump machinery."""

    def __init__(self, directory: Union[str, Path],
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.directory = Path(directory)
        self.capacity = int(capacity)
        self._buffer: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._dumped = False

    # The events sink — must never raise.
    def record(self, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._buffer.append(payload)

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def dump_path(self) -> Path:
        return self.directory / dump_filename()

    def dump(self, reason: str, **extra: Any) -> Optional[Path]:
        """Write the buffer to flightrec-<pid>.jsonl; returns the path.

        Repeated dumps overwrite (the last dump before death wins).
        Returns None when writing is impossible — a dying process must
        not die harder because its black box had no disk.
        """
        with self._lock:
            buffered: List[Dict[str, Any]] = list(self._buffer)
        path = self._write(reason, buffered, extra)
        if path is not None:
            try:
                get_registry().counter("flightrec.dumps").inc()
                events.emit("flightrec.dump", level="debug", reason=reason,
                            path=str(path), events=len(buffered))
            except Exception:
                pass
        return path

    def dump_from_signal(self, reason: str) -> Optional[Path]:
        """:meth:`dump` for a signal handler: no lock, no event, no
        counter (see the module docstring).  Appending to and copying a
        deque are each one C call under the GIL, so the unlocked
        snapshot sees whole payloads."""
        return self._write(reason, list(self._buffer), {})

    def _write(self, reason: str, buffered: List[Dict[str, Any]],
               extra: Dict[str, Any]) -> Optional[Path]:
        header = {
            "schema": FLIGHT_SCHEMA,
            "kind": "flightrec",
            "reason": reason,
            "pid": os.getpid(),
            "events": len(buffered),
            "capacity": self.capacity,
        }
        header.update(extra)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.dump_path()
            with path.open("w", encoding="utf-8") as handle:
                handle.write(json.dumps(header, sort_keys=True,
                                        default=repr) + "\n")
                for payload in buffered:
                    handle.write(json.dumps(payload, sort_keys=True,
                                            default=repr) + "\n")
        except OSError:
            return None
        self._dumped = True
        return path


_INSTALLED: Optional[FlightRecorder] = None
_PREVIOUS_EXCEPTHOOK = None
_PREVIOUS_SIGTERM = None


def installed() -> Optional[FlightRecorder]:
    """The process's active recorder, if any."""
    return _INSTALLED


def install(directory: Union[str, Path],
            capacity: int = DEFAULT_CAPACITY,
            signals: bool = True) -> FlightRecorder:
    """Install (or reinstall) the process flight recorder.

    Registers the ring-buffer sink, chains ``sys.excepthook`` so an
    unhandled exception dumps before the traceback prints, and — with
    *signals* (main thread only) — hooks SIGTERM to dump, restore the
    default handler and re-deliver, so the exit status still says
    "killed by SIGTERM" and pool crash attribution keeps treating
    executor teardown as innocent.

    Idempotent: a second install replaces the first (no sink or hook
    accumulation across repeated CLI ``main()`` calls in one process).
    """
    global _INSTALLED, _PREVIOUS_EXCEPTHOOK, _PREVIOUS_SIGTERM
    uninstall()
    recorder = FlightRecorder(directory, capacity=capacity)
    events.add_sink(recorder.record)
    _PREVIOUS_EXCEPTHOOK = sys.excepthook

    def _excepthook(exc_type, exc, tb):
        try:
            recorder.dump("unhandled-exception",
                          error=f"{exc_type.__name__}: {exc}")
        except Exception:
            pass
        (_PREVIOUS_EXCEPTHOOK or sys.__excepthook__)(exc_type, exc, tb)

    sys.excepthook = _excepthook

    if signals and threading.current_thread() is threading.main_thread():
        def _on_sigterm(signum, frame):
            try:
                recorder.dump_from_signal("sigterm")
            except Exception:
                pass
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

        try:
            _PREVIOUS_SIGTERM = signal.signal(signal.SIGTERM, _on_sigterm)
        except (ValueError, OSError):
            _PREVIOUS_SIGTERM = None

    _INSTALLED = recorder
    return recorder


def uninstall() -> None:
    """Remove the recorder, its sink and its hooks (tests)."""
    global _INSTALLED, _PREVIOUS_EXCEPTHOOK, _PREVIOUS_SIGTERM
    if _INSTALLED is None:
        return
    events.remove_sink(_INSTALLED.record)
    if _PREVIOUS_EXCEPTHOOK is not None:
        sys.excepthook = _PREVIOUS_EXCEPTHOOK
        _PREVIOUS_EXCEPTHOOK = None
    if _PREVIOUS_SIGTERM is not None and \
            threading.current_thread() is threading.main_thread():
        try:
            signal.signal(signal.SIGTERM, _PREVIOUS_SIGTERM)
        except (ValueError, OSError):
            pass
    _PREVIOUS_SIGTERM = None
    _INSTALLED = None


def dump(reason: str, **extra: Any) -> Optional[Path]:
    """Dump the installed recorder, if any (chaos worker-kill site)."""
    if _INSTALLED is None:
        return None
    return _INSTALLED.dump(reason, **extra)
