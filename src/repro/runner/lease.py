"""Lease files: "process *pid* is running *task_id*", on disk.

One lease per in-flight piece of work — a design-space pool worker's
task (:mod:`repro.dse.supervisor`) or a service daemon's running job
(:mod:`repro.service.jobs`).  The owner writes the lease before it
starts, refreshes it as a heartbeat while it works
(:mod:`repro.health`), and removes it when it finishes; a hard crash
skips the removal, so surviving leases name exactly the work that was
in flight.

Layout: ``<lease_dir>/<sanitized id>.lease`` holding one JSON record::

    {"task_id": ..., "pid": ..., "dispatch": ..., "beat": ...,
     "progress": ...}

``dispatch`` counts how many times the work was handed out, ``beat``
is the wall-clock time of the last heartbeat and ``progress`` the
owner's last reported work counter (cycles or instructions).

Every write is atomic (:func:`~repro.runner.checkpoint.write_text_atomic`),
so an owner killed mid-beat leaves its previous record intact instead
of a torn file that would drop the task from crash attribution.
Reads are tolerant: an unreadable file yields no record.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.runner.checkpoint import sanitize_unit_id, write_text_atomic

_SUFFIX = ".lease"


def lease_path(lease_dir: Union[str, Path], task_id: str) -> Path:
    return Path(lease_dir) / (sanitize_unit_id(task_id) + _SUFFIX)


def write_lease(lease_dir: Union[str, Path], task_id: str,
                dispatch: int = 1, pid: Optional[int] = None,
                progress: int = 0) -> Path:
    """Stamp a fresh lease (and heartbeat) for *task_id*."""
    path = lease_path(lease_dir, task_id)
    write_text_atomic(path, json.dumps({
        "task_id": task_id,
        "pid": pid if pid is not None else os.getpid(),
        "dispatch": dispatch,
        "beat": time.time(),
        "progress": int(progress),
    }))
    return path


def clear_lease(lease_dir: Union[str, Path], task_id: str) -> None:
    lease_path(lease_dir, task_id).unlink(missing_ok=True)


def clear_leases(lease_dir: Union[str, Path]) -> None:
    for path in Path(lease_dir).glob("*" + _SUFFIX):
        path.unlink(missing_ok=True)


def read_lease(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The lease record at *path*, or None when it is missing or
    unreadable."""
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if isinstance(record, dict) and "task_id" in record:
        return record
    return None


def read_leases(lease_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every readable lease record in *lease_dir*, in file-name order."""
    records = (read_lease(path)
               for path in sorted(Path(lease_dir).glob("*" + _SUFFIX)))
    return [record for record in records if record is not None]


def lease_age(record: Dict[str, Any],
              now: Optional[float] = None) -> Optional[float]:
    """Seconds since the record's last beat, None when it has none."""
    try:
        beat = float(record["beat"])
    except (KeyError, TypeError, ValueError):
        return None
    return (time.time() if now is None else now) - beat


def _pid_alive(pid: int) -> bool:
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # alive, owned by someone else
    return True


def lease_is_stale(record: Optional[Dict[str, Any]], ttl: float) -> bool:
    """Whether a lease belongs to a dead or silent owner: the record is
    missing or unreadable, its beat is older than *ttl* seconds, or its
    pid is dead."""
    if record is None:
        return True
    age = lease_age(record)
    try:
        pid = int(record["pid"])
    except (KeyError, TypeError, ValueError):
        return True
    return age is None or age > ttl or not _pid_alive(pid)


__all__ = [
    "clear_lease", "clear_leases", "lease_age", "lease_is_stale",
    "lease_path", "read_lease", "read_leases",
    "write_lease",
]
