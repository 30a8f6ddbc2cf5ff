"""Lease files: "process *pid* is running *task_id*", on disk.

One lease per in-flight design-space evaluation: a pool worker's task
(:mod:`repro.dse.supervisor`).  The owner writes the lease before it
starts, refreshes it as a heartbeat while it works
(:mod:`repro.health`), and removes it when it finishes; a hard crash
skips the removal, so surviving leases name exactly the work that was
in flight.

A sweep keeps its leases in a private temporary directory named after
its own pid (:func:`lease_directory`).  A sweep parent killed with
``kill -9`` never removes that directory, so every new sweep first
removes the lease directories whose owner is dead.

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
import shutil
import tempfile
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


def pid_alive(pid: int) -> bool:
    """Whether process *pid* exists.  A pid we may not signal
    (``PermissionError``: another user's process) is alive."""
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


_DIR_PREFIX = "repro-leases-"


def remove_orphan_lease_dirs(root: Union[str, Path, None] = None) -> None:
    """Delete the ``repro-leases-<pid>-*`` directories under *root*
    (default: the temporary directory) whose owner pid is dead.  A name
    without a pid has no known owner and stays."""
    for path in Path(root or tempfile.gettempdir()).glob(_DIR_PREFIX + "*"):
        try:
            pid = int(path.name[len(_DIR_PREFIX):].split("-")[0])
        except ValueError:
            continue
        if not pid_alive(pid):
            shutil.rmtree(path, ignore_errors=True)


def lease_directory() -> tempfile.TemporaryDirectory:
    """A fresh lease directory for one sweep, named after this process
    (``repro-leases-<pid>-*``) so a later sweep can tell whether its
    owner still lives.  Orphans of dead owners are removed first."""
    remove_orphan_lease_dirs()
    return tempfile.TemporaryDirectory(prefix=f"{_DIR_PREFIX}{os.getpid()}-")


__all__ = [
    "clear_lease", "clear_leases", "lease_age", "lease_directory",
    "lease_path", "pid_alive", "read_lease", "read_leases",
    "remove_orphan_lease_dirs", "write_lease",
]
