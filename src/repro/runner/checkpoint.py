"""Checkpoint persistence for the fault-tolerant runner.

A run directory holds one JSON file per completed work unit plus a
manifest.  Every file is written atomically (tmp file + ``os.replace``)
and carries a SHA-256 checksum over its payload, so a killed sweep can
never leave a half-written checkpoint that resumes incorrectly: a
truncated or bit-flipped file fails verification and the unit is simply
re-run.

Layout::

    <run_dir>/
        manifest.json          # experiment name, scale, creation info
        units/<unit_id>.json   # one UnitOutcome payload per unit
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.errors import ArtifactCorruptError

_CHECKSUM_KEY = "checksum"
_UNSAFE = re.compile(r"[^A-Za-z0-9._=-]")

#: Per-process counter making concurrent temp-file names unique even
#: within one process (threaded writers share the pid);
#: ``itertools.count`` increments atomically under the GIL.
_TMP_SERIAL = itertools.count(1)


def payload_checksum(payload: Dict) -> str:
    """SHA-256 over the canonical JSON encoding of *payload*."""
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_text_atomic(path: Union[str, Path], text: str) -> None:
    """Write *text* to *path* atomically.

    The data lands in a uniquely named ``<path>.<pid>.<n>.tmp`` first
    and is moved into place with ``os.replace``, so readers only ever
    observe the old file or the complete new one — never a truncation
    — and two processes racing to write the same path (a shared result
    cache) cannot interleave inside one temp file; last rename wins
    with both candidates complete.  A failed write leaves the old file
    untouched and no temp file behind.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json_atomic(path: Union[str, Path], payload: Dict) -> None:
    """Write *payload* plus its ``checksum`` to *path* atomically (see
    :func:`write_text_atomic`)."""
    document = dict(payload)
    document[_CHECKSUM_KEY] = payload_checksum(payload)
    write_text_atomic(path, json.dumps(document))


def read_json_checked(path: Union[str, Path]) -> Dict:
    """Read a checksummed JSON document, verifying its integrity.

    Raises :class:`ArtifactCorruptError` on truncation (JSON decode
    failure), a missing checksum, or a checksum mismatch.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ArtifactCorruptError(f"cannot read {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactCorruptError(
            f"{path} is not valid JSON (truncated write?): {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise ArtifactCorruptError(f"{path} does not hold a JSON object")
    stored = document.pop(_CHECKSUM_KEY, None)
    if stored is None:
        raise ArtifactCorruptError(f"{path} has no checksum field")
    actual = payload_checksum(document)
    if stored != actual:
        raise ArtifactCorruptError(
            f"{path} failed its integrity check "
            f"(stored {stored[:12]}..., computed {actual[:12]}...)"
        )
    return document


def sanitize_unit_id(unit_id: str) -> str:
    """A filesystem-safe file stem for a unit id."""
    return _UNSAFE.sub("_", unit_id)


class CheckpointStore:
    """Per-unit checkpoint files under one run directory."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.units_dir = self.run_dir / "units"
        self.units_dir.mkdir(parents=True, exist_ok=True)

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / "manifest.json"

    def write_manifest(self, manifest: Dict) -> None:
        write_json_atomic(self.manifest_path, manifest)

    def read_manifest(self) -> Optional[Dict]:
        if not self.manifest_path.exists():
            return None
        return read_json_checked(self.manifest_path)

    def _unit_path(self, unit_id: str) -> Path:
        return self.units_dir / (sanitize_unit_id(unit_id) + ".json")

    def store(self, unit_id: str, payload: Dict) -> Path:
        """Persist one completed unit's outcome."""
        path = self._unit_path(unit_id)
        write_json_atomic(path, payload)
        return path

    def load(self, unit_id: str) -> Optional[Dict]:
        """Load a unit's checkpoint, or None if absent.

        A corrupt checkpoint raises :class:`ArtifactCorruptError`; the
        runner treats that as "not checkpointed" and re-runs the unit.
        """
        path = self._unit_path(unit_id)
        if not path.exists():
            return None
        return read_json_checked(path)

    def discard(self, unit_id: str) -> None:
        path = self._unit_path(unit_id)
        if path.exists():
            path.unlink()

    def iter_units(self) -> Iterator[Tuple[Path, Optional[Dict]]]:
        """Yield ``(path, payload-or-None)`` for every checkpoint file
        (None for corrupt ones)."""
        for path in sorted(self.units_dir.glob("*.json")):
            try:
                yield path, read_json_checked(path)
            except ArtifactCorruptError:
                yield path, None
