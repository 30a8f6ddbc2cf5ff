"""Atomic, checksummed JSON files.

Result-cache entries (which also hold a run directory's finished work
units), saved profiles, quarantine records and the fuzz corpus are
written atomically (tmp file + ``os.replace``) with a SHA-256 checksum
over their payload, so a killed process can never leave a half-written
file that is later trusted: a truncated or bit-flipped file fails
verification and its work is simply redone.  Lease files and metrics
snapshots share the atomic writer.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from pathlib import Path
from typing import Dict, Union

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

