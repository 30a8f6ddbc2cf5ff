"""Write-ahead journal for the durable job store.

Every job-state mutation is appended to ``journal.jsonl`` — one JSON
line per record, fsynced — *before* the in-memory state changes are
considered durable.  A ``kill -9`` of the daemon therefore loses
nothing: restart replays the journal on top of the last checkpoint
(:mod:`repro.service.jobs` writes those with
:func:`repro.runner.checkpoint.write_json_atomic`'s checksummed
scheme) and reconstructs exactly the acknowledged state.

Tail corruption — the on-disk shape of dying mid-append, and what the
``journal-corrupt`` chaos site injects — is expected, not fatal: each
line carries its own checksum, and replay **skips** lines that fail to
parse or verify, counting them.  A skipped line can only be a record
that was never acknowledged (the append had not returned), so dropping
it is the correct recovery.

Compaction: once a checkpoint absorbs the journal's records, the
journal is atomically rewritten empty (``tmp`` + ``os.replace``), so
the file stays bounded by the churn since the last checkpoint rather
than the daemon's lifetime.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

_CRC_BYTES = 16


def _line_checksum(seq: int, record: Dict[str, Any]) -> str:
    canonical = json.dumps({"seq": seq, "record": record},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(
        canonical.encode("utf-8")).hexdigest()[:_CRC_BYTES]


class Journal:
    """Append-only JSONL journal with per-line checksums.

    Single-writer by design (the daemon holds the state-dir lock);
    readers only ever see complete, verified lines via
    :meth:`replay`.
    """

    def __init__(self, path: Union[str, Path],
                 fault_plan: Any = None) -> None:
        self.path = Path(path)
        self.fault_plan = fault_plan
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = None

    # -- handle management ---------------------------------------------

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- writing --------------------------------------------------------

    def append(self, seq: int, record: Dict[str, Any]) -> None:
        """Durably append one record: write, flush, fsync.

        Only after this returns may the caller acknowledge the
        mutation to a client — that ordering is the whole write-ahead
        contract.
        """
        line = json.dumps({"seq": seq, "record": record,
                           "crc": _line_checksum(seq, record)},
                          sort_keys=True, separators=(",", ":"))
        handle = self._open()
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        # The chaos site rewrites the file behind the handle's back;
        # drop the handle so the next append reopens at the real end of
        # file.
        if (self.fault_plan is not None
                and self.fault_plan.maybe_corrupt_journal(self.path,
                                                          str(seq))):
            self.close()

    def rewrite(self, records: List[Tuple[int, Dict[str, Any]]]) -> None:
        """Atomically replace the journal's contents (compaction).

        Readers and a crashed-midway daemon see either the old journal
        or the new one, never a mix: the new content lands in a temp
        file first and is moved into place with ``os.replace``.
        """
        self.close()
        tmp = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for seq, record in records:
                handle.write(json.dumps(
                    {"seq": seq, "record": record,
                     "crc": _line_checksum(seq, record)},
                    sort_keys=True, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    # -- reading --------------------------------------------------------

    def replay(self, after_seq: int = 0
               ) -> Tuple[List[Tuple[int, Dict[str, Any]]], int]:
        """Every verified ``(seq, record)`` with ``seq > after_seq``,
        in file order, plus the count of dropped (torn or corrupt)
        lines."""
        if not self.path.exists():
            return [], 0
        records: List[Tuple[int, Dict[str, Any]]] = []
        dropped = 0
        with open(self.path, "r", encoding="utf-8",
                  errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    document = json.loads(line)
                except json.JSONDecodeError:
                    dropped += 1
                    continue
                if not isinstance(document, dict):
                    dropped += 1
                    continue
                seq = document.get("seq")
                record = document.get("record")
                crc = document.get("crc")
                if (not isinstance(seq, int)
                        or not isinstance(record, dict)
                        or crc != _line_checksum(seq, record)):
                    dropped += 1
                    continue
                if seq > after_seq:
                    records.append((seq, record))
        return records, dropped

    def max_seq(self) -> int:
        """The highest verified sequence number on disk (0 if none)."""
        records, _ = self.replay()
        return max((seq for seq, _ in records), default=0)


__all__ = ["Journal"]
