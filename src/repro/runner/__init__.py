"""Fault-tolerant experiment execution: task runner, checksummed
files, leases.

See :mod:`repro.runner.runner` for semantics and ``docs/robustness.md``
for the operational guide.
"""

from repro.runner.collector import CollectorScope
from repro.runner.checkpoint import (
    payload_checksum,
    read_json_checked,
    sanitize_unit_id,
    write_json_atomic,
    write_text_atomic,
)
from repro.runner.runner import (
    FAILED,
    OK,
    SKIPPED,
    ResultRows,
    RunnerPolicy,
    RunReport,
    TaskRunner,
    UnitOutcome,
    WorkUnit,
    report_footer,
)

__all__ = [
    "CollectorScope",
    "payload_checksum", "read_json_checked",
    "sanitize_unit_id", "write_json_atomic", "write_text_atomic",
    "OK", "FAILED", "SKIPPED",
    "ResultRows", "RunnerPolicy", "RunReport", "TaskRunner",
    "UnitOutcome", "WorkUnit", "report_footer",
]
