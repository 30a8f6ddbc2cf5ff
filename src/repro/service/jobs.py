"""Durable job store: journaled state machine + leases.

Jobs are the service's unit of work — one submitted sweep each — and
their lifecycle is ``queued → running → done | failed | cancelled``,
with ``running → queued`` requeues when a daemon incarnation dies
mid-job.  Durability is write-ahead: every mutation journals a full
job snapshot (:mod:`repro.service.journal`) before it is acknowledged,
and a periodic atomic checkpoint (``checkpoint.json``, checksummed via
:mod:`repro.runner.checkpoint`) bounds replay time; recovery loads the
checkpoint, replays the journal tail, then requeues every ``running``
job whose lease is dead or stale — the service-level twin of the
PR 5 supervisor's leased in-flight points.

**Idempotent submission**: a job's identity is the SHA-256 content
hash of its submission payload (the same canonical-JSON scheme as
:func:`repro.dse.cache.result_key`), so a client retrying after a
dropped connection lands on the existing job instead of enqueueing a
duplicate, and re-submitting an already-completed spec short-circuits
to the finished job without touching the queue.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ArtifactCorruptError
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.runner.checkpoint import read_json_checked, write_json_atomic
from repro.runner.lease import (clear_lease, lease_is_stale, lease_path,
                                read_lease, write_lease)
from repro.service.journal import Journal
from repro.dse.space import canonical_json

#: Checkpoint schema version.
STORE_FORMAT = 1

#: Every state a job can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States from which a job never moves again.
TERMINAL_STATES = ("done", "failed", "cancelled")


def job_key(payload: Dict[str, Any]) -> str:
    """The content address of one submission: hash of its canonical
    JSON, so field order and whitespace cannot split identical jobs."""
    return hashlib.sha256(canonical_json(
        {"format": STORE_FORMAT, "job": payload}
    ).encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One submission's full state."""

    job_id: str
    key: str
    payload: Dict[str, Any]
    client: str
    state: str = "queued"
    created: float = 0.0
    updated: float = 0.0
    attempts: int = 0
    requeues: int = 0
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    cancel_requested: bool = False
    # Submitter's trace context (TraceContext.to_wire).  Deliberately
    # OUTSIDE job_key: two clients submitting the same work from
    # different traces must still dedup onto one job.
    trace: Optional[Dict[str, Any]] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id, "key": self.key,
            "payload": self.payload, "client": self.client,
            "state": self.state, "created": self.created,
            "updated": self.updated, "attempts": self.attempts,
            "requeues": self.requeues, "result": self.result,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "trace": self.trace,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Job":
        return cls(**{key: payload.get(key) for key in (
            "job_id", "key", "payload", "client", "state", "created",
            "updated", "attempts", "requeues", "result", "error",
            "cancel_requested", "trace")})

    def summary(self) -> Dict[str, Any]:
        """The listing row ``repro jobs`` renders."""
        return {
            "job_id": self.job_id, "state": self.state,
            "client": self.client,
            "kind": self.payload.get("kind"),
            "benchmark": self.payload.get("benchmark"),
            "created": self.created, "updated": self.updated,
            "attempts": self.attempts, "requeues": self.requeues,
            "cancel_requested": self.cancel_requested,
            "error": (self.error or {}).get("message")
            if self.error else None,
        }


@dataclass
class RecoveryReport:
    """What :meth:`JobStore.recover` found and did."""

    jobs: int = 0
    requeued: List[str] = field(default_factory=list)
    dropped_lines: int = 0
    checkpoint_loaded: bool = False
    checkpoint_corrupt: bool = False

    def to_payload(self) -> Dict[str, Any]:
        return {"jobs": self.jobs, "requeued": list(self.requeued),
                "dropped_lines": self.dropped_lines,
                "checkpoint_loaded": self.checkpoint_loaded,
                "checkpoint_corrupt": self.checkpoint_corrupt}


class JobStore:
    """Journal-backed in-memory job table (single writer: the
    daemon, which holds the state directory's lock)."""

    def __init__(self, state_dir: Union[str, Path],
                 fault_plan: Any = None,
                 checkpoint_every: int = 64,
                 lease_ttl: float = 15.0) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.lease_dir = self.state_dir / "leases"
        self.lease_dir.mkdir(exist_ok=True)
        self.fault_plan = fault_plan
        self.checkpoint_every = checkpoint_every
        self.lease_ttl = lease_ttl
        self.journal = Journal(self.state_dir / "journal.jsonl",
                               fault_plan=fault_plan)
        self.jobs: Dict[str, Job] = {}
        self.seq = 0
        self._mutations_since_checkpoint = 0

    # -- checkpoint ------------------------------------------------------

    @property
    def checkpoint_path(self) -> Path:
        return self.state_dir / "checkpoint.json"

    def checkpoint(self) -> None:
        """Absorb the journal into an atomic checksummed snapshot,
        then truncate the journal."""
        write_json_atomic(self.checkpoint_path, {
            "format": STORE_FORMAT,
            "seq": self.seq,
            "jobs": {job_id: job.to_payload()
                     for job_id, job in self.jobs.items()},
        })
        self.journal.rewrite([])
        self._mutations_since_checkpoint = 0
        get_registry().counter("service.checkpoints").inc()

    # -- recovery --------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Rebuild state from checkpoint + journal; requeue orphaned
        running jobs.  Call exactly once, before serving."""
        report = RecoveryReport()
        self.jobs = {}
        self.seq = 0
        if self.checkpoint_path.exists():
            try:
                snapshot = read_json_checked(self.checkpoint_path)
                self.seq = int(snapshot.get("seq", 0))
                for job_id, payload in snapshot.get("jobs",
                                                    {}).items():
                    self.jobs[job_id] = Job.from_payload(payload)
                report.checkpoint_loaded = True
            except (ArtifactCorruptError, OSError, TypeError,
                    ValueError):
                # A torn checkpoint is recoverable as long as the
                # journal survives: fall back to a full replay.
                report.checkpoint_corrupt = True
                self.jobs = {}
                self.seq = 0
        records, report.dropped_lines = self.journal.replay(
            after_seq=self.seq)
        for seq, record in records:
            self.seq = max(self.seq, seq)
            payload = record.get("job")
            if isinstance(payload, dict) and payload.get("job_id"):
                self.jobs[payload["job_id"]] = Job.from_payload(payload)
        for job in list(self.jobs.values()):
            if job.state == "running" and self._lease_is_stale(job):
                self._requeue(job, reason="stale-lease")
                report.requeued.append(job.job_id)
        report.jobs = len(self.jobs)
        if report.dropped_lines or report.requeued \
                or report.checkpoint_corrupt:
            obs_events.emit(
                "service.recovered", level="warning",
                msg=(f"job store recovered: {report.jobs} job(s), "
                     f"{len(report.requeued)} requeued, "
                     f"{report.dropped_lines} torn journal line(s) "
                     f"dropped"
                     + (", checkpoint was corrupt (full replay)"
                        if report.checkpoint_corrupt else "")),
                **report.to_payload())
        return report

    # -- leases ----------------------------------------------------------

    def write_heartbeat(self, job_id: str, beat: int = 0) -> None:
        """Refresh the running job's lease; the ``heartbeat-loss``
        chaos site can swallow individual beats (``beat`` is the
        deterministic decision attempt)."""
        if (beat and self.fault_plan is not None
                and self.fault_plan.loses_heartbeat(job_id, beat)):
            return
        write_lease(self.lease_dir, job_id,
                    dispatch=self.jobs[job_id].attempts, progress=beat)

    def clear_lease(self, job_id: str) -> None:
        clear_lease(self.lease_dir, job_id)

    def _lease_is_stale(self, job: Job) -> bool:
        """Whether a running job's lease belongs to a dead or silent
        owner.  A missing/unreadable lease is stale (the owner died
        before its first heartbeat landed); so is a dead pid or a
        heartbeat older than ``lease_ttl``."""
        return lease_is_stale(
            read_lease(lease_path(self.lease_dir, job.job_id)),
            self.lease_ttl)

    # -- journaled mutations ---------------------------------------------

    def _commit(self, job: Job) -> None:
        """Write-ahead: journal the new snapshot, then adopt it."""
        job.updated = time.time()
        self.seq += 1
        self.journal.append(self.seq, {"job": job.to_payload()})
        self.jobs[job.job_id] = job
        self._mutations_since_checkpoint += 1
        if self._mutations_since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    def submit(self, payload: Dict[str, Any], client: str,
               trace: Optional[Dict[str, Any]] = None
               ) -> Tuple[Job, bool]:
        """Admit one submission; returns ``(job, created)``.

        Identical payloads dedup onto the existing job: in-flight
        submissions return it untouched, finished ``done`` jobs
        short-circuit (their result is already durable), and
        ``failed``/``cancelled`` jobs are revived back onto the queue.
        *trace* (the submitter's wire trace context) rides along
        without entering the identity hash.
        """
        key = job_key(payload)
        job_id = key[:12]
        existing = self.jobs.get(job_id)
        if existing is not None:
            if existing.state in ("queued", "running", "done"):
                return existing, False
            # failed/cancelled: revive the same identity.
            existing.state = "queued"
            existing.error = None
            existing.result = None
            existing.cancel_requested = False
            if trace:
                existing.trace = dict(trace)
            self._commit(existing)
            return existing, False
        job = Job(job_id=job_id, key=key, payload=dict(payload),
                  client=client, created=time.time(),
                  trace=dict(trace) if trace else None)
        self._commit(job)
        return job, True

    def mark_running(self, job_id: str) -> Optional[Job]:
        """Move a claimed job to ``running``; returns None when the
        job is no longer queued — e.g. it was cancelled between the
        worker's claim and this call — in which case the claim must be
        abandoned, never resurrected into a running state (that would
        both run cancelled work and re-occupy the client's in-flight
        cap the cancel just released)."""
        job = self.jobs[job_id]
        if job.state != "queued":
            return None
        job.state = "running"
        job.attempts += 1
        self._commit(job)
        self.write_heartbeat(job_id)
        return job

    def mark_done(self, job_id: str,
                  result: Optional[Dict[str, Any]]) -> Job:
        job = self.jobs[job_id]
        if job.cancel_requested:
            job.state = "cancelled"
        else:
            job.state = "done"
            job.result = result
        job.error = None
        self._commit(job)
        self.clear_lease(job_id)
        return job

    def mark_failed(self, job_id: str,
                    error: Dict[str, Any]) -> Job:
        job = self.jobs[job_id]
        job.state = "cancelled" if job.cancel_requested else "failed"
        job.error = error
        self._commit(job)
        self.clear_lease(job_id)
        return job

    def _requeue(self, job: Job, reason: str) -> None:
        job.state = "queued"
        job.requeues += 1
        self._commit(job)
        self.clear_lease(job.job_id)
        get_registry().counter("service.requeued").inc()
        obs_events.emit("service.job_requeued", level="warning",
                        msg=(f"job {job.job_id} requeued "
                             f"({reason})"),
                        job=job.job_id, reason=reason)

    def requeue(self, job_id: str, reason: str) -> Job:
        """Push a running job back onto the queue (drain deadline,
        recovery)."""
        job = self.jobs[job_id]
        self._requeue(job, reason)
        return job

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel *job_id*; returns the resulting disposition
        (``cancelled`` for queued jobs, ``cancel-requested`` for
        running ones, the terminal state for finished ones, None for
        unknown ids)."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state == "queued":
            job.state = "cancelled"
            self._commit(job)
            return "cancelled"
        if job.state == "running":
            if not job.cancel_requested:
                job.cancel_requested = True
                self._commit(job)
            return "cancel-requested"
        return job.state

    # -- queries ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def queued_jobs(self) -> List[Job]:
        """FIFO by creation time."""
        return sorted((job for job in self.jobs.values()
                       if job.state == "queued"),
                      key=lambda job: (job.created, job.job_id))

    def queue_depth(self) -> int:
        return sum(1 for job in self.jobs.values()
                   if job.state == "queued")

    def client_inflight(self, client: str) -> int:
        return sum(1 for job in self.jobs.values()
                   if job.client == client
                   and job.state in ("queued", "running"))

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts


__all__ = ["JOB_STATES", "Job", "JobStore", "RecoveryReport",
           "STORE_FORMAT", "TERMINAL_STATES", "job_key"]
