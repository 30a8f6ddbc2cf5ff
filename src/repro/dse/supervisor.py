"""Supervised execution over a process pool.

A single segfaulting or OOM-killed worker breaks a
``ProcessPoolExecutor`` for good: every unfinished future raises
``BrokenProcessPool`` and, without supervision, an hours-long sweep
loses all in-flight work.  This module keeps the sweep alive:

* **leases** — each worker writes a tiny lease file
  (:mod:`repro.runner.lease`) before executing a task and removes it
  afterwards.  A hard crash (``os._exit``, segfault, SIGKILL) skips
  the removal, so after a pool break the surviving lease files name
  exactly the tasks that were in flight.
* **crash attribution** — a lease is only blamed ("suspect") when its
  recorded worker pid actually died abnormally; workers the executor
  itself terminated while tearing down the broken pool (SIGTERM) hold
  leases too but are innocent, and their tasks are requeued without
  charging their crash budget.
* **requeue + quarantine** — suspects' crash counts are incremented;
  a task crossing ``max_point_retries`` is a *poison point*: it is
  quarantined (recorded with its config and last error in the
  :class:`Quarantine` manifest), the sweep continues without it, and
  the final report calls it out.  Everything else is resubmitted to a
  freshly built pool.
* **serial fallback** — when the pool breaks repeatedly without
  completing any task (or cannot be built at all), the supervisor
  degrades to the caller-supplied in-process path (the ``pool`` rung
  of the :mod:`repro.health` degradation ladder).  Chaos worker-kill
  only fires inside pool workers, so under injection the fallback is
  also what lets a "kill everything" run still complete.
* **hang watchdog** — a crash breaks the pool by itself; a *hang*
  (spin loop, deadlocked syscall) does not.  Workers stamp a ``beat``
  timestamp plus a progress counter into their lease on every health
  checkpoint (:mod:`repro.health`), and the supervisor polls the lease
  directory while waiting on futures: a worker whose beat goes staler
  than the policy's ``hang_timeout`` is SIGKILLed, which converts the
  hang into an ordinary pool break — same attribution, same requeue,
  same quarantine-after-budget path as a crash.

The supervisor narrates itself through :mod:`repro.obs`
(``supervisor.*`` events and counters).  Determinism is unaffected:
task seeds are derived from task identity, so a requeued task produces
byte-identical metrics no matter how many crashes preceded it.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import SweepInterrupted, WorkerCrashError
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.runner import RunnerPolicy
from repro.runner.checkpoint import write_json_atomic
from repro.runner.lease import clear_leases, lease_age, read_leases

#: Manifest schema version.
QUARANTINE_FORMAT = 1


@dataclass(frozen=True)
class SupervisorPolicy:
    """Crash-handling budget.

    ``max_point_retries`` — crashes attributed to one task before it
    is quarantined as a poison point (N retries = N+1 dispatches).
    ``max_pool_rebuilds`` — consecutive pool generations that complete
    *zero* tasks before degrading to serial execution; generations
    that make progress reset the count.
    """

    max_point_retries: int = 2
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_point_retries < 0:
            raise ValueError("max_point_retries must be >= 0")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")


# -- crash attribution ------------------------------------------------


def suspect_task_ids(leases: Sequence[Dict[str, Any]],
                     exit_codes: Dict[int, Optional[int]]) -> List[str]:
    """Which leased tasks to blame for a pool break.

    A lease is suspect when its pid is known to have died abnormally —
    any exit status except "still running / unknown" (None), clean
    exit (0) and the executor's own teardown signal (SIGTERM).  When
    attribution is impossible (no exit codes at all, e.g. a private
    attribute went away), every leased task is charged: over-blaming
    costs one budget notch, under-blaming would retry a poison point
    forever.
    """
    innocent = (None, 0, -int(signal.SIGTERM))
    suspects = [record["task_id"] for record in leases
                if exit_codes.get(int(record.get("pid", -1)))
                not in innocent]
    if not suspects and leases and not exit_codes:
        return [record["task_id"] for record in leases]
    return suspects


# -- quarantine --------------------------------------------------------


@dataclass
class Quarantine:
    """Poison points pulled out of a sweep, and their manifest file."""

    path: Optional[Union[str, Path]] = None
    max_point_retries: int = 2
    records: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, task: Dict[str, Any], crashes: int,
            last_error: Dict[str, Any],
            flight_recorder: Optional[str] = None) -> Dict[str, Any]:
        record = {
            "task_id": task.get("task_id"),
            "point_id": task.get("point_id"),
            "benchmark": task.get("benchmark"),
            "base_seed": task.get("base_seed"),
            "derived_seed": task.get("derived_seed"),
            "reduction_factor": task.get("reduction_factor"),
            "config": task.get("config"),
            "crashes": crashes,
            "last_error": last_error,
            # Path of the dead worker's flight-recorder dump (its last
            # N events), when one was captured — the poison point's
            # final moments travel with the manifest.
            "flight_recorder": flight_recorder,
        }
        self.records.append(record)
        return record

    def to_payload(self) -> Dict[str, Any]:
        return {
            "format": QUARANTINE_FORMAT,
            "max_point_retries": self.max_point_retries,
            "quarantined": list(self.records),
        }

    def write(self) -> Optional[Path]:
        """Persist the manifest (atomic, checksummed) if a path was
        configured; written even when empty so automation can tell
        "no poison points" from "supervision never ran"."""
        if self.path is None:
            return None
        path = Path(self.path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json_atomic(path, self.to_payload())
        return path


# -- the supervisor ----------------------------------------------------


class PoolSupervisor:
    """Runs tasks on a pool, surviving worker death.

    ``pool_factory`` builds a fresh executor whose workers run
    ``task_fn(task, runner_policy)`` and write/clear leases in
    ``lease_dir``; ``serial_fn(tasks)`` is the in-process degradation
    path.  ``run`` returns one outcome dict per task (the same shape
    ``task_fn`` returns), plus synthesized ``status="quarantined"``
    outcomes for poison points.  ``on_outcome(outcome)`` sees each
    pool outcome the moment it is collected (``serial_fn`` reports
    its own).
    """

    def __init__(
        self,
        pool_factory: Callable[[], Any],
        task_fn: Callable[..., Dict[str, Any]],
        runner_policy: RunnerPolicy,
        policy: Optional[SupervisorPolicy] = None,
        quarantine: Optional[Quarantine] = None,
        serial_fn: Optional[Callable[[List[Dict[str, Any]]],
                                     List[Dict[str, Any]]]] = None,
        on_outcome: Optional[Callable[[Dict[str, Any]], None]] = None,
        lease_dir: Optional[Union[str, Path]] = None,
        flight_dir: Optional[Union[str, Path]] = None,
        health: Optional[Any] = None,
    ) -> None:
        self.pool_factory = pool_factory
        self.task_fn = task_fn
        self.runner_policy = runner_policy
        self.policy = policy or SupervisorPolicy()
        self.quarantine = quarantine if quarantine is not None \
            else Quarantine(max_point_retries=self.policy.max_point_retries)
        self.serial_fn = serial_fn
        self.on_outcome = on_outcome or (lambda outcome: None)
        self.lease_dir = Path(lease_dir) if lease_dir else None
        self.flight_dir = Path(flight_dir) if flight_dir else None
        # The health policy supplies the hang watchdog's knobs; None
        # (or hang_timeout=0) disables the watchdog and restores plain
        # blocking collection.
        self.health = health
        self.hang_timeout = float(getattr(health, "hang_timeout", 0.0)
                                  or 0.0)
        self.poll_interval = float(getattr(health, "poll_interval", 0.5)
                                   or 0.5)
        self._last_hang_scan = 0.0
        self.crashes: Dict[str, int] = {}
        # task_id -> pid of the worker that last died holding its lease
        # (how a quarantine record finds its flight-recorder dump).
        self.crash_pids: Dict[str, int] = {}

    # -- crash-side helpers ---------------------------------------------

    def _make_pool(self):
        try:
            return self.pool_factory()
        except Exception as exc:  # noqa: BLE001 — degrade, don't die
            obs_events.emit("supervisor.pool_build_failed",
                            level="warning",
                            msg=(f"cannot build worker pool "
                                 f"({type(exc).__name__}: {exc}); "
                                 f"degrading to serial execution"),
                            error=type(exc).__name__)
            return None

    @staticmethod
    def _exit_codes(pool, deadline: float = 5.0
                    ) -> Dict[int, Optional[int]]:
        """pid -> exit status for the broken pool's workers.

        ``_processes`` is a private executor attribute; when it is
        missing or empty the caller falls back to blaming every leased
        task.  Freshly killed processes can take a moment to be
        reaped, so poll briefly until every status is known.
        """
        processes = dict(getattr(pool, "_processes", None) or {})
        end = time.monotonic() + deadline
        while (any(proc.exitcode is None for proc in processes.values())
               and time.monotonic() < end):
            time.sleep(0.05)
        return {pid: proc.exitcode for pid, proc in processes.items()}

    def _flight_path(self, task_id: str) -> Optional[str]:
        """The flight-recorder dump of the worker that last crashed
        holding *task_id*'s lease, if it managed to write one."""
        if self.flight_dir is None:
            return None
        pid = self.crash_pids.get(task_id)
        if pid is None:
            return None
        path = self.flight_dir / f"flightrec-{pid}.jsonl"
        return str(path) if path.exists() else None

    def _quarantined_outcome(self, task: Dict[str, Any],
                             crashes: int) -> Dict[str, Any]:
        message = (f"{task['task_id']}: worker process died on all "
                   f"{crashes} dispatch(es); quarantined as a poison "
                   f"point after exceeding the "
                   f"{self.policy.max_point_retries}-retry budget")
        error = {"type": WorkerCrashError.__name__, "message": message,
                 "retryable": False}
        flight = self._flight_path(task["task_id"])
        self.quarantine.add(task, crashes, error, flight_recorder=flight)
        get_registry().counter("supervisor.quarantined").inc()
        obs_events.emit("supervisor.quarantine", msg=message,
                        level="warning", task=task["task_id"],
                        crashes=crashes, flight_recorder=flight)
        return {"task": task, "status": "quarantined", "metrics": None,
                "attempts": crashes, "elapsed": 0.0, "error": error}

    def _handle_break(self, pool, in_flight: List[Dict[str, Any]],
                      outcomes: List[Dict[str, Any]]
                      ) -> List[Dict[str, Any]]:
        """Attribute a pool break; returns the tasks to requeue."""
        registry = get_registry()
        leases = read_leases(self.lease_dir) if self.lease_dir else []
        exit_codes = self._exit_codes(pool)
        suspects = set(suspect_task_ids(leases, exit_codes))
        for record in leases:
            if record.get("task_id") in suspects \
                    and record.get("pid") is not None:
                self.crash_pids[record["task_id"]] = int(record["pid"])
        if self.lease_dir is not None:
            clear_leases(self.lease_dir)
        flight_dumps = {task_id: self._flight_path(task_id)
                        for task_id in sorted(suspects)}
        obs_events.emit("supervisor.crash", level="warning",
                        msg=(f"worker pool broke with "
                             f"{len(in_flight)} task(s) in flight "
                             f"({len(suspects)} suspect)"),
                        in_flight=len(in_flight),
                        suspects=sorted(suspects),
                        exit_codes={str(pid): code for pid, code
                                    in exit_codes.items()},
                        flight_recorders={
                            task_id: path for task_id, path
                            in flight_dumps.items() if path})
        requeue: List[Dict[str, Any]] = []
        for task in in_flight:
            task_id = task["task_id"]
            if task_id in suspects:
                registry.counter("supervisor.crashes").inc()
                self.crashes[task_id] = self.crashes.get(task_id, 0) + 1
            if self.crashes.get(task_id, 0) \
                    > self.policy.max_point_retries:
                outcomes.append(self._quarantined_outcome(
                    task, self.crashes[task_id]))
            else:
                requeue.append(task)
        if requeue:
            registry.counter("supervisor.requeued").inc(len(requeue))
            obs_events.emit("supervisor.requeue", level="info",
                            msg=(f"requeueing {len(requeue)} task(s) "
                                 f"onto a rebuilt pool"),
                            tasks=[t["task_id"] for t in requeue])
        return requeue

    def _kill_hung_workers(self, pool) -> None:
        """SIGKILL pool workers whose lease beat went stale.

        Only pids the pool actually owns are eligible — a stale lease
        left by an already-reaped worker must not get an unrelated
        process killed.  The SIGKILL breaks the pool, handing the hung
        task to the ordinary crash attribution path."""
        if (self.lease_dir is None or self.hang_timeout <= 0
                or pool is None):
            return
        now = time.time()
        if now - self._last_hang_scan < self.poll_interval:
            return
        self._last_hang_scan = now
        pool_pids = set((getattr(pool, "_processes", None) or {}).keys())
        for record in read_leases(self.lease_dir):
            stale = lease_age(record, now)
            pid = record.get("pid")
            if stale is None or pid is None or int(pid) not in pool_pids:
                continue
            if stale <= self.hang_timeout:
                continue
            try:
                os.kill(int(pid), signal.SIGKILL)
            except OSError:
                continue
            get_registry().counter("health.hang_kills").inc()
            obs_events.emit(
                "health.hang_kill", level="warning",
                msg=(f"worker {pid} hung on "
                     f"{record.get('task_id')} (no progress for "
                     f"{stale:.1f}s > {self.hang_timeout:.1f}s); "
                     f"killed for requeue"),
                task=record.get("task_id"), pid=int(pid),
                stale_seconds=round(stale, 1),
                progress=record.get("progress"))

    # -- execution ------------------------------------------------------

    def _run_serial_fallback(self, tasks: List[Dict[str, Any]],
                             outcomes: List[Dict[str, Any]]) -> None:
        from repro.health.ladder import get_ladder

        get_ladder().trip("pool", reason="worker pool unavailable")
        get_registry().counter("supervisor.serial_fallbacks").inc()
        obs_events.emit("supervisor.serial_fallback", level="warning",
                        msg=(f"worker pool unavailable; running "
                             f"{len(tasks)} remaining task(s) "
                             f"in-process"),
                        tasks=len(tasks))
        if self.serial_fn is not None:
            try:
                outcomes.extend(self.serial_fn(tasks))
            except SweepInterrupted as exc:
                # Keep the serial path's finished work for the partial
                # report the interrupt handler below raises.
                outcomes.extend(exc.outcomes)
                raise
        else:
            outcomes.extend(self.task_fn(task, self.runner_policy)
                            for task in tasks)

    def run(self, tasks: Sequence[Dict[str, Any]]
            ) -> List[Dict[str, Any]]:
        pending: List[Dict[str, Any]] = list(tasks)
        outcomes: List[Dict[str, Any]] = []
        barren_generations = 0
        pool = self._make_pool()
        try:
            while pending:
                if pool is None:
                    self._run_serial_fallback(pending, outcomes)
                    pending = []
                    break
                batch, pending = pending, []
                futures = []
                unsent: List[Dict[str, Any]] = []
                for index, task in enumerate(batch):
                    dispatched = dict(task)
                    dispatched["dispatch"] = \
                        self.crashes.get(task["task_id"], 0) + 1
                    try:
                        futures.append((task, pool.submit(
                            self.task_fn, dispatched, self.runner_policy)))
                    except BrokenProcessPool:
                        # A worker died before the batch was out; the
                        # rest were never dispatched, so never suspect.
                        unsent = batch[index:]
                        break
                completed = 0
                in_flight: List[Dict[str, Any]] = []
                waiting = {future: task for task, future in futures}
                # Timed collection instead of a blocking result() per
                # future: between completions the hang watchdog gets a
                # chance to scan lease beats.  With the watchdog off
                # the timeout is None and this is plain blocking
                # collection.
                poll = (self.poll_interval
                        if self.hang_timeout > 0 and self.lease_dir
                        else None)
                while waiting:
                    done, _ = futures_wait(
                        list(waiting), timeout=poll,
                        return_when=FIRST_COMPLETED)
                    for future in done:
                        task = waiting.pop(future)
                        try:
                            outcome = future.result()
                            self.on_outcome(outcome)
                            outcomes.append(outcome)
                            completed += 1
                        except BrokenProcessPool:
                            in_flight.append(task)
                        except Exception as exc:  # noqa: BLE001
                            # task_fn contains task errors itself;
                            # anything surfacing here is harness-level
                            # (e.g. a pickling failure) — record,
                            # don't crash.
                            outcomes.append({
                                "task": task, "status": "failed",
                                "metrics": None, "attempts": 1,
                                "elapsed": 0.0,
                                "error": {"type": type(exc).__name__,
                                          "message": str(exc),
                                          "retryable": False}})
                            completed += 1
                    if waiting and not done:
                        self._kill_hung_workers(pool)
                if not in_flight and not unsent:
                    continue
                pending = self._handle_break(pool, in_flight, outcomes) \
                    + unsent + pending
                pool.shutdown(wait=False, cancel_futures=True)
                barren_generations = 0 if completed else \
                    barren_generations + 1
                if barren_generations > self.policy.max_pool_rebuilds:
                    obs_events.emit(
                        "supervisor.barren", level="warning",
                        msg=(f"pool made no progress across "
                             f"{barren_generations} consecutive "
                             f"generations; giving up on rebuilding"),
                        generations=barren_generations)
                    pool = None
                elif pending:
                    get_registry().counter("supervisor.rebuilds").inc()
                    obs_events.emit(
                        "supervisor.rebuild", level="info",
                        msg=(f"rebuilding worker pool "
                             f"(generation completed {completed} "
                             f"task(s), {len(pending)} remain)"),
                        completed=completed, remaining=len(pending))
                    pool = self._make_pool()
        except KeyboardInterrupt:
            # Ctrl-C mid-sweep: abandon the pool without waiting (its
            # workers got the same SIGINT), persist what supervision
            # learned so far, and hand the completed outcomes to the
            # engine so the partial sweep is reported, not discarded.
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            self.quarantine.write()
            raise SweepInterrupted(outcomes) from None
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        self.quarantine.write()
        return outcomes


__all__ = [
    "QUARANTINE_FORMAT", "PoolSupervisor", "Quarantine",
    "SupervisorPolicy", "suspect_task_ids",
]
