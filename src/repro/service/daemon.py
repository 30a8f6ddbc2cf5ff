"""The simulation service daemon: ``repro serve``.

An asyncio Unix-socket server in front of the durable
:class:`~repro.service.jobs.JobStore`.  The contract, in order of
importance:

* **Durability** — every acknowledged mutation is journaled before the
  reply leaves the socket; ``kill -9`` then restart replays to exactly
  the acknowledged state, and running jobs whose lease went stale are
  requeued (:meth:`JobStore.recover`).
* **Idempotency** — submissions are content-addressed; a client
  retrying after a dropped connection (the ``submit-drop`` chaos site
  simulates the ack getting lost *after* the journal write) lands on
  the same job.
* **Admission control** — a bounded queue and a per-client in-flight
  cap; over-limit submissions are rejected with a ``retry_after`` hint
  instead of queueing unboundedly.  Deduplicating resubmissions bypass
  the caps (they add no work).
* **Graceful drain** — SIGTERM/SIGINT stops admissions, lets running
  jobs finish until ``drain_deadline``, requeues the rest, writes a
  final checkpoint and removes the socket.

One daemon per state directory, enforced with an exclusive
``daemon.lock`` flock.  Job lifecycle flows through
:mod:`repro.obs.events` (``service.job_*``), and an in-process event
sink fans those out to ``repro tail`` connections.
"""

from __future__ import annotations

import asyncio
import fcntl
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Union

from repro.errors import ServiceError
from repro.faults import plan_from_env
from repro.obs import events as obs_events
from repro.obs import flightrec, telemetry
from repro.obs.exposition import aggregate_run_dir, render_openmetrics
from repro.obs.metrics import get_registry
from repro.obs.telemetry import TraceContext
from repro.obs.tracing import trace_span
from repro.service import protocol
from repro.service.jobs import JobStore, TERMINAL_STATES
from repro.service.runner import run_job

#: Passed to ``ServiceConfig.fault_plan`` consumers meaning "consult
#: the environment" (same convention as the dse engine).
_ENV_PLAN = object()


def default_socket_path(state_dir: Union[str, Path]) -> Path:
    return Path(state_dir) / "service.sock"


@dataclass
class ServiceConfig:
    """Everything tunable about one daemon."""

    state_dir: Path
    socket_path: Optional[Path] = None
    workers: int = 1
    max_queue_depth: int = 32
    max_client_inflight: int = 4
    lease_ttl: float = 15.0
    heartbeat_interval: float = 2.0
    checkpoint_every: int = 64
    drain_deadline: float = 10.0
    retry_after: float = 0.5

    def __post_init__(self) -> None:
        self.state_dir = Path(self.state_dir)
        if self.socket_path is None:
            self.socket_path = default_socket_path(self.state_dir)
        else:
            self.socket_path = Path(self.socket_path)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_client_inflight < 1:
            raise ValueError("max_client_inflight must be >= 1")


@dataclass(eq=False)
class _Tail:
    """One ``tail`` connection's subscription."""

    queue: "asyncio.Queue[Optional[Dict[str, Any]]]"
    job_id: Optional[str] = None
    delivered: int = 0
    dropped: int = 0


class Daemon:
    """The service: durable store + asyncio server + worker tasks."""

    def __init__(self, config: ServiceConfig,
                 fault_plan: Any = _ENV_PLAN,
                 job_runner: Callable[[Dict[str, Any]],
                                      Dict[str, Any]] = run_job) -> None:
        self.config = config
        if fault_plan is _ENV_PLAN:
            fault_plan = plan_from_env()
        self.fault_plan = fault_plan
        self.job_runner = job_runner
        self.store = JobStore(config.state_dir, fault_plan=fault_plan,
                              checkpoint_every=config.checkpoint_every,
                              lease_ttl=config.lease_ttl)
        self.draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._lock_handle = None
        self._wake: Optional[asyncio.Event] = None
        self._stop: Optional[asyncio.Event] = None
        self._workers: List[asyncio.Task] = []
        self._active: Set[str] = set()
        self._tails: Set[_Tail] = set()
        self._waiters: Dict[str, List[asyncio.Future]] = {}
        self._sink_installed = False

    # -- lifecycle -------------------------------------------------------

    def _acquire_lock(self) -> None:
        self.config.state_dir.mkdir(parents=True, exist_ok=True)
        handle = open(self.config.state_dir / "daemon.lock", "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.seek(0)
            holder = handle.read().strip() or "unknown pid"
            handle.close()
            raise ServiceError(
                f"another daemon (pid {holder}) already serves "
                f"{self.config.state_dir}") from None
        handle.truncate(0)
        handle.seek(0)
        handle.write(str(os.getpid()))
        handle.flush()
        self._lock_handle = handle

    def _release_lock(self) -> None:
        if self._lock_handle is not None:
            try:
                fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
            finally:
                self._lock_handle.close()
                self._lock_handle = None

    async def start(self) -> None:
        """Lock the state dir, recover the store, bind the socket and
        launch the workers."""
        self._acquire_lock()
        # The daemon is a telemetry root: it mints its own trace
        # context (jobs override it with the submitter's), writes
        # trace/metrics files under state_dir/telemetry, and keeps a
        # flight recorder so a daemon crash leaves its last moments.
        # Signals stay with the asyncio handlers (request_stop dumps).
        telemetry_dir = self.config.state_dir / "telemetry"
        telemetry.start(trace_dir=telemetry_dir)
        flightrec.install(telemetry_dir, signals=False)
        report = self.store.recover()
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stop = asyncio.Event()
        if self.store.queue_depth():
            self._wake.set()
        # The flock guarantees no live daemon owns this socket; a
        # leftover path is debris from a kill -9.
        self.config.socket_path.unlink(missing_ok=True)
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=str(self.config.socket_path))
        obs_events.add_sink(self._event_sink)
        self._sink_installed = True
        for index in range(self.config.workers):
            self._workers.append(
                self._loop.create_task(self._worker(index)))
        obs_events.emit(
            "service.started",
            msg=(f"service listening on {self.config.socket_path} "
                 f"({report.jobs} job(s) recovered, "
                 f"{len(report.requeued)} requeued)"),
            socket=str(self.config.socket_path), pid=os.getpid(),
            **report.to_payload())

    def _install_signal_handlers(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self.request_stop, signal.Signals(signum).name)
            except (NotImplementedError, RuntimeError):
                pass

    def request_stop(self, reason: str = "request") -> None:
        """Begin the drain (idempotent; signal-handler safe)."""
        if self._stop is not None and not self._stop.is_set():
            self.draining = True
            obs_events.emit("service.draining", level="warning",
                            msg=f"drain requested ({reason}); new "
                                f"submissions are rejected",
                            reason=reason)
            if reason in ("SIGTERM", "SIGINT"):
                flightrec.dump(f"drain-{reason.lower()}")
            self._stop.set()
            self._wake.set()

    async def run(self) -> int:
        """``repro serve``: start, serve until a stop signal, drain."""
        await self.start()
        self._install_signal_handlers()
        try:
            await self._stop.wait()
        finally:
            await self.shutdown()
        return 0

    async def shutdown(self) -> None:
        """Drain: stop admissions, give running jobs until the
        deadline, requeue the rest, checkpoint, unbind."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + self.config.drain_deadline
        while self._active and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        # Snapshot before cancelling: a cancelled worker's cleanup
        # clears its _active entry without touching the store.
        abandoned = sorted(self._active)
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._workers = []
        # Jobs still marked running past the deadline go back on the
        # queue: the next daemon (or this state dir's next recovery)
        # owes them a fresh attempt.  The abandoned thread may still
        # be sleeping in the job code, but it is a daemon thread and
        # its results can no longer land: the requeue entry owns the
        # work now.
        for job_id in abandoned:
            job = self.store.get(job_id)
            if job is not None and job.state == "running":
                self.store.requeue(job_id, reason="drain-deadline")
        self._active.clear()
        self.store.checkpoint()
        self.store.journal.close()
        if self._sink_installed:
            obs_events.remove_sink(self._event_sink)
            self._sink_installed = False
        for tail in list(self._tails):
            tail.queue.put_nowait(None)
        self.config.socket_path.unlink(missing_ok=True)
        self._release_lock()
        telemetry.flush_metrics(force=True)
        obs_events.emit("service.stopped",
                        msg="service stopped (state checkpointed)",
                        counts=self.store.counts())
        # Graceful exits don't need the black box; tear telemetry down
        # so a host process (tests) returns to its pre-daemon state.
        flightrec.uninstall()
        telemetry.reset()

    # -- event fan-out ---------------------------------------------------

    def _event_sink(self, payload: Dict[str, Any]) -> None:
        """obs sink: runs on the emitting thread; hop to the loop."""
        if self._loop is None or self._loop.is_closed():
            return
        if "job" not in payload and \
                not str(payload.get("event", "")).startswith("service."):
            return
        try:
            self._loop.call_soon_threadsafe(self._broadcast, payload)
        except RuntimeError:
            pass

    def _broadcast(self, payload: Dict[str, Any]) -> None:
        job_id = payload.get("job")
        for tail in list(self._tails):
            if tail.job_id is not None and job_id != tail.job_id:
                continue
            try:
                tail.queue.put_nowait(payload)
                tail.delivered += 1
            except asyncio.QueueFull:
                tail.dropped += 1

    def _resolve_waiters(self, job_id: str) -> None:
        job = self.store.get(job_id)
        for future in self._waiters.pop(job_id, []):
            if not future.done():
                future.set_result(job.summary() if job else None)

    # -- the work loop ---------------------------------------------------

    def _claim_next(self) -> Optional[str]:
        for job in self.store.queued_jobs():
            if job.job_id not in self._active:
                self._active.add(job.job_id)
                return job.job_id
        return None

    async def _worker(self, index: int) -> None:
        while True:
            if self._stop.is_set():
                return
            job_id = self._claim_next()
            if job_id is None:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(),
                                           timeout=0.5)
                except asyncio.TimeoutError:
                    pass
                continue
            try:
                await self._execute(job_id, index)
            finally:
                self._active.discard(job_id)

    async def _execute(self, job_id: str, worker: int) -> None:
        job = self.store.mark_running(job_id)
        if job is None:
            # The job left "queued" between the claim and now (a
            # cancel raced the worker): drop the claim on the floor —
            # the cancel already released the client's in-flight slot
            # and any waiters.
            return
        obs_events.emit("service.job_started",
                        msg=(f"job {job_id} started "
                             f"(attempt {job.attempts}, "
                             f"worker {worker})"),
                        job=job_id, attempt=job.attempts,
                        kind=job.payload.get("kind"), worker=worker)
        registry = get_registry()
        registry.counter("service.jobs_started").inc()
        heartbeat = self._loop.create_task(self._heartbeat(job_id))
        started = time.monotonic()
        try:
            result = await self._run_in_thread(dict(job.payload),
                                               job_id=job_id,
                                               trace=job.trace)
        except Exception as exc:  # noqa: BLE001 — job code is arbitrary
            job = self.store.mark_failed(job_id, {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(limit=8),
            })
            registry.counter("service.jobs_failed").inc()
            obs_events.emit("service.job_failed", level="warning",
                            msg=(f"job {job_id} {job.state}: "
                                 f"{type(exc).__name__}: {exc}"),
                            job=job_id, state=job.state,
                            error=type(exc).__name__)
        else:
            job = self.store.mark_done(job_id, result)
            registry.counter("service.jobs_done").inc()
            registry.histogram("service.job_seconds").observe(
                time.monotonic() - started)
            obs_events.emit("service.job_done",
                            msg=(f"job {job_id} {job.state} in "
                                 f"{time.monotonic() - started:.2f}s"),
                            job=job_id, state=job.state)
        finally:
            heartbeat.cancel()
            try:
                await heartbeat
            except asyncio.CancelledError:
                pass
        self._resolve_waiters(job_id)

    def _run_in_thread(self, payload: Dict[str, Any],
                       job_id: Optional[str] = None,
                       trace: Optional[Dict[str, Any]] = None
                       ) -> "asyncio.Future":
        """Run the job on a *daemon* thread (not the default executor):
        a drained daemon must exit at the deadline even when an
        abandoned job is still sleeping in a syscall — the requeue
        entry, not the thread, owns that work now.

        The thread adopts the submitter's trace context (falling back
        to the daemon's own) so the job span — and every sweep/unit
        span it spawns, in this or any pool process — stitches into
        the client's distributed trace.
        """
        future = self._loop.create_future()
        context = TraceContext.from_wire(trace) or telemetry.current_context()

        def deliver(setter, value):
            if not future.done():
                setter(value)

        def work():
            try:
                with telemetry.activate(context):
                    with trace_span("job", job=job_id,
                                    kind=payload.get("kind")):
                        result = self.job_runner(payload)
            except BaseException as exc:  # noqa: BLE001
                outcome = (future.set_exception, exc)
            else:
                outcome = (future.set_result, result)
            try:
                self._loop.call_soon_threadsafe(deliver, *outcome)
            except RuntimeError:
                pass  # loop already closed; the job was requeued

        threading.Thread(target=work, daemon=True,
                         name="repro-service-job").start()
        return future

    async def _heartbeat(self, job_id: str) -> None:
        beat = 0
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            beat += 1
            try:
                self.store.write_heartbeat(job_id, beat=beat)
            except OSError:
                pass

    # -- the protocol ----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError,
                        ValueError):
                    break
                if not line:
                    break
                if len(line) > protocol.MAX_LINE:
                    break
                request = protocol.decode(line)
                if request is None:
                    writer.write(protocol.encode(protocol.reject(
                        "bad-request", "unparseable request line")))
                    await writer.drain()
                    continue
                done = await self._handle_request(request, writer)
                if done:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, request: Dict[str, Any],
                              writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns True when the connection should
        close (streaming commands own the connection)."""
        cmd = request.get("cmd")
        if cmd == "ping":
            response = protocol.ok(protocol=protocol.PROTOCOL,
                                   pid=os.getpid(),
                                   draining=self.draining)
        elif cmd == "status":
            response = protocol.ok(
                protocol=protocol.PROTOCOL, pid=os.getpid(),
                draining=self.draining, counts=self.store.counts(),
                queue_depth=self.store.queue_depth(),
                active=sorted(self._active),
                workers=self.config.workers)
        elif cmd == "metrics":
            response = self._handle_metrics()
        elif cmd == "health":
            response = self._handle_health()
        elif cmd == "submit":
            return await self._handle_submit(request, writer)
        elif cmd == "jobs":
            jobs = [job.summary() for job in sorted(
                self.store.jobs.values(),
                key=lambda job: (job.created, job.job_id))]
            state = request.get("state")
            if state:
                jobs = [job for job in jobs if job["state"] == state]
            response = protocol.ok(jobs=jobs)
        elif cmd == "cancel":
            disposition = self.store.cancel(str(request.get("job", "")))
            if disposition is None:
                response = protocol.reject(
                    "unknown-job", f"no such job {request.get('job')!r}")
            else:
                if disposition == "cancelled":
                    obs_events.emit(
                        "service.job_cancelled",
                        msg=f"job {request.get('job')} cancelled",
                        job=request.get("job"))
                    self._resolve_waiters(str(request.get("job")))
                response = protocol.ok(job=request.get("job"),
                                       disposition=disposition)
        elif cmd == "wait":
            response = await self._handle_wait(request)
        elif cmd == "tail":
            await self._handle_tail(request, writer)
            return True
        else:
            response = protocol.reject("bad-request",
                                       f"unknown command {cmd!r}")
        writer.write(protocol.encode(response))
        await writer.drain()
        return False

    def _handle_metrics(self) -> Dict[str, Any]:
        """The ``metrics`` verb: fleet-aggregated counters/histograms.

        Flushes the daemon's own registry into the telemetry dir, then
        merges every per-process ``metrics-<pid>.json`` found there —
        pool workers included — so one socket round-trip answers for
        the whole fleet (``repro top``'s refresh, or an OpenMetrics
        scrape via ``repro top --openmetrics``).
        """
        telemetry.flush_metrics(force=True)
        trace_dir = telemetry.trace_directory()
        if trace_dir is not None:
            snapshot = aggregate_run_dir(trace_dir)
        else:
            snapshot = get_registry().snapshot()
        return protocol.ok(
            metrics=snapshot,
            openmetrics=render_openmetrics(snapshot),
            counts=self.store.counts(),
            queue_depth=self.store.queue_depth(),
            active=sorted(self._active),
            workers=self.config.workers,
            draining=self.draining,
            health=self._health_snapshot(),
            pid=os.getpid())

    def _health_snapshot(self) -> Dict[str, Any]:
        """The daemon process's degradation-ladder state, RSS and
        configured health policy — embedded in every ``metrics`` reply
        (for ``repro top``'s panel) and served alone by ``health``."""
        from repro.errors import HealthSpecError
        from repro.health import HealthPolicy, get_ladder, rss_mb

        try:
            policy = HealthPolicy.from_env().to_payload()
        except HealthSpecError:
            policy = None
        return {"ladder": get_ladder().snapshot(),
                "rss_mb": rss_mb(),
                "policy": policy}

    def _handle_health(self) -> Dict[str, Any]:
        return protocol.ok(health=self._health_snapshot(),
                           draining=self.draining, pid=os.getpid())

    async def _handle_submit(self, request: Dict[str, Any],
                             writer: asyncio.StreamWriter) -> bool:
        payload = request.get("payload")
        client = str(request.get("client") or "anonymous")
        if not isinstance(payload, dict) or not payload.get("kind"):
            writer.write(protocol.encode(protocol.reject(
                "bad-request", "submit needs a payload with a 'kind'")))
            await writer.drain()
            return False
        from repro.service.jobs import job_key

        key = job_key(payload)
        existing = self.store.get(key[:12])
        revives = existing is not None and \
            existing.state in ("failed", "cancelled")
        adds_work = existing is None or revives
        if adds_work:
            response = self._admission_check(client)
            if response is not None:
                get_registry().counter("service.rejected").inc()
                writer.write(protocol.encode(response))
                await writer.drain()
                return False
        trace = request.get("trace")
        job, created = self.store.submit(
            payload, client,
            trace=trace if isinstance(trace, dict) else None)
        if created or revives:
            self._wake.set()
        obs_events.emit(
            "service.job_submitted",
            msg=(f"job {job.job_id} "
                 + ("submitted" if created
                    else "revived" if revives
                    else f"deduplicated ({job.state})")
                 + f" by {client}"),
            job=job.job_id, client=client, created=created,
            state=job.state, kind=payload.get("kind"))
        # The submit-drop chaos site models the ack vanishing *after*
        # the journal write: the work is admitted, the client never
        # hears — exactly the window where a naive retry would
        # double-enqueue.
        if (self.fault_plan is not None and created
                and self.fault_plan.drops_submit(job.job_id)):
            obs_events.emit("service.submit_dropped", level="warning",
                            msg=(f"chaos: dropping submit ack for "
                                 f"job {job.job_id}"),
                            job=job.job_id)
            return True  # close without replying
        writer.write(protocol.encode(protocol.ok(
            job=job.summary(), created=created)))
        await writer.drain()
        return False

    def _admission_check(self,
                         client: str) -> Optional[Dict[str, Any]]:
        """The rejection to send, or None to admit."""
        if self.draining:
            return protocol.reject(
                "draining", "daemon is draining; resubmit elsewhere "
                "or after restart",
                retry_after=self.config.retry_after * 4)
        depth = self.store.queue_depth()
        if depth >= self.config.max_queue_depth:
            return protocol.reject(
                "queue-full",
                f"queue depth {depth} at the "
                f"{self.config.max_queue_depth} cap",
                retry_after=self.config.retry_after)
        inflight = self.store.client_inflight(client)
        if inflight >= self.config.max_client_inflight:
            return protocol.reject(
                "client-cap",
                f"client {client!r} already has {inflight} job(s) "
                f"in flight (cap {self.config.max_client_inflight})",
                retry_after=self.config.retry_after)
        return None

    async def _handle_wait(self,
                           request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = str(request.get("job", ""))
        job = self.store.get(job_id)
        if job is None:
            return protocol.reject("unknown-job",
                                   f"no such job {job_id!r}")
        if job.state in TERMINAL_STATES:
            return protocol.ok(done=True, job=job.summary())
        future = self._loop.create_future()
        self._waiters.setdefault(job_id, []).append(future)
        timeout = request.get("timeout")
        try:
            summary = await asyncio.wait_for(
                future, timeout=float(timeout) if timeout else None)
        except asyncio.TimeoutError:
            job = self.store.get(job_id)
            return protocol.ok(done=False,
                               job=job.summary() if job else None)
        finally:
            pending = self._waiters.get(job_id)
            if pending and future in pending:
                pending.remove(future)
        return protocol.ok(done=True, job=summary)

    async def _handle_tail(self, request: Dict[str, Any],
                           writer: asyncio.StreamWriter) -> None:
        """Stream job lifecycle events as JSON lines until the client
        hangs up, the daemon drains, or the tailed job finishes."""
        job_id = request.get("job")
        tail = _Tail(queue=asyncio.Queue(maxsize=1024),
                     job_id=str(job_id) if job_id else None)
        self._tails.add(tail)
        writer.write(protocol.encode(protocol.ok(tailing=True,
                                                 job=tail.job_id)))
        try:
            await writer.drain()
            if tail.job_id:
                job = self.store.get(tail.job_id)
                if job is not None and job.state in TERMINAL_STATES:
                    writer.write(protocol.encode(
                        {"event": "service.job_already_finished",
                         "job": tail.job_id, "state": job.state}))
                    await writer.drain()
                    return
            while True:
                payload = await tail.queue.get()
                if payload is None:
                    return
                writer.write(protocol.encode(payload))
                await writer.drain()
                if tail.job_id and payload.get("job") == tail.job_id \
                        and payload.get("event") in (
                            "service.job_done", "service.job_failed",
                            "service.job_cancelled"):
                    return
        except (ConnectionError, OSError):
            return
        finally:
            self._tails.discard(tail)
            try:
                writer.write(protocol.encode({"tail_end": True,
                                              "dropped": tail.dropped}))
                await writer.drain()
            except (ConnectionError, OSError):
                pass


def serve(config: ServiceConfig, fault_plan: Any = _ENV_PLAN,
          job_runner: Callable[[Dict[str, Any]],
                               Dict[str, Any]] = run_job) -> int:
    """Blocking entry point for ``repro serve``."""
    daemon = Daemon(config, fault_plan=fault_plan,
                    job_runner=job_runner)
    return asyncio.run(daemon.run())


__all__ = ["Daemon", "ServiceConfig", "default_socket_path", "serve"]
