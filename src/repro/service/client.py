"""Synchronous client for the simulation service.

One short-lived Unix-socket connection per request (``tail`` holds its
connection open).  The client owns the *retry* half of the service's
robustness contract:

* a **dropped connection** (daemon killed mid-reply, or the
  ``submit-drop`` chaos site eating the ack) is retried — safe because
  submissions are content-addressed and idempotent on the daemon side;
* an **admission-control rejection** (``queue-full``, ``client-cap``,
  ``draining``) is retried after the daemon's ``retry_after`` hint,
  stretched by jittered exponential backoff so a thundering herd of
  clients decorrelates instead of re-colliding.

Only ``bad-request``-class rejections fail immediately: retrying a
malformed request can never succeed.
"""

from __future__ import annotations

import os
import random
import socket
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.errors import JobRejectedError, ServiceError
from repro.obs import telemetry
from repro.obs.metrics import get_registry
from repro.runner.runner import backoff_delay
from repro.service import protocol

#: Rejection reasons worth retrying: transient daemon-side pressure.
RETRYABLE_REASONS = frozenset({"queue-full", "client-cap", "draining"})


class ServiceClient:
    """Talks JSON lines to a :class:`~repro.service.daemon.Daemon`."""

    def __init__(self, socket_path: Union[str, Path],
                 client_id: Optional[str] = None,
                 timeout: float = 30.0,
                 max_attempts: int = 8,
                 backoff_base: float = 0.1,
                 backoff_cap: float = 5.0,
                 rng: Optional[random.Random] = None,
                 sleep=time.sleep) -> None:
        self.socket_path = Path(socket_path)
        self.client_id = client_id or f"pid-{os.getpid()}"
        self.timeout = timeout
        self.max_attempts = max(1, max_attempts)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.rng = rng or random.Random()
        self.sleep = sleep

    # -- transport -------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(str(self.socket_path))
        return sock

    def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response exchange; raises ConnectionError on a
        dropped or unparseable reply so the retry loop can decide."""
        with self._connect() as sock:
            sock.sendall(protocol.encode(message))
            with sock.makefile("rb") as stream:
                line = stream.readline(protocol.MAX_LINE)
        response = protocol.decode(line) if line else None
        if response is None:
            raise ConnectionError("connection dropped before a reply")
        return response

    def _backoff(self, attempt: int,
                 retry_after: Optional[float]) -> float:
        """Jittered exponential delay for retry *attempt* (0-based),
        never shorter than the daemon's ``retry_after`` hint."""
        delay = backoff_delay(attempt + 1, self.backoff_base,
                              self.backoff_cap, self.rng)
        if retry_after:
            delay = max(delay, float(retry_after))
        return delay

    def request(self, message: Dict[str, Any],
                retry: bool = True) -> Dict[str, Any]:
        """Send *message*, retrying transient failures; returns the
        daemon's ``ok`` response or raises."""
        last_error: Optional[BaseException] = None
        attempts = self.max_attempts if retry else 1
        for attempt in range(attempts):
            try:
                response = self._roundtrip(message)
            except (ConnectionError, FileNotFoundError, OSError) as exc:
                last_error = exc
                if attempt + 1 < attempts:
                    self.sleep(self._backoff(attempt, None))
                continue
            if response.get("ok"):
                return response
            reason = response.get("reason", "rejected")
            if reason in RETRYABLE_REASONS and attempt + 1 < attempts:
                last_error = JobRejectedError(
                    response.get("error", reason), reason=reason,
                    retry_after=response.get("retry_after") or 0.0)
                self.sleep(self._backoff(
                    attempt, response.get("retry_after")))
                continue
            raise JobRejectedError(
                response.get("error", reason), reason=reason,
                retry_after=response.get("retry_after") or 0.0)
        if isinstance(last_error, JobRejectedError):
            raise last_error
        raise ServiceError(
            f"service at {self.socket_path} unreachable after "
            f"{attempts} attempt(s): {last_error}") from last_error

    # -- commands --------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request({"cmd": "ping"})

    def status(self) -> Dict[str, Any]:
        return self.request({"cmd": "status"})

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one job; returns ``{"job": summary, "created":
        bool}``.  Safe to call repeatedly — the daemon deduplicates by
        content hash, so a retry after a dropped ack lands on the same
        job.

        When this process has an active trace context
        (:mod:`repro.obs.telemetry`), it rides the request so the
        daemon's job span stitches into the submitter's trace —
        without entering the dedup hash.
        """
        message: Dict[str, Any] = {"cmd": "submit", "payload": payload,
                                   "client": self.client_id}
        trace = telemetry.propagation_payload()
        if trace is not None:
            message["trace"] = {"trace": trace["trace"],
                                "parent": trace.get("parent")}
        return self.request(message)

    def metrics(self) -> Dict[str, Any]:
        """The daemon's fleet-aggregated metrics (``metrics`` verb)."""
        return self.request({"cmd": "metrics"})

    def health(self) -> Dict[str, Any]:
        """The daemon's degradation-ladder state, RSS and health
        policy (``health`` verb)."""
        return self.request({"cmd": "health"})

    def jobs(self, state: Optional[str] = None) -> list:
        message: Dict[str, Any] = {"cmd": "jobs"}
        if state:
            message["state"] = state
        return self.request(message).get("jobs", [])

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request({"cmd": "cancel", "job": job_id})

    def wait(self, job_id: str,
             timeout: Optional[float] = None,
             poll: float = 0.5) -> Dict[str, Any]:
        """Block until *job_id* finishes; returns its summary.

        Survives daemon restarts mid-wait: a dropped wait connection
        falls back to polling ``jobs`` until the job turns terminal or
        *timeout* expires.
        """
        deadline = (time.monotonic() + timeout) if timeout else None
        while True:
            remaining = None
            if deadline is not None:
                remaining = max(0.1, deadline - time.monotonic())
            try:
                response = self.request(
                    {"cmd": "wait", "job": job_id,
                     "timeout": min(remaining or 30.0, 30.0)})
                if response.get("done"):
                    return response["job"]
            except ServiceError:
                pass  # daemon away; poll until it is back
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still not finished after "
                    f"{timeout}s")
            self.sleep(poll)

    def _tail_stream(self, job_id: Optional[str]
                     ) -> Iterator[Dict[str, Any]]:
        """One tail connection; raises ConnectionError when the stream
        dies without the daemon's orderly ``tail_end`` marker."""
        message: Dict[str, Any] = {"cmd": "tail"}
        if job_id:
            message["job"] = job_id
        with self._connect() as sock:
            sock.sendall(protocol.encode(message))
            sock.settimeout(None)
            with sock.makefile("rb") as stream:
                for line in stream:
                    event = protocol.decode(line)
                    if event is None:
                        continue
                    if event.get("tail_end"):
                        yield event
                        return
                    if event.get("ok") and event.get("tailing"):
                        continue  # the subscription ack
                    yield event
        raise ConnectionError("tail stream dropped without tail_end")

    def tail(self, job_id: Optional[str] = None,
             reconnect: bool = True) -> Iterator[Dict[str, Any]]:
        """Yield job lifecycle events as the daemon emits them.

        Ends when the daemon drains (orderly ``tail_end``) or the
        tailed job finishes.  A stream that just *drops* — daemon
        killed, restarted — is reconnected with the same jittered
        exponential backoff as ``submit`` retries (``tail.reconnects``
        counts them); the attempt budget resets whenever an event
        actually arrives, so a long-lived tail survives any number of
        daemon restarts as long as each outage stays under the budget.
        """
        attempt = 0
        while True:
            received = False
            try:
                for event in self._tail_stream(job_id):
                    if event.get("tail_end"):
                        return
                    received = True
                    attempt = 0
                    yield event
                return
            except (ConnectionError, FileNotFoundError, OSError):
                if not reconnect:
                    return
                if received:
                    attempt = 0
                if attempt + 1 >= self.max_attempts:
                    raise ServiceError(
                        f"tail of {self.socket_path} dropped and "
                        f"stayed unreachable after "
                        f"{self.max_attempts} attempt(s)")
                get_registry().counter("tail.reconnects").inc()
                self.sleep(self._backoff(attempt, None))
                attempt += 1


__all__ = ["RETRYABLE_REASONS", "ServiceClient"]
