"""Fault-tolerant task runner (the experiment execution subsystem).

The paper's economics rest on running *many* design points per profile
(Figure 1; the section 4.6 sweep evaluates 1,792 configurations), so a
multi-benchmark experiment is a batch job: one crashed benchmark must
not discard the other nine benchmarks' finished work.  This module
decomposes an experiment into :class:`WorkUnit`\\ s and executes each
with

* **exception containment** — a unit that raises is recorded as a
  structured failure instead of aborting the suite;
* **wall-clock timeouts** — a hung unit becomes a retryable
  :class:`~repro.errors.TaskTimeoutError`;
* **bounded retry with backoff** — retryable errors (timeouts,
  injected transients) are re-attempted up to ``max_retries`` times;
* **checkpoint/resume** — each completed unit is persisted atomically
  to a run directory, so a killed sweep resumes where it stopped and
  re-runs only failed or missing units.

A unit that exhausts its retries degrades gracefully: it is excluded
from aggregate tables (with an explicit warning in the rendered
output) and surfaced in the run summary as ``N ok / M failed /
K skipped`` instead of crashing the experiment.
"""

from __future__ import annotations

import random
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import (
    ArtifactCorruptError,
    TaskTimeoutError,
    is_retryable,
)
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.obs.profiling import maybe_profiled
from repro.obs.tracing import trace_span
from repro.faults import plan_from_env
from repro.runner.checkpoint import CheckpointStore

#: Sentinel: "no explicit plan given, consult the environment".
_ENV_PLAN = object()

OK = "ok"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass(frozen=True)
class WorkUnit:
    """One independently executable piece of an experiment."""

    experiment: str
    benchmark: Optional[str] = None
    seed: Optional[int] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def unit_id(self) -> str:
        parts = [self.experiment]
        if self.benchmark is not None:
            parts.append(self.benchmark)
        if self.seed is not None:
            parts.append(f"seed{self.seed}")
        parts.extend(f"{key}={value}" for key, value in self.params)
        return "/".join(parts)


@dataclass(frozen=True)
class RunnerPolicy:
    """Execution policy: timeout and retry behaviour per unit."""

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0


def backoff_delay(attempt: int, base: float, cap: float,
                  rng: Optional[random.Random] = None) -> float:
    """Seconds to wait before retry number *attempt* (1-based): *base*
    doubling per attempt, capped at *cap*.

    Without *rng* the delay is deterministic (the runner's retries);
    with one it is jittered into ``[delay/2, delay]`` so a herd of
    service clients decorrelates instead of re-colliding.
    """
    delay = min(cap, base * 2 ** (attempt - 1))
    if rng is not None:
        delay *= 0.5 + rng.random() / 2
    return delay


@dataclass
class UnitOutcome:
    """What happened to one work unit."""

    unit_id: str
    status: str  # OK | FAILED | SKIPPED
    benchmark: Optional[str] = None
    seed: Optional[int] = None
    result: Optional[Any] = None
    error: Optional[Dict[str, Any]] = None
    attempts: int = 0
    elapsed: float = 0.0
    #: The exception behind a FAILED outcome (in-process only; never
    #: checkpointed).
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False)

    def to_payload(self) -> Dict[str, Any]:
        status = OK if self.status == SKIPPED else self.status
        return {
            "unit_id": self.unit_id,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "status": status,
            "result": self.result,
            "error": self.error,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }


@dataclass
class RunReport:
    """Aggregate outcome of one runner invocation."""

    outcomes: List[UnitOutcome] = field(default_factory=list)

    def _with_status(self, status: str) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def ok(self) -> List[UnitOutcome]:
        return self._with_status(OK)

    @property
    def failed(self) -> List[UnitOutcome]:
        return self._with_status(FAILED)

    @property
    def skipped(self) -> List[UnitOutcome]:
        return self._with_status(SKIPPED)

    @property
    def results(self) -> List[Any]:
        """Results of successful units (fresh and resumed), in unit
        order."""
        return [o.result for o in self.outcomes if o.status != FAILED]

    def summary(self) -> str:
        return (f"{len(self.ok)} ok / {len(self.failed)} failed / "
                f"{len(self.skipped)} skipped")

    def warning_lines(self) -> List[str]:
        lines = []
        for outcome in self.failed:
            error = outcome.error or {}
            lines.append(
                f"WARNING: {outcome.unit_id} failed after "
                f"{outcome.attempts} attempt(s): "
                f"{error.get('type', 'Error')}: "
                f"{error.get('message', 'unknown error')}")
        return lines


class ResultRows(List[Dict]):
    """Experiment rows plus the run report that produced them.

    Behaves exactly like the plain ``List[Dict]`` experiments always
    returned, so existing callers are unaffected; renderers inspect
    ``.report`` to append degradation warnings and the run summary.
    """

    report: Optional[RunReport]

    def __init__(self, rows: Sequence[Dict] = (),
                 report: Optional[RunReport] = None) -> None:
        super().__init__(rows)
        self.report = report


def report_footer(rows: Sequence[Dict]) -> str:
    """Warning + summary lines for a table built from *rows*, or ""
    when every unit succeeded and nothing was resumed."""
    report = getattr(rows, "report", None)
    if report is None:
        return ""
    lines = report.warning_lines()
    if lines or report.skipped:
        lines.append(f"run summary: {report.summary()}")
    return "\n".join(lines)


def _error_info(error: BaseException) -> Dict[str, Any]:
    return {
        "type": type(error).__name__,
        "message": str(error),
        "retryable": is_retryable(error),
        # The formatted traceback makes a contained failure debuggable
        # from the checkpoint / failure record alone — essential once
        # the error crossed a process boundary and the live traceback
        # object is gone.
        "traceback": "".join(traceback.format_exception(
            type(error), error, error.__traceback__)),
    }


def call_with_timeout(fn: Callable[[], Any], timeout: Optional[float],
                      name: str) -> Any:
    """Run ``fn()`` with a wall-clock budget.

    Raises :class:`~repro.errors.TaskTimeoutError` when *timeout*
    seconds elapse first; with ``timeout=None`` the call runs inline.
    The timed-out worker thread is abandoned (Python cannot kill it);
    being a daemon it will not block interpreter exit.
    """
    if timeout is None:
        return fn()
    box: Dict[str, Any] = {}

    def worker() -> None:
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            box["error"] = exc

    thread = threading.Thread(target=worker, daemon=True,
                              name=f"repro-unit-{name}")
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise TaskTimeoutError(
            f"{name} exceeded its {timeout:g}s budget")
    if "error" in box:
        raise box["error"]
    return box["result"]


def run_attempts(fn: Callable[[], Any], unit_id: str,
                 policy: RunnerPolicy, fault_plan: Optional[Any] = None,
                 benchmark: Optional[str] = None,
                 seed: Optional[int] = None,
                 log: Optional[Callable[[str], None]] = None
                 ) -> UnitOutcome:
    """The retry loop shared by :class:`TaskRunner` and the design-space
    workers: per attempt, inject faults, then run ``fn()`` under the
    policy's timeout; retry retryable errors with backoff up to
    ``max_retries`` times; contain the final error in the outcome."""
    registry = get_registry()
    attempt = 0
    started = time.perf_counter()
    obs_events.emit("unit_start", level="debug",
                    unit=unit_id, benchmark=benchmark, seed=seed)
    while True:
        attempt += 1
        try:
            if fault_plan is not None:
                fault_plan.inject(unit_id, benchmark, attempt)
            result = call_with_timeout(fn, policy.timeout, unit_id)
        except Exception as exc:  # noqa: BLE001 — containment
            if isinstance(exc, TaskTimeoutError):
                registry.counter("runner.timeouts").inc()
                obs_events.emit("unit_timeout", level="warning",
                                unit=unit_id, benchmark=benchmark,
                                attempt=attempt, timeout=policy.timeout)
            if is_retryable(exc) and attempt <= policy.max_retries:
                delay = backoff_delay(attempt, policy.backoff_base,
                                      policy.backoff_cap)
                registry.counter("runner.retries").inc()
                message = (f"{unit_id}: attempt {attempt} "
                           f"failed ({type(exc).__name__}: {exc}); "
                           f"retrying in {delay:g}s")
                obs_events.emit("unit_retry", msg=message,
                                level="warning", unit=unit_id,
                                benchmark=benchmark, attempt=attempt,
                                error=type(exc).__name__, backoff=delay)
                if log is not None:
                    log(message)
                if delay > 0:
                    time.sleep(delay)
                continue
            elapsed = time.perf_counter() - started
            registry.counter("runner.units_failed").inc()
            registry.histogram("runner.unit_seconds").observe(elapsed)
            error = _error_info(exc)
            obs_events.emit("unit_failed", level="warning",
                            unit=unit_id, benchmark=benchmark,
                            attempts=attempt,
                            error=type(exc).__name__,
                            message=str(exc),
                            traceback=error["traceback"],
                            elapsed=round(elapsed, 6))
            return UnitOutcome(
                unit_id=unit_id, status=FAILED, benchmark=benchmark,
                seed=seed, error=error, attempts=attempt,
                elapsed=elapsed, exception=exc)
        elapsed = time.perf_counter() - started
        registry.counter("runner.units_ok").inc()
        registry.histogram("runner.unit_seconds").observe(elapsed)
        obs_events.emit("unit_ok", level="debug",
                        unit=unit_id, benchmark=benchmark,
                        attempts=attempt, elapsed=round(elapsed, 6))
        return UnitOutcome(
            unit_id=unit_id, status=OK, benchmark=benchmark, seed=seed,
            result=result, attempts=attempt, elapsed=elapsed)


class TaskRunner:
    """Executes work units with containment, timeouts, retries and
    checkpointing.  See the module docstring for semantics."""

    def __init__(
        self,
        policy: Optional[RunnerPolicy] = None,
        run_dir: Optional[Union[str, "Path"]] = None,
        resume: bool = False,
        fault_plan: Any = _ENV_PLAN,
        raise_on_total_failure: bool = True,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.policy = policy or RunnerPolicy()
        self.store = CheckpointStore(run_dir) if run_dir else None
        self.resume = resume
        if fault_plan is _ENV_PLAN:
            fault_plan = plan_from_env()
        self.fault_plan: Optional[Any] = fault_plan
        self.raise_on_total_failure = raise_on_total_failure
        self.log = log or (lambda message: None)
        self.last_report: Optional[RunReport] = None

    # -- execution -----------------------------------------------------

    def _attempt_loop(self, fn: Callable[[WorkUnit], Any],
                      unit: WorkUnit) -> UnitOutcome:
        # One span per work unit, so a stitched fleet trace shows each
        # unit (with retries inside it) as a child of whatever sweep /
        # job span dispatched it.
        span_fields = {"unit": unit.unit_id}
        if unit.benchmark is not None:
            span_fields["bench"] = unit.benchmark
        if unit.seed is not None:
            span_fields["seed"] = unit.seed
        with trace_span("unit", **span_fields):
            return run_attempts(
                maybe_profiled(lambda: fn(unit), unit.unit_id),
                unit.unit_id, self.policy, self.fault_plan,
                benchmark=unit.benchmark, seed=unit.seed, log=self.log)

    def _resume_outcome(self, unit: WorkUnit) -> Optional[UnitOutcome]:
        """A SKIPPED outcome when the unit already completed in a
        previous run, else None (run it)."""
        if self.store is None or not self.resume:
            return None
        try:
            payload = self.store.load(unit.unit_id)
        except ArtifactCorruptError as exc:
            message = (f"{unit.unit_id}: discarding corrupt checkpoint "
                       f"({exc}); re-running")
            obs_events.emit("checkpoint_corrupt", msg=message,
                            level="warning", unit=unit.unit_id,
                            benchmark=unit.benchmark)
            self.log(message)
            self.store.discard(unit.unit_id)
            return None
        if payload is None or payload.get("status") != OK:
            return None  # missing or failed units re-run
        get_registry().counter("runner.units_resumed").inc()
        obs_events.emit("unit_resumed",
                        msg=f"{unit.unit_id}: resumed from checkpoint",
                        level="info",
                        unit=unit.unit_id, benchmark=unit.benchmark)
        return UnitOutcome(
            unit_id=unit.unit_id, status=SKIPPED,
            benchmark=unit.benchmark, seed=unit.seed,
            result=payload.get("result"),
            attempts=int(payload.get("attempts", 1)),
            elapsed=float(payload.get("elapsed", 0.0)))

    def run(self, units: Sequence[WorkUnit],
            fn: Callable[[WorkUnit], Any],
            manifest: Optional[Dict[str, Any]] = None) -> RunReport:
        """Execute every unit; return the aggregate report.

        ``fn(unit)`` must return a JSON-serializable value for the
        checkpoint to round-trip.  When every unit fails (and at least
        one ran), the last exception is re-raised so a systematically
        broken experiment still fails loudly.
        """
        if self.store is not None and manifest is not None:
            self.store.write_manifest(manifest)
        self._last_error: Optional[BaseException] = None
        report = RunReport()
        for unit in units:
            outcome = self._resume_outcome(unit)
            if outcome is None:
                outcome = self._attempt_loop(fn, unit)
                if outcome.exception is not None:
                    self._last_error = outcome.exception
                if self.store is not None:
                    try:
                        self.store.store(unit.unit_id,
                                         outcome.to_payload())
                    except (TypeError, ValueError) as exc:
                        # Non-JSON-serializable result: the unit still
                        # succeeded, it just cannot be resumed.
                        self.log(f"{unit.unit_id}: result not "
                                 f"checkpointable ({exc})")
            else:
                self.log(f"{unit.unit_id}: resumed from checkpoint")
            report.outcomes.append(outcome)
        self.last_report = report
        obs_events.emit("runner_summary", level="debug",
                        units=len(report.outcomes),
                        ok=len(report.ok), failed=len(report.failed),
                        skipped=len(report.skipped))
        if self.store is not None:
            # The per-run observability manifest lives alongside the
            # checkpoints, so a crashed or resumed run keeps its
            # wall-clock breakdown and counters on disk.
            get_registry().write(self.store.run_dir / "metrics.json")
        if (self.raise_on_total_failure and report.outcomes
                and len(report.failed) == len(report.outcomes)
                and self._last_error is not None):
            raise self._last_error
        return report
