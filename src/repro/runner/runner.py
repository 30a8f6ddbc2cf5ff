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
* **durable results** — with a run directory, each unit that
  finishes ok is an entry of the content-addressed
  :class:`~repro.dse.cache.ResultCache` there, keyed by the unit id
  plus the inputs the unit reads; a later run with the same inputs
  (a resume after a crash or kill) skips it, while failed, missing or
  differently-parameterised units run.

A unit that exhausts its retries degrades gracefully: it is excluded
from aggregate tables (with an explicit warning in the rendered
output) and surfaced in the run summary as ``N ok / M failed /
K skipped`` instead of crashing the experiment.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
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

from repro.errors import TaskTimeoutError, is_retryable
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.obs.profiling import maybe_profiled
from repro.obs.tracing import trace_span
from repro.faults import active_plan

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


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Seconds to wait before retry number *attempt* (1-based): *base*
    doubling per attempt, capped at *cap*."""
    return min(cap, base * 2 ** (attempt - 1))


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
    #: stored).
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False)


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
        # from the failure record alone — essential once
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
                 policy: RunnerPolicy, benchmark: Optional[str] = None,
                 seed: Optional[int] = None) -> UnitOutcome:
    """The retry loop shared by :class:`TaskRunner` and the design-space
    workers: per attempt, inject the active plan's faults, then run
    ``fn()`` under the policy's timeout; retry retryable errors with
    backoff up to ``max_retries`` times; contain the final error in the
    outcome."""
    # Resolved outside the containment below, so a malformed
    # REPRO_CHAOS fails the run loudly instead of failing each unit.
    plan = active_plan()
    registry = get_registry()
    attempt = 0
    started = time.perf_counter()
    obs_events.emit("unit_start", level="debug",
                    unit=unit_id, benchmark=benchmark, seed=seed)
    while True:
        attempt += 1
        try:
            if plan is not None:
                plan.inject(unit_id, benchmark, attempt)
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
    durable results.  See the module docstring for semantics."""

    def __init__(
        self,
        policy: Optional[RunnerPolicy] = None,
        run_dir: Optional[Union[str, Path]] = None,
        raise_on_total_failure: bool = True,
    ) -> None:
        self.policy = policy or RunnerPolicy()
        self.run_dir = Path(run_dir) if run_dir else None
        self.cache = None
        if self.run_dir is not None:
            # Imported here: repro.dse imports this module.
            from repro.dse.cache import ResultCache

            self.cache = ResultCache(self.run_dir)
        self.raise_on_total_failure = raise_on_total_failure
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
                unit.unit_id, self.policy, benchmark=unit.benchmark,
                seed=unit.seed)

    def _key(self, unit: WorkUnit,
             inputs: Optional[Dict[str, Any]]) -> Optional[str]:
        """*unit*'s content address in the run directory (None without
        one)."""
        if self.cache is None:
            return None
        from repro.dse.cache import content_key

        return content_key({"unit": unit.unit_id, "inputs": inputs})

    def _stored_outcome(self, unit: WorkUnit,
                        key: str) -> Optional[UnitOutcome]:
        """A SKIPPED outcome when *key*'s result is already stored,
        else None (run it)."""
        entry = self.cache.get(key)
        stored = entry.get("metrics") if entry is not None else None
        if not isinstance(stored, dict) or "result" not in stored:
            return None
        meta = entry.get("meta") or {}
        get_registry().counter("runner.units_resumed").inc()
        message = f"{unit.unit_id}: resumed from checkpoint"
        obs_events.emit("unit_resumed", msg=message, level="info",
                        unit=unit.unit_id, benchmark=unit.benchmark)
        return UnitOutcome(
            unit_id=unit.unit_id, status=SKIPPED,
            benchmark=unit.benchmark, seed=unit.seed,
            result=stored["result"],
            attempts=int(meta.get("attempts", 1)),
            elapsed=float(meta.get("elapsed", 0.0)))

    def _store(self, key: str, outcome: UnitOutcome) -> None:
        try:
            self.cache.put(key, {"result": outcome.result}, meta={
                "unit": outcome.unit_id, "attempts": outcome.attempts,
                "elapsed": outcome.elapsed})
        except (TypeError, ValueError) as exc:
            # Non-JSON-serializable result: the unit still succeeded,
            # it just cannot be reused.
            obs_events.emit("unit_not_storable", level="warning",
                            msg=(f"{outcome.unit_id}: result not "
                                 f"storable ({exc})"),
                            unit=outcome.unit_id,
                            error=type(exc).__name__)

    def run(self, units: Sequence[WorkUnit],
            fn: Callable[[WorkUnit], Any],
            inputs: Optional[Dict[str, Any]] = None) -> RunReport:
        """Execute every unit; return the aggregate report.

        ``fn(unit)`` must return a JSON-serializable value for its
        result to be stored.  *inputs* is everything ``fn`` reads
        besides the unit itself (scale, sweep points, ...): with a run
        directory, a unit's stored result is reused only by a run with
        the same unit id and the same *inputs*.  When every unit fails
        (and at least one ran), the last exception is re-raised so a
        systematically broken experiment still fails loudly.
        """
        last_error: Optional[BaseException] = None
        report = RunReport()
        for unit in units:
            key = self._key(unit, inputs)
            outcome = (self._stored_outcome(unit, key)
                       if key is not None else None)
            if outcome is None:
                outcome = self._attempt_loop(fn, unit)
                if outcome.exception is not None:
                    last_error = outcome.exception
                elif key is not None:
                    self._store(key, outcome)
            report.outcomes.append(outcome)
        self.last_report = report
        obs_events.emit("runner_summary", level="debug",
                        units=len(report.outcomes),
                        ok=len(report.ok), failed=len(report.failed),
                        skipped=len(report.skipped))
        if self.run_dir is not None:
            # The run's metrics snapshot lives alongside its stored
            # results, so a crashed or resumed run keeps its
            # wall-clock breakdown and counters on disk.
            get_registry().write(self.run_dir / "metrics.json")
        if (self.raise_on_total_failure and report.outcomes
                and len(report.failed) == len(report.outcomes)
                and last_error is not None):
            raise last_error
        return report
