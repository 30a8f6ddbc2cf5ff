"""Structured error hierarchy for the statistical simulation stack.

Every layer boundary raises a :class:`ReproError` subclass so callers —
most importantly the fault-tolerant task runner
(:mod:`repro.runner`) — can tell retryable conditions (timeouts,
injected transients) from fatal ones (corrupt artifacts, invalid
inputs) without string-matching messages.

The subclasses also inherit the closest builtin exception
(:class:`ValueError`, :class:`TimeoutError`, ...) so code written
against the pre-hierarchy API keeps working.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every structured error raised by this package.

    ``retryable`` marks conditions a supervisor may reasonably retry
    (transient faults, timeouts); everything else is deterministic and
    retrying would only repeat the failure.
    """

    retryable: bool = False


class ProfileError(ReproError, ValueError):
    """Invalid input to statistical profiling (bad order, branch mode,
    or malformed trace)."""


class SynthesisError(ReproError, ValueError):
    """Synthetic trace generation failed (bad reduction factor, empty
    or foreign flow graph)."""


class SimulationError(ReproError, ValueError):
    """The pipeline simulator was given an unusable configuration or
    instruction source."""


class ArtifactCorruptError(ReproError, ValueError):
    """A persisted artifact (profile, checkpoint, cached result) is
    truncated, fails its checksum, or is missing required fields."""


class ProfileValidationError(ArtifactCorruptError):
    """A loaded profile is structurally sound JSON but violates a
    statistical invariant (negative histogram mass, inconsistent
    occurrence counts, transition probabilities that cannot sum to 1).
    Subclasses :class:`ArtifactCorruptError` so existing artifact
    handling (discard-and-rerun) applies unchanged."""


class SweepSpecError(ReproError, ValueError):
    """A design-space sweep specification (:mod:`repro.dse.space`) is
    malformed: unknown mode, unsweepable field, or empty expansion."""


class WorkloadSpecError(ReproError, ValueError):
    """A workload specification (:class:`~repro.workloads.generator.
    WorkloadConfig`) describes an impossible program: no instruction
    classes with positive mass, memory instructions without memory
    streams, branch fractions that cannot form a distribution.
    Subclasses :class:`ValueError` so pre-hierarchy callers keep
    working."""


class FuzzDiscrepancyError(ReproError):
    """The differential fuzzing oracle (:mod:`repro.fuzz`) found the
    optimized pipeline and the frozen reference disagreeing on a
    generated program, or a synthetic stream's statistics falling
    outside the acceptance tolerances.  Not retryable: the discrepancy
    is deterministic given the case seed."""


class ChaosSpecError(ReproError, ValueError):
    """A ``REPRO_CHAOS`` chaos-injection spec string
    (:mod:`repro.faults`) is malformed: unknown site, unknown key, or
    an out-of-range value."""


class HealthSpecError(ReproError, ValueError):
    """A ``REPRO_HEALTH`` health-policy spec string
    (:mod:`repro.health`) is malformed: unknown key, non-numeric or
    out-of-range value, or a hard RSS ceiling below the soft one."""


class DeadlineExceededError(ReproError, TimeoutError):
    """The end-to-end health deadline (:mod:`repro.health`) expired
    while this point was still simulating.  Raised from a cooperative
    cancel checkpoint *inside* the pipeline or synthesis loop, so the
    point stops within milliseconds instead of at the next pool
    barrier.  Not retryable: the budget is gone for every attempt."""


class MemoryBudgetError(ReproError, MemoryError):
    """A worker's RSS crossed the hard ceiling of its health policy
    (:mod:`repro.health`).  The point fails cleanly — flight-recorder
    dump, structured error — instead of gambling on the OOM killer.
    Not retryable: re-running the same point would balloon again."""


class CanaryDriftError(ReproError):
    """The sampled statistical canary on the vector path found the
    columnar draws drifting outside the acceptance tolerances
    (:mod:`repro.fuzz.acceptance`).  Retryable by design: the canary
    trips the vector circuit breaker first, so the retry lands on the
    scalar rung of the degradation ladder."""

    retryable = True


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-sweep.  Subclasses ``KeyboardInterrupt`` (so
    any generic interrupt handling still applies) and carries the
    outcomes the supervisor had already collected, letting the engine
    report the partial sweep instead of discarding finished work."""

    def __init__(self, outcomes=None) -> None:
        super().__init__("sweep interrupted")
        self.outcomes = list(outcomes or [])


class WorkerCrashError(ReproError):
    """A pool worker process died (segfault, OOM kill, injected
    worker-kill) while executing a task.  Retryable: the supervisor
    requeues the task onto a rebuilt pool until the per-point crash
    budget is exhausted, at which point the task is quarantined."""

    retryable = True


class TaskTimeoutError(ReproError, TimeoutError):
    """A work unit exceeded its wall-clock budget."""

    retryable = True


class InjectedFaultError(ReproError):
    """A transient failure injected by the fault-injection hook
    (:mod:`repro.faults`); used to test the runner against itself."""

    retryable = True


class InjectedIOError(InjectedFaultError, OSError):
    """An injected filesystem failure (the ``io-error`` chaos site).
    Subclasses :class:`OSError` so it flows through exactly the code
    paths a real disk error would."""


def is_retryable(error: BaseException) -> bool:
    """Whether a supervisor should consider retrying after *error*."""
    return bool(getattr(error, "retryable", False))
