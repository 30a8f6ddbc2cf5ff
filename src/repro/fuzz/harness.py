"""The fuzzing harness: case loop and verdicts.

One fuzz *case* is evaluated in up to two layers:

1. **acceptance** — the paper's profile → reduce → synthesize loop runs
   on the case program's trace, and the synthetic statistics must
   converge to the profile within scaled tolerances
   (:mod:`repro.fuzz.acceptance`);
2. **vector** (``--vector``) — the columnar batch generator
   (:mod:`repro.core.columnar`) synthesizes from the same profile, and
   its statistically-equivalent draw stream must converge to the
   profile under the same tolerances.

Cases execute under the shared :class:`~repro.runner.TaskRunner`, so
per-case timeouts, retries and crash containment behave exactly like
``repro experiment``; the active chaos plan (``--chaos`` or
``REPRO_CHAOS``) composes, and ``task-fail``/``slow-call`` exercise the
containment.

Everything is deterministic given ``(seed, case count, tolerances)``:
identical invocations produce identical verdicts, which is what makes
``repro fuzz --stats-only`` trackable over time like the benchmark
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.fuzz.acceptance import (
    AcceptanceReport,
    ToleranceConfig,
    acceptance_report,
)
from repro.fuzz.generator import FuzzCase, random_case
from repro.obs.metrics import get_registry
from repro.obs.tracing import trace_span
from repro.runner import RunnerPolicy, TaskRunner, WorkUnit

OK = "ok"
#: Kept as an always-zero count in the ``--stats-only`` payload
#: (schema 1); the pipeline differential lives in the test suite.
DIFFERENTIAL = "differential"
ACCEPTANCE = "acceptance"
VECTOR = "vector"
ERROR = "error"


@dataclass(frozen=True)
class FuzzPolicy:
    """Knobs of one fuzzing run."""

    cases: int = 25
    seed: int = 0
    timeout: Optional[float] = None
    retries: int = 0
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    #: Adds a second layer: the columnar batch generator's draws must
    #: satisfy the same statistical acceptance against the profile as
    #: the scalar generator's (``repro fuzz --vector``).
    vector: bool = False


@dataclass
class CaseVerdict:
    """The outcome of one fuzz case."""

    case_id: str
    status: str  # ok | acceptance | vector | error
    detail: str = ""
    #: Acceptance margins per statistic (tolerance - deviation; negative
    #: means the statistic failed).  Empty when acceptance never ran.
    margins: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "case_id": self.case_id,
            "status": self.status,
            "detail": self.detail,
            "margins": self.margins,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CaseVerdict":
        return cls(
            case_id=data["case_id"],
            status=data["status"],
            detail=data.get("detail", ""),
            margins=dict(data.get("margins", {})),
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing run."""

    seed: int
    verdicts: List[CaseVerdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(verdict.status == OK for verdict in self.verdicts)

    def count(self, status: str) -> int:
        return sum(1 for verdict in self.verdicts
                   if verdict.status == status)

    def summary(self) -> str:
        parts = (f"{len(self.verdicts)} cases: {self.count(OK)} ok, "
                 f"{self.count(ACCEPTANCE)} acceptance, ")
        if self.count(VECTOR):
            parts += f"{self.count(VECTOR)} vector, "
        return parts + f"{self.count(ERROR)} error"

    def stats_payload(self) -> Dict:
        """The deterministic JSON summary behind ``--stats-only``.

        No wall-clock fields: two runs with the same seed and case
        count produce byte-identical payloads, so the file diffs
        cleanly in CI history.  Means use ``math.fsum``, which rounds
        correctly on every Python version (``sum`` over floats
        compensates from 3.12 on and rounds differently).
        """
        margins: Dict[str, List[float]] = {}
        for verdict in self.verdicts:
            for name, margin in verdict.margins.items():
                margins.setdefault(name, []).append(margin)
        margin_stats = {
            name: {
                "min": min(values),
                "mean": math.fsum(values) / len(values),
                "cases": len(values),
            }
            for name, values in sorted(margins.items())
        }
        return {
            "schema": 1,
            "cases": len(self.verdicts),
            "seed": self.seed,
            "verdicts": {
                OK: self.count(OK),
                DIFFERENTIAL: self.count(DIFFERENTIAL),
                ACCEPTANCE: self.count(ACCEPTANCE),
                VECTOR: self.count(VECTOR),
                ERROR: self.count(ERROR),
            },
            "acceptance_margins": margin_stats,
            "failed_cases": [verdict.to_dict()
                             for verdict in self.verdicts
                             if verdict.status != OK],
        }


def _vector_synthetic(profile, case: FuzzCase):
    """The columnar generator's draws for *case*, materialized as a
    scalar trace so the acceptance checks apply unchanged."""
    from repro.core.columnar import generate_columnar_trace

    columnar = generate_columnar_trace(profile, case.reduction_factor,
                                       seed=case.synthesis_seed)
    return columnar.to_synthetic_trace()


def _case_profile(case: FuzzCase):
    """The paper's profile of *case*: run its program and profile the
    trace on its machine."""
    from repro.core.profiler import profile_trace
    from repro.frontend.functional import run_program

    trace = run_program(case.program(), case.trace_instructions,
                        warmup=case.warmup)
    return profile_trace(trace, case.machine_config(), order=case.order)


def _acceptance(profile, case: FuzzCase, tolerances: ToleranceConfig,
                vector: bool = False) -> AcceptanceReport:
    """Synthesize from *profile* (the columnar generator's draws with
    *vector*) and check the synthetic statistics against it."""
    if vector:
        synthetic = _vector_synthetic(profile, case)
    else:
        from repro.core.synthesis import generate_synthetic_trace

        synthetic = generate_synthetic_trace(
            profile, case.reduction_factor, seed=case.synthesis_seed)
    return acceptance_report(profile, synthetic, tolerances)


def evaluate_case(case: FuzzCase, policy: FuzzPolicy) -> CaseVerdict:
    """Run the acceptance (and, with *policy.vector*, vector) checks
    for one case."""
    registry = get_registry()

    with trace_span("fuzz.case", case=case.case_id):
        profile = _case_profile(case)
        # ---- layer 1: statistical acceptance ------------------------
        report = _acceptance(profile, case, policy.tolerances)
        margins = {check.name: check.margin for check in report.checks}
        if not report.passed:
            registry.counter("fuzz.acceptance").inc()
            obs.warn(f"{case.case_id}: synthetic statistics out of "
                     f"tolerance ({report.summary()})",
                     event="fuzz.acceptance_failure", case=case.case_id)
            return CaseVerdict(case_id=case.case_id, status=ACCEPTANCE,
                               detail=report.summary(), margins=margins)

        # ---- layer 2 (--vector): columnar draws vs profile ----------
        # The scalar draws just converged; the columnar generator's
        # statistically-equivalent stream must converge to the same
        # profile under the same tolerances.
        if policy.vector:
            vector_report = _acceptance(profile, case, policy.tolerances,
                                        vector=True)
            margins.update({f"vector.{check.name}": check.margin
                            for check in vector_report.checks})
            if not vector_report.passed:
                registry.counter("fuzz.vector").inc()
                obs.warn(f"{case.case_id}: columnar draws out of "
                         f"tolerance ({vector_report.summary()})",
                         event="fuzz.vector_failure", case=case.case_id)
                return CaseVerdict(case_id=case.case_id, status=VECTOR,
                                   detail=vector_report.summary(),
                                   margins=margins)
        registry.counter("fuzz.ok").inc()
        return CaseVerdict(case_id=case.case_id, status=OK,
                           margins=margins)


def run_fuzz(policy: FuzzPolicy) -> FuzzReport:
    """Run *policy.cases* seeded cases; return the aggregate report.

    The active chaos plan (:func:`repro.faults.active_plan`) reaches
    the runner, so ``task-fail``/``slow-call`` hit the containment
    path.
    """
    registry = get_registry()

    cases = [random_case(policy.seed, index)
             for index in range(policy.cases)]
    units = [WorkUnit(experiment="fuzz", benchmark=case.case_id,
                      seed=policy.seed, params=(("index", case.index),))
             for case in cases]
    by_unit = {unit.unit_id: case for unit, case in zip(units, cases)}

    runner = TaskRunner(
        policy=RunnerPolicy(timeout=policy.timeout,
                            max_retries=policy.retries),
        raise_on_total_failure=False,
    )

    def run_one(unit: WorkUnit) -> Dict:
        case = by_unit[unit.unit_id]
        registry.counter("fuzz.cases").inc()
        return evaluate_case(case, policy).to_dict()

    run_report = runner.run(units, run_one)

    verdicts: List[CaseVerdict] = []
    for outcome in run_report.outcomes:
        if outcome.status == "failed" or outcome.result is None:
            registry.counter("fuzz.errors").inc()
            error = (outcome.error or {}).get("message", "case crashed")
            verdicts.append(CaseVerdict(
                case_id=outcome.benchmark or outcome.unit_id,
                status=ERROR, detail=str(error)))
        else:
            verdicts.append(CaseVerdict.from_dict(outcome.result))

    report = FuzzReport(seed=policy.seed, verdicts=verdicts)
    obs.info(f"fuzz run complete: {report.summary()}",
             event="fuzz.summary", seed=policy.seed,
             cases=len(report.verdicts), ok=report.count(OK))
    return report
