"""The fuzzing harness: case loop, verdicts, corpus and replay.

One fuzz *case* is evaluated in two layers:

1. **differential** — the case's program runs through the optimized and
   the frozen reference pipeline; any divergence (fields or retirement
   schedule) is a failure (:mod:`repro.fuzz.oracle`);
2. **acceptance** — the paper's profile → reduce → synthesize loop runs
   on the same trace, and the synthetic statistics must converge to the
   profile within scaled tolerances (:mod:`repro.fuzz.acceptance`);
3. **vector** (``--vector``) — the columnar batch generator
   (:mod:`repro.core.columnar`) synthesizes from the same profile, and
   its statistically-equivalent draw stream must converge to the
   profile under the same tolerances — the differential guard between
   the scalar oracle and the vectorized kernels.

Failures are minimized (:mod:`repro.fuzz.minimize`) and written to the
corpus (:mod:`repro.fuzz.corpus`).  Cases execute under the shared
:class:`~repro.runner.TaskRunner`, so per-case timeouts, retries and
crash containment behave exactly like ``repro experiment``; the active
chaos plan (``--chaos`` or ``REPRO_CHAOS``) composes —
``task-fail``/``slow-call`` exercise the containment, and the
dedicated ``pipeline-skew`` site plants a deliberate one-cycle
discrepancy that must be caught, minimized and corpus-filed (the
end-to-end canary for the oracle itself).

Everything is deterministic given ``(seed, case count, tolerances)``:
identical invocations produce identical verdicts, which is what makes
``repro fuzz --stats-only`` trackable over time like the benchmark
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import faults, obs
from repro.fuzz.acceptance import (
    AcceptanceReport,
    ToleranceConfig,
    acceptance_report,
)
from repro.fuzz.corpus import (
    CorpusEntry,
    list_entries,
    load_entry,
    program_from_dict,
    program_to_dict,
    save_entry,
)
from repro.fuzz.generator import FuzzCase, case_from_dict, random_case
from repro.fuzz.minimize import minimize_program
from repro.fuzz.oracle import diff_program
from repro.errors import FuzzDiscrepancyError
from repro.obs.metrics import get_registry
from repro.obs.tracing import trace_span
from repro.runner import RunnerPolicy, TaskRunner, WorkUnit

OK = "ok"
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
    corpus_dir: Optional[str] = None
    max_trials: int = 200
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    minimize: bool = True
    #: Adds a third layer: the columnar batch generator's draws must
    #: satisfy the same statistical acceptance against the profile as
    #: the scalar generator's (``repro fuzz --vector``).
    vector: bool = False


@dataclass
class CaseVerdict:
    """The outcome of one fuzz case."""

    case_id: str
    status: str  # ok | differential | acceptance | error
    detail: str = ""
    #: Acceptance margins per statistic (tolerance - deviation; negative
    #: means the statistic failed).  Empty when acceptance never ran.
    margins: Dict[str, float] = field(default_factory=dict)
    skew_injected: bool = False
    corpus_path: Optional[str] = None
    minimization: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "case_id": self.case_id,
            "status": self.status,
            "detail": self.detail,
            "margins": self.margins,
            "skew_injected": self.skew_injected,
            "corpus_path": self.corpus_path,
            "minimization": self.minimization,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CaseVerdict":
        return cls(
            case_id=data["case_id"],
            status=data["status"],
            detail=data.get("detail", ""),
            margins=dict(data.get("margins", {})),
            skew_injected=data.get("skew_injected", False),
            corpus_path=data.get("corpus_path"),
            minimization=dict(data.get("minimization", {})),
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
                 f"{self.count(DIFFERENTIAL)} differential, "
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


def _acceptance(program, n_instructions: int, case: FuzzCase,
                tolerances: ToleranceConfig,
                vector: bool = False) -> AcceptanceReport:
    """The paper's loop on *program*: run it, profile the trace,
    synthesize from the profile (the columnar generator's draws with
    *vector*), and check the synthetic statistics against the
    profile."""
    from repro.core.profiler import profile_trace
    from repro.frontend.functional import run_program

    trace = run_program(program, n_instructions, warmup=case.warmup)
    profile = profile_trace(trace, case.machine_config(), order=case.order)
    if vector:
        synthetic = _vector_synthetic(profile, case)
    else:
        from repro.core.synthesis import generate_synthetic_trace

        synthetic = generate_synthetic_trace(
            profile, case.reduction_factor, seed=case.synthesis_seed)
    return acceptance_report(profile, synthetic, tolerances)


def _shrink_and_file(verdict: CaseVerdict, case: FuzzCase,
                     policy: FuzzPolicy, program, report,
                     still_fails: Callable, max_trials: int
                     ) -> CaseVerdict:
    """Minimize a failing case's *program* while ``still_fails(program,
    n_instructions)`` holds, then file the reproducer to the corpus
    under the verdict's status."""
    if policy.minimize:
        minimized = minimize_program(program, case.trace_instructions,
                                     still_fails, max_trials=max_trials)
        get_registry().counter("fuzz.minimized").inc()
        verdict.minimization = minimized.to_dict()
        program = minimized.program
    if policy.corpus_dir:
        plan = faults.active_plan()
        entry = CorpusEntry(
            case_id=case.case_id, kind=verdict.status,
            case=case.to_dict(), report=report.to_dict(),
            program=program_to_dict(program),
            minimization=verdict.minimization,
            chaos_spec=plan.to_spec() if plan is not None else None,
            skew_injected=verdict.skew_injected)
        verdict.corpus_path = save_entry(policy.corpus_dir, entry)
    return verdict


def evaluate_case(case: FuzzCase, policy: FuzzPolicy) -> CaseVerdict:
    """Run the differential + acceptance checks for one case."""
    registry = get_registry()
    config = case.machine_config()
    program = case.program()
    shrink_trials = max(1, policy.max_trials // 4)

    with trace_span("fuzz.case", case=case.case_id):
        # ---- layer 1: differential oracle --------------------------
        diff = diff_program(program, config, case.trace_instructions,
                            warmup=case.warmup, token=case.case_id)
        if not diff.identical:
            registry.counter("fuzz.differential").inc()
            obs.warn(f"{case.case_id}: pipelines diverged "
                     f"({diff.summary()})",
                     event="fuzz.divergence", case=case.case_id,
                     injected=diff.skew_injected)
            verdict = CaseVerdict(case_id=case.case_id,
                                  status=DIFFERENTIAL,
                                  detail=diff.summary(),
                                  skew_injected=diff.skew_injected)
            return _shrink_and_file(
                verdict, case, policy, program, diff,
                lambda prog, n: not diff_program(
                    prog, config, n, warmup=case.warmup,
                    token=case.case_id).identical,
                policy.max_trials)

        # ---- layer 2: statistical acceptance ------------------------
        report = _acceptance(program, case.trace_instructions, case,
                             policy.tolerances)
        margins = {check.name: check.margin for check in report.checks}
        if not report.passed:
            registry.counter("fuzz.acceptance").inc()
            obs.warn(f"{case.case_id}: synthetic statistics out of "
                     f"tolerance ({report.summary()})",
                     event="fuzz.acceptance_failure", case=case.case_id)
            verdict = CaseVerdict(case_id=case.case_id,
                                  status=ACCEPTANCE,
                                  detail=report.summary(),
                                  margins=margins)
            return _shrink_and_file(
                verdict, case, policy, program, report,
                lambda prog, n: not _acceptance(
                    prog, n, case, policy.tolerances).passed,
                shrink_trials)

        # ---- layer 3 (--vector): columnar draws vs profile ----------
        # The scalar draws just converged; the columnar generator's
        # statistically-equivalent stream must converge to the same
        # profile under the same tolerances.
        if policy.vector:
            vector_report = _acceptance(program, case.trace_instructions,
                                        case, policy.tolerances,
                                        vector=True)
            margins.update({f"vector.{check.name}": check.margin
                            for check in vector_report.checks})
            if not vector_report.passed:
                registry.counter("fuzz.vector").inc()
                obs.warn(f"{case.case_id}: columnar draws out of "
                         f"tolerance ({vector_report.summary()})",
                         event="fuzz.vector_failure", case=case.case_id)
                verdict = CaseVerdict(case_id=case.case_id,
                                      status=VECTOR,
                                      detail=vector_report.summary(),
                                      margins=margins)
                return _shrink_and_file(
                    verdict, case, policy, program, vector_report,
                    lambda prog, n: not _acceptance(
                        prog, n, case, policy.tolerances,
                        vector=True).passed,
                    shrink_trials)
        registry.counter("fuzz.ok").inc()
        return CaseVerdict(case_id=case.case_id, status=OK,
                           margins=margins)


def run_fuzz(policy: FuzzPolicy) -> FuzzReport:
    """Run *policy.cases* seeded cases; return the aggregate report.

    The active chaos plan (:func:`repro.faults.active_plan`) reaches
    both the runner and the oracle, so ``task-fail``/``slow-call`` hit
    the containment path while ``pipeline-skew`` hits the oracle.
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


# ---------------------------------------------------------------- replay

@dataclass
class ReplayResult:
    """The outcome of replaying one corpus entry."""

    path: str
    case_id: str
    kind: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> Dict:
        return {"path": self.path, "case_id": self.case_id,
                "kind": self.kind, "passed": self.passed,
                "detail": self.detail}


def replay_entry(path: str,
                 tolerances: ToleranceConfig = ToleranceConfig()
                 ) -> ReplayResult:
    """Replay one corpus entry; green means the pinned bug stays fixed.

    Replay runs chaos-free whatever the environment says: an entry
    filed under ``pipeline-skew`` pins the oracle's catch, and replaying
    it under the same skew would only re-inject the discrepancy.
    """
    entry = load_entry(path)
    case = case_from_dict(entry.case)
    program = program_from_dict(entry.program)
    n_instructions = entry.minimization.get("n_instructions",
                                            case.trace_instructions)
    with faults.use(None):
        if entry.kind == DIFFERENTIAL:
            diff = diff_program(program, case.machine_config(),
                                n_instructions, warmup=case.warmup)
            passed, detail = diff.identical, diff.summary()
        elif entry.kind in (ACCEPTANCE, VECTOR):
            report = _acceptance(program, n_instructions, case,
                                 tolerances, vector=entry.kind == VECTOR)
            passed, detail = report.passed, report.summary()
        else:
            passed = False
            detail = f"unknown entry kind {entry.kind!r}"
    return ReplayResult(path=path, case_id=entry.case_id, kind=entry.kind,
                        passed=passed, detail="" if passed else detail)


def replay_corpus(corpus_dir: str,
                  tolerances: ToleranceConfig = ToleranceConfig(),
                  raise_on_failure: bool = False) -> List[ReplayResult]:
    """Replay every entry under *corpus_dir* (sorted, deterministic)."""
    registry = get_registry()
    results = []
    for path in list_entries(corpus_dir):
        result = replay_entry(path, tolerances)
        registry.counter("fuzz.replayed").inc()
        if not result.passed:
            registry.counter("fuzz.replay_failures").inc()
            obs.error(f"corpus replay failed: {result.case_id} "
                      f"({result.detail})", event="fuzz.replay_failure",
                      case=result.case_id, path=path)
            if raise_on_failure:
                raise FuzzDiscrepancyError(
                    f"corpus entry {result.case_id} regressed: "
                    f"{result.detail}")
        results.append(result)
    return results
