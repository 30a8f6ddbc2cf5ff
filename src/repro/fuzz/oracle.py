"""Differential oracle: optimized pipeline vs the frozen reference.

Runs the same instruction stream through :class:`repro.cpu.pipeline.
SuperscalarPipeline` (event-driven, optimized) and :class:`repro.cpu.
reference.ReferencePipeline` (frozen, strictly cycle-by-cycle) and
diffs the results field-for-field: cycles, IPC, per-stage occupancies,
activity counters, branch/squash accounting, and the full retirement
schedule (``(cycle, pseq)`` commit logs).  The two implementations are
required to be *bit-identical*; any divergence is a bug in one of them.

The ``pipeline-skew`` chaos site lets tests and CI canaries prove the
oracle actually fires: when the active plan
(:func:`repro.faults.active_plan`) fires for a case token, the
optimized result is perturbed by one cycle before diffing, which must
surface as a reported discrepancy (and is flagged ``skew_injected`` so
corpus entries stay honest about their origin).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig
from repro.faults import active_plan
from repro.cpu.pipeline import SuperscalarPipeline
from repro.cpu.reference import ReferencePipeline
from repro.cpu.results import SimulationResult
from repro.cpu.source import ExecutionDrivenSource, PreannotatedSource
from repro.frontend.functional import run_program
from repro.isa.program import Program


@dataclass(frozen=True)
class FieldDiff:
    """One scalar field where the two pipelines disagreed."""

    field: str
    reference: float
    optimized: float

    def to_dict(self) -> Dict:
        return {"field": self.field, "reference": self.reference,
                "optimized": self.optimized}


@dataclass
class DifferentialReport:
    """Outcome of one reference-vs-optimized comparison."""

    identical: bool
    field_diffs: List[FieldDiff] = field(default_factory=list)
    #: First index where the retirement schedules diverge, with the
    #: ``(cycle, pseq)`` tuple each side produced (None = logs agree).
    first_retirement_divergence: Optional[Dict] = None
    skew_injected: bool = False

    def to_dict(self) -> Dict:
        return {
            "identical": self.identical,
            "field_diffs": [diff.to_dict() for diff in self.field_diffs],
            "first_retirement_divergence": self.first_retirement_divergence,
            "skew_injected": self.skew_injected,
        }

    def summary(self) -> str:
        if self.identical:
            return "pipelines identical"
        parts = [f"{diff.field}: ref={diff.reference} opt={diff.optimized}"
                 for diff in self.field_diffs[:4]]
        if self.first_retirement_divergence is not None:
            div = self.first_retirement_divergence
            parts.append(
                f"retirement diverges at index {div['index']}: "
                f"ref={div['reference']} opt={div['optimized']}")
        suffix = " [injected skew]" if self.skew_injected else ""
        return "; ".join(parts) + suffix


def _compare(reference: SimulationResult, optimized: SimulationResult,
             ref_log: List[Tuple[int, int]],
             opt_log: List[Tuple[int, int]]) -> DifferentialReport:
    diffs: List[FieldDiff] = []

    def check(name: str, ref_value, opt_value) -> None:
        if ref_value != opt_value:
            diffs.append(FieldDiff(name, ref_value, opt_value))

    check("cycles", reference.cycles, optimized.cycles)
    check("instructions", reference.instructions, optimized.instructions)
    check("ipc", reference.ipc, optimized.ipc)
    check("avg_ruu_occupancy", reference.avg_ruu_occupancy,
          optimized.avg_ruu_occupancy)
    check("avg_lsq_occupancy", reference.avg_lsq_occupancy,
          optimized.avg_lsq_occupancy)
    check("avg_ifq_occupancy", reference.avg_ifq_occupancy,
          optimized.avg_ifq_occupancy)
    check("branches", reference.branches, optimized.branches)
    check("taken_branches", reference.taken_branches,
          optimized.taken_branches)
    check("fetch_redirections", reference.fetch_redirections,
          optimized.fetch_redirections)
    check("branch_mispredictions", reference.branch_mispredictions,
          optimized.branch_mispredictions)
    check("squashed_instructions", reference.squashed_instructions,
          optimized.squashed_instructions)
    for key in sorted(set(reference.activity) | set(optimized.activity)):
        check(f"activity[{key}]", reference.activity.get(key, 0),
              optimized.activity.get(key, 0))

    divergence = None
    for index, (ref_entry, opt_entry) in enumerate(zip(ref_log, opt_log)):
        if ref_entry != opt_entry:
            divergence = {"index": index, "reference": list(ref_entry),
                          "optimized": list(opt_entry)}
            break
    if divergence is None and len(ref_log) != len(opt_log):
        index = min(len(ref_log), len(opt_log))
        divergence = {
            "index": index,
            "reference": (list(ref_log[index])
                          if index < len(ref_log) else None),
            "optimized": (list(opt_log[index])
                          if index < len(opt_log) else None),
        }

    return DifferentialReport(
        identical=not diffs and divergence is None,
        field_diffs=diffs,
        first_retirement_divergence=divergence,
    )


def _maybe_skew(token: str) -> bool:
    """Whether the active chaos plan asks us to perturb this case."""
    plan = active_plan()
    return plan is not None and plan.skews_pipeline(token)


def _apply_skew(result: SimulationResult,
                log: List[Tuple[int, int]]) -> SimulationResult:
    """Perturb a result by one cycle (the injected discrepancy)."""
    if log:
        cycle, pseq = log[-1]
        log[-1] = (cycle + 1, pseq)
    return dataclasses.replace(result, cycles=result.cycles + 1)


def diff_sources(config: MachineConfig, make_reference_source,
                 make_optimized_source,
                 token: str = "") -> DifferentialReport:
    """Run both pipelines over independently constructed sources."""
    ref_log: List[Tuple[int, int]] = []
    opt_log: List[Tuple[int, int]] = []
    reference = ReferencePipeline(config, make_reference_source()).run(
        commit_log=ref_log)
    optimized = SuperscalarPipeline(config, make_optimized_source()).run(
        commit_log=opt_log)
    skewed = _maybe_skew(token)
    if skewed:
        optimized = _apply_skew(optimized, opt_log)
    report = _compare(reference, optimized, ref_log, opt_log)
    report.skew_injected = skewed
    return report


def diff_program(program: Program, config: MachineConfig,
                 n_instructions: int, warmup: int = 0,
                 token: str = "") -> DifferentialReport:
    """Differential check over an execution-driven run of *program*.

    The functional front-end produces one trace; each pipeline then gets
    its own :class:`ExecutionDrivenSource` (own caches and predictor),
    exactly like the equivalence suite, so cache/predictor state never
    leaks between the two runs.
    """
    trace = run_program(program, n_instructions, warmup=warmup)
    return diff_sources(
        config,
        lambda: ExecutionDrivenSource(trace, config),
        lambda: ExecutionDrivenSource(trace, config),
        token=token,
    )


def diff_synthetic(synthetic, config: MachineConfig,
                   token: str = "") -> DifferentialReport:
    """Differential check over a synthetic trace priced for *config*:
    the reference pipeline fetches its slots, the optimized one reads
    its rows."""
    return diff_sources(
        config,
        lambda: PreannotatedSource.from_trace(synthetic, config),
        lambda: PreannotatedSource.from_trace(synthetic, config),
        token=token,
    )
