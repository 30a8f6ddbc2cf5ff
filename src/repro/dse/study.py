"""High-level design-space study: profile once, sweep fast, verify the
interesting region slowly (the paper's section 4.6 protocol).

This is the orchestration layer shared by the ``sec46`` experiment, the
``repro dse`` CLI command and the serial-vs-parallel benchmark: prepare
a workload, measure its statistical profile, expand a
:class:`~repro.dse.space.SweepSpec`, evaluate every point through the
:class:`~repro.dse.engine.SweepEngine` (parallel and cached when asked),
then re-check the shortlist with execution-driven simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.runner import RunnerPolicy
from repro.dse.analysis import (
    DEFAULT_VERIFY_MARGIN,
    best_point,
    pareto_front,
    ranked_by_edp,
    render_sweep_report,
    verification_shortlist,
)
from repro.dse.cache import ResultCache
from repro.dse.engine import PointResult, SweepEngine, SweepResult
from repro.dse.space import SweepSpec
from repro.dse.supervisor import SupervisorPolicy


def profile_benchmark(benchmark: str, scale) -> Tuple[Any, Any, Any]:
    """Prepare one workload and measure its statistical profile.

    Returns ``(profile, warmup_trace, reference_trace)``; the traces
    are kept for the execution-driven verification pass.
    """
    from repro.core.profiler import profile_trace
    from repro.experiments.common import prepare_benchmark, suite_config

    warm, trace = prepare_benchmark(benchmark, scale)
    profile = profile_trace(trace, suite_config(), order=1,
                            branch_mode="delayed", warmup_trace=warm)
    return profile, warm, trace


@dataclass
class StudyResult:
    """Outcome of one benchmark's design-space study."""

    benchmark: str
    spec: SweepSpec
    sweep: SweepResult
    ss_optimal: Optional[PointResult] = None
    shortlist: List[PointResult] = field(default_factory=list)
    eds_edp: Dict[str, float] = field(default_factory=dict)
    eds_optimal_id: Optional[str] = None
    found_optimal: bool = False
    edp_gap: float = 0.0

    def to_row(self) -> Dict[str, Any]:
        """The sec46 experiment's (JSON-serializable) result row."""
        return {
            "benchmark": self.benchmark,
            "grid_points": len(self.sweep.results),
            "candidates_verified": len(self.shortlist),
            "ss_optimal": (self.ss_optimal.point.point_id
                           if self.ss_optimal else None),
            "eds_optimal_in_region": self.eds_optimal_id,
            "found_optimal": self.found_optimal,
            "edp_gap": self.edp_gap,
            "pareto_points": len(pareto_front(self.sweep.results)),
            "evaluations": self.sweep.evaluated,
            "cached_evaluations": self.sweep.cached,
            "quarantined": self.sweep.quarantined,
            "sweep_seconds": self.sweep.elapsed,
            "jobs": self.sweep.jobs,
        }

    def render(self, margin: float = DEFAULT_VERIFY_MARGIN) -> str:
        return render_sweep_report(
            f"{self.spec.name}:{self.benchmark}", self.sweep,
            margin=margin, eds_edp=self.eds_edp)


def run_study(
    spec: SweepSpec,
    benchmark: str,
    scale,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    policy: Optional[RunnerPolicy] = None,
    verify: bool = True,
    verify_margin: float = DEFAULT_VERIFY_MARGIN,
    base_config: Optional[MachineConfig] = None,
    seeds: Optional[Sequence[int]] = None,
    supervisor_policy: Optional[SupervisorPolicy] = None,
    quarantine_path: Optional[str] = None,
    vector: bool = False,
    health=None,
) -> StudyResult:
    """Run the full section 4.6 protocol for one benchmark.

    ``supervisor_policy`` (crash/rebuild budgets) and
    ``quarantine_path`` (poison-point manifest) pass straight through
    to the :class:`~repro.dse.engine.SweepEngine`; ``vector`` routes
    every sweep evaluation through the columnar batch kernels (cached
    under distinct keys);
    ``health`` (a :class:`~repro.health.budget.HealthPolicy`, default
    from ``REPRO_HEALTH``) carries the sweep's deadline, RSS ceilings
    and hang-watchdog settings.
    """
    from repro.core.framework import run_execution_driven
    from repro.power.wattch import energy_delay_product

    profile, warm, trace = profile_benchmark(benchmark, scale)
    points = spec.expand(base_config)
    cache = ResultCache(cache_dir) if cache_dir else None
    engine = SweepEngine(profile, jobs=jobs, cache=cache, policy=policy,
                         experiment=spec.name, benchmark=benchmark,
                         supervisor_policy=supervisor_policy,
                         quarantine_path=quarantine_path,
                         vector=vector, health=health)
    sweep = engine.evaluate(points, seeds=seeds or scale.seeds,
                            reduction_factor=scale.reduction_factor)
    study = StudyResult(benchmark=benchmark, spec=spec, sweep=sweep)
    ranked = ranked_by_edp(sweep.results)
    if not ranked:
        return study
    study.ss_optimal = ranked[0]
    study.shortlist = verification_shortlist(sweep.results,
                                             verify_margin)
    # An interrupted sweep's "optimum" is whatever happened to finish;
    # spending minutes execution-verifying it would be misleading (and
    # the user just asked to stop).
    if not verify or sweep.interrupted:
        return study

    verified: List[Tuple[float, PointResult]] = []
    for candidate in study.shortlist:
        result, power = run_execution_driven(trace, candidate.point.config,
                                             warmup_trace=warm)
        edp = energy_delay_product(power.total, result.ipc)
        study.eds_edp[candidate.point.point_id] = edp
        verified.append((edp, candidate))
    verified.sort(key=lambda pair: pair[0])
    eds_best_edp, eds_best = verified[0]
    eds_at_ss_optimal = study.eds_edp[study.ss_optimal.point.point_id]
    study.eds_optimal_id = eds_best.point.point_id
    study.found_optimal = (eds_best.point.config_hash
                           == study.ss_optimal.point.config_hash)
    study.edp_gap = (eds_at_ss_optimal - eds_best_edp) / eds_best_edp
    return study


__all__ = [
    "StudyResult", "profile_benchmark", "run_study", "best_point",
]
