"""Design-space exploration subsystem.

The paper's headline use case (section 4.6) industrialized: declare a
sweep over machine-configuration fields (:mod:`repro.dse.space`),
evaluate every design point in parallel with per-point fault-tolerance
(:mod:`repro.dse.engine`) under worker supervision with poison-point
quarantine and serial fallback (:mod:`repro.dse.supervisor`), skip
already-known points via a content-addressed result cache
(:mod:`repro.dse.cache`), and extract Pareto fronts / verification
shortlists from the result (:mod:`repro.dse.analysis`).  See
``docs/design_space.md`` and ``docs/robustness.md``.
"""

from repro.dse.analysis import (
    DEFAULT_VERIFY_MARGIN,
    best_point,
    pareto_front,
    ranked_by_edp,
    render_sweep_report,
    verification_shortlist,
)
from repro.dse.cache import CacheStats, ResultCache, result_key
from repro.dse.engine import (
    PointResult,
    SweepEngine,
    SweepResult,
    derive_point_seed,
    evaluate_metrics,
)
from repro.dse.space import (
    SWEEPABLE_FIELDS,
    DesignPoint,
    SweepSpec,
    apply_overrides,
    config_hash,
    profile_content_hash,
    reduced_sec46_spec,
)
from repro.dse.study import StudyResult, profile_benchmark, run_study
from repro.dse.supervisor import (
    PoolSupervisor,
    Quarantine,
    SupervisorPolicy,
)

__all__ = [
    "DEFAULT_VERIFY_MARGIN", "best_point", "pareto_front",
    "ranked_by_edp", "render_sweep_report", "verification_shortlist",
    "CacheStats", "ResultCache", "result_key",
    "PointResult", "SweepEngine", "SweepResult", "derive_point_seed",
    "evaluate_metrics",
    "SWEEPABLE_FIELDS", "DesignPoint", "SweepSpec", "apply_overrides",
    "config_hash", "profile_content_hash", "reduced_sec46_spec",
    "StudyResult", "profile_benchmark", "run_study",
    "PoolSupervisor", "Quarantine", "SupervisorPolicy",
]
