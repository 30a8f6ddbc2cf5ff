"""Statistical acceptance fuzzing for the synthetic trace generator.

``repro.fuzz`` hunts for **statistical drift** off the paper's
benchmark grid: on seeded random programs, synthetic traces must
converge to their source profile (instruction mix, dependency
distances, branch and cache rates) within tolerances that scale with
trace length.  The optimized pipeline's exact equivalence to the
frozen reference on random programs is a hypothesis test in
``tests/test_pipeline_equivalence.py``.

See ``docs/fuzzing.md`` for the workflow; ``repro fuzz --help`` for the
CLI.
"""

from repro.fuzz.acceptance import (
    AcceptanceReport,
    StatisticCheck,
    ToleranceConfig,
    acceptance_report,
    chi_square_critical,
)
from repro.fuzz.generator import (
    FuzzCase,
    case_rng,
    generate_cases,
    random_case,
)
from repro.fuzz.harness import (
    CaseVerdict,
    FuzzPolicy,
    FuzzReport,
    evaluate_case,
    run_fuzz,
)

__all__ = [
    "AcceptanceReport",
    "CaseVerdict",
    "FuzzCase",
    "FuzzPolicy",
    "FuzzReport",
    "StatisticCheck",
    "ToleranceConfig",
    "acceptance_report",
    "case_rng",
    "chi_square_critical",
    "evaluate_case",
    "generate_cases",
    "random_case",
    "run_fuzz",
]
