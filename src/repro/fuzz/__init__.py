"""Differential fuzzing + statistical acceptance for the simulator.

``repro.fuzz`` hunts for two failure families the fixed test suites
cannot enumerate:

* **pipeline divergence** — the optimized pipeline, which times each
  instruction once in program order (:mod:`repro.cpu.pipeline`), must
  stay bit-identical to the frozen
  reference (:mod:`repro.cpu.reference`) on *any* program, not just the
  named benchmark grid;
* **statistical drift** — synthetic traces must converge to their
  source profile (instruction mix, dependency distances, branch and
  cache rates) within tolerances that scale with trace length.

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
from repro.fuzz.corpus import (
    CorpusEntry,
    entry_path,
    list_entries,
    load_entry,
    program_from_dict,
    program_to_dict,
    save_entry,
)
from repro.fuzz.generator import (
    FuzzCase,
    case_from_dict,
    case_rng,
    generate_cases,
    random_case,
)
from repro.fuzz.harness import (
    CaseVerdict,
    FuzzPolicy,
    FuzzReport,
    ReplayResult,
    evaluate_case,
    replay_corpus,
    replay_entry,
    run_fuzz,
)
from repro.fuzz.minimize import MinimizationResult, minimize_program
from repro.fuzz.oracle import (
    DifferentialReport,
    FieldDiff,
    diff_program,
    diff_synthetic,
    diff_sources,
)

__all__ = [
    "AcceptanceReport",
    "CaseVerdict",
    "CorpusEntry",
    "DifferentialReport",
    "FieldDiff",
    "FuzzCase",
    "FuzzPolicy",
    "FuzzReport",
    "MinimizationResult",
    "ReplayResult",
    "StatisticCheck",
    "ToleranceConfig",
    "acceptance_report",
    "case_from_dict",
    "case_rng",
    "chi_square_critical",
    "diff_program",
    "diff_synthetic",
    "diff_sources",
    "entry_path",
    "evaluate_case",
    "generate_cases",
    "list_entries",
    "load_entry",
    "minimize_program",
    "program_from_dict",
    "program_to_dict",
    "random_case",
    "replay_corpus",
    "replay_entry",
    "run_fuzz",
    "save_entry",
]
