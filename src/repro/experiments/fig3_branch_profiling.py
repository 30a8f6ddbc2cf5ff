"""Figure 3 — branch mispredictions per 1,000 instructions under three
scenarios: (i) execution-driven simulation, (ii) branch profiling with
immediate update, (iii) branch profiling with delayed update.

Reproduction target (paper section 2.1.3): immediate-update profiling
*underestimates* the misprediction rate a pipelined machine sees, while
the delayed-update FIFO closely tracks execution-driven simulation; the
largest discrepancies belong to eon and perlbmk.
"""

from __future__ import annotations

from typing import Dict, List

from repro.branch.profiler import (
    mispredictions_per_kilo_instruction,
    profile_branches_delayed,
    profile_branches_immediate,
)
from repro.core.framework import run_execution_driven
from repro.frontend.warming import warm_branch_predictor
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    format_table,
    prepare_suite,
    suite_config,
)


def run(scale: ExperimentScale = DEFAULT_SCALE) -> List[Dict]:
    """One row per benchmark with the three mispredict/1K counts."""
    config = suite_config()
    rows = []
    for name, (warm, trace) in prepare_suite(scale).items():
        eds, _ = run_execution_driven(trace, config, warmup_trace=warm)

        unit = warm_branch_predictor(warm, config.predictor)
        immediate = profile_branches_immediate(trace, unit)
        unit = warm_branch_predictor(warm, config.predictor)
        delayed = profile_branches_delayed(trace, unit,
                                           fifo_size=config.ifq_size)
        n = len(trace)
        rows.append({
            "benchmark": name,
            "execution_driven": eds.mispredictions_per_kilo_instruction,
            "immediate_update": mispredictions_per_kilo_instruction(
                immediate, n),
            "delayed_update": mispredictions_per_kilo_instruction(
                delayed, n),
        })
    return rows


def format_rows(rows: List[Dict]) -> str:
    return format_table(
        ["benchmark", "execution-driven", "immediate update",
         "delayed update"],
        [(r["benchmark"], r["execution_driven"], r["immediate_update"],
          r["delayed_update"]) for r in rows],
    )


if __name__ == "__main__":  # pragma: no cover
    print(format_rows(run()))
