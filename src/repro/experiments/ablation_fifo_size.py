"""Ablation: the delayed-update FIFO size (paper section 2.1.3).

The paper prescribes sizing the profiling FIFO to the instruction fetch
queue for dispatch-time speculative update ("a natural choice"), and
notes other update points need other sizes.  This ablation sweeps the
FIFO size and measures how far the profiled misprediction rate lands
from the execution-driven pipeline's rate: size 1 reproduces immediate
update (too optimistic), the IFQ size tracks the pipeline, and
oversized FIFOs over-delay (modeling commit-time update on a machine
that actually updates at dispatch).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.branch.profiler import (
    mispredictions_per_kilo_instruction,
    profile_branches_delayed,
)
from repro.core.framework import run_execution_driven
from repro.frontend.warming import warm_branch_predictor
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    format_table,
    mean,
    prepare_suite,
    suite_config,
)

DEFAULT_FIFO_SIZES = (1, 4, 8, 16, 32, 64, 128)


def run(scale: ExperimentScale = DEFAULT_SCALE,
        fifo_sizes: Sequence[int] = DEFAULT_FIFO_SIZES) -> List[Dict]:
    """One row per benchmark: EDS mispredicts/1K plus the profiled rate
    for each FIFO size."""
    config = suite_config()
    rows = []
    for name, (warm, trace) in prepare_suite(scale).items():
        eds, _ = run_execution_driven(trace, config, warmup_trace=warm)
        profiled = {}
        for size in fifo_sizes:
            unit = warm_branch_predictor(warm, config.predictor)
            records = profile_branches_delayed(trace, unit,
                                               fifo_size=size)
            profiled[size] = mispredictions_per_kilo_instruction(
                records, len(trace))
        rows.append({
            "benchmark": name,
            "eds_mpki": eds.mispredictions_per_kilo_instruction,
            "profiled_mpki": profiled,
        })
    return rows


def average_gaps(rows: List[Dict]) -> Dict[int, float]:
    """Mean |profiled - EDS| misprediction-rate gap per FIFO size."""
    sizes = rows[0]["profiled_mpki"].keys()
    return {
        size: mean([abs(row["profiled_mpki"][size] - row["eds_mpki"])
                    for row in rows])
        for size in sizes
    }


def format_rows(rows: List[Dict]) -> str:
    sizes = sorted(rows[0]["profiled_mpki"])
    table = format_table(
        ["benchmark", "EDS"] + [f"fifo={s}" for s in sizes],
        [[row["benchmark"], row["eds_mpki"]]
         + [row["profiled_mpki"][s] for s in sizes] for row in rows],
    )
    gaps = average_gaps(rows)
    footer = "mean |gap|: " + "  ".join(
        f"fifo={size}: {gap:.2f}" for size, gap in sorted(gaps.items()))
    return table + "\n" + footer


if __name__ == "__main__":  # pragma: no cover
    print(format_rows(run()))
