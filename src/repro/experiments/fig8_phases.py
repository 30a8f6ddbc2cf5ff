"""Figure 8 — modeling program phases and comparison with SimPoint.

The paper takes long reference streams and compares (i) one statistical
profile over the whole stream, (ii) per-sample profiles whose synthetic
traces are simulated separately and averaged, and (iii) SimPoint
sampling simulated execution-driven.

Reproduction targets: per-sample profiling only slightly improves over
one whole-stream profile, and SimPoint is more accurate than statistical
simulation — at the cost of simulating more instructions and needing no
re-profiling per cache/predictor change (section 4.4's trade-off).
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.simpoint import run_simpoint
from repro.core.framework import (
    run_execution_driven,
    run_statistical_simulation,
)
from repro.core.metrics import absolute_error
from repro.core.profiler import profile_trace
from repro.frontend.trace import Trace, concat_traces, split_intervals
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    format_table,
    mean,
    prepare_suite,
    suite_config,
)

#: Number of sub-samples for the per-sample profiling scenario (the
#: paper uses ten 1B-instruction samples of a 10B stream).
NUM_SAMPLES = 4


def _per_sample_ipc(trace: Trace, warm: Trace, config, scale) -> float:
    """Scenario (ii): profile each sample separately, simulate each
    synthetic trace, combine per-instruction (weighted CPI)."""
    samples = split_intervals(trace, len(trace) // NUM_SAMPLES)
    prefix = [warm]
    total_cpi = 0.0
    for sample in samples:
        warm_trace = concat_traces("warm", prefix)
        profile = profile_trace(sample, config, order=1,
                                branch_mode="delayed",
                                warmup_trace=warm_trace)
        cpis = []
        for seed in scale.seeds:
            report = run_statistical_simulation(
                sample, config, profile=profile,
                reduction_factor=scale.reduction_factor, seed=seed)
            cpis.append(report.result.cpi)
        total_cpi += mean(cpis) / len(samples)
        prefix.append(sample)
    return 1.0 / total_cpi


def run(scale: ExperimentScale = DEFAULT_SCALE) -> List[Dict]:
    """One row per benchmark: IPC errors of whole-stream statistical
    simulation, per-sample statistical simulation, and SimPoint."""
    config = suite_config()
    rows = []
    for name, (warm, trace) in prepare_suite(scale).items():
        reference, _ = run_execution_driven(trace, config,
                                            warmup_trace=warm)
        profile = profile_trace(trace, config, order=1,
                                branch_mode="delayed", warmup_trace=warm)
        whole_ipcs = [
            run_statistical_simulation(
                trace, config, profile=profile,
                reduction_factor=scale.reduction_factor, seed=seed).ipc
            for seed in scale.seeds
        ]
        per_sample = _per_sample_ipc(trace, warm, config, scale)
        interval = max(500, len(trace) // 12)
        simpoint = run_simpoint(trace, config, interval=interval,
                                max_k=5, seed=0, warmup_trace=warm)
        rows.append({
            "benchmark": name,
            "eds_ipc": reference.ipc,
            "whole_error": absolute_error(mean(whole_ipcs), reference.ipc),
            "per_sample_error": absolute_error(per_sample, reference.ipc),
            "simpoint_error": absolute_error(simpoint["ipc"],
                                             reference.ipc),
            "simpoint_instructions": simpoint["simulated_instructions"],
        })
    return rows


def average_errors(rows: List[Dict]) -> Dict[str, float]:
    return {
        "whole": mean([r["whole_error"] for r in rows]),
        "per_sample": mean([r["per_sample_error"] for r in rows]),
        "simpoint": mean([r["simpoint_error"] for r in rows]),
    }


def format_rows(rows: List[Dict]) -> str:
    table = format_table(
        ["benchmark", "1 profile", f"{NUM_SAMPLES} profiles", "SimPoint",
         "SimPoint insns"],
        [(r["benchmark"], f"{r['whole_error'] * 100:.1f}%",
          f"{r['per_sample_error'] * 100:.1f}%",
          f"{r['simpoint_error'] * 100:.1f}%",
          r["simpoint_instructions"]) for r in rows],
    )
    averages = average_errors(rows)
    footer = ("average: "
              + "  ".join(f"{k} {v * 100:.1f}%"
                          for k, v in averages.items()))
    return table + "\n" + footer


if __name__ == "__main__":  # pragma: no cover
    print(format_rows(run()))
