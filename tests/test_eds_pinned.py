"""Pinned execution-driven results at a small warm scale.

Every accuracy number is checked against execution-driven simulation,
whose branches stay live: classified against the predictor at fetch and
trained at dispatch.  These values were generated before the Table 2
predictor was flattened into one straight-line unit, so a moved lookup,
a missed LRU refresh or a mistrained counter shows up here without
running the study benchmark.  The tiny predictor makes parser's branch
sites alias, saturate and evict.

Regenerate (only when an *intentional* behaviour change is shipped)
with::

    PYTHONPATH=src python tests/test_eds_pinned.py
"""

from dataclasses import replace

import pytest

from repro.config import BranchPredictorConfig, baseline_config
from repro.core.framework import run_execution_driven
from repro.frontend.warming import run_program_with_warmup
from repro.workloads.spec import build_benchmark

WARMUP = 2_000
REFERENCE = 10_000

#: 64-entry direction tables, 4-bit histories, a 2-way 16-entry BTB.
TINY = BranchPredictorConfig(
    meta_entries=64, bimodal_entries=64, local_history_entries=64,
    local_pht_entries=64, local_history_bits=4, btb_entries=16,
    btb_associativity=2)

PREDICTORS = {"table2": baseline_config().predictor, "tiny": TINY}

#: (benchmark, predictor) -> (cycles, mispredictions, redirections,
#: squashed instructions, activity).
PINNED = {
    ("gzip", "table2"): (10043, 22, 0, 1058, {
        "bpred": 2202, "commit": 10000, "dispatch": 10354, "dl1": 2644,
        "fetch": 11058, "fp_adder": 22, "fp_mult_div": 0, "il1": 11058,
        "int_alu": 5570, "int_mult_div": 2160, "issue": 10177, "l2": 217,
        "load_store": 2425}),
    ("parser", "table2"): (49728, 114, 21, 9988, {
        "bpred": 4764, "commit": 10000, "dispatch": 16436, "dl1": 4335,
        "fetch": 19988, "fp_adder": 1196, "fp_mult_div": 230,
        "il1": 19988, "int_alu": 10894, "int_mult_div": 139,
        "issue": 15794, "l2": 1277, "load_store": 3335}),
    ("parser", "tiny"): (49833, 116, 25, 10326, {
        "bpred": 4764, "commit": 10000, "dispatch": 16678, "dl1": 4305,
        "fetch": 20326, "fp_adder": 1175, "fp_mult_div": 227,
        "il1": 20326, "int_alu": 11212, "int_mult_div": 136,
        "issue": 16022, "l2": 1277, "load_store": 3272}),
}


def _run(benchmark, predictor):
    warm, trace = run_program_with_warmup(
        build_benchmark(benchmark), warmup=WARMUP,
        n_instructions=REFERENCE)
    config = replace(baseline_config(), predictor=PREDICTORS[predictor])
    result, _ = run_execution_driven(trace, config, warmup_trace=warm)
    return (result.cycles, result.branch_mispredictions,
            result.fetch_redirections, result.squashed_instructions,
            dict(sorted(result.activity.items())))


@pytest.mark.parametrize("bench,predictor", sorted(PINNED))
def test_execution_driven_result_is_pinned(bench, predictor):
    assert _run(bench, predictor) == PINNED[bench, predictor]


if __name__ == "__main__":
    for benchmark, predictor in sorted(PINNED):
        print(repr((benchmark, predictor)), _run(benchmark, predictor))
