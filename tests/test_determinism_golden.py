"""Golden-file determinism regression test.

The hot-path overhaul (alias/guide-table samplers, the event-driven
pipeline) must be *draw-for-draw* and *cycle-for-cycle* equivalent to
the original implementation: the gzip golden files in ``tests/golden/``
were generated with the pre-overhaul code, so the same profile + seed
must still produce a byte-identical synthetic trace and an identical
:class:`SimulationResult` after any rewrite.  The parser goldens were
added later, from the generator that step 4's certain-squash skip
replaced; that generator still reproduced the gzip goldens.

Regenerate (only when an *intentional* behaviour change is shipped)
with::

    PYTHONPATH=src python tests/test_determinism_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.config import baseline_config
from repro.core.framework import simulate_synthetic_trace
from repro.core.profiler import profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.cpu.locality import (EV_DL1, EV_DTLB, EV_IL1, EV_ITLB, EV_L2D,
                                EV_L2I)
from repro.frontend.warming import run_program_with_warmup
from repro.workloads.spec import build_benchmark

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The example workloads the goldens pin: small enough to keep the files
#: reviewable, large enough to exercise restarts, dead ends,
#: mispredictions and fetch redirections.  gzip never rejects a
#: dependency draw.  Per seed, parser redraws hundreds of rejected
#: dependency draws and squashes 13-16 dependencies whose 1,000 draws
#: can only fail (section 2.2 step 4), so its goldens pin the retry
#: loop and the squash path.
BENCHMARKS = ("gzip", "parser")
WARMUP = 2_000
REFERENCE = 6_000
ORDER = 1
REDUCTION_FACTOR = 8.0
SEEDS = (0, 1)


def _build_profile(benchmark):
    config = baseline_config()
    warm, trace = run_program_with_warmup(
        build_benchmark(benchmark), warmup=WARMUP,
        n_instructions=REFERENCE)
    profile = profile_trace(trace, config, order=ORDER,
                            branch_mode="delayed", warmup_trace=warm)
    return profile, config


def _trace_payload(synthetic):
    """Canonical JSON form of a synthetic trace (byte-stable): one
    ``[class, distances, il1, l2i, itlb, dl1, l2d, dtlb, taken,
    outcome]`` row per position, from its interned entry."""
    rows = []
    for iclass, events, deps, taken, outcome in synthetic.distinct:
        rows.append(
            [iclass.name, list(deps)]
            + [int(bool(events & bit)) for bit in (
                EV_IL1, EV_L2I, EV_ITLB, EV_DL1, EV_L2D, EV_DTLB)]
            + [int(taken), outcome.name if outcome is not None else None])
    return [rows[key] for key in synthetic.keys]


def _result_payload(result):
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "avg_ruu_occupancy": result.avg_ruu_occupancy,
        "avg_lsq_occupancy": result.avg_lsq_occupancy,
        "avg_ifq_occupancy": result.avg_ifq_occupancy,
        "activity": dict(result.activity),
        "branches": result.branches,
        "taken_branches": result.taken_branches,
        "fetch_redirections": result.fetch_redirections,
        "branch_mispredictions": result.branch_mispredictions,
        "squashed_instructions": result.squashed_instructions,
    }


def _case_payload(profile, config, seed):
    synthetic = generate_synthetic_trace(profile, REDUCTION_FACTOR,
                                         seed=seed)
    result, _power = simulate_synthetic_trace(synthetic, config)
    return {
        "benchmark": profile.name,
        "warmup": WARMUP,
        "reference": REFERENCE,
        "order": ORDER,
        "reduction_factor": REDUCTION_FACTOR,
        "seed": seed,
        "trace": _trace_payload(synthetic),
        "result": _result_payload(result),
    }


def _golden_path(benchmark: str, seed: int) -> Path:
    return GOLDEN_DIR / f"determinism_{benchmark}_seed{seed}.json"


#: Every (benchmark, seed) case; the gzip cases keep bare-seed ids.
#: (``bench``, not ``benchmark``: pytest-benchmark owns that name.)
CASES = [pytest.param(benchmark, seed,
                      id=str(seed) if benchmark == "gzip"
                      else f"{benchmark}-{seed}")
         for benchmark in BENCHMARKS for seed in SEEDS]


@pytest.fixture(scope="module")
def profiles():
    """benchmark -> (profile, config), each built on first use."""
    built = {}

    def get(benchmark):
        if benchmark not in built:
            built[benchmark] = _build_profile(benchmark)
        return built[benchmark]

    return get


@pytest.mark.parametrize("bench, seed", CASES)
def test_trace_and_result_match_golden(profiles, bench, seed):
    path = _golden_path(bench, seed)
    assert path.exists(), (
        f"golden file {path} missing; regenerate with "
        f"'PYTHONPATH=src python tests/test_determinism_golden.py'")
    golden = json.loads(path.read_text())
    profile, config = profiles(bench)
    current = _case_payload(profile, config, seed)
    assert current["trace"] == golden["trace"], (
        "synthetic trace diverged from the pre-overhaul golden "
        f"({bench}, seed {seed}): same profile + seed no longer "
        "reproduces the same instruction stream")
    assert current["result"] == golden["result"], (
        f"SimulationResult diverged from the golden ({bench}, "
        f"seed {seed})")


@pytest.mark.parametrize("bench, seed", CASES)
def test_repeat_run_is_byte_identical(profiles, bench, seed):
    """Two in-process runs serialize to the same bytes (no hidden
    global state in the sampler caches)."""
    profile, config = profiles(bench)
    first = json.dumps(_case_payload(profile, config, seed),
                       sort_keys=True)
    second = json.dumps(_case_payload(profile, config, seed),
                        sort_keys=True)
    assert first == second


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for benchmark in BENCHMARKS:
        profile, config = _build_profile(benchmark)
        for seed in SEEDS:
            path = _golden_path(benchmark, seed)
            payload = _case_payload(profile, config, seed)
            path.write_text(json.dumps(payload, sort_keys=True,
                                       separators=(",", ":")) + "\n")
            print(f"wrote {path} ({len(payload['trace'])} instructions, "
                  f"{payload['result']['cycles']} cycles)")


if __name__ == "__main__":
    regenerate()
