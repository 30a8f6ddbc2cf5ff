"""Edge cases of the pipeline's bookkeeping, against the reference.

``SuperscalarPipeline.run`` keeps its dependency history, run-length
guard and live-branch hooks in forms the frozen ``ReferencePipeline``
does not share: the history holds completion cycles by dispatch
distance, rows drop distances beyond the history, the ``max_cycles``
guard and the health cadence are derived from the commit schedule, and
live branches go straight to the predictor.  Each test drives the
edges of one of these through both loops and compares every result
field and the retirement schedule.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

import repro.cpu.pipeline as pipeline_module
from repro.branch.unit import BranchOutcome
from repro.config import baseline_config
from repro.core.columnar import generate_columnar_trace
from repro.core.profiler import profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.cpu.locality import MAX_DEPENDENCY_DISTANCE
from repro.cpu.pipeline import SuperscalarPipeline
from repro.cpu.reference import ReferencePipeline
from repro.cpu.source import (ColumnarSource, ExecutionDrivenSource,
                              FetchSlot, PreannotatedSource)
from repro.isa.iclass import IClass


def _both(config, make_source, **kwargs):
    """Run both loops on fresh sources; return (new, old) results after
    checking that every field and the commit schedule agree."""
    new_log, old_log = [], []
    new = SuperscalarPipeline(config, make_source()).run(
        commit_log=new_log, **kwargs)
    old = ReferencePipeline(config, make_source()).run(
        commit_log=old_log, **kwargs)
    assert new == old
    assert new_log == old_log
    return new, old


# ------------------------------------------------------ dependency history

EDGE_DISTANCES = (0, 1, 511, 512, 513, 10_000)


def _history_stream(n, distance, seed):
    """*n* instructions whose consumers name producers *distance* back.

    Long-latency loads keep producers pending while hundreds of younger
    instructions dispatch behind them, and mispredicted branches squash
    wrong-path fillers that later consumers' distances land on.
    """
    rng = random.Random(seed)
    slots = []
    for index in range(n):
        roll = rng.random()
        if roll < 0.05:
            slots.append(FetchSlot(
                IClass.INT_COND_BRANCH, exec_latency=1,
                taken=rng.random() < 0.5,
                outcome=(BranchOutcome.MISPREDICTION if rng.random() < 0.3
                         else BranchOutcome.CORRECT)))
        elif roll < 0.15:
            slots.append(FetchSlot(IClass.LOAD,
                                   exec_latency=rng.choice((150, 900)),
                                   dep_distances=(distance,)))
        else:
            deps = (distance,) if rng.random() < 0.5 else ()
            if rng.random() < 0.2:
                deps += (1,)
            slots.append(FetchSlot(IClass.INT_ALU, exec_latency=1,
                                   dep_distances=deps))
    return slots


#: A window larger than the history, so a producer can still be pending
#: when its slot is reused and when a consumer 512 back dispatches.
_BIG_WINDOW = {"ruu_size": 1024, "lsq_size": 512, "ifq_size": 64}


@pytest.mark.parametrize("distance", EDGE_DISTANCES)
@pytest.mark.parametrize("in_order", [False, True],
                         ids=["out_of_order", "in_order"])
@pytest.mark.parametrize("window", ["baseline", "big"])
@pytest.mark.parametrize("n", [300, 2500], ids=["short", "long"])
def test_history_edges_identical(distance, in_order, window, n):
    config = replace(baseline_config(), in_order_issue=in_order,
                     **(_BIG_WINDOW if window == "big" else {}))
    slots = _history_stream(n, distance, seed=distance + n)
    new, _ = _both(config, lambda: PreannotatedSource(slots))
    assert new.instructions == n


def test_reused_slot_outlives_its_first_producer():
    """A producer still pending when its history slot is reused must
    not clear the newer entry when it completes: the consumer of the
    newer one still waits for it."""
    config = replace(baseline_config(), **_BIG_WINDOW)
    alu = FetchSlot(IClass.INT_ALU, exec_latency=1)
    slow = FetchSlot(IClass.LOAD, exec_latency=2000)
    slower = FetchSlot(IClass.LOAD, exec_latency=3000)
    consumer = FetchSlot(IClass.INT_ALU, exec_latency=1,
                         dep_distances=(MAX_DEPENDENCY_DISTANCE,))
    slots = ([slow] + [alu] * (MAX_DEPENDENCY_DISTANCE - 1) + [slower]
             + [alu] * (MAX_DEPENDENCY_DISTANCE - 1) + [consumer])
    new, _ = _both(config, lambda: PreannotatedSource(slots))
    assert new.cycles > 3000


def test_rows_drop_distances_beyond_the_history():
    slot = FetchSlot(IClass.INT_ALU, exec_latency=1,
                     dep_distances=(0, 1, 512, 513, 10_000))
    assert slot.dep_distances == (0, 1, 512, 513, 10_000)
    assert slot.row[2] == (0, 1, 512)
    kept = FetchSlot(IClass.INT_ALU, exec_latency=1, dep_distances=(3, 7))
    assert kept.row[2] is kept.dep_distances
    with pytest.raises(ValueError):
        FetchSlot(IClass.INT_ALU, exec_latency=1, dep_distances=(-1,))


@pytest.fixture(scope="module")
def trace_inputs():
    from repro.frontend.functional import run_program
    from repro.workloads.generator import WorkloadConfig, generate_program

    program = generate_program(WorkloadConfig(
        name="wheel", seed=23, n_blocks=12, mean_block_size=5,
        working_set_kb=2048, n_memory_streams=4))
    trace = run_program(program, n_instructions=3000)
    profile = profile_trace(trace, baseline_config(), order=1,
                            branch_mode="delayed")
    return trace, generate_synthetic_trace(profile, 2.0, seed=5), profile


@pytest.mark.parametrize("far", [600, 1500])
@pytest.mark.parametrize("window", ["baseline", "big"])
def test_priced_rows_drop_distances_beyond_the_history(trace_inputs, far,
                                                       window):
    """Synthetic and columnar traces take their distances from a
    profile, which may be hand-built, so rows priced from their entries
    or columns drop distances beyond the history as slots do."""
    *_, profile = trace_inputs
    config = replace(baseline_config(), **(_BIG_WINDOW if window == "big"
                                          else {}))
    columnar = generate_columnar_trace(profile, 1.0, seed=9)
    assert len(columnar) > 2 * MAX_DEPENDENCY_DISTANCE
    dep_val = columnar.dep_val
    columnar.dep_val = np.where(np.arange(dep_val.size) % 3 == 0, far,
                                dep_val)
    synthetic = columnar.to_synthetic_trace()
    assert any(far in entry[2] for entry in synthetic.distinct)
    _both(config, lambda: PreannotatedSource.from_trace(synthetic, config))
    new_log, old_log = [], []
    new = SuperscalarPipeline(config, ColumnarSource(columnar, config)).run(
        commit_log=new_log)
    old = ReferencePipeline(
        config, PreannotatedSource.from_trace(synthetic, config)).run(
        commit_log=old_log)
    assert new == old
    assert new_log == old_log
    columnar.dep_val = np.where(dep_val == 1, -1, dep_val)
    with pytest.raises(ValueError):
        ColumnarSource(columnar, config)


# ----------------------------------------------------------- latencies

def test_zero_latency_rejected():
    """Both loops assume an instruction completes after the cycle it
    issues in; a zero latency made them disagree (the reference never
    completes it)."""
    with pytest.raises(ValueError):
        FetchSlot(IClass.INT_ALU, exec_latency=0)
    config = baseline_config()
    for bad in ({"memory_latency": 0},
                {"dl1": replace(config.dl1, hit_latency=0)},
                {"l2": replace(config.l2, hit_latency=0)}):
        with pytest.raises(ValueError):
            replace(config, **bad)


# ------------------------------------------------------- run-length guard

#: One instruction per cycle, every cycle: each depends on the last.
_DENSE = [FetchSlot(IClass.INT_ALU, exec_latency=1,
                    dep_distances=(1,))] * 13_000
_STALLED = [FetchSlot(IClass.INT_ALU, exec_latency=1, fetch_stall=20_000)]


@pytest.mark.parametrize("max_cycles", [1000, 5000])
@pytest.mark.parametrize("stream", ["stepped", "fast_forward"])
def test_guard_fires_at_exactly_max_cycles(stream, max_cycles):
    slots = _DENSE if stream == "stepped" else _STALLED
    config = baseline_config()
    logs, errors, positions = [], [], []
    for loop in (SuperscalarPipeline, ReferencePipeline):
        source = PreannotatedSource(slots)
        log = []
        with pytest.raises(RuntimeError) as error:
            loop(config, source).run(max_cycles=max_cycles,
                                     commit_log=log)
        logs.append(log)
        errors.append(str(error.value))
        positions.append(source._pos)
    assert errors[0] == errors[1]
    assert f"within {max_cycles} cycles" in errors[0]
    assert logs[0] == logs[1]
    assert positions[0] == positions[1]
    if stream == "stepped":
        assert logs[0][-1][0] == max_cycles - 1


def test_health_checkpoint_every_4096_cycles(monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline_module, "_health_checkpoint",
                        calls.append)
    result = SuperscalarPipeline(
        baseline_config(), PreannotatedSource(_DENSE)).run()
    assert result.cycles > 2 * pipeline_module._HEALTH_EVERY
    assert len(calls) == result.cycles // pipeline_module._HEALTH_EVERY
    # Each checkpoint reports the instructions committed so far.
    assert calls == sorted(calls) and 0 < calls[0] < calls[-1]


def test_guard_keeps_health_cadence(monkeypatch):
    """A max_cycles between two checkpoints neither skips nor adds
    one."""
    calls = []
    monkeypatch.setattr(pipeline_module, "_health_checkpoint",
                        calls.append)
    with pytest.raises(RuntimeError):
        SuperscalarPipeline(baseline_config(), PreannotatedSource(
            _DENSE)).run(max_cycles=2 * pipeline_module._HEALTH_EVERY + 7)
    assert len(calls) == 2


# ---------------------------------------------------------- live branches

@pytest.mark.parametrize("variant", [{}, {"ruu_size": 16, "lsq_size": 8}])
def test_live_branch_tallies_match_reference(small_trace, variant):
    config = replace(baseline_config(), **variant)
    sources = []

    def make():
        sources.append(ExecutionDrivenSource(small_trace, config))
        return sources[-1]

    new, _ = _both(config, make)
    fast, reference = sources
    assert fast.mispredictions == reference.mispredictions > 0
    assert fast.redirections == reference.redirections > 0
    assert fast.outcomes == reference.outcomes
    assert sum(fast.outcomes) == fast.branches
    assert (new.branch_mispredictions, new.fetch_redirections) == (
        fast.mispredictions, fast.redirections)
