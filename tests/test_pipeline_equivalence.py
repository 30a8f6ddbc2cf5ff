"""Exact-equivalence guard for the event-driven pipeline.

The optimized :class:`repro.cpu.pipeline.SuperscalarPipeline` (idle-cycle
fast-forward, pooled ``_Inflight`` records, ring-buffer RUU/IFQ) must
produce a *field-for-field identical* :class:`SimulationResult` to the
frozen cycle-by-cycle loop in :mod:`repro.cpu.reference` — same cycle
count, same occupancy averages, same activity counts — for every
configuration and source type.  Any intentional behaviour change must
update both implementations together.
"""

from dataclasses import replace

import pytest

from repro.config import baseline_config
from repro.core.profiler import profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.cpu.pipeline import SuperscalarPipeline
from repro.cpu.reference import ReferencePipeline
from repro.core.columnar import generate_columnar_trace
from repro.cpu.source import (ColumnarSource, ExecutionDrivenSource,
                              PreannotatedSource)
from repro.isa.iclass import IClass
from repro.branch.unit import BranchOutcome
from repro.cpu.source import FetchSlot


def _assert_identical(new, old):
    assert new.cycles == old.cycles
    assert new.instructions == old.instructions
    assert new.avg_ruu_occupancy == old.avg_ruu_occupancy
    assert new.avg_lsq_occupancy == old.avg_lsq_occupancy
    assert new.avg_ifq_occupancy == old.avg_ifq_occupancy
    assert new.activity == old.activity
    assert new.branches == old.branches
    assert new.taken_branches == old.taken_branches
    assert new.fetch_redirections == old.fetch_redirections
    assert new.branch_mispredictions == old.branch_mispredictions
    assert new.squashed_instructions == old.squashed_instructions


#: Configurations chosen to force every structurally distinct pipeline
#: path: the baseline OOO core, in-order issue, the anti-dependency /
#: conservative-load extensions, a tiny window (constant squash/commit
#: pressure on the ring buffers), and a starved FU mix (issue deferral).
CONFIG_VARIANTS = {
    "baseline": {},
    "in_order": {"in_order_issue": True},
    "conservative": {"conservative_loads": True,
                     "enforce_anti_dependencies": True},
    "tiny_window": {"ruu_size": 4, "lsq_size": 2, "ifq_size": 2,
                    "fetch_speed": 1},
    "fu_starved": {"int_alus": 1, "load_store_units": 1, "fp_adders": 1,
                   "int_mult_divs": 1, "fp_mult_divs": 1},
    "wide": {"decode_width": 8, "issue_width": 8, "commit_width": 8,
             "ruu_size": 128},
}


def _config(name):
    overrides = CONFIG_VARIANTS[name]
    config = baseline_config()
    return replace(config, **overrides) if overrides else config


@pytest.fixture(scope="module")
def synthetic_trace(request):
    # Build one synthetic trace from the shared small workload: it
    # carries dependencies, miss flags, taken branches, mispredictions
    # and redirections, so it exercises the full preannotated path.
    from tests.conftest import make_tiny_program
    from repro.frontend.functional import run_program
    from repro.workloads.generator import WorkloadConfig, generate_program

    program = generate_program(WorkloadConfig(
        name="equiv", seed=11, n_blocks=10, mean_block_size=5,
        working_set_kb=64, n_memory_streams=3))
    trace = run_program(program, n_instructions=4000)
    profile = profile_trace(trace, baseline_config(), order=1,
                            branch_mode="delayed")
    return profile, generate_synthetic_trace(profile, 4.0, seed=3)


@pytest.mark.parametrize("variant", sorted(CONFIG_VARIANTS))
def test_synthetic_source_identical(synthetic_trace, variant):
    _profile, synthetic = synthetic_trace
    config = _config(variant)
    slots = synthetic.to_fetch_slots(config)
    new = SuperscalarPipeline(config, PreannotatedSource(list(slots))).run()
    old = ReferencePipeline(config, PreannotatedSource(list(slots))).run()
    _assert_identical(new, old)


@pytest.mark.parametrize("variant", sorted(CONFIG_VARIANTS))
def test_columnar_source_identical(synthetic_trace, variant):
    """A columnar trace's rows against the reference loop fed the same
    trace as slots: every result field and the whole commit schedule."""
    profile, _synthetic = synthetic_trace
    config = _config(variant)
    columnar = generate_columnar_trace(profile, 4.0, seed=3)
    slots = columnar.to_synthetic_trace().to_fetch_slots(config)
    new_log, old_log = [], []
    new = SuperscalarPipeline(config, ColumnarSource(columnar, config)).run(
        commit_log=new_log)
    old = ReferencePipeline(config, PreannotatedSource(slots)).run(
        commit_log=old_log)
    _assert_identical(new, old)
    assert new_log == old_log


@pytest.mark.parametrize("variant", sorted(CONFIG_VARIANTS))
def test_execution_driven_source_identical(small_trace, variant):
    config = _config(variant)
    new = SuperscalarPipeline(
        config, ExecutionDrivenSource(small_trace, config)).run()
    old = ReferencePipeline(
        config, ExecutionDrivenSource(small_trace, config)).run()
    _assert_identical(new, old)


def _branch(outcome=BranchOutcome.CORRECT, taken=False):
    return FetchSlot(IClass.INT_COND_BRANCH, exec_latency=1,
                     outcome=outcome, taken=taken)


def _hand_built_streams():
    alu = lambda **kw: FetchSlot(IClass.INT_ALU, exec_latency=1, **kw)
    load = lambda **kw: FetchSlot(IClass.LOAD, exec_latency=3, **kw)
    store = lambda **kw: FetchSlot(IClass.STORE, exec_latency=1, **kw)
    yield "mispredict_burst", [
        slot for _ in range(20)
        for slot in (alu(), _branch(BranchOutcome.MISPREDICTION), alu())]
    yield "redirect_chain", [
        slot for _ in range(20)
        for slot in (alu(), _branch(BranchOutcome.FETCH_REDIRECTION,
                                    taken=True))]
    yield "fetch_stalls", [alu(fetch_stall=7) for _ in range(30)]
    yield "long_latency_chain", [
        load(dep_distances=(1,)) for _ in range(40)]
    yield "store_load_mix", [
        slot for _ in range(15)
        for slot in (store(), load(dep_distances=(1,)), alu())]
    yield "idle_gaps", [
        alu(fetch_stall=50), load(dep_distances=(1,)),
        alu(dep_distances=(1,)), _branch(taken=True),
        alu(fetch_stall=30), alu()]


@pytest.mark.parametrize(
    "name,slots", list(_hand_built_streams()),
    ids=[name for name, _ in _hand_built_streams()])
@pytest.mark.parametrize("variant",
                         ["baseline", "in_order", "tiny_window"])
def test_hand_built_streams_identical(name, slots, variant):
    config = _config(variant)
    new = SuperscalarPipeline(config, PreannotatedSource(list(slots))).run()
    old = ReferencePipeline(config, PreannotatedSource(list(slots))).run()
    _assert_identical(new, old)


def test_max_cycles_guard_matches():
    config = _config("baseline")
    slots = [FetchSlot(IClass.INT_ALU, exec_latency=1, fetch_stall=10_000)]
    with pytest.raises(RuntimeError) as new_err:
        SuperscalarPipeline(config, PreannotatedSource(list(slots))).run(
            max_cycles=500)
    with pytest.raises(RuntimeError) as old_err:
        ReferencePipeline(config, PreannotatedSource(list(slots))).run(
            max_cycles=500)
    assert str(new_err.value) == str(old_err.value)
