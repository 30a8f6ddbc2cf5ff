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
    new = SuperscalarPipeline(
        config, PreannotatedSource.from_trace(synthetic, config)).run()
    old = ReferencePipeline(
        config, PreannotatedSource.from_trace(synthetic, config)).run()
    _assert_identical(new, old)


@pytest.mark.parametrize("variant", sorted(CONFIG_VARIANTS))
def test_columnar_source_identical(synthetic_trace, variant):
    """A columnar trace's rows against the reference loop fed the same
    trace as slots: every result field and the whole commit schedule."""
    profile, _synthetic = synthetic_trace
    config = _config(variant)
    columnar = generate_columnar_trace(profile, 4.0, seed=3)
    slots = PreannotatedSource.from_trace(columnar.to_synthetic_trace(),
                                          config)
    new_log, old_log = [], []
    new = SuperscalarPipeline(config, ColumnarSource(columnar, config)).run(
        commit_log=new_log)
    old = ReferencePipeline(config, slots).run(commit_log=old_log)
    _assert_identical(new, old)
    assert new_log == old_log


@pytest.mark.parametrize("variant", sorted(CONFIG_VARIANTS))
def test_execution_driven_source_identical(small_trace, variant):
    config = _config(variant)
    new_log, old_log = [], []
    new = SuperscalarPipeline(
        config, ExecutionDrivenSource(small_trace, config)).run(
        commit_log=new_log)
    old = ReferencePipeline(
        config, ExecutionDrivenSource(small_trace, config)).run(
        commit_log=old_log)
    _assert_identical(new, old)
    assert new_log == old_log


@pytest.fixture(scope="module")
def warm_windows():
    from repro.frontend.warming import run_program_with_warmup
    from repro.workloads.generator import WorkloadConfig, generate_program

    program = generate_program(WorkloadConfig(
        name="memo", seed=5, n_blocks=14, mean_block_size=5,
        working_set_kb=96, n_memory_streams=4))
    return run_program_with_warmup(program, 3000, 4000)


def test_window_sequence_through_memo_matches_fresh_structures(
        warm_windows):
    """Three window points sharing one memoized resolution against
    runs on a copy of the trace, which warms and walks fresh
    structures every time: every result field, the commit schedule
    and the power."""
    from repro.frontend.trace import Trace
    from repro.obs.metrics import get_registry
    from repro.power.wattch import WattchPowerModel

    warm, trace = warm_windows
    registry = get_registry()
    reused = registry.counter("eds.locality_reused")
    built = registry.counter("eds.locality_built")
    before = (reused.value, built.value)
    for ruu in (16, 32, 64):
        config = baseline_config().with_window(ruu, ruu // 2)
        copy = Trace(trace.name, list(trace.instructions))
        memo_log, fresh_log = [], []
        memo = SuperscalarPipeline(config, ExecutionDrivenSource(
            trace, config, warmup_trace=warm)).run(commit_log=memo_log)
        fresh = SuperscalarPipeline(config, ExecutionDrivenSource(
            copy, config, warmup_trace=warm)).run(commit_log=fresh_log)
        assert memo == fresh
        assert memo_log == fresh_log
        model = WattchPowerModel(config)
        assert model.energy_per_cycle(memo) == model.energy_per_cycle(fresh)
    # The memo is built once for the trace, and once per copy.
    assert (reused.value, built.value) == (before[0] + 2, before[1] + 4)


def test_profile_from_shared_resolution_matches_own_walk(warm_windows):
    """A profile that reuses an execution-driven run's resolution has
    the locality events of an independent walk through freshly warmed
    caches, and every other ContextStats field of a profile that saw
    no cache at all."""
    from repro.core.framework import run_execution_driven
    from repro.core.sfg import START_BLOCK
    from repro.frontend.trace import Trace
    from repro.frontend.warming import warm_locality_structures
    from repro.obs.metrics import get_registry

    warm, trace = warm_windows
    config = baseline_config()
    run_execution_driven(trace, config, warmup_trace=warm)
    reused = get_registry().counter("eds.locality_reused")
    before = reused.value
    shared = profile_trace(trace, config, order=1, warmup_trace=warm)
    assert reused.value == before + 1
    cacheless = profile_trace(Trace(trace.name, list(trace.instructions)),
                              config, order=1, warmup_trace=warm,
                              perfect_caches=True)

    hierarchy, _ = warm_locality_structures(warm, config)
    expected = {}
    history, block = (START_BLOCK,), []
    for inst in trace:
        iresult = hierarchy.access_instruction(inst.pc)
        events = [iresult.il1_miss, iresult.l2_miss, iresult.itlb_miss,
                  False, False, False]
        if inst.mem_addr is not None:
            dresult = hierarchy.access_data(inst.mem_addr,
                                            is_store=inst.is_store)
            if inst.is_load:
                events[3:] = [dresult.dl1_miss, dresult.l2_miss,
                              dresult.dtlb_miss]
        block.append(events)
        if inst.is_branch:
            sums = expected.setdefault(
                history + (inst.bb_id,),
                [[0] * len(block) for _ in range(6)])
            for slot, slot_events in enumerate(block):
                for field, hit in enumerate(slot_events):
                    sums[field][slot] += hit
            history, block = (inst.bb_id,), []

    locality = ("il1", "l2i", "itlb", "dl1", "l2d", "dtlb")
    contexts = shared.sfg.contexts
    assert contexts.keys() == cacheless.sfg.contexts.keys() == \
        expected.keys()
    assert any(any(stats.il1) or any(stats.dl1)
               for stats in contexts.values())
    for key, stats in contexts.items():
        other = cacheless.sfg.contexts[key]
        for field in type(stats).__slots__:
            if field in locality:
                assert getattr(stats, field) == \
                    expected[key][locality.index(field)], (key, field)
            else:
                assert getattr(stats, field) == getattr(other, field), \
                    (key, field)
    assert shared.sfg.transitions == cacheless.sfg.transitions


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
