"""Exact-equivalence guard for the per-instruction pipeline.

The optimized :class:`repro.cpu.pipeline.SuperscalarPipeline` (one pass
in program order, each instruction's stage cycles computed from older
instructions) must produce a *field-for-field identical*
:class:`SimulationResult` to the frozen cycle-by-cycle loop in
:mod:`repro.cpu.reference` — same cycle count, same occupancy averages,
same activity counts — for every configuration and source type.  Any
intentional behaviour change must update both implementations
together.
"""

import os
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import baseline_config
from repro.core.profiler import profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.cpu.pipeline import SuperscalarPipeline
from repro.cpu.reference import ReferencePipeline
from repro.core.columnar import generate_columnar_trace
from repro.cpu.source import (ColumnarSource, ExecutionDrivenSource,
                              PreannotatedSource)
from repro.isa.iclass import IClass, execution_latency
from repro.branch.unit import BranchOutcome
from repro.cpu.results import SimulationResult
from repro.cpu.source import FetchSlot
from repro.fuzz.generator import (
    _BLOCK_CHOICES, _CODE_FOOTPRINT_KB, _INDIRECT_FRACTIONS,
    _MACHINE_INGREDIENTS, _MIX_CLASSES, _REGISTER_CHOICES, _STREAM_KINDS,
    _WORKING_SET_KB, random_case)
from repro.workloads.generator import WorkloadConfig, generate_program


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
    from repro.obs.metrics import get_registry
    from repro.power.wattch import WattchPowerModel

    warm, trace = warm_windows
    registry = get_registry()
    reused = registry.counter("eds.locality_reused")
    built = registry.counter("eds.locality_built")
    before = (reused.value, built.value)
    for ruu in (16, 32, 64):
        config = baseline_config().with_window(ruu, ruu // 2)
        copy = trace.window(0, len(trace), trace.name)
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
    from repro.frontend.warming import warm_locality_structures
    from repro.obs.metrics import get_registry
    from tests.conftest import trace_rows

    warm, trace = warm_windows
    config = baseline_config()
    run_execution_driven(trace, config, warmup_trace=warm)
    reused = get_registry().counter("eds.locality_reused")
    before = reused.value
    shared = profile_trace(trace, config, order=1, warmup_trace=warm)
    assert reused.value == before + 1
    cacheless = profile_trace(trace.window(0, len(trace), trace.name),
                              config, order=1, warmup_trace=warm,
                              perfect_caches=True)

    hierarchy, _ = warm_locality_structures(warm, config)
    expected = {}
    history, block = (START_BLOCK,), []
    for inst in trace_rows(trace):
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


def _branch(outcome=BranchOutcome.CORRECT, taken=False, **kw):
    return FetchSlot(IClass.INT_COND_BRANCH, exec_latency=1,
                     outcome=outcome, taken=taken, **kw)


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
    # 70 loads wake in one cycle behind one load/store unit: the issue
    # scan passes over 64 of them and stops, so the mispredicted branch
    # behind them resolves late although its own unit is free.
    miss = FetchSlot(IClass.LOAD, exec_latency=150)
    yield "deferral_cap", (
        [miss] + [load(dep_distances=(j,)) for j in range(1, 71)]
        + [_branch(BranchOutcome.MISPREDICTION, dep_distances=(71,))]
        + [alu()] * 8)
    # The branch waits on a miss, so wrong-path fetch runs long; the
    # filler store meets a 2-entry LSQ held by the miss and a store
    # waiting on it, and the ALU fillers behind it may not dispatch
    # past it.
    yield "filler_store_blocked", (
        [miss, store(dep_distances=(1,)),
         _branch(BranchOutcome.MISPREDICTION, dep_distances=(2,)),
         store()] + [alu()] * 12)
    # Fillers dispatched behind a mispredicted branch fill the RUU and
    # LSQ, then leave them at resolution; the correct path behind the
    # branch fills them again while the miss ahead of the branch holds
    # the head.  They stay in the dependency history: distance 2 from
    # the first correct-path instruction names a squashed filler, not
    # the miss.
    yield "filler_rewind", (
        [miss, _branch(BranchOutcome.MISPREDICTION),
         alu(dep_distances=(2,))]
        + [slot for _ in range(6) for slot in (load(), alu())])
    yield "zero_penalty_resume", [
        slot for _ in range(12)
        for slot in (load(), _branch(BranchOutcome.MISPREDICTION,
                                     taken=True), alu(), store())]


#: Machine overrides a hand-built stream needs to reach its edge,
#: applied on top of each variant.
_STREAM_MACHINES = {
    "deferral_cap": {"ruu_size": 128, "lsq_size": 128,
                     "load_store_units": 1},
    "filler_store_blocked": {"ruu_size": 16, "lsq_size": 2},
    "filler_rewind": {"ruu_size": 8, "lsq_size": 4},
    "zero_penalty_resume": {"branch_misprediction_penalty": 0},
}


@pytest.mark.parametrize(
    "name,slots", list(_hand_built_streams()),
    ids=[name for name, _ in _hand_built_streams()])
@pytest.mark.parametrize("variant",
                         ["baseline", "in_order", "tiny_window"])
def test_hand_built_streams_identical(name, slots, variant):
    config = replace(_config(variant), **_STREAM_MACHINES.get(name, {}))
    new_log, old_log = [], []
    new = SuperscalarPipeline(config, PreannotatedSource(list(slots))).run(
        commit_log=new_log)
    old = ReferencePipeline(config, PreannotatedSource(list(slots))).run(
        commit_log=old_log)
    _assert_identical(new, old)
    assert new_log == old_log


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


# ------------------------------------------------- random small machines

#: Examples per run of the random-machine differential test; CI runs a
#: deeper pass by setting ``PIPELINE_DIFFERENTIAL_EXAMPLES``.
_DIFFERENTIAL_EXAMPLES = int(os.environ.get(
    "PIPELINE_DIFFERENTIAL_EXAMPLES", "60"))


@st.composite
def _small_machines(draw):
    """Small machine shapes, where every resource binds often.  RUU
    sizes above 64 let the issue scan's 64-deferral cap bind;
    ``enforce_anti_dependencies`` only changes the distances an
    execution-driven source computes, so slot streams leave it inert."""
    ruu = draw(st.integers(2, 128))
    small = st.integers(1, 2)
    return replace(
        baseline_config(), ruu_size=ruu, lsq_size=draw(st.integers(1, ruu)),
        ifq_size=draw(st.integers(1, 4)), fetch_speed=draw(small),
        decode_width=draw(small), issue_width=draw(small),
        commit_width=draw(small), int_alus=draw(small),
        load_store_units=draw(small), fp_adders=draw(small),
        int_mult_divs=draw(small), fp_mult_divs=draw(small),
        frontend_depth=draw(st.integers(0, 2)),
        branch_misprediction_penalty=draw(st.integers(0, 3)),
        fetch_redirect_penalty=draw(st.integers(0, 3)),
        in_order_issue=draw(st.booleans()),
        conservative_loads=draw(st.booleans()),
        enforce_anti_dependencies=draw(st.booleans()))


_OTHER_CLASSES = [c for c in IClass if c not in (
    IClass.LOAD, IClass.STORE, IClass.INT_COND_BRANCH)]
_distances = st.lists(st.one_of(st.integers(0, 12), st.just(512)),
                      max_size=2).map(tuple)
_stalls = st.one_of(st.just(0), st.just(0), st.integers(1, 30))


@st.composite
def _slots(draw):
    kind = draw(st.sampled_from(["alu", "alu", "load", "store", "branch",
                                 "other"]))
    deps = draw(_distances)
    stall = draw(_stalls)
    if kind == "branch":
        return FetchSlot(IClass.INT_COND_BRANCH, exec_latency=1,
                         dep_distances=deps, fetch_stall=stall,
                         taken=draw(st.booleans()),
                         outcome=draw(st.sampled_from(list(BranchOutcome))))
    if kind == "load":
        return FetchSlot(IClass.LOAD, exec_latency=draw(st.one_of(
            st.integers(2, 4), st.integers(2, 150))),
            dep_distances=deps, fetch_stall=stall)
    iclass = {"alu": IClass.INT_ALU, "store": IClass.STORE}.get(kind) \
        or draw(st.sampled_from(_OTHER_CLASSES))
    return FetchSlot(iclass, exec_latency=execution_latency(iclass),
                     dep_distances=deps, fetch_stall=stall)


def _run_or_overrun(loop, config, slots, max_cycles):
    """The result or the guard's message, the commit log and the fetch
    cursor of one run."""
    source = PreannotatedSource(slots)
    log = []
    try:
        outcome = loop(config, source).run(max_cycles=max_cycles,
                                           commit_log=log)
    except RuntimeError as error:
        outcome = str(error)
    return outcome, log, source._pos


@settings(max_examples=_DIFFERENTIAL_EXAMPLES, derandomize=True,
          deadline=None)
@given(config=_small_machines(), slots=st.lists(_slots(), max_size=120),
       max_cycles=st.one_of(st.none(), st.integers(1, 400)))
def test_random_small_machines_identical(config, slots, max_cycles):
    new = _run_or_overrun(SuperscalarPipeline, config, slots, max_cycles)
    old = _run_or_overrun(ReferencePipeline, config, slots, max_cycles)
    if isinstance(new[0], SimulationResult):
        _assert_identical(new[0], old[0])
    assert new == old


@settings(max_examples=40, derandomize=True, deadline=None)
@given(config=_small_machines(), slots=st.lists(_slots(), max_size=120))
def test_frontend_depth_zero_times_like_one(config, slots):
    """Fetch is the last stage of a cycle, so an instruction dispatches
    no earlier than the cycle after its fetch at any depth below 2."""
    runs = []
    for depth in (0, 1):
        log = []
        runs.append((SuperscalarPipeline(
            replace(config, frontend_depth=depth),
            PreannotatedSource(slots)).run(commit_log=log), log))
    assert runs[0] == runs[1]


# ------------------------------------------------------ random programs

#: Examples per run of the random-program differential test; CI runs a
#: deeper pass by setting ``PROGRAM_DIFFERENTIAL_EXAMPLES``.
_PROGRAM_EXAMPLES = int(os.environ.get(
    "PROGRAM_DIFFERENTIAL_EXAMPLES", "120"))

#: A relative weight: zero (the class or stream kind is off) or spread
#: across orders of magnitude.
_weights = st.one_of(st.just(0.0), st.floats(0.01, 4.0))


@st.composite
def _fuzz_workloads(draw):
    """The fuzz generator's parameter space (``repro.fuzz.generator``),
    drawn directly so that hypothesis shrinks the program itself:
    degenerate one-block CFGs, one-hot and memory-free mixes, all-loop
    or all-random branches and combined machine pathologies."""
    mix = {iclass: draw(_weights) for iclass in _MIX_CLASSES}
    if not any(mix.values()):
        mix[IClass.INT_ALU] = 1.0
    uses_memory = mix[IClass.LOAD] > 0 or mix[IClass.STORE] > 0
    kinds = {kind: draw(_weights) for kind in _STREAM_KINDS}
    if not any(kinds.values()):
        kinds["strided"] = 1.0
    loop = draw(st.floats(0.0, 1.0))
    pattern = draw(st.floats(0.0, 1.0 - loop))
    assume(loop + pattern <= 1.0)
    return WorkloadConfig(
        name="differential", seed=draw(st.integers(0, 2**32 - 1)),
        n_blocks=draw(st.sampled_from(_BLOCK_CHOICES)),
        mean_block_size=draw(st.integers(1, 12)),
        instruction_mix=mix,
        n_registers=draw(st.sampled_from(_REGISTER_CHOICES)),
        working_set_kb=draw(st.sampled_from(_WORKING_SET_KB)),
        stream_kinds=kinds,
        # A mix with loads or stores needs a stream to draw from.
        n_memory_streams=draw(st.integers(int(uses_memory), 24)),
        loop_fraction=loop, pattern_fraction=pattern,
        indirect_fraction=draw(st.sampled_from(_INDIRECT_FRACTIONS)),
        random_branch_bias=draw(st.floats(0.05, 0.95)),
        code_footprint_kb=draw(st.sampled_from(_CODE_FOOTPRINT_KB)),
        dependency_locality=draw(st.floats(0.0, 0.95)))


@st.composite
def _fuzz_machines(draw):
    """Up to four of the fuzz generator's machine-shape ingredients,
    applied in table order over the baseline core."""
    picked = draw(st.sets(st.sampled_from(range(len(_MACHINE_INGREDIENTS))),
                          max_size=4))
    config = baseline_config()
    for index in sorted(picked):
        config = replace(config, **_MACHINE_INGREDIENTS[index])
    return config


def _assert_program_identical(program, config, n_instructions, warmup):
    """One functional trace of *program*; each pipeline gets its own
    execution-driven source (own caches and predictor)."""
    from repro.frontend.functional import run_program

    trace = run_program(program, n_instructions, warmup=warmup)
    new_log, old_log = [], []
    new = SuperscalarPipeline(
        config, ExecutionDrivenSource(trace, config)).run(
        commit_log=new_log)
    old = ReferencePipeline(
        config, ExecutionDrivenSource(trace, config)).run(
        commit_log=old_log)
    _assert_identical(new, old)
    assert new_log == old_log
    # Only real-path instructions retire, in cycle order.
    assert len(new_log) == new.instructions
    assert all(a[0] <= b[0] for a, b in zip(new_log, new_log[1:]))


@settings(max_examples=_PROGRAM_EXAMPLES, derandomize=True, deadline=None)
@given(workload=_fuzz_workloads(), config=_fuzz_machines(),
       n_instructions=st.integers(1, 4000), warmup=st.integers(0, 256))
def test_random_programs_identical(workload, config, n_instructions,
                                   warmup):
    _assert_program_identical(generate_program(workload), config,
                              n_instructions, warmup)


@pytest.mark.parametrize("index", [0, 9, 18])
def test_seed11_fuzz_cases_identical(index):
    """Cases 0, 9 and 18 of fuzz stream 11 at full length: the programs
    a one-cycle skew canary once filed as differential reproducers."""
    case = random_case(11, index)
    _assert_program_identical(case.program(), case.machine_config(),
                              case.trace_instructions, case.warmup)
