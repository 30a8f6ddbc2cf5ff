"""A synthetic trace as entry ids into distinct entries, priced once per
entry: every position must price and tally exactly as the
per-instruction path (one :class:`FetchSlot` per instruction) does, and
a scalar design-point evaluation must build neither object."""

import gc
from dataclasses import replace

import pytest

from repro.branch.unit import BranchOutcome
from repro.cache.hierarchy import fetch_stall, load_latency
from repro.config import baseline_config
from repro.core import framework
from repro.core.profiler import profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.core.synthetic import SyntheticInstruction
from repro.cpu.pipeline import simulate
from repro.cpu.source import FetchSlot, PreannotatedSource
from repro.dse.engine import evaluate_metrics
from repro.frontend.warming import run_program_with_warmup
from repro.isa.iclass import IClass, execution_latency
from repro.workloads.spec import build_benchmark

BENCHMARKS = ("gzip", "parser")


def _slower_memory(config):
    """A second latency signature: every priced latency moves."""
    return replace(
        config, memory_latency=config.memory_latency + 37,
        l2=replace(config.l2, hit_latency=config.l2.hit_latency + 3),
        dl1=replace(config.dl1, hit_latency=config.dl1.hit_latency + 1),
        dtlb=replace(config.dtlb, miss_latency=config.dtlb.miss_latency + 5),
        itlb=replace(config.itlb, miss_latency=config.itlb.miss_latency + 7))


CONFIGS = {"baseline": baseline_config(),
           "slower-memory": _slower_memory(baseline_config())}

#: (include_anti_dependencies, max_instructions) per case.
SHAPES = {"plain": (False, None), "anti": (True, None),
          "capped": (False, 700)}


@pytest.fixture(scope="module", params=BENCHMARKS)
def profile(request):
    warm, trace = run_program_with_warmup(
        build_benchmark(request.param), warmup=2_000, n_instructions=8_000)
    return profile_trace(trace, baseline_config(), order=1,
                         branch_mode="delayed", warmup_trace=warm)


def _slot(inst: SyntheticInstruction, config) -> FetchSlot:
    """The per-instruction conversion (paper section 2.3)."""
    if inst.is_load:
        latency = load_latency(config, inst.dl1_miss, inst.l2d_miss,
                               inst.dtlb_miss)
    else:
        latency = execution_latency(inst.iclass)
    return FetchSlot(
        iclass=inst.iclass, exec_latency=latency,
        fetch_stall=fetch_stall(config, inst.il1_miss, inst.l2i_miss,
                                inst.itlb_miss),
        dep_distances=inst.dep_distances, taken=inst.taken,
        outcome=inst.outcome, il1_miss=inst.il1_miss,
        l2i_miss=inst.l2i_miss, dl1_miss=inst.dl1_miss,
        l2d_miss=inst.l2d_miss, itlb_miss=inst.itlb_miss,
        dtlb_miss=inst.dtlb_miss)


def _counted_tallies(instructions) -> tuple:
    """The source tallies, counted position by position."""
    branches = taken = mispredicted = redirected = mem = l2 = 0
    for inst in instructions:
        l2 += inst.il1_miss
        if inst.is_load or inst.iclass is IClass.STORE:
            mem += 1
            l2 += inst.dl1_miss
        if inst.is_branch:
            branches += 1
            taken += inst.taken
            mispredicted += inst.outcome is BranchOutcome.MISPREDICTION
            redirected += inst.outcome is BranchOutcome.FETCH_REDIRECTION
    return (branches, taken, mispredicted, redirected, 2 * branches, mem,
            l2)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_prices_and_tallies_like_per_instruction_slots(profile, shape,
                                                       config_name):
    anti, cap = SHAPES[shape]
    config = CONFIGS[config_name]
    synthetic = generate_synthetic_trace(
        profile, 2, seed=5, include_anti_dependencies=anti,
        max_instructions=cap)
    instructions = synthetic.instructions
    assert len(synthetic.distinct) < len(synthetic)
    if anti:
        assert any(len(entry[2]) > 1 for entry in synthetic.distinct)
    if cap is not None:
        assert len(synthetic) < len(
            generate_synthetic_trace(profile, 2, seed=5))

    rows = synthetic.to_fetch_slots(config)
    assert list(rows) == [_slot(inst, config).row
                          for inst in instructions]

    source = PreannotatedSource.from_trace(synthetic, config)
    expected = _counted_tallies(instructions)
    assert (source.branches, source.taken_branches, source.mispredictions,
            source.redirections, source.act_bpred, source.act_dl1,
            source.act_l2) == expected
    assert expected[0] and expected[2] and expected[5] and expected[6]

    # The slot protocol hands the reference pipeline the same slots.
    fetched = list(iter(source.fetch, None))
    assert [[getattr(slot, f) for f in FetchSlot.__slots__]
            for slot in fetched] == \
        [[getattr(slot, f) for f in FetchSlot.__slots__]
         for slot in (_slot(inst, config) for inst in instructions)]


def _live(cls) -> int:
    """Live instances of *cls*, however they were allocated."""
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_scalar_evaluation_builds_no_per_instruction_object(profile,
                                                            monkeypatch):
    """Two probes: constructor calls, and a count of live instances
    taken around the simulation while the evaluation's trace and
    source are still referenced (this one also catches instances made
    through ``__new__``, which skips ``__init__``)."""
    built = []

    def counting(init):
        def __init__(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return __init__

    monkeypatch.setattr(SyntheticInstruction, "__init__",
                        counting(SyntheticInstruction.__init__))
    monkeypatch.setattr(FetchSlot, "__init__",
                        counting(FetchSlot.__init__))
    classes = (SyntheticInstruction, FetchSlot)
    live_during = []

    def probed_simulate(config, source):
        live_during.append([_live(cls) for cls in classes])
        result = simulate(config, source)
        live_during.append([_live(cls) for cls in classes])
        return result

    monkeypatch.setattr(framework, "simulate", probed_simulate)
    gc.collect()
    live_before = [_live(cls) for cls in classes]
    metrics = evaluate_metrics(profile, baseline_config(), seed=3,
                               reduction_factor=2.0)
    assert metrics["mode"] == "scalar"
    assert metrics["synthetic_instructions"] > 0
    assert built == []
    assert live_during == [live_before, live_before]
