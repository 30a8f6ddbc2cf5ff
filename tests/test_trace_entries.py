"""A synthetic trace as entry ids into distinct entries, priced once per
entry: every position must price and tally exactly as a
:class:`FetchSlot` built from its entry's fields with the paper's
latency rules does, and a scalar design-point evaluation must build no
``FetchSlot``."""

import gc
from dataclasses import replace

import pytest

from repro.branch.unit import BranchOutcome
from repro.cache.hierarchy import fetch_stall, load_latency
from repro.config import baseline_config
from repro.core import framework
from repro.core.profiler import profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.cpu.locality import (EV_DL1, EV_DTLB, EV_IL1, EV_ITLB, EV_L2D,
                                EV_L2I)
from repro.cpu.pipeline import simulate
from repro.cpu.source import FetchSlot, PreannotatedSource
from repro.dse.engine import evaluate_metrics
from repro.frontend.warming import run_program_with_warmup
from repro.isa.iclass import BRANCH_CLASSES, IClass, execution_latency
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


def _slot(entry: tuple, config) -> FetchSlot:
    """The conversion of one entry (paper section 2.3)."""
    iclass, events, deps, taken, outcome = entry
    il1, l2i, itlb, dl1, l2d, dtlb = (bool(events & bit) for bit in (
        EV_IL1, EV_L2I, EV_ITLB, EV_DL1, EV_L2D, EV_DTLB))
    if iclass is IClass.LOAD:
        latency = load_latency(config, dl1, l2d, dtlb)
    else:
        latency = execution_latency(iclass)
    return FetchSlot(
        iclass=iclass, exec_latency=latency,
        fetch_stall=fetch_stall(config, il1, l2i, itlb),
        dep_distances=deps, taken=taken, outcome=outcome, il1_miss=il1,
        l2i_miss=l2i, dl1_miss=dl1, l2d_miss=l2d, itlb_miss=itlb,
        dtlb_miss=dtlb)


def _counted_tallies(entries) -> tuple:
    """The source tallies, counted position by position."""
    branches = taken = mispredicted = redirected = mem = l2 = 0
    for iclass, events, _deps, was_taken, outcome in entries:
        l2 += bool(events & EV_IL1)
        if iclass in (IClass.LOAD, IClass.STORE):
            mem += 1
            l2 += bool(events & EV_DL1)
        if iclass in BRANCH_CLASSES:
            branches += 1
            taken += was_taken
            mispredicted += outcome is BranchOutcome.MISPREDICTION
            redirected += outcome is BranchOutcome.FETCH_REDIRECTION
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
    entries = [synthetic.distinct[key] for key in synthetic.keys]
    assert len(synthetic.distinct) < len(synthetic)
    if anti:
        assert any(len(entry[2]) > 1 for entry in synthetic.distinct)
    if cap is not None:
        assert len(synthetic) < len(
            generate_synthetic_trace(profile, 2, seed=5))

    rows = synthetic.to_fetch_slots(config)
    assert list(rows) == [_slot(entry, config).row for entry in entries]

    source = PreannotatedSource.from_trace(synthetic, config)
    expected = _counted_tallies(entries)
    assert (source.branches, source.taken_branches, source.mispredictions,
            source.redirections, source.act_bpred, source.act_dl1,
            source.act_l2) == expected
    assert expected[0] and expected[2] and expected[5] and expected[6]

    # The slot protocol hands the reference pipeline the same slots.
    fetched = list(iter(source.fetch, None))
    assert [[getattr(slot, f) for f in FetchSlot.__slots__]
            for slot in fetched] == \
        [[getattr(slot, f) for f in FetchSlot.__slots__]
         for slot in (_slot(entry, config) for entry in entries)]


def _live_slots() -> int:
    """Live :class:`FetchSlot` instances, however they were allocated."""
    return sum(1 for obj in gc.get_objects() if type(obj) is FetchSlot)


def test_scalar_evaluation_builds_no_per_instruction_object(profile,
                                                            monkeypatch):
    """Two probes on :class:`FetchSlot`: constructor calls, and a count
    of live instances taken around the simulation while the
    evaluation's trace and source are still referenced (this one also
    catches instances made through ``__new__``, which skips
    ``__init__``)."""
    built = []
    init = FetchSlot.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FetchSlot, "__init__", counting)
    live_during = []

    def probed_simulate(config, source):
        live_during.append(_live_slots())
        result = simulate(config, source)
        live_during.append(_live_slots())
        return result

    monkeypatch.setattr(framework, "simulate", probed_simulate)
    gc.collect()
    live_before = _live_slots()
    metrics = evaluate_metrics(profile, baseline_config(), seed=3,
                               reduction_factor=2.0)
    assert metrics["mode"] == "scalar"
    assert metrics["synthetic_instructions"] > 0
    assert built == []
    assert live_during == [live_before, live_before]
