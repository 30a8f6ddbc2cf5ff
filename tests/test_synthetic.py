"""Tests for synthetic traces (interned ``(iclass, events, deps, taken,
outcome)`` entries) and their pricing into pipeline rows."""

from dataclasses import replace

import pytest

from repro.config import baseline_config
from repro.isa.iclass import (BRANCH_CLASSES, PRODUCING_CLASSES, IClass,
                              execution_latency)
from repro.branch.unit import BranchOutcome
from repro.core.synthetic import SyntheticTrace
from repro.core.validation import synthetic_rates
from repro.cpu.locality import (EV_DATA, EV_DL1, EV_DTLB, EV_IL1, EV_ITLB,
                                EV_L2D, EV_L2I)
from repro.cpu.source import PreannotatedSource
from repro.obs.metrics import get_registry


def _inst(iclass, events=0, deps=(), taken=False, outcome=None):
    """One synthetic instruction's entry (``EV_DATA`` on every load)."""
    if iclass is IClass.LOAD:
        events |= EV_DATA
    return (iclass, events, deps, taken, outcome)


def _trace(entries):
    return SyntheticTrace.from_entries(
        name="t", entries=entries, order=1, reduction_factor=10)


def _slots(trace, config):
    """The trace's fetch slots, through the slot protocol."""
    source = PreannotatedSource.from_trace(trace, config)
    return list(iter(source.fetch, None))


class TestSyntheticInstruction:
    """A synthetic instruction is one interned entry."""

    def test_flags(self):
        trace = _trace([_inst(IClass.LOAD, EV_DL1)])
        slot = _slots(trace, baseline_config())[0]
        assert slot.is_load and slot.is_mem and not slot.is_branch
        assert slot.dl1_miss and not slot.l2d_miss
        rates = synthetic_rates(trace)
        assert rates.load_fraction == 1.0 and rates.dl1_miss_rate == 1.0
        assert IClass.LOAD in PRODUCING_CLASSES

    def test_store_produces_nothing(self):
        assert IClass.STORE not in PRODUCING_CLASSES
        slot = _slots(_trace([_inst(IClass.STORE)]), baseline_config())[0]
        assert slot.is_store and not slot.is_load

    def test_branch_produces_nothing(self):
        assert not PRODUCING_CLASSES & BRANCH_CLASSES
        trace = _trace([_inst(IClass.INT_COND_BRANCH,
                              outcome=BranchOutcome.CORRECT)])
        assert _slots(trace, baseline_config())[0].is_branch


class TestToFetchSlots:
    def test_load_latency_mapping(self):
        config = baseline_config()
        cases = [
            (_inst(IClass.LOAD), config.dl1.hit_latency),
            (_inst(IClass.LOAD, EV_DL1), config.l2.hit_latency),
            (_inst(IClass.LOAD, EV_DL1 | EV_L2D), config.memory_latency),
            (_inst(IClass.LOAD, EV_DTLB),
             config.dl1.hit_latency + config.dtlb.miss_latency),
        ]
        slots = _slots(_trace([c[0] for c in cases]), config)
        for slot, (_, expected) in zip(slots, cases):
            assert slot.exec_latency == expected

    def test_fetch_stall_mapping(self):
        config = baseline_config()
        cases = [
            (_inst(IClass.INT_ALU), 0),
            (_inst(IClass.INT_ALU, EV_IL1), config.l2.hit_latency),
            (_inst(IClass.INT_ALU, EV_IL1 | EV_L2I), config.memory_latency),
            (_inst(IClass.INT_ALU, EV_ITLB), config.itlb.miss_latency),
        ]
        slots = _slots(_trace([c[0] for c in cases]), config)
        for slot, (_, expected) in zip(slots, cases):
            assert slot.fetch_stall == expected

    def test_non_load_latency_is_class_latency(self):
        config = baseline_config()
        inst = _inst(IClass.FP_DIV)
        slot = _slots(_trace([inst]), config)[0]
        assert slot.exec_latency == execution_latency(IClass.FP_DIV)

    def test_branch_annotations_forwarded(self):
        config = baseline_config()
        inst = _inst(IClass.INT_COND_BRANCH, taken=True,
                     outcome=BranchOutcome.MISPREDICTION)
        slot = _slots(_trace([inst]), config)[0]
        assert slot.taken is True
        assert slot.outcome is BranchOutcome.MISPREDICTION

    def test_dep_distances_forwarded(self):
        config = baseline_config()
        inst = _inst(IClass.INT_ALU, deps=(3, 7))
        slot = _slots(_trace([inst]), config)[0]
        assert slot.dep_distances == (3, 7)


def _every_event():
    """One instruction per locality event the latency helpers price."""
    return [
        _inst(IClass.LOAD),
        _inst(IClass.LOAD, EV_DL1),
        _inst(IClass.LOAD, EV_DL1 | EV_L2D),
        _inst(IClass.LOAD, EV_DTLB),
        _inst(IClass.INT_ALU, EV_IL1),
        _inst(IClass.INT_ALU, EV_IL1 | EV_L2I),
        _inst(IClass.INT_ALU, EV_ITLB),
        _inst(IClass.INT_COND_BRANCH, taken=True,
              outcome=BranchOutcome.CORRECT),
    ]


def _values(rows):
    return list(rows)


def _priced_reused():
    registry = get_registry()
    return (registry.counter("synthetic.slots_priced").value,
            registry.counter("synthetic.slots_reused").value)


#: One changed latency per field ``load_latency``/``fetch_stall`` read.
LATENCY_CHANGES = {
    "dl1_hit": lambda c: replace(
        c, dl1=replace(c.dl1, hit_latency=c.dl1.hit_latency + 1)),
    "l2_hit": lambda c: replace(
        c, l2=replace(c.l2, hit_latency=c.l2.hit_latency + 1)),
    "memory": lambda c: replace(c, memory_latency=c.memory_latency + 1),
    "dtlb_miss": lambda c: replace(
        c, dtlb=replace(c.dtlb, miss_latency=c.dtlb.miss_latency + 1)),
    "itlb_miss": lambda c: replace(
        c, itlb=replace(c.itlb, miss_latency=c.itlb.miss_latency + 1)),
}


class TestPriceMemo:
    """A trace keeps its last pricing, keyed by the latencies the
    slots read."""

    def test_window_and_width_reuse_the_slots(self):
        config = baseline_config()
        trace = _trace(_every_event())
        before = _priced_reused()
        slots = trace.to_fetch_slots(config)
        assert isinstance(slots, tuple)
        for other in (replace(config, ruu_size=64),
                      replace(config, lsq_size=16),
                      config.with_window(ruu_size=16, lsq_size=8),
                      config.with_width(2)):
            assert trace.to_fetch_slots(other) is slots
        priced, reused = _priced_reused()
        assert (priced - before[0], reused - before[1]) == (1, 4)

    @pytest.mark.parametrize("field", sorted(LATENCY_CHANGES))
    def test_latency_change_reprices(self, field):
        config = baseline_config()
        changed = LATENCY_CHANGES[field](config)
        instructions = _every_event()
        trace = _trace(instructions)
        first = trace.to_fetch_slots(config)
        before = _priced_reused()
        repriced = trace.to_fetch_slots(changed)
        assert repriced is not first
        assert _priced_reused()[0] == before[0] + 1
        assert _values(repriced) != _values(first)
        assert _values(repriced) == \
            _values(_trace(instructions).to_fetch_slots(changed))

    def test_a_then_b_then_a(self):
        config_a = baseline_config()
        config_b = LATENCY_CHANGES["memory"](config_a)
        instructions = _every_event()
        trace = _trace(instructions)
        a = _values(trace.to_fetch_slots(config_a))
        trace.to_fetch_slots(config_b)
        again = trace.to_fetch_slots(config_a)
        assert _values(again) == a
        assert _values(again) == \
            _values(_trace(instructions).to_fetch_slots(config_a))


class TestSummary:
    def test_summary_rates(self):
        entries = [
            _inst(IClass.LOAD, EV_DL1),
            _inst(IClass.LOAD),
            _inst(IClass.INT_ALU),
            _inst(IClass.INT_COND_BRANCH,
                  outcome=BranchOutcome.MISPREDICTION),
        ]
        trace = _trace(entries)
        rates = synthetic_rates(trace)
        assert len(trace) == 4
        assert rates.load_fraction == pytest.approx(0.5)
        assert rates.dl1_miss_rate == pytest.approx(0.5)
        assert rates.misprediction_rate == pytest.approx(1.0)

    def test_container_protocol(self):
        alu = _inst(IClass.INT_ALU)
        load = _inst(IClass.LOAD)
        trace = _trace([alu, load, alu])
        assert len(trace) == 3
        assert trace.distinct == [alu, load]
        assert list(trace.keys) == [0, 1, 0]
        assert sorted(trace.counted, key=lambda pair: pair[1]) == \
            [(load, 1), (alu, 2)]
