"""Tests for synthetic instruction/trace containers and their pricing
into pipeline rows."""

from dataclasses import replace

import pytest

from repro.config import baseline_config
from repro.isa.iclass import IClass, execution_latency
from repro.branch.unit import BranchOutcome
from repro.core.synthetic import SyntheticInstruction, SyntheticTrace
from repro.cpu.source import PreannotatedSource
from repro.obs.metrics import get_registry


def _trace(instructions):
    return SyntheticTrace.from_instructions(
        name="t", instructions=instructions, order=1, reduction_factor=10)


def _slots(trace, config):
    """The trace's fetch slots, through the slot protocol."""
    source = PreannotatedSource.from_trace(trace, config)
    return list(iter(source.fetch, None))


class TestSyntheticInstruction:
    def test_flags(self):
        inst = SyntheticInstruction(IClass.LOAD, dl1_miss=True)
        assert inst.is_load
        assert inst.produces_register
        assert not inst.is_branch

    def test_store_produces_nothing(self):
        assert not SyntheticInstruction(IClass.STORE).produces_register

    def test_branch_produces_nothing(self):
        inst = SyntheticInstruction(IClass.INT_COND_BRANCH,
                                    outcome=BranchOutcome.CORRECT)
        assert inst.is_branch
        assert not inst.produces_register


class TestToFetchSlots:
    def test_load_latency_mapping(self):
        config = baseline_config()
        cases = [
            (SyntheticInstruction(IClass.LOAD), config.dl1.hit_latency),
            (SyntheticInstruction(IClass.LOAD, dl1_miss=True),
             config.l2.hit_latency),
            (SyntheticInstruction(IClass.LOAD, dl1_miss=True,
                                  l2d_miss=True), config.memory_latency),
            (SyntheticInstruction(IClass.LOAD, dtlb_miss=True),
             config.dl1.hit_latency + config.dtlb.miss_latency),
        ]
        slots = _slots(_trace([c[0] for c in cases]), config)
        for slot, (_, expected) in zip(slots, cases):
            assert slot.exec_latency == expected

    def test_fetch_stall_mapping(self):
        config = baseline_config()
        cases = [
            (SyntheticInstruction(IClass.INT_ALU), 0),
            (SyntheticInstruction(IClass.INT_ALU, il1_miss=True),
             config.l2.hit_latency),
            (SyntheticInstruction(IClass.INT_ALU, il1_miss=True,
                                  l2i_miss=True), config.memory_latency),
            (SyntheticInstruction(IClass.INT_ALU, itlb_miss=True),
             config.itlb.miss_latency),
        ]
        slots = _slots(_trace([c[0] for c in cases]), config)
        for slot, (_, expected) in zip(slots, cases):
            assert slot.fetch_stall == expected

    def test_non_load_latency_is_class_latency(self):
        config = baseline_config()
        inst = SyntheticInstruction(IClass.FP_DIV)
        slot = _slots(_trace([inst]), config)[0]
        assert slot.exec_latency == execution_latency(IClass.FP_DIV)

    def test_branch_annotations_forwarded(self):
        config = baseline_config()
        inst = SyntheticInstruction(IClass.INT_COND_BRANCH, taken=True,
                                    outcome=BranchOutcome.MISPREDICTION)
        slot = _slots(_trace([inst]), config)[0]
        assert slot.taken is True
        assert slot.outcome is BranchOutcome.MISPREDICTION

    def test_dep_distances_forwarded(self):
        config = baseline_config()
        inst = SyntheticInstruction(IClass.INT_ALU, dep_distances=(3, 7))
        slot = _slots(_trace([inst]), config)[0]
        assert slot.dep_distances == (3, 7)


def _every_event():
    """One instruction per locality event the latency helpers price."""
    return [
        SyntheticInstruction(IClass.LOAD),
        SyntheticInstruction(IClass.LOAD, dl1_miss=True),
        SyntheticInstruction(IClass.LOAD, dl1_miss=True, l2d_miss=True),
        SyntheticInstruction(IClass.LOAD, dtlb_miss=True),
        SyntheticInstruction(IClass.INT_ALU, il1_miss=True),
        SyntheticInstruction(IClass.INT_ALU, il1_miss=True,
                             l2i_miss=True),
        SyntheticInstruction(IClass.INT_ALU, itlb_miss=True),
        SyntheticInstruction(IClass.INT_COND_BRANCH, taken=True,
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
        instructions = [
            SyntheticInstruction(IClass.LOAD, dl1_miss=True),
            SyntheticInstruction(IClass.LOAD),
            SyntheticInstruction(IClass.INT_ALU),
            SyntheticInstruction(IClass.INT_COND_BRANCH,
                                 outcome=BranchOutcome.MISPREDICTION),
        ]
        summary = _trace(instructions).summary()
        assert summary["instructions"] == 4
        assert summary["load_fraction"] == pytest.approx(0.5)
        assert summary["dl1_miss_rate"] == pytest.approx(0.5)
        assert summary["misprediction_rate"] == pytest.approx(1.0)

    def test_container_protocol(self):
        trace = _trace([SyntheticInstruction(IClass.INT_ALU)])
        assert len(trace) == 1
        assert trace[0].iclass is IClass.INT_ALU
        assert [i.iclass for i in trace] == [IClass.INT_ALU]
