"""Tests for pipeline instruction sources (execution-driven and
pre-annotated)."""

from dataclasses import replace

import pytest

from repro.config import baseline_config
from repro.isa.iclass import IClass
from repro.branch.unit import BranchOutcome
from repro.cache.hierarchy import fetch_stall, load_latency
from repro.cpu.source import (
    ExecutionDrivenSource,
    FetchSlot,
    PreannotatedSource,
    MAX_DEPENDENCY_DISTANCE,
)


class TestExecutionDrivenSource:
    def test_consumes_whole_trace(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        count = 0
        while source.fetch() is not None:
            count += 1
        assert count == len(tiny_trace)

    def test_dependency_distances_match_registers(self, tiny_trace,
                                                  config):
        source = ExecutionDrivenSource(tiny_trace, config)
        # tiny program block 0: load r1; alu r2 <- r1; branch <- r2.
        # Within one block iteration the alu depends on the load one
        # instruction earlier and the branch on the alu one earlier.
        slots = [source.fetch() for _ in range(3)]
        assert slots[1].dep_distances == (1,)
        assert slots[2].dep_distances == (1,)

    def test_first_reads_have_no_producers(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        first = source.fetch()  # load: src r4 never written
        assert first.dep_distances == ()

    def test_distance_capped(self, small_trace, config):
        source = ExecutionDrivenSource(small_trace, config)
        while True:
            slot = source.fetch()
            if slot is None:
                break
            for distance in slot.dep_distances:
                assert 0 < distance <= MAX_DEPENDENCY_DISTANCE

    def test_branches_classified(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        outcomes = []
        while True:
            slot = source.fetch()
            if slot is None:
                break
            if slot.is_branch:
                outcomes.append(slot.outcome)
            else:
                assert slot.outcome is None
        assert outcomes
        assert all(isinstance(o, BranchOutcome) for o in outcomes)

    def test_perfect_branch_prediction(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config,
                                       perfect_branch_prediction=True)
        while True:
            slot = source.fetch()
            if slot is None:
                break
            if slot.is_branch:
                assert slot.outcome is BranchOutcome.CORRECT

    def test_perfect_caches_no_stalls(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config,
                                       perfect_caches=True)
        while True:
            slot = source.fetch()
            if slot is None:
                break
            assert slot.fetch_stall == 0
            assert not slot.il1_miss and not slot.dl1_miss
            if slot.is_load:
                assert slot.exec_latency == config.dl1.hit_latency

    def test_load_latency_follows_hierarchy(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        latencies = set()
        while True:
            slot = source.fetch()
            if slot is None:
                break
            if slot.is_load:
                latencies.add(slot.exec_latency)
                assert slot.exec_latency == load_latency(
                    config, slot.dl1_miss, slot.l2d_miss, slot.dtlb_miss)
            assert slot.fetch_stall == fetch_stall(
                config, slot.il1_miss, slot.l2i_miss, slot.itlb_miss)
        valid = {config.dl1.hit_latency, config.l2.hit_latency,
                 config.memory_latency}
        extended = valid | {v + config.dtlb.miss_latency for v in valid}
        assert latencies <= extended

    def test_filler_slots_inert(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        filler = source.peek_filler(0)
        assert filler.dep_distances == ()
        assert filler.outcome is None
        assert filler.fetch_stall == 0

    def test_branches_train_at_dispatch(self, config):
        """A self-loop of taken branches with a cold BTB: the second is
        fetched while the first is still in the front end, so only
        dispatch-time training leaves it a fetch redirection too."""
        from repro.cpu.pipeline import SuperscalarPipeline
        from repro.cpu.reference import ReferencePipeline
        from repro.frontend.trace import Trace
        from repro.isa.instruction import DynamicInstruction

        trace = Trace("loop", [
            DynamicInstruction(seq, 0x1000, IClass.INT_COND_BRANCH, 0,
                               taken=True, target=0x1000)
            for seq in range(12)])
        deep = replace(config, frontend_depth=8)
        for pipeline in (SuperscalarPipeline, ReferencePipeline):
            result = pipeline(deep, ExecutionDrivenSource(trace, deep)).run()
            assert result.fetch_redirections == 2

    def test_peek_does_not_consume(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        source.peek_filler(0)
        source.peek_filler(5)
        slot = source.fetch()
        assert slot.raw.seq == 0


class TestPreannotatedSource:
    def _slots(self, n=5):
        return [FetchSlot(IClass.INT_ALU, exec_latency=1)
                for _ in range(n)]

    def test_replays_in_order(self):
        slots = self._slots()
        source = PreannotatedSource(slots)
        assert [source.fetch() for _ in range(5)] == slots
        assert source.fetch() is None

    def test_len(self):
        assert len(PreannotatedSource(self._slots(3))) == 3

    def test_peek_filler_wraps(self):
        source = PreannotatedSource(self._slots(2))
        filler = source.peek_filler(7)
        assert filler.iclass is IClass.INT_ALU

    def test_on_dispatch_noop(self):
        source = PreannotatedSource(self._slots(1))
        source.on_dispatch(source.fetch())  # must not raise


def _copy(trace):
    """The same instructions under a new trace object (a cold memo)."""
    from repro.frontend.trace import Trace

    return Trace(trace.name, list(trace.instructions))


def _counts():
    from repro.obs.metrics import get_registry

    registry = get_registry()
    return (registry.counter("eds.locality_built").value,
            registry.counter("eds.locality_reused").value)


class TestLocalityMemo:
    @pytest.fixture
    def windows(self, small_program):
        from repro.frontend.warming import run_program_with_warmup

        return run_program_with_warmup(small_program, 1500, 2000)

    def test_reuses_entry_for_same_key(self, windows, config):
        from repro.cpu.locality import resolve_locality

        warm, trace = windows
        built, reused = _counts()
        first = resolve_locality(trace, config, warm)
        # Window, width and latencies do not change the walk.
        again = resolve_locality(
            trace, replace(config.with_window(16, 8), memory_latency=90),
            warm)
        source = ExecutionDrivenSource(trace, config, warmup_trace=warm)
        assert again is first and source._resolution is first
        assert _counts() == (built + 1, reused + 2)

    @pytest.mark.parametrize("change", ["geometry", "warmup", "cold",
                                        "anti", "perfect"])
    def test_rebuilds_on_key_change(self, windows, config, change):
        from repro.cpu.locality import resolve_locality

        warm, trace = windows
        first = resolve_locality(trace, config, warm)
        kwargs = {"warmup_trace": warm, "perfect_caches": False}
        other = config
        if change == "geometry":
            other = config.with_cache_scale(0.5)
        elif change == "warmup":
            kwargs["warmup_trace"] = _copy(warm)
        elif change == "cold":
            kwargs["warmup_trace"] = None
        elif change == "anti":
            other = replace(config, enforce_anti_dependencies=True)
        else:
            kwargs["perfect_caches"] = True
        built, reused = _counts()
        second = resolve_locality(trace, other, **kwargs)
        assert second is not first
        assert _counts() == (built + 1, reused)
        # One entry per trace: asking for the first key again rebuilds.
        assert resolve_locality(trace, config, warm) is not second

    def test_dead_warmup_is_not_a_cold_start(self, windows, config):
        import gc

        from repro.cpu.locality import resolve_locality

        warm, trace = windows
        warm = _copy(warm)
        warmed = resolve_locality(trace, config, warm)
        del warm
        gc.collect()
        assert resolve_locality(trace, config) is not warmed

    def test_entry_dies_with_its_trace(self, small_trace, config):
        import gc
        import weakref

        from repro.cpu.locality import resolve_locality

        trace = _copy(small_trace)
        entry = weakref.ref(resolve_locality(trace, config))
        assert entry() is not None
        del trace
        gc.collect()
        assert entry() is None

    def test_perfect_caches_need_no_walk(self, windows, config,
                                         monkeypatch):
        import repro.cpu.locality as locality

        warm, trace = windows

        def fail(*args, **kwargs):
            raise AssertionError("perfect caches warmed a hierarchy")

        monkeypatch.setattr(locality, "warm_locality_structures", fail)
        resolution = locality.resolve_locality(trace, config, warm,
                                               perfect_caches=True)
        assert all(events & locality.EV_LOCALITY == 0
                   for _iclass, events, _deps, _taken, _outcome
                   in resolution.distinct)

    def test_walk_matches_per_fetch_walk(self, windows, config):
        from repro.cpu.locality import EV_LOCALITY, resolve_locality
        from repro.cpu.pipeline import SuperscalarPipeline
        from repro.cpu.reference import ReferencePipeline
        from repro.frontend.warming import warm_locality_structures

        warm, trace = windows
        resolution = resolve_locality(trace, config, warm)

        # The per-fetch walk: every fetch, then every load and store,
        # in program order, through an identically warmed hierarchy.
        walked, _ = warm_locality_structures(warm, config)
        expected = []
        for inst in trace:
            iresult = walked.access_instruction(inst.pc)
            events = (iresult.il1_miss | iresult.l2_miss << 1
                      | iresult.itlb_miss << 2)
            if inst.mem_addr is not None:
                dresult = walked.access_data(inst.mem_addr,
                                             is_store=inst.is_store)
                if inst.is_load:
                    events |= (dresult.dl1_miss << 3 | dresult.l2_miss << 4
                               | dresult.dtlb_miss << 5)
            expected.append(events)
        assert any(expected)
        assert [resolution.distinct[key][1] & EV_LOCALITY
                for key in resolution.keys] == expected

        # The predictor: classified at fetch and trained at dispatch by
        # the row-fed loop, as the reference pipeline's per-fetch slot
        # protocol drives it.
        rows = ExecutionDrivenSource(trace, config, warmup_trace=warm)
        SuperscalarPipeline(config, rows).run()
        slots = ExecutionDrivenSource(trace, config, warmup_trace=warm)
        ReferencePipeline(config, slots).run()
        assert rows.predictor is not slots.predictor
        assert predictor_state(rows.predictor) == \
            predictor_state(slots.predictor)


def predictor_state(unit):
    direction = unit.direction
    return (direction._meta, direction.component_a._table,
            direction.component_b._pht, direction.component_b._histories,
            unit.btb._sets, unit.lookups, unit.updates)
