"""The bulk cache walk against the per-access reference.

:meth:`CacheHierarchy.walk` writes the hierarchy's LRU logic out inline
for speed; :meth:`~CacheHierarchy.access_instruction` and
:meth:`~CacheHierarchy.access_data` are the reference it must match
access for access: the same event bits, the same per-set LRU order,
the same last line and page, and the same counters.  The geometries
are tiny (1-2 sets, 1-4 ways, short lines and pages) so that streams
over a few hundred bytes evict, refresh and alias constantly.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.baselines.related import _measure_globals
from repro.cache.hierarchy import (EV_DATA, EV_DL1, EV_DTLB, EV_IL1,
                                   EV_ITLB, EV_L2D, EV_L2I, CacheHierarchy)
from repro.config import CacheConfig, TLBConfig, baseline_config
from repro.frontend.warming import (run_program_with_warmup,
                                    warm_locality_structures)
from repro.isa.iclass import IClass
from repro.workloads.spec import build_benchmark

from conftest import Row, make_trace, trace_rows

_LOAD, _STORE, _ALU = IClass.LOAD, IClass.STORE, IClass.INT_ALU


def _trace(*rows):
    """A trace of ``(pc, iclass, address)`` instructions."""
    return make_trace("walked", [Row(pc, iclass, mem_addr=address)
                                 for pc, iclass, address in rows])


def _inst(pc, iclass=_ALU, address=None):
    return pc, iclass, address


def _reference(hierarchy, trace):
    """The event bytes of *trace*, one per-access call at a time."""
    events = bytearray()
    for inst in trace_rows(trace):
        il1, l2, itlb = hierarchy.access_instruction(inst.pc)
        bits = il1 * EV_IL1 | l2 * EV_L2I | itlb * EV_ITLB
        if inst.mem_addr is not None:
            dl1, l2d, dtlb = hierarchy.access_data(
                inst.mem_addr, is_store=inst.iclass is _STORE)
            if inst.iclass is _LOAD:
                bits |= (EV_DATA | dl1 * EV_DL1 | l2d * EV_L2D
                         | dtlb * EV_DTLB)
        events.append(bits)
    return events


def _state(hierarchy):
    """Everything a walk can change."""
    caches = (hierarchy.il1, hierarchy.dl1, hierarchy.l2)
    tlbs = (hierarchy.itlb, hierarchy.dtlb)
    return {
        "sets": [[list(ways) for ways in level._sets]
                 for level in caches + tlbs],
        "last": ([level.last_line for level in caches]
                 + [tlb.last_page for tlb in tlbs]),
        "counters": ([(level.accesses, level.misses)
                      for level in caches + tlbs]
                     + [hierarchy.l2_instruction_accesses,
                        hierarchy.l2_instruction_misses,
                        hierarchy.l2_data_accesses,
                        hierarchy.l2_data_misses]),
        "rates": hierarchy.miss_rates(),
    }


def _machine(il1, dl1, l2, itlb, dtlb):
    return replace(baseline_config(), il1=il1, dl1=dl1, l2=l2, itlb=itlb,
                   dtlb=dtlb)


@st.composite
def _caches(draw, name):
    sets = draw(st.sampled_from((1, 2)))
    ways = draw(st.integers(1, 4))
    line = draw(st.sampled_from((4, 8, 16)))
    return CacheConfig(name, sets * ways * line, ways, line, 1)


@st.composite
def _tlbs(draw, name):
    sets = draw(st.sampled_from((1, 2)))
    ways = draw(st.integers(1, 4))
    page = draw(st.sampled_from((16, 32, 64)))
    return TLBConfig(name, sets * ways, ways, page_bytes=page)


_configs = st.builds(_machine, _caches("il1"), _caches("dl1"),
                     _caches("l2"), _tlbs("itlb"), _tlbs("dtlb"))

#: One instruction: (pc, kind, address); kind 0 is an ALU op, 1 a
#: load, 2 a store, 3 a load without an address.  "same" repeats the
#: previous pc (a same-line run) and "pc" makes the data address the
#: instruction's own pc (both sides of the unified L2 on one line).
_steps = st.tuples(
    st.one_of(st.just("same"), st.integers(0, 255)),
    st.integers(0, 3),
    st.one_of(st.just("pc"), st.integers(0, 255)))


def _stream(steps):
    instructions = []
    pc = 0
    kinds = (_ALU, _LOAD, _STORE, _LOAD)
    for step_pc, kind, step_address in steps:
        if step_pc != "same":
            pc = step_pc
        address = None
        if kind in (1, 2):
            address = pc if step_address == "pc" else step_address
        instructions.append(_inst(pc, kinds[kind], address))
    return _trace(*instructions)


class TestWalkMatchesPerAccess:
    @settings(max_examples=300, deadline=None)
    @given(config=_configs, warm_steps=st.lists(_steps, max_size=40),
           steps=st.lists(_steps, max_size=120))
    def test_random_streams(self, config, warm_steps, steps):
        warm = _stream(warm_steps)
        walked = _stream(steps)
        reference = CacheHierarchy(config)
        _reference(reference, warm)
        for level in (reference.il1, reference.dl1, reference.l2,
                      reference.itlb, reference.dtlb):
            level.reset_statistics()
        reference.l2_instruction_accesses = 0
        reference.l2_instruction_misses = 0
        reference.l2_data_accesses = 0
        reference.l2_data_misses = 0
        expected = _reference(reference, walked)

        hierarchy, _ = warm_locality_structures(warm, config)
        events = bytearray()
        hierarchy.walk(walked, events)
        assert events == expected
        assert _state(hierarchy) == _state(reference)

    @settings(max_examples=100, deadline=None)
    @given(config=_configs, steps=st.lists(_steps, max_size=120),
           cut=st.integers(0, 120))
    def test_walks_continue_each_other(self, config, steps, cut):
        trace = _stream(steps)
        reference = CacheHierarchy(config)
        expected = _reference(reference, trace)
        hierarchy = CacheHierarchy(config)
        events = bytearray()
        hierarchy.walk(trace.window(0, cut), events)
        hierarchy.walk(trace.window(cut, len(trace)), events)
        assert events == expected
        assert _state(hierarchy) == _state(reference)


class TestWalkCases:
    @pytest.fixture
    def tiny(self):
        return _machine(CacheConfig("il1", 16, 2, 8, 1),
                        CacheConfig("dl1", 16, 2, 8, 1),
                        CacheConfig("l2", 32, 2, 16, 1),
                        TLBConfig("itlb", 2, 2, page_bytes=32),
                        TLBConfig("dtlb", 2, 2, page_bytes=32))

    def _both(self, config, instructions):
        trace = _trace(*instructions)
        reference = CacheHierarchy(config)
        expected = _reference(reference, trace)
        hierarchy = CacheHierarchy(config)
        events = bytearray()
        hierarchy.walk(trace, events)
        assert events == expected
        assert _state(hierarchy) == _state(reference)
        return events

    def test_same_line_run_counts_every_fetch(self, tiny):
        events = self._both(tiny, [_inst(4)] * 5)
        assert list(events) == [EV_IL1 | EV_L2I | EV_ITLB, 0, 0, 0, 0]

    def test_unified_l2_shares_last_line(self, tiny):
        # The load's L2 access hits the line its own fetch just filled.
        events = self._both(tiny, [_inst(0, _LOAD, 0)])
        assert events[0] == (EV_IL1 | EV_L2I | EV_ITLB | EV_DATA | EV_DL1
                             | EV_DTLB)
        # Two data lines evict L2 line 0 after the fetch filled it, so a
        # fetch from another IL1 line within it misses L2 again: the
        # data side moved the L2's last line.
        events = self._both(tiny, [_inst(0), _inst(0, _LOAD, 32),
                                   _inst(0, _LOAD, 48), _inst(8)])
        assert events[3] == EV_IL1 | EV_L2I

    def test_stores_allocate_but_record_no_data_bits(self, tiny):
        events = self._both(tiny, [_inst(0, _STORE, 64),
                                   _inst(0, _LOAD, 64)])
        assert events[0] == EV_IL1 | EV_L2I | EV_ITLB
        assert events[1] == EV_DATA

    def test_load_without_address_records_nothing(self, tiny):
        events = self._both(tiny, [_inst(0, _LOAD)])
        assert not events[0] & EV_DATA

    def test_walk_without_events_still_counts(self, tiny):
        hierarchy = CacheHierarchy(tiny)
        hierarchy.walk(_trace(_inst(0, _LOAD, 8)))
        assert hierarchy.dl1.misses == 1


@pytest.mark.parametrize("name", ["gzip", "parser"])
def test_measure_globals_matches_per_access_loop(name):
    _, trace = run_program_with_warmup(build_benchmark(name),
                                       warmup=0, n_instructions=10_000)
    config = baseline_config().with_cache_scale(0.25)
    reference = CacheHierarchy(config)
    _reference(reference, trace)
    assert _measure_globals(trace, config).miss_rates == \
        reference.miss_rates()
