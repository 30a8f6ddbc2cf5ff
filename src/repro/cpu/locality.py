"""Execution-driven locality, resolved once per cache geometry.

An execution-driven run walks its trace through the caches and TLBs in
program order, at fetch.  Nothing in that walk depends on pipeline
timing: which access hits is decided by the order of the addresses,
and fetch order is program order (wrong-path fillers never touch the
hierarchy).  The same holds for the dependency distances.  So one
:class:`LocalityResolution` records, per instruction, the locality
event bits and the dependency-distance tuple, once per (trace, warm-up
trace, cache/TLB geometry, ``enforce_anti_dependencies``,
``perfect_caches``), and every execution-driven run and every profile
of that trace reads it.  A window or width sweep walks its caches once
instead of once per design point, and a re-profiled cache point walks
them once for its profile and its reference run together.  Latencies
are not part of the walk: each run prices the events with its own
(:mod:`repro.cpu.source`).

The branch predictor is the one structure that stays live.  It
classifies a branch at fetch and trains at dispatch, so the state a
lookup sees depends on how many older branches have dispatched by
then, which is timing.  The resolution keeps one predictor per
predictor configuration, warmed once on the warm-up trace, and hands
each run a :meth:`~repro.branch.unit.BranchPredictorUnit.clone`.

:func:`resolve_locality` memoizes one resolution per trace, weakly: the
entry dies with its trace and is replaced when the trace is asked for
with another key.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Dict, List, Optional

from repro.branch.unit import BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.config import BranchPredictorConfig, MachineConfig
from repro.frontend.trace import Trace
from repro.frontend.warming import (warm_branch_predictor,
                                    warm_locality_structures)
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.obs.metrics import get_registry

#: Dependency distances beyond this horizon cannot constrain any
#: realistic instruction window; the paper caps the dependency-distance
#: distribution at 512 for the same reason (section 2.1.1).
MAX_DEPENDENCY_DISTANCE = 512

#: Event bits of one instruction: the paper's six locality events
#: (the data-side ones recorded for loads only, as the profile does).
EV_IL1 = 1
EV_L2I = 2
EV_ITLB = 4
EV_DL1 = 8
EV_L2D = 16
EV_DTLB = 32
#: All six.
EV_LOCALITY = 63
#: A load whose latency comes from the data hierarchy: every load with
#: an address, and every load under perfect caches.  A load without an
#: address keeps its class's base latency.
EV_DATA = 64

_LOAD = IClass.LOAD


def cache_geometry(config: MachineConfig) -> tuple:
    """What decides hits and misses: sizes, associativities, line and
    page sizes.  Latencies only price the events."""
    return tuple((level.size_bytes, level.associativity, level.line_bytes)
                 for level in (config.il1, config.dl1, config.l2)) + tuple(
        (tlb.entries, tlb.associativity, tlb.page_bytes)
        for tlb in (config.itlb, config.dtlb))


class LocalityResolution:
    """The timing-independent half of an execution-driven run.

    ``keys[i]`` indexes instruction *i*'s entry in ``distinct``, one
    ``(iclass, event bits, dependency distances, taken)`` tuple per
    distinct combination.
    """

    __slots__ = ("key", "keys", "distinct", "tallies",
                 "_warmup", "_predictors", "__weakref__")

    def __init__(self, key: tuple, keys: List[int], distinct: List[tuple],
                 warmup_trace: Optional[Trace]) -> None:
        self.key = key
        self.keys = keys
        self.distinct = distinct
        self._warmup = (None if warmup_trace is None
                        else weakref.ref(warmup_trace))
        self._predictors: Dict[BranchPredictorConfig,
                               BranchPredictorUnit] = {}
        # The source tallies that do not depend on the predictor:
        # (branches, taken_branches, act_bpred, act_dl1, act_l2).
        branches = taken = mem = l2 = 0
        for index, count in Counter(keys).items():
            iclass, events, _deps, was_taken = distinct[index]
            l2 += count * bool(events & EV_IL1)
            if iclass is _LOAD or iclass is IClass.STORE:
                mem += count
                l2 += count * bool(events & EV_DL1)
            if iclass in BRANCH_CLASSES:
                branches += count
                taken += count * was_taken
        self.tallies = (branches, taken, 2 * branches, mem, l2)

    def warmed_on(self, warmup_trace: Optional[Trace]) -> bool:
        if self._warmup is None or warmup_trace is None:
            return self._warmup is None and warmup_trace is None
        return self._warmup() is warmup_trace

    def predictor(self, config: BranchPredictorConfig) -> BranchPredictorUnit:
        """A private predictor for *config* in its warmed state."""
        template = self._predictors.get(config)
        if template is None:
            warmup = None if self._warmup is None else self._warmup()
            template = warm_branch_predictor(warmup, config)
            self._predictors[config] = template
        return template.clone()


#: trace -> its resolution; entries die with their trace.
_MEMO: "weakref.WeakKeyDictionary[Trace, LocalityResolution]" = \
    weakref.WeakKeyDictionary()


def resolve_locality(trace: Trace, config: MachineConfig,
                     warmup_trace: Optional[Trace] = None,
                     perfect_caches: bool = False) -> LocalityResolution:
    """The resolution of *trace* under *config*'s cache geometry, warm
    from *warmup_trace*: the memoized one when the key matches, else a
    new walk that replaces it.

    The walk sends every instruction fetch and every load and store
    through a hierarchy warmed by :func:`warm_locality_structures`, in
    program order, exactly as the per-fetch walk of the reference
    simulator does.  A perfect-cache resolution needs neither warming
    nor a hierarchy: every access hits.

    Counts ``eds.locality_built`` or ``eds.locality_reused`` once per
    call.  A resolution is never mutated once built (its predictor
    templates only grow), so threads racing on one trace at worst build
    it twice.
    """
    anti = config.enforce_anti_dependencies
    key = (cache_geometry(config), anti, perfect_caches)
    entry = _MEMO.get(trace)
    if (entry is not None and entry.key == key
            and entry.warmed_on(warmup_trace)):
        get_registry().counter("eds.locality_reused").inc()
        return entry
    get_registry().counter("eds.locality_built").inc()
    # Release the stale entry before the walk allocates its successor.
    _MEMO.pop(trace, None)
    entry = None
    hierarchy: Optional[CacheHierarchy] = None
    predictor = None
    if not perfect_caches:
        hierarchy, predictor = warm_locality_structures(warmup_trace,
                                                        config)
        access_instruction = hierarchy.access_instruction
        access_data = hierarchy.access_data

    keys: List[int] = []
    append = keys.append
    index: Dict[tuple, int] = {}
    distinct: List[tuple] = []
    last_writer: dict = {}
    last_reader: dict = {}
    writer_get = last_writer.get
    reader_get = last_reader.get
    cap = MAX_DEPENDENCY_DISTANCE
    branch_classes = BRANCH_CLASSES
    store = IClass.STORE
    for inst in trace.instructions:
        iclass = inst.iclass
        events = 0
        if hierarchy is not None:
            iresult = access_instruction(inst.pc)
            events = (iresult.il1_miss | iresult.l2_miss << 1
                      | iresult.itlb_miss << 2)
            if inst.mem_addr is not None:
                dresult = access_data(inst.mem_addr,
                                      is_store=iclass is store)
                if iclass is _LOAD:
                    events |= (EV_DATA | dresult.dl1_miss << 3
                               | dresult.l2_miss << 4
                               | dresult.dtlb_miss << 5)
        elif iclass is _LOAD:
            events = EV_DATA

        deps = []
        seq = inst.seq
        for reg in inst.src_regs:
            writer = writer_get(reg)
            if writer is not None:
                distance = seq - writer
                if 0 < distance <= cap:
                    deps.append(distance)
            if anti:
                last_reader[reg] = seq
        dst = inst.dst_reg
        if dst is not None:
            if anti:
                # Without register renaming, a write must wait for the
                # previous writer (WAW) and previous readers (WAR) of
                # its destination register.
                for prior in (writer_get(dst), reader_get(dst)):
                    if prior is not None:
                        distance = seq - prior
                        if 0 < distance <= cap:
                            deps.append(distance)
            last_writer[dst] = seq

        entry_key = (iclass, events, tuple(deps),
                     iclass in branch_classes and inst.taken)
        position = index.get(entry_key)
        if position is None:
            position = index[entry_key] = len(distinct)
            distinct.append(entry_key)
        append(position)

    entry = LocalityResolution(key, keys, distinct, warmup_trace)
    if predictor is not None:
        entry._predictors[config.predictor] = predictor
    _MEMO[trace] = entry
    return entry
