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
of that trace reads it.  Latencies are not part of the walk: each run
prices the events with its own (:mod:`repro.cpu.source`).

One walk serves a whole sweep.  :func:`plan_locality` names the
configs a sweep will ask for, and the first :func:`resolve_locality`
of any of them resolves all of them together: the multi-configuration
simulation the paper cites cheetah for (section 2.1.2), with the
configuration-independent work done once.  Each distinct geometry
gets one hierarchy, warmed by
:func:`~repro.frontend.warming.warm_locality_structures` and then run
over the trace by one :meth:`~repro.cache.hierarchy.CacheHierarchy.walk`
call, which records every instruction's event bits; each
instruction's dependency tuple and geometry-independent entry are
computed in one pass per trace, whatever the number of geometries.  A
resolution nobody planned is the same walk with one config.  A window
or width sweep walks its caches once, and a cache sweep walks each
geometry once.  The walk runs inside the first run or profile that
needs it, not in the planner.

The branch predictor is the one structure that stays live.  It
classifies a branch at fetch and trains at dispatch, so the state a
lookup sees depends on how many older branches have dispatched by
then, which is timing.  Each run gets a clone of the predictor warmed
once per warm-up trace and predictor config
(:func:`~repro.frontend.warming.warm_branch_predictor`).  The
resolutions of one walk share an ``annotations`` dict, where the
profiler memoizes its branch records per predictor config and FIFO
size.

The memo keeps the last batch per trace, weakly: the entry dies with
its trace, a request any member answers reuses it, and any other
request replaces the whole batch.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.branch.unit import BranchOutcome, BranchPredictorUnit
from repro.cache.hierarchy import (  # noqa: F401 -- re-exported
    EV_DATA, EV_DL1, EV_DTLB, EV_IL1, EV_ITLB, EV_L2D, EV_L2I, EV_LOCALITY)
from repro.config import BranchPredictorConfig, MachineConfig
from repro.core.sfg import MAX_DEPENDENCY_DISTANCE
from repro.frontend.trace import Trace
from repro.frontend.warming import (warm_branch_predictor,
                                    warm_locality_structures)
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.obs.metrics import get_registry

_LOAD = IClass.LOAD
_STORE = IClass.STORE
_CLASS_IS_BRANCH = [c in BRANCH_CLASSES for c in IClass]
_MISPREDICTION = BranchOutcome.MISPREDICTION
_REDIRECTION = BranchOutcome.FETCH_REDIRECTION


def entry_tallies(counted: Iterable[Tuple[tuple, int]]) -> tuple:
    """The source tallies of ``(entry, count)`` pairs, one pair per
    distinct ``(iclass, events, deps, taken, outcome)`` entry:
    ``(branches, taken_branches, mispredictions, redirections,
    act_bpred, act_dl1, act_l2)``.  An entry whose outcome is None (a
    live branch) counts no misprediction or redirection."""
    branches = taken = mispredicted = redirected = mem = l2 = 0
    for (iclass, events, _deps, was_taken, outcome), count in counted:
        if events & EV_IL1:
            l2 += count
        if iclass is _LOAD or iclass is _STORE:
            mem += count
            if events & EV_DL1:
                l2 += count
        if _CLASS_IS_BRANCH[iclass]:
            branches += count
            if was_taken:
                taken += count
            if outcome is _MISPREDICTION:
                mispredicted += count
            elif outcome is _REDIRECTION:
                redirected += count
    return (branches, taken, mispredicted, redirected, 2 * branches, mem,
            l2)


def cache_geometry(config: MachineConfig) -> tuple:
    """What decides hits and misses: sizes, associativities, line and
    page sizes.  Latencies only price the events."""
    return tuple((level.size_bytes, level.associativity, level.line_bytes)
                 for level in (config.il1, config.dl1, config.l2)) + tuple(
        (tlb.entries, tlb.associativity, tlb.page_bytes)
        for tlb in (config.itlb, config.dtlb))


def _locality_key(config: MachineConfig, perfect_caches: bool) -> tuple:
    """What a resolution depends on besides its trace and warm-up."""
    return (cache_geometry(config), config.enforce_anti_dependencies,
            perfect_caches)


class LocalityResolution:
    """The timing-independent half of an execution-driven run.

    ``keys[i]`` (an unsigned ``array``) indexes instruction *i*'s entry
    in ``distinct``, one ``(iclass, event bits, dependency distances,
    taken, None)`` tuple per distinct combination: the entry form of a
    :class:`~repro.core.synthetic.SyntheticTrace`, whose last field is
    the branch outcome that here the live predictor decides.  The
    resolutions of one walk share their equal entries and one
    ``annotations`` dict.
    """

    __slots__ = ("key", "keys", "distinct", "tallies", "annotations",
                 "_warmup", "__weakref__")

    def __init__(self, key: tuple, keys: "array[int]",
                 distinct: List[tuple], counts: List[int],
                 warmup_trace: Optional[Trace], annotations: dict) -> None:
        self.key = key
        self.keys = keys
        self.distinct = distinct
        self.annotations = annotations
        self._warmup = (None if warmup_trace is None
                        else weakref.ref(warmup_trace))
        # The source tallies that do not depend on the predictor;
        # counts[i] is how many instructions entry i stands for.
        self.tallies = entry_tallies(zip(distinct, counts))

    def predictor(self, config: BranchPredictorConfig) -> BranchPredictorUnit:
        """A private predictor for *config* in its warmed state."""
        warmup = None if self._warmup is None else self._warmup()
        return warm_branch_predictor(warmup, config)


class _Batch:
    """The configs of one walk by :func:`_locality_key`, and their
    resolutions once walked."""

    __slots__ = ("configs", "resolutions", "_warmup")

    def __init__(self, configs: Dict[tuple, MachineConfig],
                 warmup_trace: Optional[Trace]) -> None:
        self.configs = configs
        self.resolutions: Dict[tuple, LocalityResolution] = {}
        self._warmup = (None if warmup_trace is None
                        else weakref.ref(warmup_trace))

    def covers(self, keys: Iterable[tuple],
               warmup_trace: Optional[Trace]) -> bool:
        if self._warmup is None or warmup_trace is None:
            warmed = self._warmup is None and warmup_trace is None
        else:
            warmed = self._warmup() is warmup_trace
        return warmed and all(key in self.configs for key in keys)


#: trace -> its last batch; entries die with their trace.
_MEMO: "weakref.WeakKeyDictionary[Trace, _Batch]" = \
    weakref.WeakKeyDictionary()


def plan_locality(trace: Trace, configs: Iterable[MachineConfig],
                  warmup_trace: Optional[Trace] = None,
                  perfect_caches: bool = False) -> None:
    """Make the next :func:`resolve_locality` of *trace* under any of
    *configs* resolve all of them in one walk.

    Nothing is walked here.  A plan the memo already answers keeps the
    memoized batch; any other plan replaces it.
    """
    planned = {_locality_key(config, perfect_caches): config
               for config in configs}
    batch = _MEMO.get(trace)
    if batch is None or not batch.covers(planned, warmup_trace):
        _MEMO[trace] = _Batch(planned, warmup_trace)


def resolve_locality(trace: Trace, config: MachineConfig,
                     warmup_trace: Optional[Trace] = None,
                     perfect_caches: bool = False) -> LocalityResolution:
    """The resolution of *trace* under *config*'s cache geometry, warm
    from *warmup_trace*: the memoized one when the trace's batch has
    it, else a walk of the batch (planned, or this config alone).

    Counts ``eds.locality_reused`` per call the memo answers, and
    ``eds.locality_built`` per resolution a walk builds.  A resolution
    is never mutated once built (its ``annotations`` only grow), so
    threads racing on one trace at worst walk it twice.
    """
    key = _locality_key(config, perfect_caches)
    batch = _MEMO.get(trace)
    if batch is None or not batch.covers((key,), warmup_trace):
        # Release the stale batch before the walk allocates its
        # successor.
        _MEMO.pop(trace, None)
        batch = _MEMO[trace] = _Batch({key: config}, warmup_trace)
    resolution = batch.resolutions.get(key)
    if resolution is not None:
        get_registry().counter("eds.locality_reused").inc()
        return resolution
    batch.resolutions = _walk(trace, batch.configs, warmup_trace)
    return batch.resolutions[key]


def _walk(trace: Trace, configs: Dict[tuple, MachineConfig],
          warmup_trace: Optional[Trace]) -> Dict[tuple, LocalityResolution]:
    """The resolutions of *trace* for every key of *configs*.

    Every instruction fetch and every load and store goes through one
    hierarchy per distinct geometry, warmed by
    :func:`warm_locality_structures` and walked in program order by
    :meth:`~repro.cache.hierarchy.CacheHierarchy.walk`, exactly as the
    per-fetch walk of the reference simulator does.  Perfect caches
    need neither warming nor a hierarchy: every access hits.  Each
    instruction's dependency tuple and its geometry-independent entry
    are computed in one pass; a resolution's entry adds its geometry's
    event bits.
    """
    registry = get_registry()
    registry.counter("eds.locality_walks").inc()
    registry.counter("eds.locality_built").inc(len(configs))
    instructions = trace.instructions
    perfect = next(iter(configs))[2]
    geometries: Dict[tuple, bytearray] = {}
    if not perfect:
        for (geometry, _anti, _perfect), config in configs.items():
            if geometry not in geometries:
                hierarchy, _ = warm_locality_structures(warmup_trace,
                                                        config)
                events = geometries[geometry] = bytearray()
                hierarchy.walk(instructions, events)
    plain = any(not anti for _geometry, anti, _perfect in configs)
    anti = any(anti for _geometry, anti, _perfect in configs)

    # Geometry-independent entries (iclass, distances, taken), interned
    # in order of first appearance, one id list per distance flavour.
    base_index: Dict[tuple, int] = {}
    bases: List[tuple] = []
    plain_ids = array("I")
    anti_ids = array("I")
    last_writer: dict = {}
    last_reader: dict = {}
    writer_get = last_writer.get
    reader_get = last_reader.get
    cap = MAX_DEPENDENCY_DISTANCE
    branch_classes = BRANCH_CLASSES

    def intern(entry: tuple) -> int:
        position = base_index.get(entry)
        if position is None:
            position = base_index[entry] = len(bases)
            bases.append(entry)
        return position

    for inst in instructions:
        iclass = inst.iclass
        deps = []
        seq = inst.seq
        for reg in inst.src_regs:
            writer = writer_get(reg)
            if writer is not None:
                distance = seq - writer
                if 0 < distance <= cap:
                    deps.append(distance)
            last_reader[reg] = seq
        taken = iclass in branch_classes and inst.taken
        if plain:
            plain_ids.append(intern((iclass, tuple(deps), taken)))
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
        if anti:
            anti_ids.append(intern((iclass, tuple(deps), taken)))

    if perfect:
        load_events = np.array([EV_DATA if iclass is _LOAD else 0
                                for iclass, _deps, _taken in bases],
                               dtype=np.uint8)
    annotations: dict = {}
    entries: Dict[int, tuple] = {}
    resolutions: Dict[tuple, LocalityResolution] = {}
    for key in configs:
        geometry, key_anti, _perfect = key
        ids = np.frombuffer(anti_ids if key_anti else plain_ids,
                            dtype=np.uintc)
        if perfect:
            events = load_events[ids]
        else:
            events = np.frombuffer(geometries[geometry], dtype=np.uint8)
        keys, codes, counts = number_entries(ids, events)
        distinct = []
        for code in codes:
            entry = entries.get(code)
            if entry is None:
                iclass, deps, taken = bases[code >> 7]
                entry = entries[code] = (iclass, code & 127, deps, taken,
                                         None)
            distinct.append(entry)
        resolutions[key] = LocalityResolution(key, keys, distinct, counts,
                                              warmup_trace, annotations)
    return resolutions


def number_entries(ids: np.ndarray, events: np.ndarray
                   ) -> Tuple["array[int]", List[int], List[int]]:
    """Number the entries of one geometry in order of first appearance,
    as one walk per geometry would: an entry is keyed by its base id
    (*ids*, per instruction) and its seven event bits (*events*).

    Returns ``(keys, codes, counts)``: each instruction's entry
    number, each entry's ``base << 7 | bits`` code and each entry's
    instruction count, the last two in entry order.
    """
    codes, first, inverse = np.unique(
        ids.astype(np.int64) << 7 | events,
        return_index=True, return_inverse=True)
    # np.unique numbers by sorted code; rank the codes by where each
    # first appears instead.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    numbered = rank[inverse.reshape(-1)].astype(np.uintc)
    keys = array("I")
    keys.frombytes(numbered.tobytes())
    counts = np.bincount(numbered, minlength=len(codes))
    return keys, codes[order].tolist(), counts.tolist()
