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
instruction's dependency tuple and geometry-independent entry come
from the trace's :func:`~repro.core.dependencies.dependency_pass`,
once per trace, whatever the number of geometries.  A
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
from repro.core.dependencies import (DependencyPass, dependency_pass,
                                     first_appearance, pack_columns)
from repro.core.sfg import MAX_DEPENDENCY_DISTANCE
from repro.frontend.trace import Trace
from repro.frontend.warming import (warm_branch_predictor,
                                    warm_locality_structures)
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.obs.metrics import get_registry

_LOAD = IClass.LOAD
_STORE = IClass.STORE
_CLASS_IS_BRANCH = [c in BRANCH_CLASSES for c in IClass]
_ICLASSES = list(IClass)
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
    ``annotations`` dict, and one ``priced`` dict that holds the rows
    of the walk's last execution-driven pricing
    (:mod:`repro.cpu.source`), for the next run with the same
    latencies.
    """

    __slots__ = ("key", "keys", "distinct", "tallies", "annotations",
                 "priced", "_warmup", "__weakref__")

    def __init__(self, key: tuple, keys: "array[int]",
                 distinct: List[tuple], counts: List[int],
                 warmup_trace: Optional[Trace], annotations: dict,
                 priced: dict) -> None:
        self.key = key
        self.keys = keys
        self.distinct = distinct
        self.annotations = annotations
        self.priced = priced
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
    is never mutated once built (its ``annotations`` only grow, and
    its ``priced`` rows are replaced whole), so
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
    instruction's geometry-independent entry comes from the trace's
    dependency pass (:func:`_bases`); a resolution's entry adds its
    geometry's event bits.
    """
    registry = get_registry()
    registry.counter("eds.locality_walks").inc()
    registry.counter("eds.locality_built").inc(len(configs))
    perfect = next(iter(configs))[2]
    geometries: Dict[tuple, bytearray] = {}
    if not perfect:
        for (geometry, _anti, _perfect), config in configs.items():
            if geometry not in geometries:
                hierarchy, _ = warm_locality_structures(warmup_trace,
                                                        config)
                events = geometries[geometry] = bytearray()
                hierarchy.walk(trace, events)
    bases, base_ids = _bases(dependency_pass(trace),
                             sorted({anti for _geometry, anti, _perfect
                                     in configs}))

    if perfect:
        load_events = np.array([EV_DATA if iclass is _LOAD else 0
                                for iclass, _deps, _taken in bases],
                               dtype=np.uint8)
    annotations: dict = {}
    priced: dict = {}
    entries: Dict[int, tuple] = {}
    resolutions: Dict[tuple, LocalityResolution] = {}
    for key in configs:
        geometry, key_anti, _perfect = key
        ids = base_ids[key_anti]
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
                                              warmup_trace, annotations,
                                              priced)
    return resolutions


def _bases(deps: DependencyPass, flavours: List[bool]
           ) -> Tuple[List[tuple], Dict[bool, np.ndarray]]:
    """The geometry-independent ``(iclass, distances, taken)`` entries
    of every instruction, once per flavour in *flavours* (False: RAW
    distances in operand order; True: those, then the WAW and the WAR
    distance of the destination, the ordering a machine without
    register renaming waits on).

    Returns the distinct entries and, per flavour, each instruction's
    index among them.  Equal entries of two flavours share an index.
    """
    n = len(deps)
    kept = np.flatnonzero(deps.raw)
    at = deps.operand_positions()[kept]
    filled = np.bincount(at, minlength=n).astype(np.int32)
    width = int(filled.max()) + 2 if n else 2
    # A kept distance's column is its rank among the instruction's.
    column = np.arange(len(at), dtype=np.int32)
    column -= (np.cumsum(filled) - filled)[at]
    plain = np.zeros((n, width), np.uint16)
    plain[at, column] = deps.raw[kept]
    del kept, at, column
    taken = np.zeros(n, np.uint8)
    taken[deps.branches] = deps.taken
    heads = deps.iclass * np.uint8(2) + taken
    matrices = []
    for anti in flavours:
        matrix = plain
        if anti:
            matrix = plain.copy()
            column = filled
            for distances in (deps.waw, deps.war):
                rows = np.flatnonzero(distances)
                matrix[rows, column[rows]] = distances[rows]
                column = column + (distances > 0)
        matrices.append(matrix)
    rows = np.concatenate(matrices) if len(matrices) > 1 else matrices[0]
    del plain, matrices
    heads = np.tile(heads, len(flavours))
    ids, first_rows = first_appearance(pack_columns(
        len(heads), [heads] + list(rows.T),
        [2 * len(_ICLASSES)] + [MAX_DEPENDENCY_DISTANCE + 1] * width))
    bases = [(_ICLASSES[head >> 1], tuple(d for d in row if d),
              bool(head & 1))
             for head, row in zip(heads[first_rows].tolist(),
                                  rows[first_rows].tolist())]
    ids = ids.astype(np.uintc)
    return bases, {anti: ids[index * n:(index + 1) * n]
                   for index, anti in enumerate(flavours)}


def number_entries(ids: np.ndarray, events: np.ndarray
                   ) -> Tuple["array[int]", List[int], List[int]]:
    """Number the entries of one geometry in order of first appearance,
    as one walk per geometry would: an entry is keyed by its base id
    (*ids*, per instruction) and its seven event bits (*events*).

    Returns ``(keys, codes, counts)``: each instruction's entry
    number, each entry's ``base << 7 | bits`` code and each entry's
    instruction count, the last two in entry order.
    """
    codes = ids.astype(np.int64) << 7 | events
    numbered, first = first_appearance(codes)
    numbered = numbered.astype(np.uintc)
    keys = array("I")
    keys.frombytes(numbered.tobytes())
    counts = np.bincount(numbered, minlength=len(first))
    return keys, codes[first].tolist(), counts.tolist()
