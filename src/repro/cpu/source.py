"""Instruction sources: how the pipeline learns each instruction's
latencies, dependencies and branch outcome.

Every source hands the pipeline one immutable *row* tuple per
instruction, all of them up front (``rows``, read by index from the
cursor ``_pos``)::

    (exec_latency, fu_index, dep_distances, is_load, is_store, is_mem,
     ctrl, fetch_stall, IClass code)

``ctrl`` packs the branch and fetch-stall bits (``CTRL_*``).  A row
carries no dependency distance beyond ``MAX_DEPENDENCY_DISTANCE``, the
pipelines' dependency history: every row builder passes its distances
through :func:`row_distances`.

* :class:`ExecutionDrivenSource` (the reference simulator) prices the
  locality events and dependency distances of a
  :class:`~repro.cpu.locality.LocalityResolution` of a dynamic trace,
  resolved once per cache geometry and shared by every run.  Only its
  branches are live: a branch row carries ``CTRL_LIVE`` and its row per
  outcome, and the pipeline classifies it against the source's
  predictor at fetch and trains the predictor with it at dispatch
  (see :class:`InstructionSource`).
* :class:`PreannotatedSource` replays a synthetic trace whose
  outcomes the generator decided in advance, and :class:`ColumnarSource`
  resolves a columnar synthetic trace (the statistical simulator, which
  per the paper "does not need to model branch predictors nor caches").

A resolution and a synthetic trace share one form: ``keys[i]`` indexes
position *i*'s entry in ``distinct``, one ``(iclass, event bits,
dependency distances, taken, outcome)`` tuple per distinct
instruction.  :func:`price_entries` turns each distinct entry into its
row once per machine config, and the tallies come from per-entry
counts (:func:`~repro.cpu.locality.entry_tallies`).

A :class:`FetchSlot` is the same instruction as an object — class,
execution latency, fetch stall, RAW dependency distances and branch
outcome — deliberately identical for real and synthetic instructions.
It exists only for the slot protocol (``fetch``/``peek_filler``/
``on_dispatch``) that :class:`~repro.cpu.reference.ReferencePipeline`
and the tests drive, and for hand-built streams
(``PreannotatedSource(slots)``).
Every source also keeps the branch and locality tallies of its correct
path (:class:`_Tallies`): they do not depend on pipeline timing, so
the loop reads them once at the end instead of counting them per fetch.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.config import MachineConfig
from repro.isa.iclass import (BRANCH_CLASSES, IClass, execution_latency,
                              functional_unit)
from repro.frontend.trace import Trace
from repro.branch.unit import BranchOutcome
from repro.cache.hierarchy import (fetch_stall, latency_signature,
                                   load_latency)
from repro.cpu.locality import (
    EV_DATA, EV_DL1, EV_DTLB, EV_IL1, EV_ITLB, EV_L2D, EV_L2I, EV_LOCALITY,
    MAX_DEPENDENCY_DISTANCE, LocalityResolution, entry_tallies,
    resolve_locality)
from repro.obs.metrics import get_registry

#: Control-byte bits of a row (see the module docstring).  Wrong-path
#: fillers carry none.  ``CTRL_LIVE`` marks a branch whose outcome the
#: live predictor decides at fetch; its row's tenth field holds its
#: row per :class:`BranchOutcome`.
CTRL_TAKEN = 1
CTRL_MISPREDICT = 2
CTRL_REDIRECT = 4
CTRL_STALL = 8
CTRL_LIVE = 16

#: Per-IClass lookups, indexed by the IClass code.  The slot
#: constructor runs once per executed instruction, and each enum member
#: lookup (``IClass.LOAD``) is a slow class-attribute access.
_FU_IDX = [int(functional_unit(c)) for c in IClass]
_CLASS_IS_BRANCH = [c in BRANCH_CLASSES for c in IClass]
_CLASS_LATENCY = [execution_latency(c) for c in IClass]
_LOAD, _STORE = IClass.LOAD, IClass.STORE
_MISPREDICTION = BranchOutcome.MISPREDICTION
_REDIRECTION = BranchOutcome.FETCH_REDIRECTION


class FetchSlot:
    """Everything the pipeline needs to know about one instruction."""

    __slots__ = (
        "iclass",
        "fu",
        "fu_index",
        "is_mem",
        "exec_latency",
        "fetch_stall",
        "dep_distances",
        "is_branch",
        "is_load",
        "is_store",
        "taken",
        "outcome",
        "il1_miss",
        "l2i_miss",
        "dl1_miss",
        "l2d_miss",
        "itlb_miss",
        "dtlb_miss",
        "raw",
        "row",
    )

    def __init__(
        self,
        iclass: IClass,
        exec_latency: int,
        fetch_stall: int = 0,
        dep_distances: Tuple[int, ...] = (),
        taken: bool = False,
        outcome: Optional[BranchOutcome] = None,
        il1_miss: bool = False,
        l2i_miss: bool = False,
        dl1_miss: bool = False,
        l2d_miss: bool = False,
        itlb_miss: bool = False,
        dtlb_miss: bool = False,
        raw: object = None,
    ) -> None:
        self.iclass = iclass
        self.fu = functional_unit(iclass)
        self.exec_latency = exec_latency
        self.fetch_stall = fetch_stall
        self.dep_distances = dep_distances
        self.is_branch = is_branch = _CLASS_IS_BRANCH[iclass]
        self.is_load = is_load = iclass is _LOAD
        self.is_store = is_store = iclass is _STORE
        # Precomputed for the pipeline's issue/dispatch hot paths:
        # FunctionalUnit is an IntEnum, so the plain-int index lets the
        # issue stage address list-based FU pools without hashing.
        self.fu_index = fu_index = _FU_IDX[iclass]
        self.is_mem = is_mem = is_load or is_store
        self.taken = taken
        self.outcome = outcome
        self.il1_miss = il1_miss
        self.l2i_miss = l2i_miss
        self.dl1_miss = dl1_miss
        self.l2d_miss = l2d_miss
        self.itlb_miss = itlb_miss
        self.dtlb_miss = dtlb_miss
        self.raw = raw
        ctrl = CTRL_STALL if fetch_stall else 0
        if is_branch:
            if taken:
                ctrl |= CTRL_TAKEN
            if outcome is _MISPREDICTION:
                ctrl |= CTRL_MISPREDICT
            elif outcome is _REDIRECTION:
                ctrl |= CTRL_REDIRECT
        if exec_latency < 1:
            raise ValueError(f"an instruction completes no earlier than "
                             f"the cycle after it issues, got latency "
                             f"{exec_latency!r}")
        self.row = (exec_latency, fu_index, row_distances(dep_distances),
                    is_load, is_store, is_mem, ctrl, fetch_stall, iclass)


def row_distances(deps: Tuple[int, ...]) -> Tuple[int, ...]:
    """*deps* as a row carries them: without distances beyond
    ``MAX_DEPENDENCY_DISTANCE``.  The pipelines look no further back
    than their dependency history, so every row builder drops longer
    distances here, once per row or distinct entry."""
    if deps:
        if min(deps) < 0:
            raise ValueError(f"dependency distances count back to older "
                             f"instructions, got {deps!r}")
        if max(deps) > MAX_DEPENDENCY_DISTANCE:
            return tuple(d for d in deps if d <= MAX_DEPENDENCY_DISTANCE)
    return deps


class InstructionSource(Protocol):
    """What the pipelines read from a source.

    :class:`~repro.cpu.pipeline.SuperscalarPipeline` indexes ``rows``
    from the cursor ``_pos``, timing each row once in program order,
    and reads the :class:`_Tallies` counters at the end.  A source with
    live rows (``CTRL_LIVE``, only the execution-driven one) also has a
    ``predictor``, a :class:`~repro.branch.unit.BranchPredictorUnit`,
    and ``branch_records``, the trace's branch records by position
    (:meth:`~repro.frontend.trace.Trace.branch_records`).  For the live row
    at position *pos* the loop calls
    ``predictor.classify(branch_records[pos])`` at fetch, after training
    the predictor with every older live branch that dispatched by that
    cycle, counts the outcome in the source's ``outcomes`` and takes
    the row for that outcome (the row's tenth field); it calls
    ``predictor.train`` on the same record for its dispatch.
    :class:`~repro.cpu.reference.ReferencePipeline` drives the slot
    protocol below instead, where ``fetch`` classifies and
    ``on_dispatch`` trains.
    """

    rows: Sequence[tuple]

    def fetch(self) -> Optional[FetchSlot]:
        """Consume and resolve the next correct-path instruction, or
        return None when the stream is exhausted."""
        ...

    def peek_filler(self, offset: int) -> Optional[FetchSlot]:
        """Return a wrong-path filler slot *offset* instructions ahead
        without consuming the stream or touching locality state."""
        ...

    def on_dispatch(self, slot: FetchSlot) -> None:
        """Notification that *slot* reached dispatch (used by the
        execution-driven source for speculative predictor update)."""
        ...


class _Tallies:
    """Branch and locality tallies of a source's correct path.

    Every correct-path instruction is fetched, dispatched and committed
    exactly once: wrong-path fillers never commit, and real
    instructions are never squashed, because everything younger than a
    mispredicted branch is filler.  So these counts do not depend on
    pipeline timing.  Only the fillers' D-cache accesses do; the
    pipeline counts those itself.

    ``outcomes[o]`` counts the correct-path branches whose
    :class:`BranchOutcome` is *o*: those annotated with a misprediction
    or a redirection, plus every live branch as it is classified.
    ``mispredictions`` and ``redirections`` read it.
    """

    branches = taken_branches = 0
    act_bpred = act_dl1 = act_l2 = 0
    outcomes: List[int]

    @property
    def mispredictions(self) -> int:
        return self.outcomes[_MISPREDICTION]

    @property
    def redirections(self) -> int:
        return self.outcomes[_REDIRECTION]

    def _adopt(self, tallies: tuple) -> None:
        """Take an :func:`~repro.cpu.locality.entry_tallies` tuple (fetch
        classifies a branch and dispatch updates the predictor model,
        hence two predictor accesses per branch)."""
        (self.branches, self.taken_branches, mispredictions,
         redirections, self.act_bpred, self.act_dl1,
         self.act_l2) = tallies
        self.outcomes = [0, redirections, mispredictions]


#: Wrong-path fillers, one shared slot per IClass code.  A filler
#: occupies fetch/window/FU resources with the class's base latency, but
#: carries no dependencies, no locality events and an inert branch
#: outcome.  Both simulators use the same rule, per DESIGN.md (the paper
#: injects wrong-path instructions purely "to model resource
#: contention").  Slots are only ever read, so one instance serves every
#: wrong-path fetch.
_FILLER_SLOTS = [FetchSlot(c, exec_latency=execution_latency(c))
                 for c in IClass]

#: Their rows, for sources that keep rows only.
_FILLER_ROWS = [slot.row for slot in _FILLER_SLOTS]


class ExecutionDrivenSource(_Tallies):
    """Resolves a dynamic trace with warm locality structures.

    The timing-independent part of the run comes from a
    :class:`~repro.cpu.locality.LocalityResolution` of the trace: its
    I-cache/I-TLB events become fetch stalls, its D-cache events become
    load latencies, and its RAW (with ``enforce_anti_dependencies``
    also WAW/WAR) distances are the dependency distances, the same
    definition the statistical profiler uses.  The resolution is
    memoized per cache geometry and *warmup_trace*, so a window or
    width sweep walks its caches once, and the walk keeps its last
    priced rows, so the sweep's points with one latency set price them
    once.

    Branches stay live: the pipeline classifies each against
    :attr:`predictor` at fetch without training it, and trains it when
    it dispatches, giving the dispatch-time speculative update the
    paper assumes (see :class:`InstructionSource`).
    """

    def __init__(self, trace: Trace, config: MachineConfig,
                 perfect_caches: bool = False,
                 perfect_branch_prediction: bool = False,
                 warmup_trace: Optional[Trace] = None) -> None:
        self.trace = trace
        self.config = config
        self.perfect_caches = perfect_caches
        self.perfect_branch_prediction = perfect_branch_prediction
        resolution = resolve_locality(trace, config, warmup_trace,
                                      perfect_caches)
        self.predictor = (None if perfect_branch_prediction
                          else resolution.predictor(config.predictor))
        self._resolution = resolution
        self.branch_records = trace.branch_records()
        self.rows = _resolution_rows(resolution, config,
                                     not perfect_branch_prediction)
        self._adopt(resolution.tallies)
        self._pos = 0

    def __len__(self) -> int:
        return len(self.rows)

    def fetch(self) -> Optional[FetchSlot]:
        pos = self._pos
        if pos >= len(self.rows):
            return None
        self._pos = pos + 1
        resolution = self._resolution
        entry = resolution.distinct[resolution.keys[pos]]
        raw = self.branch_records.get(pos)
        row = self.rows[pos]
        if row[6] & CTRL_LIVE:
            outcome = self.predictor.classify(raw)
            self.outcomes[outcome] += 1
            row = row[9][outcome]
        outcome = None
        if _CLASS_IS_BRANCH[entry[0]]:
            ctrl = row[6]
            outcome = (_MISPREDICTION if ctrl & CTRL_MISPREDICT
                       else _REDIRECTION if ctrl & CTRL_REDIRECT
                       else BranchOutcome.CORRECT)
        return _entry_slot(entry, row, outcome, raw=raw)

    def peek_filler(self, offset: int) -> Optional[FetchSlot]:
        rows = self.rows
        if not rows:
            return None
        return _FILLER_SLOTS[rows[(self._pos + offset) % len(rows)][8]]

    def on_dispatch(self, slot: FetchSlot) -> None:
        if (slot.is_branch and slot.raw is not None
                and not self.perfect_branch_prediction):
            self.predictor.train(slot.raw)


def _resolution_rows(resolution: LocalityResolution, config: MachineConfig,
                     live_branches: bool) -> Tuple[tuple, ...]:
    """The rows of *resolution* priced with *config*'s latencies.

    The resolutions of one walk keep their last pricing in their
    shared ``priced`` dict, keyed by the resolution,
    :func:`~repro.cache.hierarchy.latency_signature` and
    *live_branches*: the points of a window or width sweep share one
    resolution and one latency set, so they share one tuple of rows,
    and the points of a cache sweep, one resolution each, hold no more
    rows than one run.  Counts ``eds.rows_priced`` or
    ``eds.rows_reused`` once per call.
    """
    key = (resolution.key, latency_signature(config), live_branches)
    priced = resolution.priced
    rows = priced.get(key)
    if rows is not None:
        get_registry().counter("eds.rows_reused").inc()
        return rows
    get_registry().counter("eds.rows_priced").inc()
    # Release the stale rows before pricing their successors.
    priced.clear()
    row_of = price_entries(resolution.distinct, config,
                           live_branches=live_branches)
    rows = priced[key] = tuple(map(row_of.__getitem__, resolution.keys))
    return rows


def _load_latencies(config: MachineConfig) -> List[int]:
    """A load's latency under *config* per locality event bits."""
    return [load_latency(config, e & EV_DL1, e & EV_L2D, e & EV_DTLB)
            for e in range(EV_LOCALITY + 1)]


def price_entries(distinct: Sequence[tuple], config: MachineConfig,
                  live_branches: bool = False) -> List[tuple]:
    """One row per distinct ``(iclass, events, deps, taken, outcome)``
    entry, priced with *config*'s latencies (paper section 2.3): a
    load with ``EV_DATA`` takes its latency from the deepest level it
    misses in, and instruction-side misses become fetch stalls.

    A trace has a few dozen to a few thousand distinct entries, shared
    by all their positions, so each is priced once per config through
    two 64-entry tables indexed by its event bits.  With
    *live_branches* a branch row carries ``CTRL_LIVE`` and, as a tenth
    field, its row per :class:`BranchOutcome`; otherwise its control
    byte comes from the entry's outcome.
    """
    load_lat = _load_latencies(config)
    stall_of = [fetch_stall(config, e & EV_IL1, e & EV_L2I, e & EV_ITLB)
                for e in range(EV_LOCALITY + 1)]
    rows = []
    append = rows.append
    for iclass, events, deps, taken, outcome in distinct:
        deps = row_distances(deps)
        stall = stall_of[events & EV_LOCALITY]
        ctrl = CTRL_STALL if stall else 0
        if _CLASS_IS_BRANCH[iclass]:
            if taken:
                ctrl |= CTRL_TAKEN
            head = (_CLASS_LATENCY[iclass], _FU_IDX[iclass], deps, False,
                    False, False)
            tail = (stall, iclass)
            if live_branches:
                outcomes = tuple(head + (ctrl | bit,) + tail for bit in
                                 (0, CTRL_REDIRECT, CTRL_MISPREDICT))
                append(head + (ctrl | CTRL_LIVE,) + tail + (outcomes,))
                continue
            if outcome is _MISPREDICTION:
                ctrl |= CTRL_MISPREDICT
            elif outcome is _REDIRECTION:
                ctrl |= CTRL_REDIRECT
            append(head + (ctrl,) + tail)
        elif iclass is _LOAD:
            append((load_lat[events & EV_LOCALITY] if events & EV_DATA
                    else _CLASS_LATENCY[iclass], _FU_IDX[iclass], deps,
                    True, False, True, ctrl, stall, iclass))
        else:
            is_store = iclass is _STORE
            append((_CLASS_LATENCY[iclass], _FU_IDX[iclass], deps, False,
                    is_store, is_store, ctrl, stall, iclass))
    return rows


#: Base latency per IClass code, for the vectorized row computation.
_BASE_LAT = np.asarray(_CLASS_LATENCY, dtype=np.int64)


class ColumnarSource(_Tallies):
    """Rows and tallies of a :class:`repro.core.columnar.ColumnarTrace`.

    Resolves the trace's columns — execution latency, fetch stall,
    functional unit, memory/load/store flags, dependency tuples and the
    packed control byte — with whole-trace numpy expressions instead of
    one ``FetchSlot`` construction per instruction, and the tallies as
    column sums.  The pipeline reads :attr:`rows` directly; no
    ``FetchSlot`` exists for a columnar trace.
    """

    def __init__(self, trace, config: MachineConfig) -> None:
        self.trace = trace
        self.config = config
        iclass = trace.iclass.astype(np.int64)
        n = iclass.size
        is_load = iclass == int(IClass.LOAD)
        is_store = iclass == int(IClass.STORE)
        is_branch = np.asarray(_CLASS_IS_BRANCH)[iclass]
        memory_latency = config.memory_latency
        l2_latency = config.l2.hit_latency

        # to_fetch_slots(), columnwise: load latency from the deepest
        # missing level plus the D-TLB penalty; instruction-side misses
        # as fetch stalls plus the I-TLB penalty.
        lat = np.where(
            is_load,
            np.where(trace.l2d, memory_latency,
                     np.where(trace.dl1, l2_latency,
                              config.dl1.hit_latency))
            + trace.dtlb * config.dtlb.miss_latency,
            _BASE_LAT[iclass])
        stall = np.where(trace.l2i, memory_latency,
                         np.where(trace.il1, l2_latency, 0)) \
            + trace.itlb * config.itlb.miss_latency

        ctrl = (trace.taken * CTRL_TAKEN
                + (is_branch & (trace.outcome == 2)) * CTRL_MISPREDICT
                + (is_branch & (trace.outcome == 1)) * CTRL_REDIRECT
                + (stall > 0) * CTRL_STALL)

        deps: List[Tuple[int, ...]] = [()] * n
        dep_off = trace.dep_off.tolist()
        dep_val = trace.dep_val.tolist()
        with_deps = np.flatnonzero(np.diff(trace.dep_off)).tolist()
        for i in with_deps:
            deps[i] = tuple(dep_val[dep_off[i]:dep_off[i + 1]])
        # Only a hand-built profile yields distances out of range.
        if dep_val and not (0 <= trace.dep_val.min() and trace.dep_val.max()
                            <= MAX_DEPENDENCY_DISTANCE):
            for i in with_deps:
                deps[i] = row_distances(deps[i])

        # Plain lists and tuples: numpy scalar indexing inside the
        # pipeline loop would dominate it.
        self.rows: List[tuple] = list(zip(
            lat.tolist(),
            np.asarray(_FU_IDX)[iclass].tolist(),
            deps,
            is_load.tolist(),
            is_store.tolist(),
            (is_load | is_store).tolist(),
            ctrl.tolist(),
            stall.tolist(),
            iclass.tolist(),
        ))

        self.branches = int(is_branch.sum())
        self.taken_branches = int(trace.taken.sum())
        branch_outcomes = trace.outcome[is_branch]
        self.outcomes = [0, int((branch_outcomes == 1).sum()),
                         int((branch_outcomes == 2).sum())]
        self.act_l2 = int(trace.il1.sum()) + int(trace.dl1.sum())
        self.act_dl1 = int((is_load | is_store).sum())
        self.act_bpred = 2 * self.branches
        self._pos = 0

    def __len__(self) -> int:
        return len(self.rows)


class PreannotatedSource(_Tallies):
    """Replays pre-resolved instructions (the synthetic-trace simulator).

    All locality and branch outcomes were assigned during synthetic trace
    generation (paper section 2.2, steps 5-7), so this source holds no
    caches and no predictor.  The pipeline reads :attr:`rows`.

    Built from a list of :class:`FetchSlot` (hand-made streams,
    tests), or by :meth:`from_trace` from a synthetic trace
    priced for one config: its rows come from the trace's distinct
    entries and its tallies from their counts, and slots exist only
    once :class:`~repro.cpu.reference.ReferencePipeline` fetches one.
    """

    def __init__(self, slots: Sequence[FetchSlot]) -> None:
        self._slots: Optional[List[FetchSlot]] = list(slots)
        self._trace = None
        self.rows: Sequence[tuple] = [slot.row for slot in self._slots]
        # Slots hash by identity, so a slot shared by many positions is
        # tallied once.
        self._adopt(entry_tallies(
            ((slot.iclass, event_bits(slot), slot.dep_distances,
              slot.taken, slot.outcome), count)
            for slot, count in Counter(self._slots).items()))
        self._pos = 0

    @classmethod
    def from_trace(cls, trace, config: MachineConfig
                   ) -> "PreannotatedSource":
        """The source of a :class:`~repro.core.synthetic.SyntheticTrace`
        (``keys``, ``distinct``, ``tallies`` and ``to_fetch_slots``)
        priced with *config*'s latencies."""
        source = cls.__new__(cls)
        source._slots = None
        source._trace = trace
        source.rows = trace.to_fetch_slots(config)
        source._adopt(trace.tallies)
        source._pos = 0
        return source

    def __len__(self) -> int:
        return len(self.rows)

    def fetch(self) -> Optional[FetchSlot]:
        pos = self._pos
        if pos >= len(self.rows):
            return None
        if self._slots is None:
            self._slots = _trace_slots(self._trace, self.rows)
        self._pos = pos + 1
        return self._slots[pos]

    def peek_filler(self, offset: int) -> Optional[FetchSlot]:
        rows = self.rows
        if not rows:
            return None
        return _FILLER_SLOTS[rows[(self._pos + offset) % len(rows)][8]]

    def on_dispatch(self, slot: FetchSlot) -> None:
        return None


def event_bits(slot: FetchSlot) -> int:
    """The six locality flags of a :class:`FetchSlot` as ``EV_*``
    bits."""
    return ((EV_IL1 if slot.il1_miss else 0)
            | (EV_L2I if slot.l2i_miss else 0)
            | (EV_ITLB if slot.itlb_miss else 0)
            | (EV_DL1 if slot.dl1_miss else 0)
            | (EV_L2D if slot.l2d_miss else 0)
            | (EV_DTLB if slot.dtlb_miss else 0))


def _entry_slot(entry: tuple, row: tuple,
               outcome: Optional[BranchOutcome],
               raw: object = None) -> FetchSlot:
    """The :class:`FetchSlot` of an ``(iclass, events, deps, taken,
    outcome)`` entry priced as *row*, resolved to *outcome*."""
    iclass, events, deps, taken, _outcome = entry
    return FetchSlot(
        iclass, exec_latency=row[0], fetch_stall=row[7],
        dep_distances=deps, taken=taken, outcome=outcome,
        il1_miss=bool(events & EV_IL1), l2i_miss=bool(events & EV_L2I),
        dl1_miss=bool(events & EV_DL1), l2d_miss=bool(events & EV_L2D),
        itlb_miss=bool(events & EV_ITLB), dtlb_miss=bool(events & EV_DTLB),
        raw=raw)


def _trace_slots(trace, rows: Sequence[tuple]) -> List[FetchSlot]:
    """One :class:`FetchSlot` per distinct entry of *trace*, from its
    priced row, at every position the entry fills."""
    distinct = trace.distinct
    slot_of: dict = {}
    slots = []
    for key, row in zip(trace.keys, rows):
        slot = slot_of.get(key)
        if slot is None:
            entry = distinct[key]
            slot = slot_of[key] = _entry_slot(entry, row, entry[4])
        slots.append(slot)
    return slots
