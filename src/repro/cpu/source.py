"""Instruction sources: how the pipeline learns each instruction's
latencies, dependencies and branch outcome.

A :class:`FetchSlot` is one instruction — class, execution latency,
fetch stall, RAW dependency distances and branch outcome — deliberately
identical for real and synthetic instructions.  The
:class:`ExecutionDrivenSource` computes slots from a dynamic trace with
live caches and a live branch predictor (the reference simulator); the
:class:`PreannotatedSource` replays slots that the synthetic trace
generator annotated in advance, and the :class:`ColumnarSource` resolves
a columnar synthetic trace (the statistical simulator, which per the
paper "does not need to model branch predictors nor caches").

The pipeline's cycle loop reads every instruction as one immutable
*row* tuple, built once per slot (``FetchSlot.row``) or per trace
(``rows`` of the two synthetic sources)::

    (exec_latency, fu_index, dep_distances, is_load, is_store, is_mem,
     ctrl, fetch_stall, IClass code)

``ctrl`` packs the branch and fetch-stall bits (``CTRL_*``).  Every
source also keeps the branch and locality tallies of its correct path
(:class:`_Tallies`): they do not depend on pipeline timing, so the loop
reads them once at the end instead of counting them per fetch.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.config import MachineConfig
from repro.isa.iclass import (BRANCH_CLASSES, IClass, execution_latency,
                              functional_unit)
from repro.frontend.trace import Trace
from repro.branch.unit import BranchOutcome, BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy

#: Dependency distances beyond this horizon cannot constrain any
#: realistic instruction window; the paper caps the dependency-distance
#: distribution at 512 for the same reason (section 2.1.1).
MAX_DEPENDENCY_DISTANCE = 512

#: Control-byte bits of a row (see the module docstring).  Wrong-path
#: fillers carry none.
CTRL_TAKEN = 1
CTRL_MISPREDICT = 2
CTRL_REDIRECT = 4
CTRL_STALL = 8

#: Per-IClass lookups, indexed by the IClass code.  The slot
#: constructor runs once per executed instruction, and each enum member
#: lookup (``IClass.LOAD``) is a slow class-attribute access.
_FU_IDX = [int(functional_unit(c)) for c in IClass]
_CLASS_IS_BRANCH = [c in BRANCH_CLASSES for c in IClass]
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
        self.row = (exec_latency, fu_index, dep_distances, is_load,
                    is_store, is_mem, ctrl, fetch_stall, iclass)


class InstructionSource(Protocol):
    """Protocol the pipeline's fetch engine drives.

    Sources also carry the :class:`_Tallies` counters of everything
    :meth:`fetch` returned.  A source whose rows exist up front exposes
    them as ``rows`` with its cursor in ``_pos``; the pipeline then
    indexes them instead of calling these methods.
    """

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
    """

    branches = taken_branches = mispredictions = redirections = 0
    act_bpred = act_dl1 = act_l2 = 0

    def _tally(self, slot: FetchSlot, count: int = 1) -> None:
        """Add *count* fetches of correct-path *slot*."""
        self.act_l2 += count * slot.il1_miss
        if slot.is_mem:
            self.act_dl1 += count
            self.act_l2 += count * slot.dl1_miss
        if slot.is_branch:
            self.branches += count
            # Fetch classifies the branch; dispatch updates the
            # predictor model.
            self.act_bpred += 2 * count
            if slot.taken:
                self.taken_branches += count
            if slot.outcome is _MISPREDICTION:
                self.mispredictions += count
            elif slot.outcome is _REDIRECTION:
                self.redirections += count


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
    """Resolves a dynamic trace with live locality structures.

    Per fetched instruction it:

    * runs the I-cache/I-TLB access and converts misses to fetch stalls;
    * runs loads and stores through the D-cache hierarchy (loads get the
      resulting latency);
    * classifies branches against the live predictor *without* training
      it — training happens at dispatch via :meth:`on_dispatch`, giving
      the dispatch-time speculative update the paper assumes;
    * computes the RAW dependency distance of every source operand (the
      same definition the statistical profiler uses).
    """

    def __init__(self, trace: Trace, config: MachineConfig,
                 perfect_caches: bool = False,
                 perfect_branch_prediction: bool = False,
                 hierarchy: Optional[CacheHierarchy] = None,
                 predictor: Optional[BranchPredictorUnit] = None) -> None:
        self.trace = trace
        self.config = config
        self.perfect_caches = perfect_caches
        self.perfect_branch_prediction = perfect_branch_prediction
        # Callers may inject pre-warmed locality structures (e.g. the
        # SimPoint baseline warms them on the instructions preceding a
        # representative interval).
        self.hierarchy = hierarchy or CacheHierarchy(config)
        self.predictor = predictor or BranchPredictorUnit(config.predictor)
        self._instructions = trace.instructions
        self._pos = 0
        self._last_writer: dict = {}
        self._last_reader: dict = {}

    def __len__(self) -> int:
        return len(self._instructions)

    def fetch(self) -> Optional[FetchSlot]:
        instructions = self._instructions
        if self._pos >= len(instructions):
            return None
        inst = instructions[self._pos]
        self._pos += 1

        fetch_stall = 0
        il1_miss = l2i_miss = itlb_miss = False
        if not self.perfect_caches:
            iresult = self.hierarchy.access_instruction(inst.pc)
            fetch_stall = self.hierarchy.fetch_stall(iresult)
            il1_miss = iresult.il1_miss
            l2i_miss = iresult.l2_miss
            itlb_miss = iresult.itlb_miss

        dep_distances = []
        last_writer = self._last_writer
        last_reader = self._last_reader
        anti = self.config.enforce_anti_dependencies
        seq = inst.seq
        for reg in inst.src_regs:
            writer = last_writer.get(reg)
            if writer is not None:
                distance = seq - writer
                if 0 < distance <= MAX_DEPENDENCY_DISTANCE:
                    dep_distances.append(distance)
            if anti:
                last_reader[reg] = seq
        if inst.dst_reg is not None:
            if anti:
                # Without register renaming, a write must wait for the
                # previous writer (WAW) and previous readers (WAR) of
                # its destination register.
                for prior in (last_writer.get(inst.dst_reg),
                              last_reader.get(inst.dst_reg)):
                    if prior is not None:
                        distance = seq - prior
                        if 0 < distance <= MAX_DEPENDENCY_DISTANCE:
                            dep_distances.append(distance)
            last_writer[inst.dst_reg] = seq

        latency = execution_latency(inst.iclass)
        dl1_miss = l2d_miss = dtlb_miss = False
        if inst.mem_addr is not None and not self.perfect_caches:
            dresult = self.hierarchy.access_data(inst.mem_addr,
                                                 is_store=inst.is_store)
            if inst.is_load:
                latency = self.hierarchy.load_latency(dresult)
                dl1_miss = dresult.dl1_miss
                l2d_miss = dresult.l2_miss
                dtlb_miss = dresult.dtlb_miss
        elif inst.is_load and self.perfect_caches:
            latency = self.config.dl1.hit_latency

        taken = False
        outcome: Optional[BranchOutcome] = None
        if inst.is_branch:
            taken = inst.taken
            if self.perfect_branch_prediction:
                outcome = BranchOutcome.CORRECT
            else:
                outcome = self.predictor.classify(inst)

        slot = FetchSlot(
            iclass=inst.iclass,
            exec_latency=latency,
            fetch_stall=fetch_stall,
            dep_distances=tuple(dep_distances),
            taken=taken,
            outcome=outcome,
            il1_miss=il1_miss,
            l2i_miss=l2i_miss,
            dl1_miss=dl1_miss,
            l2d_miss=l2d_miss,
            itlb_miss=itlb_miss,
            dtlb_miss=dtlb_miss,
            raw=inst,
        )
        self._tally(slot)
        return slot

    def peek_filler(self, offset: int) -> Optional[FetchSlot]:
        instructions = self._instructions
        if not instructions:
            return None
        index = (self._pos + offset) % len(instructions)
        return _FILLER_SLOTS[instructions[index].iclass]

    def on_dispatch(self, slot: FetchSlot) -> None:
        if (slot.is_branch and slot.raw is not None
                and not self.perfect_branch_prediction):
            self.predictor.train(slot.raw)


#: Base latency per IClass code, for the vectorized row computation.
_BASE_LAT = np.asarray([execution_latency(c) for c in IClass],
                       dtype=np.int64)


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
        for i in np.flatnonzero(np.diff(trace.dep_off)).tolist():
            deps[i] = tuple(dep_val[dep_off[i]:dep_off[i + 1]])

        # Plain lists and tuples: numpy scalar indexing inside the
        # cycle loop would dominate it.
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
        self.mispredictions = int((branch_outcomes == 2).sum())
        self.redirections = int((branch_outcomes == 1).sum())
        self.act_l2 = int(trace.il1.sum()) + int(trace.dl1.sum())
        self.act_dl1 = int((is_load | is_store).sum())
        self.act_bpred = 2 * self.branches
        self._pos = 0

    def __len__(self) -> int:
        return len(self.rows)


class PreannotatedSource(_Tallies):
    """Replays pre-resolved fetch slots (the synthetic-trace simulator).

    All locality and branch outcomes were assigned during synthetic trace
    generation (paper section 2.2, steps 5-7), so this source holds no
    caches and no predictor.  The pipeline reads :attr:`rows`, taken
    from the slots once here; :class:`~repro.cpu.reference.
    ReferencePipeline` drives the slots through the protocol methods.
    """

    def __init__(self, slots: Sequence[FetchSlot]) -> None:
        self._slots: List[FetchSlot] = list(slots)
        self.rows: List[tuple] = [slot.row for slot in self._slots]
        # Synthetic traces share one slot per distinct instruction, so
        # tally each distinct slot once (slots hash by identity).
        for slot, count in Counter(self._slots).items():
            self._tally(slot, count)
        self._pos = 0

    def __len__(self) -> int:
        return len(self._slots)

    def fetch(self) -> Optional[FetchSlot]:
        if self._pos >= len(self._slots):
            return None
        slot = self._slots[self._pos]
        self._pos += 1
        return slot

    def peek_filler(self, offset: int) -> Optional[FetchSlot]:
        if not self._slots:
            return None
        index = (self._pos + offset) % len(self._slots)
        return _FILLER_SLOTS[self._slots[index].iclass]

    def on_dispatch(self, slot: FetchSlot) -> None:
        return None
