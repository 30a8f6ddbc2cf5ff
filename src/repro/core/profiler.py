"""Statistical profiling (paper Figure 1, step 1).

A :class:`StatisticalProfile` is assembled from three parts, each
computed once and reused by every profile that shares it:

* the *skeleton*, microarchitecture-independent: the order-k SFG's
  contexts and transitions with instruction types, operand counts and
  RAW/WAW/WAR dependency-distance distributions, plus each complete
  block's context and branch.  One pass over the trace builds it; it
  is memoized weakly on the trace for one order at a time;
* the *branch annotation*: the branch records of the immediate- or
  delayed-update profilers of :mod:`repro.branch.profiler`, memoized
  per (mode, predictor config, FIFO size) in the ``annotations`` of
  the trace's :class:`~repro.cpu.locality.LocalityResolution`, which
  are shared by every resolution of one locality walk (so by every
  point of a cache sweep);
* the *cache annotation*: the six cache miss events, folded from the
  resolution's event bits (the same program-order cache walk
  execution-driven simulation uses).

Every profile gets fresh :class:`~repro.core.sfg.ContextStats`: two
profiles never share a counter, and a cache sweep's profiles differ
only in their six event counts.

``branch_mode="delayed"`` uses the paper's FIFO profiling algorithm with
the FIFO sized to the instruction fetch queue (section 2.1.3);
``"immediate"`` is the naive pre-paper mode; ``"perfect"`` marks every
branch correctly predicted (used for the SFG-order study, Figure 4).
"""

from __future__ import annotations

import pickle
import weakref
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.hierarchy import EV_LOCALITY
from repro.config import MachineConfig
from repro.errors import ProfileError
from repro.frontend.trace import Trace
from repro.branch.profiler import (
    profile_branches_delayed,
    profile_branches_immediate,
)
from repro.branch.unit import BranchOutcome, BranchPredictorUnit, BranchRecord
from repro.core.sfg import (
    MAX_DEPENDENCY_DISTANCE,
    START_BLOCK,
    StatisticalFlowGraph,
)
from repro.obs.metrics import get_registry

BRANCH_MODES = ("delayed", "immediate", "perfect")


@dataclass
class StatisticalProfile:
    """A statistical profile: the SFG plus provenance metadata.

    The cache and branch characteristics inside the SFG are specific to
    the profiled :class:`MachineConfig`'s locality structures (and to the
    FIFO size = IFQ size for delayed update), so design-space sweeps over
    caches, predictors or the IFQ re-profile — exactly the trade-off the
    paper discusses versus SimPoint in section 4.4.  A re-profile
    repeats only what the point changes: the skeleton is shared, and
    a cache point reuses the branch annotation too.  The SFG is the
    profile's own: no counter in it is shared with another profile.
    """

    name: str
    order: int
    sfg: StatisticalFlowGraph
    trace_instructions: int
    branch_mode: str
    perfect_caches: bool
    config: MachineConfig

    @property
    def num_nodes(self) -> int:
        return self.sfg.num_nodes


def _branch_records(trace: Trace, config: MachineConfig,
                    branch_mode: str,
                    unit: Optional[BranchPredictorUnit] = None
                    ) -> Dict[int, BranchRecord]:
    """Classify every dynamic branch, keyed by trace sequence number."""
    if branch_mode == "perfect":
        return {
            inst.seq: BranchRecord(inst.seq, inst.taken,
                                   BranchOutcome.CORRECT)
            for inst in trace if inst.is_branch
        }
    if unit is None:
        unit = BranchPredictorUnit(config.predictor)
    if branch_mode == "immediate":
        records = profile_branches_immediate(trace, unit)
    elif branch_mode == "delayed":
        records = profile_branches_delayed(trace, unit,
                                           fifo_size=config.ifq_size)
    else:
        raise ProfileError(
            f"branch_mode must be one of {BRANCH_MODES}, got {branch_mode!r}"
        )
    return {record.seq: record for record in records}


def profile_trace(trace: Trace, config: MachineConfig, order: int = 1,
                  branch_mode: str = "delayed",
                  perfect_caches: bool = False,
                  warmup_trace: Optional[Trace] = None
                  ) -> StatisticalProfile:
    """Build the statistical profile of *trace* (paper section 2.1).

    *warmup_trace* functionally warms the cache hierarchy and branch
    predictor before characteristics are recorded, so the profile
    describes the warm measurement window the paper's samples represent.
    """
    from repro.obs.tracing import trace_span

    with trace_span("profile", bench=trace.name, order=order):
        return _profile_trace(trace, config, order=order,
                              branch_mode=branch_mode,
                              perfect_caches=perfect_caches,
                              warmup_trace=warmup_trace)


def _profile_trace(trace: Trace, config: MachineConfig, order: int = 1,
                   branch_mode: str = "delayed",
                   perfect_caches: bool = False,
                   warmup_trace: Optional[Trace] = None
                   ) -> StatisticalProfile:
    from repro.cpu.locality import resolve_locality

    if order < 0:
        raise ProfileError("order must be >= 0")
    if branch_mode not in BRANCH_MODES:
        raise ProfileError(
            f"branch_mode must be one of {BRANCH_MODES}, got {branch_mode!r}"
        )

    resolution = resolve_locality(trace, config, warmup_trace,
                                  perfect_caches)
    skeleton = _skeleton(trace, order)

    if branch_mode == "perfect":
        annotation_key: tuple = (branch_mode,)
    elif branch_mode == "immediate":
        annotation_key = (branch_mode, config.predictor)
    else:
        annotation_key = (branch_mode, config.predictor, config.ifq_size)
    # One small int per branch, outcome << 1 | taken, keyed by seq.
    branch_codes = resolution.annotations.get(annotation_key)
    if branch_codes is None:
        records = _branch_records(
            trace, config, branch_mode,
            unit=(None if branch_mode == "perfect"
                  else resolution.predictor(config.predictor)))
        branch_codes = resolution.annotations[annotation_key] = {
            seq: record.outcome << 1 | record.taken
            for seq, record in records.items()}

    sfg, stats = skeleton.instantiate()

    # Cache annotation: the resolution's event bits, per context slot.
    for (index, slot), counts in _cache_events(resolution, skeleton):
        context = stats[index]
        context.il1[slot] += counts[0]  # EV_* bit order
        context.l2i[slot] += counts[1]
        context.itlb[slot] += counts[2]
        context.dl1[slot] += counts[3]
        context.l2d[slot] += counts[4]
        context.dtlb[slot] += counts[5]

    # Branch annotation: each complete block's terminating branch.
    codes_get = branch_codes.get
    for index, seq in zip(skeleton.block_contexts, skeleton.branch_seqs):
        code = codes_get(seq)
        if code is not None:
            context = stats[index]
            context.taken += code & 1
            context.outcome_counts[code >> 1] += 1

    return StatisticalProfile(
        name=trace.name,
        order=order,
        sfg=sfg,
        trace_instructions=len(trace),
        branch_mode=branch_mode,
        perfect_caches=perfect_caches,
        config=config,
    )


def _cache_events(resolution, skeleton: "_Skeleton"):
    """``((context index, slot), counts)`` for every context slot of
    *skeleton* whose instructions hit a locality event under
    *resolution*: ``counts[b]`` is how many of them have event bit *b*
    set, in ``EV_*`` order.  Instructions past the last complete block
    count nowhere."""
    starts = np.frombuffer(skeleton.block_starts, dtype=np.uintc)
    key_events = np.array(
        [entry[1] & EV_LOCALITY for entry in resolution.distinct],
        dtype=np.uint8)
    events = key_events[np.frombuffer(resolution.keys, dtype=np.uintc)
                        [:starts[-1]]]
    positions = np.flatnonzero(events)
    if not len(positions):
        return []
    events = events[positions]
    blocks = np.searchsorted(starts, positions, "right") - 1
    slots = positions - starts[blocks]
    width = int(slots.max()) + 1
    contexts = np.frombuffer(skeleton.block_contexts, dtype=np.uintc)
    cells, inverse = np.unique(
        contexts[blocks].astype(np.int64) * width + slots,
        return_inverse=True)
    inverse = inverse.reshape(-1)
    counts = np.stack(
        [np.bincount(inverse[events >> bit & 1 == 1], minlength=len(cells))
         for bit in range(EV_LOCALITY.bit_length())], axis=1)
    return zip((divmod(cell, width) for cell in cells.tolist()),
               counts.tolist())


class _Skeleton:
    """The microarchitecture-independent part of the profiles of one
    trace at one order.

    ``sfg`` is the pickled SFG: contexts (cache and branch counters all
    zero) and transitions.  Complete block *j* (they form a prefix of
    the trace) spans instructions ``block_starts[j]`` to
    ``block_starts[j + 1]``, is an occurrence of the
    ``block_contexts[j]``-th context and ends with the branch whose
    sequence number is ``branch_seqs[j]``.
    """

    __slots__ = ("order", "sfg", "block_starts", "block_contexts",
                 "branch_seqs")

    def __init__(self, order: int) -> None:
        self.order = order
        self.sfg = b""
        self.block_starts = array("I", [0])
        self.block_contexts = array("I")
        self.branch_seqs: List[int] = []

    def instantiate(self) -> Tuple[StatisticalFlowGraph, list]:
        """A fresh SFG, sharing no object with any other, and its
        contexts in insertion order."""
        sfg = pickle.loads(self.sfg)
        return sfg, list(sfg.contexts.values())


#: trace -> its skeleton at the last order asked for; entries die with
#: their trace.
_SKELETONS: "weakref.WeakKeyDictionary[Trace, _Skeleton]" = \
    weakref.WeakKeyDictionary()


def _skeleton(trace: Trace, order: int) -> _Skeleton:
    """The memoized skeleton of *trace* at *order*, else a new one that
    replaces it.  Counts ``profile.skeleton_built`` or
    ``profile.skeleton_reused`` once per call."""
    skeleton = _SKELETONS.get(trace)
    if skeleton is not None and skeleton.order == order:
        get_registry().counter("profile.skeleton_reused").inc()
        return skeleton
    get_registry().counter("profile.skeleton_built").inc()
    _SKELETONS.pop(trace, None)
    skeleton = _SKELETONS[trace] = _build_skeleton(trace, order)
    return skeleton


def _build_skeleton(trace: Trace, order: int) -> _Skeleton:
    skeleton = _Skeleton(order)
    sfg = StatisticalFlowGraph(order)
    contexts = sfg.contexts
    starts_append = skeleton.block_starts.append
    contexts_append = skeleton.block_contexts.append
    branch_seqs_append = skeleton.branch_seqs.append
    position = 0

    history: List[int] = [START_BLOCK] * order
    history_key = tuple(history)
    last_writer: Dict[int, int] = {}
    last_reader: Dict[int, int] = {}
    lw_get = last_writer.get
    lr_get = last_reader.get
    sfg_transitions = sfg.transitions
    cap = MAX_DEPENDENCY_DISTANCE

    # Reusable context-key cache: one entry per k-block history holding
    # the transition counts plus, per next block, the ContextStats, its
    # index and its array-backed distance accumulators.  The hot loop then charges a block occurrence with
    # two dict hits instead of rebuilding the context tuple and per-slot
    # iclass/operand lists every time; the growable arrays turn each
    # distance record into one list index instead of a dict get+set,
    # and are folded into the ContextStats histograms once at the end.
    hist_cache: Dict[tuple, tuple] = {}

    # The instructions of the block currently being executed.
    block_insts: list = []
    block_append = block_insts.append

    for inst in trace.instructions:
        block_append(inst)

        if not inst.is_branch:
            continue

        # Block complete: attribute everything to its context.
        block = inst.bb_id
        entry = hist_cache.get(history_key)
        if entry is None:
            counts = sfg_transitions.get(history_key)
            if counts is None:
                counts = {}
                sfg_transitions[history_key] = counts
            entry = ({}, counts)
            hist_cache[history_key] = entry
        blocks, counts = entry
        cached = blocks.get(block)
        if cached is None:
            stats = sfg.context_for(
                history_key, block,
                iclasses=[i.iclass for i in block_insts],
                n_src=[len(i.src_regs) for i in block_insts],
            )
            index = len(contexts) - 1
            cached = (
                stats,
                index,
                [[[] for _ in range(n)] for n in stats.n_src],
                [[] for _ in stats.n_src],  # WAW, per producing slot
                [[] for _ in stats.n_src],  # WAR
            )
            blocks[block] = cached
        elif cached[0].block_size != len(block_insts):
            raise ValueError(
                f"context {history_key + (block,)} re-observed with a "
                f"different block size"
            )
        stats, index, raw_arrays, waw_arrays, war_arrays = cached
        stats.occurrences += 1
        sfg.total_block_executions += 1
        counts[block] = counts.get(block, 0) + 1
        position += len(block_insts)
        starts_append(position)
        contexts_append(index)
        branch_seqs_append(inst.seq)

        for slot, binst in enumerate(block_insts):
            seq = binst.seq
            src_regs = binst.src_regs
            if src_regs:
                operand_arrays = raw_arrays[slot]
                for operand, reg in enumerate(src_regs):
                    writer = lw_get(reg)
                    if writer is not None:
                        distance = seq - writer
                        if 0 < distance <= cap:
                            arr = operand_arrays[operand]
                            if distance >= len(arr):
                                arr.extend(
                                    [0] * (distance + 1 - len(arr)))
                            arr[distance] += 1
                    last_reader[reg] = seq
            dst = binst.dst_reg
            if dst is not None:
                # WAW/WAR distances (section 2.1.1 extension); recorded
                # alongside RAW, consumed only when synthesis is asked
                # to model machines without full renaming.
                previous_writer = lw_get(dst)
                if previous_writer is not None:
                    distance = seq - previous_writer
                    if 0 < distance <= cap:
                        arr = waw_arrays[slot]
                        if distance >= len(arr):
                            arr.extend([0] * (distance + 1 - len(arr)))
                        arr[distance] += 1
                previous_reader = lr_get(dst)
                if previous_reader is not None:
                    distance = seq - previous_reader
                    if 0 < distance <= cap:
                        arr = war_arrays[slot]
                        if distance >= len(arr):
                            arr.extend([0] * (distance + 1 - len(arr)))
                        arr[distance] += 1
                last_writer[dst] = seq

        if order > 0:
            history.append(block)
            del history[0]
            history_key = tuple(history)
        block_insts.clear()

    # Fold the array accumulators into the per-context histograms.
    for blocks, _counts in hist_cache.values():
        for stats, _index, raw_arrays, waw_arrays, war_arrays \
                in blocks.values():
            dep_hists = stats.dep_hists
            for slot, operand_arrays in enumerate(raw_arrays):
                for operand, arr in enumerate(operand_arrays):
                    if arr:
                        hist = dep_hists[slot][operand]
                        for distance, count in enumerate(arr):
                            if count:
                                hist[distance] = count
            for arrays, hists in ((waw_arrays, stats.waw_hists),
                                  (war_arrays, stats.war_hists)):
                for slot, arr in enumerate(arrays):
                    if arr:
                        hist = hists[slot]
                        for distance, count in enumerate(arr):
                            if count:
                                hist[distance] = count

    # A trailing partial block (trace ended mid-block) is discarded.
    skeleton.sfg = pickle.dumps(sfg, pickle.HIGHEST_PROTOCOL)
    return skeleton
