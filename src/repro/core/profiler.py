"""Statistical profiling (paper Figure 1, step 1).

A :class:`StatisticalProfile` is assembled from three parts, each
computed once and reused by every profile that shares it:

* the *skeleton*, microarchitecture-independent: the order-k SFG's
  contexts and transitions with instruction types, operand counts and
  RAW/WAW/WAR dependency-distance distributions, plus each complete
  block's context and branch.  It is numbered and counted with numpy
  from the trace's :func:`~repro.core.dependencies.dependency_pass`
  (shared with the execution-driven locality walk), and memoized
  weakly on the trace for one order at a time;
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
from repro.core.dependencies import (
    dependency_pass,
    first_appearance,
    pack_columns,
)
from repro.core.sfg import (
    MAX_DEPENDENCY_DISTANCE,
    START_BLOCK,
    StatisticalFlowGraph,
)
from repro.isa.iclass import IClass
from repro.obs.metrics import get_registry

BRANCH_MODES = ("delayed", "immediate", "perfect")

_ICLASSES = list(IClass)


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
            seq: BranchRecord(seq, branch[2], BranchOutcome.CORRECT)
            for seq, branch in trace.branch_records().items()
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
    """The skeleton of *trace* at *order*, from its
    :func:`~repro.core.dependencies.dependency_pass`.

    Blocks end at branches; a trailing partial block (the trace ended
    mid-block) is discarded.  Contexts and histories are numbered by
    first appearance, which is the insertion order of the SFG's
    ``contexts`` and ``transitions``, and each distance histogram is
    one run of an ``np.unique`` over (cell, distance) keys, so its
    keys ascend.
    """
    deps = dependency_pass(trace)
    skeleton = _Skeleton(order)
    sfg = StatisticalFlowGraph(order)
    ends = deps.branches
    count = len(ends)
    starts = np.zeros(count + 1, np.int64)
    starts[1:] = ends + 1
    skeleton.block_starts = array("I", starts.tolist())
    skeleton.branch_seqs = ends.tolist()
    if not count:
        skeleton.sfg = pickle.dumps(sfg, pickle.HIGHEST_PROTOCOL)
        return skeleton

    # Block j's context is (b[j - order], ..., b[j - 1], b[j]), with
    # START_BLOCK before the first block.
    padded = [START_BLOCK] * order + deps.bb_id
    distinct, blocks = np.unique(np.array(deps.bb_id, np.int64),
                                 return_inverse=True)
    blocks = blocks.reshape(-1) + 1
    width = len(distinct) + 1
    lagged = []
    for lag in range(order, 0, -1):
        column = np.zeros(count, np.int64)
        column[lag:] = blocks[:max(count - lag, 0)]
        lagged.append(column)
    histories, history_first = first_appearance(
        pack_columns(count, lagged, [width] * order))
    contexts, context_first = first_appearance(
        pack_columns(count, [histories, blocks],
                     [len(history_first), width]))
    sizes = np.diff(starts)
    context_sizes = sizes[context_first]
    mismatched = np.flatnonzero(sizes != context_sizes[contexts])
    if len(mismatched):
        j = int(mismatched[0])
        raise ValueError(
            f"context {tuple(padded[j:j + order + 1])} re-observed with a "
            f"different block size"
        )
    skeleton.block_contexts = array("I", contexts.tolist())

    # Contexts and transitions, in order of first appearance: a
    # history first appears with the first context that has it.
    occurrences = np.bincount(contexts).tolist()
    n_src = np.diff(deps.src_off)
    history_keys: List[Optional[tuple]] = [None] * len(history_first)
    transitions = sfg.transitions
    stats_list = []
    for index, (j, history, start, end) in enumerate(zip(
            context_first.tolist(), histories[context_first].tolist(),
            starts[context_first].tolist(),
            starts[context_first + 1].tolist())):
        key = history_keys[history]
        if key is None:
            key = history_keys[history] = tuple(padded[j:j + order])
            transitions[key] = {}
        block = padded[j + order]
        stats = sfg.context_for(
            key, block,
            iclasses=[_ICLASSES[code]
                      for code in deps.iclass[start:end].tolist()],
            n_src=n_src[start:end].tolist())
        stats.occurrences = transitions[key][block] = occurrences[index]
        stats_list.append(stats)
    sfg.total_block_executions = count

    # Distance histograms per cell, a (context, slot) pair numbered
    # context-major.
    cell_base = np.zeros(len(context_first) + 1, np.int64)
    np.cumsum(context_sizes, out=cell_base[1:])
    cell_context = np.repeat(np.arange(len(context_first)), context_sizes)
    cell_slot = (np.arange(cell_base[-1])
                 - cell_base[cell_context]).tolist()
    cell_stats = [stats_list[index] for index in cell_context.tolist()]
    complete = int(starts[-1])
    block_of = np.repeat(np.arange(count, dtype=np.int32), sizes)
    cell_of = (cell_base[contexts[block_of]] - starts[block_of]).astype(
        np.int32)
    del block_of
    cell_of += np.arange(complete, dtype=np.int32)

    flat = np.flatnonzero(deps.raw[:deps.src_off[complete]])
    at = deps.operand_positions()[flat]
    groups = flat - deps.src_off[at]
    span = int(groups.max()) + 1 if len(groups) else 1
    groups += cell_of[at].astype(np.int64) * span
    for group, hist in _histograms(groups, deps.raw[flat]):
        cell, operand = divmod(group, span)
        cell_stats[cell].dep_hists[cell_slot[cell]][operand] = hist
    del flat, at, groups
    for distances, field in ((deps.waw, "waw_hists"),
                             (deps.war, "war_hists")):
        at = np.flatnonzero(distances[:complete])
        for cell, hist in _histograms(cell_of[at], distances[at]):
            getattr(cell_stats[cell], field)[cell_slot[cell]] = hist

    skeleton.sfg = pickle.dumps(sfg, pickle.HIGHEST_PROTOCOL)
    return skeleton


def _histograms(groups: np.ndarray, distances: np.ndarray
                ) -> List[Tuple[int, Dict[int, int]]]:
    """``(group, {distance: count})`` per distinct group, the distances
    ascending."""
    width = MAX_DEPENDENCY_DISTANCE + 1
    values, counts = np.unique(groups.astype(np.int64) * width + distances,
                               return_counts=True)
    if not len(values):
        return []
    keys = values // width
    bounds = [0] + (np.flatnonzero(np.diff(keys)) + 1).tolist() \
        + [len(values)]
    distance_list = (values % width).tolist()
    count_list = counts.tolist()
    return [(group, dict(zip(distance_list[low:high], count_list[low:high])))
            for group, low, high in zip(keys[bounds[:-1]].tolist(), bounds,
                                        bounds[1:])]
