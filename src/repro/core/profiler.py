"""Statistical profiling (paper Figure 1, step 1).

One pass over a dynamic trace builds the :class:`StatisticalProfile`:

* microarchitecture-independent: the order-k SFG with instruction types,
  operand counts and per-operand dependency-distance distributions;
* microarchitecture-dependent: the six cache miss events (read from the
  trace's :class:`~repro.cpu.locality.LocalityResolution`, the same
  program-order cache walk execution-driven simulation uses) and the branch
  characteristics (measured with the immediate- or delayed-update branch
  profilers of :mod:`repro.branch.profiler`), annotated per context.

``branch_mode="delayed"`` uses the paper's FIFO profiling algorithm with
the FIFO sized to the instruction fetch queue (section 2.1.3);
``"immediate"`` is the naive pre-paper mode; ``"perfect"`` marks every
branch correctly predicted (used for the SFG-order study, Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

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

BRANCH_MODES = ("delayed", "immediate", "perfect")


@dataclass
class StatisticalProfile:
    """A statistical profile: the SFG plus provenance metadata.

    The cache and branch characteristics inside the SFG are specific to
    the profiled :class:`MachineConfig`'s locality structures (and to the
    FIFO size = IFQ size for delayed update), so design-space sweeps over
    caches, predictors or the IFQ re-profile — exactly the trade-off the
    paper discusses versus SimPoint in section 4.4.
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
    from repro.cpu.locality import EV_LOCALITY, resolve_locality

    if order < 0:
        raise ProfileError("order must be >= 0")
    if branch_mode not in BRANCH_MODES:
        raise ProfileError(
            f"branch_mode must be one of {BRANCH_MODES}, got {branch_mode!r}"
        )

    sfg = StatisticalFlowGraph(order)
    resolution = resolve_locality(trace, config, warmup_trace,
                                  perfect_caches)
    branch_records = _branch_records(
        trace, config, branch_mode,
        unit=(None if branch_mode == "perfect"
              else resolution.predictor(config.predictor)))
    key_events = [entry[1] & EV_LOCALITY for entry in resolution.distinct]

    history: List[int] = [START_BLOCK] * order
    history_key = tuple(history)
    last_writer: Dict[int, int] = {}
    last_reader: Dict[int, int] = {}
    lw_get = last_writer.get
    lr_get = last_reader.get
    records_get = branch_records.get
    sfg_transitions = sfg.transitions
    cap = MAX_DEPENDENCY_DISTANCE

    # Reusable context-key cache: one entry per k-block history holding
    # the transition counts plus, per next block, the ContextStats and
    # its array-backed distance accumulators.  The hot loop then charges
    # a block occurrence with two dict hits instead of rebuilding the
    # context tuple and per-slot iclass/operand lists every time; the
    # growable arrays turn each distance record into one list index
    # instead of a dict get+set, and are folded into the ContextStats
    # histograms once at the end.
    hist_cache: Dict[tuple, tuple] = {}

    # Buffered state for the block currently being executed: its
    # instructions, and the (sparse) slots that saw locality events.
    block_insts: list = []
    block_append = block_insts.append
    block_events: list = []  # (slot, EV_* bits)
    events_append = block_events.append

    for inst, key in zip(trace.instructions, resolution.keys):
        events = key_events[key]
        if events:
            events_append((len(block_insts), events))
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
            cached = (
                stats,
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
        stats, raw_arrays, waw_arrays, war_arrays = cached
        stats.occurrences += 1
        sfg.total_block_executions += 1
        counts[block] = counts.get(block, 0) + 1

        if block_events:
            for slot, events in block_events:  # EV_* bit order
                stats.il1[slot] += events & 1
                stats.l2i[slot] += events >> 1 & 1
                stats.itlb[slot] += events >> 2 & 1
                stats.dl1[slot] += events >> 3 & 1
                stats.l2d[slot] += events >> 4 & 1
                stats.dtlb[slot] += events >> 5 & 1
            block_events.clear()

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

        record = records_get(inst.seq)
        if record is not None:
            stats.taken += record.taken
            stats.outcome_counts[record.outcome] += 1

        if order > 0:
            history.append(block)
            del history[0]
            history_key = tuple(history)
        block_insts.clear()

    # Fold the array accumulators into the per-context histograms.
    for blocks, _counts in hist_cache.values():
        for stats, raw_arrays, waw_arrays, war_arrays in blocks.values():
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
    return StatisticalProfile(
        name=trace.name,
        order=order,
        sfg=sfg,
        trace_instructions=len(trace),
        branch_mode=branch_mode,
        perfect_caches=perfect_caches,
        config=config,
    )
