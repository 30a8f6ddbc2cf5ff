"""Branch profiling with immediate and delayed update (paper §2.1.3).

Profiling tools naturally process a trace one instruction at a time,
training the predictor right after each lookup (*immediate update*).
Real pipelines look up at fetch and update at dispatch/commit, so several
lookups happen against stale state (*delayed update*).  The paper's
contribution is a profiling algorithm that reproduces delayed update with
a FIFO buffer:

    "A branch predictor lookup occurs when a branch instruction enters
    the FIFO; an update occurs when a branch instruction leaves the FIFO.
    If a branch is mispredicted — this is detected upon removal — the
    instructions residing in the FIFO are squashed and new instructions
    are inserted until the FIFO is completely filled."

With speculative update at dispatch time, the natural FIFO size is the
instruction fetch queue size (32 in Table 2).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List

from repro.isa.instruction import DynamicInstruction
from repro.frontend.trace import Trace
from repro.branch.unit import BranchOutcome, BranchPredictorUnit, BranchRecord


def profile_branches_immediate(
    trace: Trace, unit: BranchPredictorUnit
) -> List[BranchRecord]:
    """Profile every branch with lookup immediately followed by update.

    This is the naive (pre-paper) profiling mode: the predictor always
    sees fully up-to-date state, which *underestimates* the misprediction
    rate a pipelined machine experiences (paper Figure 3).
    """
    records: List[BranchRecord] = []
    record, train = unit.record, unit.train
    for inst in trace:
        if inst.is_branch:
            records.append(record(inst))
            train(inst)
    return records


def profile_branches_delayed(
    trace: Trace, unit: BranchPredictorUnit, fifo_size: int
) -> List[BranchRecord]:
    """Profile branches through the paper's delayed-update FIFO.

    Lookups happen when an instruction enters the FIFO (fetch) and
    updates when it leaves (dispatch-time speculative update); a
    misprediction detected at removal squashes the FIFO contents, whose
    stale lookups are discarded and redone against the updated state.

    Returns one record per dynamic branch, in trace order.
    """
    if fifo_size < 1:
        raise ValueError("fifo_size must be >= 1")
    instructions = trace.instructions
    n = len(instructions)
    # Classification for the lookup currently associated with each
    # in-FIFO branch; final (surviving) classifications per trace seq.
    final: Dict[int, BranchRecord] = {}
    fifo: deque = deque()  # elements: (index, BranchRecord | None)
    record_of, train = unit.record, unit.train
    i = 0
    while i < n or fifo:
        # Fill the FIFO from the trace.
        while i < n and len(fifo) < fifo_size:
            inst = instructions[i]
            record = record_of(inst) if inst.is_branch else None
            fifo.append((i, record))
            i += 1
        # Remove one instruction from the tail.
        index, record = fifo.popleft()
        if record is not None:
            final[index] = record
            train(instructions[index])
            if record.outcome is BranchOutcome.MISPREDICTION and fifo:
                # Squash: the in-flight lookups were made on the wrong
                # path; refetch those instructions with updated state.
                fifo.clear()
                i = index + 1
    return [final[seq] for seq in sorted(final)]


def mispredictions_per_kilo_instruction(
    records: Iterable[BranchRecord], n_instructions: int
) -> float:
    """Branch mispredictions per 1,000 instructions (Figure 3 metric)."""
    if n_instructions <= 0:
        raise ValueError("n_instructions must be positive")
    mispredicts = sum(1 for r in records
                      if r.outcome is BranchOutcome.MISPREDICTION)
    return 1000.0 * mispredicts / n_instructions


def outcome_counts(records: Iterable[BranchRecord]) -> Dict[BranchOutcome, int]:
    """Histogram of branch outcomes (testing/reporting aid)."""
    counts = {outcome: 0 for outcome in BranchOutcome}
    for record in records:
        counts[record.outcome] += 1
    return counts
