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
    for seq, branch in trace.branch_records().items():
        records.append(record(seq, branch))
        train(branch)
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
    # Only branches touch the predictor, so the FIFO is followed at
    # its branches.  Before the instruction at index b leaves, the FIFO
    # holds indices b .. b + fifo_size - 1: every branch below
    # b + fifo_size has been looked up, in trace order, after the
    # trainings of all branches that left before b.
    by_position = trace.branch_records()
    branches = list(by_position)
    records: List[BranchRecord] = []
    # Lookups of the branches in the FIFO, oldest first.
    pending: deque = deque()
    record_of, train = unit.record, unit.train
    fetched = 0  # branches[fetched] is the next branch to enter
    for position, branch in enumerate(branches):
        end = branch + fifo_size
        while fetched < len(branches) and branches[fetched] < end:
            seq = branches[fetched]
            pending.append(record_of(seq, by_position[seq]))
            fetched += 1
        record = pending.popleft()
        records.append(record)
        train(by_position[branch])
        if record.outcome is BranchOutcome.MISPREDICTION:
            # Squash: the in-flight lookups were made on the wrong
            # path; refetch those instructions with updated state.
            # (With nothing in flight this changes nothing.)
            pending.clear()
            fetched = position + 1
    return records


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
