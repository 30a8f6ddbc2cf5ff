"""Synthetic trace records (paper Figure 1, step 2 output).

A synthetic instruction carries exactly what the paper's synthetic trace
simulator consumes: an instruction type, dependency distances for its
operands, pre-assigned cache hit/miss flags and — for branches — the
taken flag and predictor outcome.  It has no PC, no registers and no
addresses: all locality behaviour was decided statistically at
generation time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.isa.iclass import (
    BRANCH_CLASSES,
    IClass,
    execution_latency,
)
from repro.branch.unit import BranchOutcome
from repro.cache.hierarchy import fetch_stall, load_latency
from repro.cpu.source import FetchSlot


class SyntheticInstruction:
    """One statistically generated instruction.

    Instances are values, not positions: the synthesizer hands out one
    instance for every position of a trace with the same class, events
    and dependency distances, so an instance may appear many times in
    one trace.  Treat them as immutable; build a new instance instead of
    changing a field.
    """

    __slots__ = ("iclass", "dep_distances", "il1_miss", "l2i_miss",
                 "itlb_miss", "dl1_miss", "l2d_miss", "dtlb_miss",
                 "taken", "outcome")

    def __init__(self, iclass: IClass,
                 dep_distances: Tuple[int, ...] = (),
                 il1_miss: bool = False, l2i_miss: bool = False,
                 itlb_miss: bool = False, dl1_miss: bool = False,
                 l2d_miss: bool = False, dtlb_miss: bool = False,
                 taken: bool = False,
                 outcome: Optional[BranchOutcome] = None) -> None:
        self.iclass = iclass
        self.dep_distances = dep_distances
        self.il1_miss = il1_miss
        self.l2i_miss = l2i_miss
        self.itlb_miss = itlb_miss
        self.dl1_miss = dl1_miss
        self.l2d_miss = l2d_miss
        self.dtlb_miss = dtlb_miss
        self.taken = taken
        self.outcome = outcome

    @property
    def is_branch(self) -> bool:
        return self.iclass in BRANCH_CLASSES

    @property
    def is_load(self) -> bool:
        return self.iclass is IClass.LOAD

    @property
    def produces_register(self) -> bool:
        return (self.iclass is not IClass.STORE
                and self.iclass not in BRANCH_CLASSES)


class SyntheticTrace:
    """A generated instruction stream plus its provenance."""

    def __init__(self, name: str,
                 instructions: List[SyntheticInstruction],
                 order: int, reduction_factor: float,
                 seed: Optional[int] = None) -> None:
        self.name = name
        self.instructions = instructions
        self.order = order
        self.reduction_factor = reduction_factor
        self.seed = seed

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def to_fetch_slots(self, config: MachineConfig) -> List[FetchSlot]:
        """Convert annotations into pipeline fetch slots (paper §2.3):
        a load's latency comes from the deepest level it misses in, and
        instruction-side misses become fetch stalls.

        Slots are only ever read, so an instruction instance repeated in
        the trace gets one slot, shared by every position it fills."""
        slots: List[FetchSlot] = []
        append = slots.append
        # Identity-keyed, for this call only: instructions define no
        # __eq__, so each distinct instance converts exactly once.
        converted: Dict[SyntheticInstruction, FetchSlot] = {}
        converted_get = converted.get
        for inst in self.instructions:
            slot = converted_get(inst)
            if slot is not None:
                append(slot)
                continue
            stall = fetch_stall(config, inst.il1_miss, inst.l2i_miss,
                                inst.itlb_miss)
            if inst.is_load:
                latency = load_latency(config, inst.dl1_miss,
                                       inst.l2d_miss, inst.dtlb_miss)
            else:
                latency = execution_latency(inst.iclass)
            slot = converted[inst] = FetchSlot(
                iclass=inst.iclass,
                exec_latency=latency,
                fetch_stall=stall,
                dep_distances=inst.dep_distances,
                taken=inst.taken,
                outcome=inst.outcome,
                il1_miss=inst.il1_miss,
                l2i_miss=inst.l2i_miss,
                dl1_miss=inst.dl1_miss,
                l2d_miss=inst.l2d_miss,
                itlb_miss=inst.itlb_miss,
                dtlb_miss=inst.dtlb_miss,
            )
            append(slot)
        return slots

    def summary(self) -> dict:
        """Aggregate annotation rates (testing/reporting aid)."""
        n = max(1, len(self.instructions))
        loads = [i for i in self.instructions if i.is_load]
        branches = [i for i in self.instructions if i.is_branch]
        return {
            "instructions": len(self.instructions),
            "load_fraction": len(loads) / n,
            "branch_fraction": len(branches) / n,
            "il1_miss_rate": sum(i.il1_miss for i in self.instructions) / n,
            "dl1_miss_rate": (sum(i.dl1_miss for i in loads) / len(loads)
                              if loads else 0.0),
            "misprediction_rate": (
                sum(i.outcome is BranchOutcome.MISPREDICTION
                    for i in branches) / len(branches) if branches else 0.0),
        }


def dependency_targets(instructions: Sequence[SyntheticInstruction],
                       index: int) -> List[int]:
    """Indices this instruction depends on (testing aid)."""
    return [index - d for d in instructions[index].dep_distances
            if 0 <= index - d]
