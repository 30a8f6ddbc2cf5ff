"""Synthetic trace records (paper Figure 1, step 2 output).

A synthetic instruction carries exactly what the paper's synthetic trace
simulator consumes: an instruction type, dependency distances for its
operands, pre-assigned cache hit/miss flags and — for branches — the
taken flag and predictor outcome.  It has no PC, no registers and no
addresses: all locality behaviour was decided statistically at
generation time.

A :class:`SyntheticTrace` stores those instructions the way a
:class:`~repro.cpu.locality.LocalityResolution` stores a dynamic trace:
``keys[i]`` indexes position *i*'s entry in ``distinct``, one
``(iclass, event bits, dependency distances, taken, outcome)`` tuple
per distinct instruction (``EV_*`` bits, ``EV_DATA`` on every load).
A machine config prices each distinct entry once; a
:class:`SyntheticInstruction` is only built when something asks for
one (:attr:`SyntheticTrace.instructions`).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.isa.iclass import (
    BRANCH_CLASSES,
    IClass,
)
from repro.branch.unit import BranchOutcome
from repro.cache.hierarchy import latency_signature
from repro.cpu.locality import (EV_DATA, EV_DL1, EV_DTLB, EV_IL1, EV_ITLB,
                                EV_L2D, EV_L2I, entry_tallies)
from repro.cpu.source import event_bits, price_entries
from repro.obs.metrics import get_registry


class SyntheticInstruction:
    """One statistically generated instruction.

    Instances are values, not positions: :attr:`SyntheticTrace.
    instructions` hands out one instance for every position of a trace
    with the same class, events and dependency distances, so an
    instance may appear many times in one list.  Treat them as
    immutable; build a new instance instead of changing a field.
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


def _entry(inst: SyntheticInstruction) -> tuple:
    """The ``(iclass, events, deps, taken, outcome)`` entry of *inst*."""
    iclass = inst.iclass
    events = event_bits(inst) | (EV_DATA if iclass is IClass.LOAD else 0)
    return (iclass, events, tuple(inst.dep_distances), bool(inst.taken),
            inst.outcome)


def _instance(entry: tuple) -> SyntheticInstruction:
    """A new instruction holding *entry*."""
    iclass, events, deps, taken, outcome = entry
    return SyntheticInstruction(
        iclass, deps,
        il1_miss=events & EV_IL1 != 0, l2i_miss=events & EV_L2I != 0,
        itlb_miss=events & EV_ITLB != 0, dl1_miss=events & EV_DL1 != 0,
        l2d_miss=events & EV_L2D != 0, dtlb_miss=events & EV_DTLB != 0,
        taken=taken, outcome=outcome)


class SyntheticTrace:
    """A generated instruction stream plus its provenance: position *i*
    holds ``distinct[keys[i]]`` (see the module docstring)."""

    def __init__(self, name: str, keys: Sequence[int],
                 distinct: List[tuple], order: int,
                 reduction_factor: float,
                 seed: Optional[int] = None) -> None:
        self.name = name
        self.keys = keys
        self.distinct = distinct
        self.order = order
        self.reduction_factor = reduction_factor
        self.seed = seed
        #: ``(latency signature, rows)`` of the last pricing, or None.
        self._priced: Optional[Tuple[tuple, Tuple[tuple, ...]]] = None
        self._tallies: Optional[tuple] = None

    @classmethod
    def from_instructions(cls, name: str,
                          instructions: Iterable[SyntheticInstruction],
                          order: int, reduction_factor: float,
                          seed: Optional[int] = None) -> "SyntheticTrace":
        """Intern a list of instructions into a trace (baselines, the
        columnar path and tests build traces this way)."""
        ids: Dict[tuple, int] = {}
        keys = [ids.setdefault(_entry(inst), len(ids))
                for inst in instructions]
        return cls(name, keys, list(ids), order, reduction_factor, seed)

    @property
    def instructions(self) -> List[SyntheticInstruction]:
        """The trace as instruction objects, built on every access: one
        instance per distinct entry, repeated at every position it
        fills, so treat them as immutable values."""
        instances = [_instance(entry) for entry in self.distinct]
        return [instances[key] for key in self.keys]

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            distinct = self.distinct
            return [_instance(distinct[key]) for key in self.keys[index]]
        return _instance(self.distinct[self.keys[index]])

    @property
    def tallies(self) -> tuple:
        """The branch and locality tallies of the whole trace
        (:func:`~repro.cpu.locality.entry_tallies`), counted once."""
        if self._tallies is None:
            distinct = self.distinct
            self._tallies = entry_tallies(
                (distinct[key], count)
                for key, count in Counter(self.keys).items())
        return self._tallies

    def to_fetch_slots(self, config: MachineConfig
                       ) -> Tuple[tuple, ...]:
        """The trace's pipeline rows under *config*'s latencies, one per
        position (paper section 2.3): each distinct entry is priced
        once by :func:`~repro.cpu.source.price_entries` and its row is
        shared by every position it fills.

        The trace keeps its last pricing, keyed by
        :func:`~repro.cache.hierarchy.latency_signature`: configs that
        differ only in window, width or anything else the rows do not
        read get the same tuple back.  A different signature replaces
        the entry.  Counts ``synthetic.slots_priced`` or
        ``synthetic.slots_reused`` once per call."""
        key = latency_signature(config)
        priced = self._priced
        if priced is not None and priced[0] == key:
            get_registry().counter("synthetic.slots_reused").inc()
            return priced[1]
        get_registry().counter("synthetic.slots_priced").inc()
        # Release the stale entry before pricing its successor.
        self._priced = None
        row_of = price_entries(self.distinct, config)
        result = tuple(map(row_of.__getitem__, self.keys))
        self._priced = (key, result)
        return result

    def summary(self) -> dict:
        """Aggregate annotation rates (testing/reporting aid)."""
        instructions = self.instructions
        n = max(1, len(instructions))
        loads = [i for i in instructions if i.is_load]
        branches = [i for i in instructions if i.is_branch]
        return {
            "instructions": len(instructions),
            "load_fraction": len(loads) / n,
            "branch_fraction": len(branches) / n,
            "il1_miss_rate": sum(i.il1_miss for i in instructions) / n,
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
