"""Branch target buffer: set-associative, LRU-replaced target cache.

Reference only: :class:`~repro.branch.unit.BranchPredictorUnit` keeps
its own BTB sets and inlines this lookup and update; a differential
test checks the two against each other.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class BranchTargetBuffer:
    """A set-associative BTB (paper Table 2: 512-entry, 4-way).

    A lookup that misses — or hits with a stale target — causes a fetch
    redirection for correctly-predicted taken conditional branches, and a
    full misprediction for indirect branches (paper section 2.1.2).
    """

    __slots__ = ("entries", "associativity", "num_sets", "_sets")

    def __init__(self, entries: int, associativity: int) -> None:
        if entries < 1 or associativity < 1:
            raise ValueError("entries and associativity must be >= 1")
        if entries % associativity:
            raise ValueError("entries must be a multiple of associativity")
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        # Each set: list of (pc, target), most recently used last.
        self._sets: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.num_sets)
        ]

    def _set_for(self, pc: int) -> List[Tuple[int, int]]:
        return self._sets[(pc >> 3) % self.num_sets]

    def lookup(self, pc: int) -> Optional[int]:
        """Return the predicted target for *pc*, or None on a BTB miss.
        A hit refreshes the entry's LRU position."""
        ways = self._set_for(pc)
        for i, (tag, target) in enumerate(ways):
            if tag == pc:
                if i != len(ways) - 1:
                    ways.append(ways.pop(i))
                return target
        return None

    def update(self, pc: int, target: int) -> None:
        """Install or refresh the target for *pc* (done for taken
        branches when they resolve)."""
        ways = self._set_for(pc)
        for i, (tag, _) in enumerate(ways):
            if tag == pc:
                ways.pop(i)
                break
        if len(ways) >= self.associativity:
            ways.pop(0)
        ways.append((pc, target))

    def occupancy(self) -> int:
        """Number of valid entries (testing/inspection aid)."""
        return sum(len(ways) for ways in self._sets)
