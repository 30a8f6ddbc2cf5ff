"""A set-associative cache with LRU replacement.

Only hit/miss behaviour is modeled — no data storage — because the
methodology needs miss *rates* (profiling) and miss *latencies*
(simulation), never values.  Writes allocate (write-allocate,
write-back), matching SimpleScalar's default data caches.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import CacheConfig


class SetAssociativeCache:
    """LRU set-associative cache over byte addresses."""

    __slots__ = ("config", "_sets", "_line_shift", "_num_sets",
                 "accesses", "misses", "last_line")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        # Each set is an LRU list of line tags, most recently used last.
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        self.accesses = 0
        self.misses = 0
        #: The line of the most recent access (-1 before the first).
        self.last_line = -1

    def access(self, address: int) -> bool:
        """Access *address*; return True on hit.  Misses allocate."""
        self.accesses += 1
        line = address >> self._line_shift
        if line == self.last_line:
            # Resident and already most recently used: nothing moves.
            return True
        self.last_line = line
        ways = self._sets[line % self._num_sets]
        try:
            ways.remove(line)
        except ValueError:
            self.misses += 1
            if len(ways) >= self.config.associativity:
                ways.pop(0)
            ways.append(line)
            return False
        ways.append(line)
        return True

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or counters."""
        line = address >> self._line_shift
        return line in self._sets[line % self._num_sets]

    @property
    def miss_rate(self) -> float:
        """Observed miss rate so far (0.0 if never accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset_statistics(self) -> None:
        self.accesses = 0
        self.misses = 0

    def occupancy(self) -> int:
        """Number of valid lines (testing/inspection aid)."""
        return sum(len(ways) for ways in self._sets)

    def contents(self) -> Dict[int, List[int]]:
        """Snapshot of set index -> resident line tags (testing aid)."""
        return {index: list(ways)
                for index, ways in enumerate(self._sets) if ways}
