"""Translation lookaside buffer: a set-associative cache of pages."""

from __future__ import annotations

from typing import List

from repro.config import TLBConfig


class TranslationLookasideBuffer:
    """LRU set-associative TLB (paper Table 2: 32-entry, 8-way, 4KB
    pages)."""

    __slots__ = ("config", "_sets", "_page_shift", "_num_sets",
                 "accesses", "misses", "last_page")

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self._page_shift = config.page_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        self.accesses = 0
        self.misses = 0
        #: The page of the most recent access (-1 before the first).
        self.last_page = -1

    def access(self, address: int) -> bool:
        """Translate *address*; return True on TLB hit."""
        self.accesses += 1
        page = address >> self._page_shift
        if page == self.last_page:
            # Resident and already most recently used: nothing moves.
            return True
        self.last_page = page
        ways = self._sets[page % self._num_sets]
        try:
            ways.remove(page)
        except ValueError:
            self.misses += 1
            if len(ways) >= self.config.associativity:
                ways.pop(0)
            ways.append(page)
            return False
        ways.append(page)
        return True

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset_statistics(self) -> None:
        self.accesses = 0
        self.misses = 0
