"""Synthetic traces (paper Figure 1, step 2 output).

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
That entry is the only form a synthetic instruction takes: statistics
read per-entry counts (:attr:`SyntheticTrace.counted`), and a machine
config prices each distinct entry once
(:meth:`SyntheticTrace.to_fetch_slots`).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.cache.hierarchy import latency_signature
from repro.cpu.locality import entry_tallies
from repro.cpu.source import price_entries
from repro.obs.metrics import get_registry


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
        self._counted: Optional[List[Tuple[tuple, int]]] = None
        self._tallies: Optional[tuple] = None

    @classmethod
    def from_entries(cls, name: str, entries: Iterable[tuple],
                     order: int, reduction_factor: float,
                     seed: Optional[int] = None) -> "SyntheticTrace":
        """Intern one ``(iclass, events, deps, taken, outcome)`` entry
        per position into a trace (baselines, the columnar path and
        tests build traces this way)."""
        ids: Dict[tuple, int] = {}
        keys = [ids.setdefault(entry, len(ids)) for entry in entries]
        return cls(name, keys, list(ids), order, reduction_factor, seed)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def counted(self) -> List[Tuple[tuple, int]]:
        """``(entry, positions it fills)`` for every entry the trace
        uses, counted once per trace."""
        if self._counted is None:
            distinct = self.distinct
            self._counted = [(distinct[key], count)
                             for key, count in Counter(self.keys).items()]
        return self._counted

    @property
    def tallies(self) -> tuple:
        """The branch and locality tallies of the whole trace
        (:func:`~repro.cpu.locality.entry_tallies`), counted once."""
        if self._tallies is None:
            self._tallies = entry_tallies(self.counted)
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
