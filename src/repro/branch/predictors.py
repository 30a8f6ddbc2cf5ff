"""Direction predictors: bimodal, two-level local, and their hybrid.

These mirror SimpleScalar's ``bpred`` components used in the paper's
Table 2 configuration.  All predictors are deterministic finite-state
machines; state advances only through :meth:`update`, which is what makes
the immediate- versus delayed-update distinction of section 2.1.3
meaningful.

Reference only: no production code calls these classes.  Simulation,
warming and branch profiling use
:class:`~repro.branch.unit.BranchPredictorUnit`, which implements the
same predictor as straight-line code over plain lists; a differential
test drives both through random branch streams and compares every
outcome and table.  Keep them frozen, like ``ReferencePipeline``.
"""

from __future__ import annotations

from typing import Protocol

from repro.config import BranchPredictorConfig

#: 2-bit saturating counter bounds; >= _TAKEN_THRESHOLD predicts taken.
_COUNTER_MAX = 3
_TAKEN_THRESHOLD = 2


def _pc_index(pc: int, entries: int) -> int:
    """Index a direct-mapped table by instruction address (instructions
    are 8-byte aligned, so drop the low 3 bits)."""
    return (pc >> 3) % entries


class DirectionPredictor(Protocol):
    """A taken/not-taken predictor for conditional branches."""

    def lookup(self, pc: int) -> bool:
        """Predict the direction of the branch at *pc* (no state change)."""
        ...

    def update(self, pc: int, taken: bool) -> None:
        """Train the predictor with the resolved direction."""
        ...


class BimodalPredictor:
    """A table of 2-bit saturating counters indexed by PC."""

    __slots__ = ("entries", "_table")

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.entries = entries
        self._table = [_TAKEN_THRESHOLD] * entries  # weakly taken

    def lookup(self, pc: int) -> bool:
        return self._table[_pc_index(pc, self.entries)] >= _TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool) -> None:
        index = _pc_index(pc, self.entries)
        counter = self._table[index]
        if taken:
            if counter < _COUNTER_MAX:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1


class TwoLevelLocalPredictor:
    """A two-level predictor with per-branch local histories.

    The pattern history table is indexed by the local history XOR-ed with
    the branch PC, as specified in the paper's Table 2.  Periodic branch
    patterns whose period fits the history register are captured exactly
    once trained.
    """

    __slots__ = ("history_entries", "pht_entries", "history_bits",
                 "_histories", "_pht", "_history_mask")

    def __init__(self, history_entries: int, pht_entries: int,
                 history_bits: int) -> None:
        if min(history_entries, pht_entries, history_bits) < 1:
            raise ValueError("all table parameters must be >= 1")
        self.history_entries = history_entries
        self.pht_entries = pht_entries
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._histories = [0] * history_entries
        self._pht = [_TAKEN_THRESHOLD] * pht_entries

    def _pht_index(self, pc: int) -> int:
        history = self._histories[_pc_index(pc, self.history_entries)]
        return (history ^ (pc >> 3)) % self.pht_entries

    def lookup(self, pc: int) -> bool:
        return self._pht[self._pht_index(pc)] >= _TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool) -> None:
        pht_index = self._pht_index(pc)
        counter = self._pht[pht_index]
        if taken:
            if counter < _COUNTER_MAX:
                self._pht[pht_index] = counter + 1
        elif counter > 0:
            self._pht[pht_index] = counter - 1
        history_index = _pc_index(pc, self.history_entries)
        self._histories[history_index] = (
            ((self._histories[history_index] << 1) | int(taken))
            & self._history_mask
        )


class HybridPredictor:
    """A meta-predictor choosing between two component predictors.

    The meta table of 2-bit counters is trained toward whichever
    component was correct when they disagree (SimpleScalar's ``comb``
    predictor).  Component predictions are re-derived at update time from
    the components' current state; both components always train.
    """

    __slots__ = ("meta_entries", "component_a", "component_b", "_meta")

    def __init__(self, meta_entries: int, component_a: DirectionPredictor,
                 component_b: DirectionPredictor) -> None:
        if meta_entries < 1:
            raise ValueError("meta_entries must be >= 1")
        self.meta_entries = meta_entries
        self.component_a = component_a
        self.component_b = component_b
        # >= threshold selects component B (the two-level predictor in
        # the Table 2 arrangement); init weakly toward A (bimodal).
        self._meta = [1] * meta_entries

    def lookup(self, pc: int) -> bool:
        use_b = self._meta[_pc_index(pc, self.meta_entries)] >= _TAKEN_THRESHOLD
        if use_b:
            return self.component_b.lookup(pc)
        return self.component_a.lookup(pc)

    def update(self, pc: int, taken: bool) -> None:
        pred_a = self.component_a.lookup(pc)
        pred_b = self.component_b.lookup(pc)
        if pred_a != pred_b:
            index = _pc_index(pc, self.meta_entries)
            counter = self._meta[index]
            if pred_b == taken:
                if counter < _COUNTER_MAX:
                    self._meta[index] = counter + 1
            elif counter > 0:
                self._meta[index] = counter - 1
        self.component_a.update(pc, taken)
        self.component_b.update(pc, taken)


def build_direction_predictor(config: BranchPredictorConfig) -> HybridPredictor:
    """Build the paper's Table 2 hybrid direction predictor."""
    bimodal = BimodalPredictor(config.bimodal_entries)
    local = TwoLevelLocalPredictor(
        history_entries=config.local_history_entries,
        pht_entries=config.local_pht_entries,
        history_bits=config.local_history_bits,
    )
    return HybridPredictor(config.meta_entries, bimodal, local)
