"""The combined branch prediction unit and branch outcome taxonomy.

The paper's three branch characteristics (section 2.1.2) are exactly the
three non-correct lookup outcomes this unit classifies:

* ``P(taken)`` — whether the branch is taken (limits taken branches
  fetched per cycle);
* ``P(fetch redirection)`` — BTB miss with a correct taken/not-taken
  prediction for a conditional branch;
* ``P(misprediction)`` — a wrong direction for a conditional branch, or
  a BTB miss / stale target for an indirect branch.
"""

from __future__ import annotations

import enum
import pickle
from dataclasses import dataclass

from repro.config import BranchPredictorConfig
from repro.isa.iclass import CONDITIONAL_BRANCH_CLASSES, IClass


class BranchOutcome(enum.IntEnum):
    """Classification of one dynamic branch lookup."""

    CORRECT = 0
    FETCH_REDIRECTION = 1
    MISPREDICTION = 2


_CORRECT = BranchOutcome.CORRECT
_REDIRECTION = BranchOutcome.FETCH_REDIRECTION
_MISPREDICTION = BranchOutcome.MISPREDICTION
_INDIRECT = IClass.INDIRECT_BRANCH


@dataclass(frozen=True)
class BranchRecord:
    """Outcome of one dynamic branch: its trace position, whether it was
    taken, and how the predictor fared."""

    seq: int
    taken: bool
    outcome: BranchOutcome

    @property
    def mispredicted(self) -> bool:
        return self.outcome is BranchOutcome.MISPREDICTION


class BranchPredictorUnit:
    """The paper's Table 2 predictor, with lookup/update split.

    A meta table of 2-bit counters chooses between a bimodal table and
    a two-level local predictor whose pattern history table is indexed
    by the branch's local history XOR-ed with its PC (SimpleScalar's
    ``comb``); a set-associative, LRU-replaced BTB supplies targets.
    Every table is indexed by ``pc >> 3`` (instructions are 8-byte
    aligned).  Counters start weakly taken, the meta table weakly
    toward the bimodal side.

    Each method takes one branch as a ``(pc, IClass, taken, target)``
    tuple, the record :meth:`~repro.frontend.trace.Trace.branch_records`
    builds for every branch position of a trace.

    ``classify`` performs a *lookup only* — no prediction state changes;
    a BTB hit refreshes its entry's LRU position — and returns the
    :class:`BranchOutcome` the fetch engine would see.  ``train``
    applies the resolved outcome: the meta table moves toward whichever
    component was right when they disagree, both components train, and
    taken or indirect branches install their target.  Separating the
    two is what lets callers model immediate update, delayed update
    (section 2.1.3) and dispatch-time speculative update in the
    pipeline.

    Both are straight-line code over plain lists: every live branch of
    an execution-driven run goes through them.  The composed classes in
    :mod:`repro.branch.predictors` and :mod:`repro.branch.btb` are the
    reference they are tested against.
    """

    __slots__ = ("config", "meta", "bimodal", "histories", "pht",
                 "btb_sets", "_meta_entries", "_bimodal_entries",
                 "_history_entries", "_pht_entries", "_history_mask",
                 "_btb_set_count", "_btb_ways")

    def __init__(self, config: BranchPredictorConfig) -> None:
        if min(config.meta_entries, config.bimodal_entries,
               config.local_history_entries, config.local_pht_entries,
               config.local_history_bits) < 1:
            raise ValueError("all table parameters must be >= 1")
        if config.btb_entries < 1 or config.btb_associativity < 1:
            raise ValueError("entries and associativity must be >= 1")
        if config.btb_entries % config.btb_associativity:
            raise ValueError("entries must be a multiple of associativity")
        self.config = config
        self._meta_entries = config.meta_entries
        self._bimodal_entries = config.bimodal_entries
        self._history_entries = config.local_history_entries
        self._pht_entries = config.local_pht_entries
        self._history_mask = (1 << config.local_history_bits) - 1
        self._btb_set_count = config.btb_entries // config.btb_associativity
        self._btb_ways = config.btb_associativity
        self.meta = [1] * config.meta_entries
        self.bimodal = [2] * config.bimodal_entries
        self.histories = [0] * config.local_history_entries
        self.pht = [2] * config.local_pht_entries
        # Each set: list of (pc, target), most recently used last.
        self.btb_sets = [[] for _ in range(self._btb_set_count)]

    def classify(self, branch: tuple) -> BranchOutcome:
        """Classify the lookup for *branch* (no training)."""
        pc, iclass, taken, target = branch
        index = pc >> 3
        if iclass in CONDITIONAL_BRANCH_CLASSES:
            if self.meta[index % self._meta_entries] >= 2:
                history = self.histories[index % self._history_entries]
                predicted = (self.pht[(history ^ index) % self._pht_entries]
                             >= 2)
            else:
                predicted = self.bimodal[index % self._bimodal_entries] >= 2
            if predicted != taken:
                return _MISPREDICTION
            if not taken:
                return _CORRECT
            # Correct taken prediction: need the target from the BTB.
            missed = _REDIRECTION
        elif iclass is _INDIRECT:
            missed = _MISPREDICTION
        else:
            raise ValueError(f"not a branch: {branch!r}")
        ways = self.btb_sets[index % self._btb_set_count]
        cached = None
        if ways and ways[-1][0] == pc:
            # Most recently used: a hit needs no LRU refresh.
            cached = ways[-1][1]
        else:
            for i, entry in enumerate(ways):
                if entry[0] == pc:
                    cached = entry[1]
                    ways.append(ways.pop(i))
                    break
        if cached == target:
            return _CORRECT
        return missed

    def train(self, branch: tuple) -> None:
        """Train direction predictor and BTB with the resolved *branch*."""
        pc, iclass, taken, target = branch
        index = pc >> 3
        if iclass in CONDITIONAL_BRANCH_CLASSES:
            bimodal = self.bimodal
            b = index % self._bimodal_entries
            bimodal_counter = bimodal[b]
            histories = self.histories
            h = index % self._history_entries
            history = histories[h]
            pht = self.pht
            p = (history ^ index) % self._pht_entries
            pht_counter = pht[p]
            pht_taken = pht_counter >= 2
            if (bimodal_counter >= 2) != pht_taken:
                meta = self.meta
                m = index % self._meta_entries
                counter = meta[m]
                if pht_taken == taken:
                    if counter < 3:
                        meta[m] = counter + 1
                elif counter > 0:
                    meta[m] = counter - 1
            if not taken:
                if bimodal_counter > 0:
                    bimodal[b] = bimodal_counter - 1
                if pht_counter > 0:
                    pht[p] = pht_counter - 1
                histories[h] = (history << 1) & self._history_mask
                return
            if bimodal_counter < 3:
                bimodal[b] = bimodal_counter + 1
            if pht_counter < 3:
                pht[p] = pht_counter + 1
            histories[h] = ((history << 1) | 1) & self._history_mask
        ways = self.btb_sets[index % self._btb_set_count]
        if ways and ways[-1][0] == pc:
            ways[-1] = (pc, target)
            return
        for i, entry in enumerate(ways):
            if entry[0] == pc:
                del ways[i]
                break
        if len(ways) >= self._btb_ways:
            del ways[0]
        ways.append((pc, target))

    def clone(self) -> "BranchPredictorUnit":
        """An independent copy of the current state: training the copy
        leaves this unit untouched (a warmed unit is a template).

        A pickle round trip copies every attribute, like
        ``copy.deepcopy``, but ten times faster on the Table 2 tables
        (about 0.9 ms against 8.5 ms on a warmed unit)."""
        return pickle.loads(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))

    def record(self, seq: int, branch: tuple) -> BranchRecord:
        """Classify *branch*, at trace position *seq*, into a
        :class:`BranchRecord` (lookup only)."""
        return BranchRecord(seq=seq, taken=branch[2],
                            outcome=self.classify(branch))
