"""Tests for the branch predictor unit's outcome taxonomy."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.config import BranchPredictorConfig
from repro.isa.iclass import CONDITIONAL_BRANCH_CLASSES, IClass
from repro.branch.btb import BranchTargetBuffer
from repro.branch.predictors import build_direction_predictor
from repro.branch.unit import BranchOutcome, BranchPredictorUnit


def _branch(pc=0x1000, taken=True, target=0x2000,
            iclass=IClass.INT_COND_BRANCH):
    """A branch record as ``Trace.branch_records`` builds it."""
    return (pc, iclass, taken, target)


def _tables(unit):
    """Copies of every table of *unit*, BTB sets in LRU order."""
    return (unit.meta[:], unit.bimodal[:], unit.histories[:], unit.pht[:],
            [ways[:] for ways in unit.btb_sets])


@pytest.fixture
def unit():
    return BranchPredictorUnit(BranchPredictorConfig(
        meta_entries=256, bimodal_entries=256,
        local_history_entries=256, local_pht_entries=256,
        local_history_bits=8, btb_entries=64, btb_associativity=4))


class TestConditionalOutcomes:
    def test_wrong_direction_is_misprediction(self, unit):
        branch = _branch(taken=True)
        for _ in range(8):
            unit.train(_branch(taken=False))
        assert unit.classify(branch) is BranchOutcome.MISPREDICTION

    def test_correct_not_taken_needs_no_btb(self, unit):
        for _ in range(8):
            unit.train(_branch(taken=False))
        assert unit.classify(_branch(taken=False)) is BranchOutcome.CORRECT

    def test_correct_taken_with_btb_miss_is_redirection(self, unit):
        # Train the direction taken, then evict the BTB entry: indirect
        # branches mapping to the same one of the 16 sets fill its four
        # ways without touching the direction tables.
        for _ in range(8):
            unit.train(_branch(taken=True))
        for way in range(1, 5):
            unit.train(_branch(pc=0x1000 + way * 16 * 8,
                               iclass=IClass.INDIRECT_BRANCH))
        outcome = unit.classify(_branch(taken=True))
        assert outcome is BranchOutcome.FETCH_REDIRECTION

    def test_correct_taken_with_btb_hit_is_correct(self, unit):
        for _ in range(8):
            unit.train(_branch(taken=True))
        assert unit.classify(_branch(taken=True)) is BranchOutcome.CORRECT

    def test_stale_btb_target_is_redirection(self, unit):
        for _ in range(8):
            unit.train(_branch(taken=True, target=0x2000))
        outcome = unit.classify(_branch(taken=True, target=0x3000))
        assert outcome is BranchOutcome.FETCH_REDIRECTION


class TestIndirectOutcomes:
    def test_btb_miss_is_misprediction(self, unit):
        branch = _branch(iclass=IClass.INDIRECT_BRANCH)
        assert unit.classify(branch) is BranchOutcome.MISPREDICTION

    def test_btb_hit_is_correct(self, unit):
        branch = _branch(iclass=IClass.INDIRECT_BRANCH, target=0x4000)
        unit.train(branch)
        assert unit.classify(branch) is BranchOutcome.CORRECT

    def test_changed_target_is_misprediction(self, unit):
        unit.train(_branch(iclass=IClass.INDIRECT_BRANCH, target=0x4000))
        outcome = unit.classify(
            _branch(iclass=IClass.INDIRECT_BRANCH, target=0x5000))
        assert outcome is BranchOutcome.MISPREDICTION


class TestUnitBookkeeping:
    def test_classify_does_not_train(self, unit):
        branch = _branch()
        before = _tables(unit)
        for _ in range(8):
            unit.classify(branch)
        assert _tables(unit) == before
        unit.train(branch)
        assert _tables(unit) != before

    def test_classify_rejects_non_branch(self, unit):
        with pytest.raises(ValueError):
            unit.classify((0x1000, IClass.LOAD, False, 0))

    def test_record_wraps_classify(self, unit):
        record = unit.record(42, _branch(taken=True))
        assert record.seq == 42
        assert record.taken is True
        assert record.outcome in BranchOutcome

    def test_not_taken_branches_do_not_fill_btb(self, unit):
        for _ in range(8):
            unit.train(_branch(taken=False))
        assert not any(unit.btb_sets)

    def test_rejects_partial_btb_set(self):
        with pytest.raises(ValueError):
            BranchPredictorUnit(BranchPredictorConfig(btb_entries=10,
                                                      btb_associativity=4))


class TestClone:
    def test_training_a_clone_leaves_the_template_untouched(self, unit):
        for seq in range(40):
            unit.train(_branch(pc=0x1000 + 8 * (seq % 5),
                               taken=bool(seq % 3)))
        before = _tables(unit)
        twin = unit.clone()
        probe = _branch(pc=0x1008, taken=False)
        assert twin.classify(probe) is unit.classify(probe)
        for seq in range(200):
            twin.train(_branch(pc=0x1000 + 8 * (seq % 7), taken=False,
                               target=0x3000 + seq))
        assert _tables(unit) == before
        assert _tables(twin) != before


class _ReferenceUnit:
    """The Table 2 predictor composed from the reference component
    classes, with the classify/train protocol the flat unit replaced."""

    def __init__(self, config):
        self.direction = build_direction_predictor(config)
        self.btb = BranchTargetBuffer(config.btb_entries,
                                      config.btb_associativity)

    def classify(self, branch):
        pc, iclass, taken, target = branch
        if iclass in CONDITIONAL_BRANCH_CLASSES:
            if self.direction.lookup(pc) != taken:
                return BranchOutcome.MISPREDICTION
            if not taken:
                return BranchOutcome.CORRECT
            if self.btb.lookup(pc) == target:
                return BranchOutcome.CORRECT
            return BranchOutcome.FETCH_REDIRECTION
        if self.btb.lookup(pc) == target:
            return BranchOutcome.CORRECT
        return BranchOutcome.MISPREDICTION

    def train(self, branch):
        pc, iclass, taken, target = branch
        if iclass in CONDITIONAL_BRANCH_CLASSES:
            self.direction.update(pc, taken)
            if taken:
                self.btb.update(pc, target)
        else:
            self.btb.update(pc, target)

    def tables(self):
        direction = self.direction
        return (direction._meta, direction.component_a._table,
                direction.component_b._histories, direction.component_b._pht,
                self.btb._sets)


#: 16-entry direction tables, 2-bit histories, a 2-way 8-entry BTB (4
#: sets): counters saturate and sets evict within a few dozen branches.
TINY = BranchPredictorConfig(
    meta_entries=16, bimodal_entries=16, local_history_entries=16,
    local_pht_entries=16, local_history_bits=2, btb_entries=8,
    btb_associativity=2)

#: Instruction slots 0, 1, 4, 16, 17 and 32: 0/16/32 and 1/17 share
#: every direction-table entry, and 0/4/16/32 one BTB set.
_PCS = [0x1000 + 8 * slot for slot in (0, 1, 4, 16, 17, 32)]

_ops = st.lists(
    st.tuples(st.booleans(),                       # train, else classify
              st.sampled_from(_PCS),
              st.sampled_from([IClass.INT_COND_BRANCH,
                               IClass.FP_COND_BRANCH,
                               IClass.INDIRECT_BRANCH]),
              st.booleans(),                       # taken
              st.sampled_from([0x2000, 0x3000])),  # target
    min_size=1, max_size=200)


class TestMatchesReferenceComposition:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ops, split=st.integers(min_value=0, max_value=200))
    def test_random_interleavings(self, ops, split):
        flat = BranchPredictorUnit(TINY)
        reference = _ReferenceUnit(TINY)
        split = min(split, len(ops))
        template = None
        for step, (train, pc, iclass, taken, target) in enumerate(ops):
            if step == split:
                # Continue on a clone; the template must not move.
                template, snapshot = flat, _tables(flat)
                flat = flat.clone()
            branch = _branch(pc=pc, iclass=iclass,
                             taken=taken or iclass is IClass.INDIRECT_BRANCH,
                             target=target)
            if train:
                flat.train(branch)
                reference.train(branch)
            else:
                assert flat.classify(branch) is reference.classify(branch), \
                    step
        assert (flat.meta, flat.bimodal, flat.histories, flat.pht,
                flat.btb_sets) == reference.tables()
        if template is not None:
            assert _tables(template) == snapshot
