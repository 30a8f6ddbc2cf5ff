"""Tests for the branch predictor unit's outcome taxonomy."""

import pytest

from repro.config import BranchPredictorConfig
from repro.isa.iclass import IClass
from repro.isa.instruction import DynamicInstruction
from repro.branch.unit import BranchOutcome, BranchPredictorUnit


def _branch(pc=0x1000, taken=True, target=0x2000,
            iclass=IClass.INT_COND_BRANCH, seq=0):
    return DynamicInstruction(seq=seq, pc=pc, iclass=iclass, bb_id=0,
                              taken=taken, target=target)


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
        # Train direction only (train() fills the BTB, so train a branch
        # at a different PC and force direction state via the direction
        # predictor directly).
        for _ in range(8):
            unit.direction.update(0x1000, True)
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
    def test_counters(self, unit):
        branch = _branch()
        unit.classify(branch)
        unit.train(branch)
        assert unit.lookups == 1
        assert unit.updates == 1

    def test_classify_rejects_non_branch(self, unit):
        inst = DynamicInstruction(0, 0x1000, IClass.LOAD, 0)
        with pytest.raises(ValueError):
            unit.classify(inst)

    def test_record_wraps_classify(self, unit):
        record = unit.record(_branch(seq=42, taken=True))
        assert record.seq == 42
        assert record.taken is True
        assert record.outcome in BranchOutcome

    def test_not_taken_branches_do_not_fill_btb(self, unit):
        for _ in range(8):
            unit.train(_branch(taken=False))
        assert unit.btb.lookup(0x1000) is None


class TestClone:
    def test_training_a_clone_leaves_the_template_untouched(self, unit):
        for seq in range(40):
            unit.train(_branch(pc=0x1000 + 8 * (seq % 5),
                               taken=bool(seq % 3), seq=seq))
        direction = unit.direction
        before = (direction._meta[:], direction.component_a._table[:],
                  direction.component_b._pht[:],
                  direction.component_b._histories[:],
                  [ways[:] for ways in unit.btb._sets], unit.updates)
        twin = unit.clone()
        probe = _branch(pc=0x1008, taken=False)
        assert twin.classify(probe) is unit.classify(probe)
        for seq in range(200):
            twin.train(_branch(pc=0x1000 + 8 * (seq % 7), taken=False,
                               target=0x3000 + seq, seq=seq))
        assert before == (direction._meta, direction.component_a._table,
                          direction.component_b._pht,
                          direction.component_b._histories,
                          unit.btb._sets, unit.updates)
        assert twin.updates == unit.updates + 200
        twin.ras.push(0x4000)
        assert len(unit.ras) == 0
