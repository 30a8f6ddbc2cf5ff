"""Tests for the reference branch target buffer."""

import pytest

from repro.branch.btb import BranchTargetBuffer


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=16, associativity=4)
        assert btb.lookup(0x1000) is None
        btb.update(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000

    def test_target_overwrite(self):
        btb = BranchTargetBuffer(entries=16, associativity=4)
        btb.update(0x1000, 0x2000)
        btb.update(0x1000, 0x3000)
        assert btb.lookup(0x1000) == 0x3000
        assert btb.occupancy() == 1

    def test_lru_eviction_within_set(self):
        btb = BranchTargetBuffer(entries=2, associativity=2)
        # All these PCs map to set 0 of a 1-set... use 2 entries, 2-way
        # -> one set, capacity 2.
        btb.update(0x0, 1)
        btb.update(0x10, 2)
        btb.lookup(0x0)          # refresh 0x0 -> 0x10 becomes LRU
        btb.update(0x20, 3)      # evicts 0x10
        assert btb.lookup(0x10) is None
        assert btb.lookup(0x0) == 1
        assert btb.lookup(0x20) == 3

    def test_sets_isolate(self):
        btb = BranchTargetBuffer(entries=8, associativity=1)
        btb.update(0x0, 1)
        btb.update(0x8, 2)  # next set
        assert btb.lookup(0x0) == 1
        assert btb.lookup(0x8) == 2

    def test_capacity_bound(self):
        btb = BranchTargetBuffer(entries=8, associativity=2)
        for i in range(100):
            btb.update(i * 8, i)
        assert btb.occupancy() <= 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=10, associativity=4)
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=0, associativity=1)

