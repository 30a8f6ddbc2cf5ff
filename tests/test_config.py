"""Tests for machine configuration objects and sweep helpers."""

import pytest

from repro.branch.unit import BranchPredictorUnit
from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    MachineConfig,
    TLBConfig,
    baseline_config,
    simplescalar_default_config,
)


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig("c", 8 * 1024, 2, 32, 1)
        assert config.num_sets == 128

    def test_scaled_up(self):
        config = CacheConfig("c", 8 * 1024, 2, 32, 1)
        assert config.scaled(2.0).size_bytes == 16 * 1024

    def test_scaled_down_keeps_validity(self):
        config = CacheConfig("c", 8 * 1024, 2, 32, 1)
        quarter = config.scaled(0.25)
        assert quarter.size_bytes == 2 * 1024
        assert quarter.num_sets >= 1

    def test_scaled_never_below_one_set(self):
        config = CacheConfig("c", 256, 4, 64, 1)
        tiny = config.scaled(0.01)
        assert tiny.size_bytes >= 64 * 4


class TestTable2Defaults:
    def test_baseline_matches_paper_table2(self):
        config = baseline_config()
        assert config.il1.size_bytes == 8 * 1024
        assert config.il1.associativity == 2
        assert config.dl1.size_bytes == 16 * 1024
        assert config.dl1.associativity == 4
        assert config.l2.size_bytes == 1024 * 1024
        assert config.l2.hit_latency == 20
        assert config.memory_latency == 150
        assert config.itlb.entries == 32
        assert config.branch_misprediction_penalty == 14
        assert config.ifq_size == 32
        assert config.ruu_size == 128
        assert config.lsq_size == 32
        assert config.decode_width == 8
        assert config.fetch_speed == 2
        assert config.fetch_width == 16
        assert config.int_alus == 8
        assert config.load_store_units == 4
        assert config.predictor.bimodal_entries == 8192
        assert config.predictor.btb_entries == 512
        assert config.predictor.ras_entries == 64

    def test_simplescalar_default_is_narrower(self):
        default = simplescalar_default_config()
        baseline = baseline_config()
        assert default.decode_width < baseline.decode_width
        assert default.ruu_size < baseline.ruu_size


class TestValidation:
    def test_lsq_cannot_exceed_ruu(self):
        with pytest.raises(ValueError):
            MachineConfig(ruu_size=16, lsq_size=32)

    def test_positive_widths(self):
        with pytest.raises(ValueError):
            MachineConfig(decode_width=0)


class TestSweepHelpers:
    def test_with_window(self):
        config = baseline_config().with_window(64, 32)
        assert config.ruu_size == 64
        assert config.lsq_size == 32

    def test_with_width_sets_all(self):
        config = baseline_config().with_width(4)
        assert config.decode_width == 4
        assert config.issue_width == 4
        assert config.commit_width == 4

    def test_with_ifq(self):
        assert baseline_config().with_ifq(8).ifq_size == 8

    def test_with_predictor_scale(self):
        scaled = baseline_config().with_predictor_scale(0.5)
        assert scaled.predictor.bimodal_entries == 4096
        assert scaled.predictor.meta_entries == 4096

    def test_with_cache_scale(self):
        scaled = baseline_config().with_cache_scale(2.0)
        assert scaled.il1.size_bytes == 16 * 1024
        assert scaled.l2.size_bytes == 2 * 1024 * 1024

    def test_functional_unit_counts(self):
        counts = baseline_config().functional_unit_counts()
        assert counts == {"int_alu": 8, "load_store": 4, "fp_adder": 2,
                          "int_mult_div": 2, "fp_mult_div": 2}

    def test_predictor_scale_floor(self):
        scaled = BranchPredictorConfig(meta_entries=8).scaled(0.01)
        assert scaled.meta_entries >= 4

    def test_tlb_sets(self):
        assert TLBConfig("t", 32, 8).num_sets == 4

    @pytest.mark.parametrize("factor,entries", [(0.3, 152), (3.3, 1688)])
    def test_predictor_scale_keeps_btb_whole_sets(self, factor, entries):
        scaled = baseline_config().with_predictor_scale(factor).predictor
        assert scaled.btb_entries == entries
        assert scaled.btb_entries % scaled.btb_associativity == 0
        unit = BranchPredictorUnit(scaled)
        assert len(unit.btb_sets) == entries // 4

    @pytest.mark.parametrize("factor,entries",
                             [(0.25, 128), (0.5, 256), (1, 512), (2, 1024),
                              (4, 2048)])
    def test_predictor_scale_paper_points_unchanged(self, factor, entries):
        assert BranchPredictorConfig().scaled(factor).btb_entries == entries

    def test_predictor_scale_btb_floor_is_one_set(self):
        scaled = BranchPredictorConfig(btb_entries=8,
                                       btb_associativity=4).scaled(0.01)
        assert scaled.btb_entries == 4
