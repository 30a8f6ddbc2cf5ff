"""Tests for machine configuration objects and sweep helpers."""

import json

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


class TestImpossibleGeometries:
    """Every geometry a cache or TLB could not hold is rejected where
    the config is built (the bulk cache walk relies on it)."""

    @pytest.mark.parametrize("ways", [0, -2])
    def test_cache_associativity_below_one(self, ways):
        with pytest.raises(ValueError, match="associativity"):
            CacheConfig("c", 8 * 1024, ways, 32, 1)

    def test_cache_line_not_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheConfig("c", 48 * 64, 2, 48, 1)

    def test_tlb_without_entries(self):
        with pytest.raises(ValueError, match="entries"):
            TLBConfig("t", 0, 8)

    def test_tlb_entries_not_whole_sets(self):
        with pytest.raises(ValueError, match="multiple"):
            TLBConfig("t", 10, 4)

    def test_tlb_associativity_below_one(self):
        with pytest.raises(ValueError, match="associativity"):
            TLBConfig("t", 32, 0)

    def test_tlb_page_not_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            TLBConfig("t", 32, 8, page_bytes=3000)

    @pytest.mark.parametrize("level,field,value", [
        ("il1", "associativity", 0), ("l2", "line_bytes", 48),
        ("itlb", "entries", 0), ("dtlb", "entries", 10),
        ("dtlb", "page_bytes", 3000)])
    def test_config_from_dict_and_load_profile_reject(
            self, level, field, value, small_trace, tmp_path):
        from repro.core.profiler import profile_trace
        from repro.core.serialization import (config_from_dict,
                                              config_to_dict, load_profile,
                                              profile_to_dict)
        from repro.errors import ArtifactCorruptError

        data = config_to_dict(baseline_config())
        data[level][field] = value
        with pytest.raises(ValueError):
            config_from_dict(data)
        payload = profile_to_dict(profile_trace(small_trace,
                                                baseline_config()))
        payload["config"][level][field] = value
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactCorruptError):
            load_profile(path)

    def test_default_config_hashes_unchanged(self):
        from repro.dse.space import config_hash

        assert config_hash(baseline_config()) == (
            "ac0e6cf59a4df402126b697abec6b7fc71cce477c4fc81eb9d159b471ccd84bf")
        assert config_hash(simplescalar_default_config()) == (
            "cb5a7a7e0cc2283695b261a7a97b77f4962d54dffb046bd8dcc47a5e5b7b0ed6")


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

    @pytest.mark.parametrize("knob", ["frontend_depth",
                                      "branch_misprediction_penalty",
                                      "fetch_redirect_penalty"])
    def test_delays_cannot_be_negative(self, knob):
        with pytest.raises(ValueError, match=knob):
            MachineConfig(**{knob: -3})
        assert getattr(MachineConfig(**{knob: 0}), knob) == 0


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
