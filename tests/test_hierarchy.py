"""Tests for the cache hierarchy and its latency rules."""

import pytest

from repro.config import MachineConfig, baseline_config
from repro.cache.hierarchy import CacheHierarchy, fetch_stall, load_latency


@pytest.fixture
def hierarchy(config):
    return CacheHierarchy(config)


class TestAccessPaths:
    def test_cold_instruction_misses_all_levels(self, hierarchy):
        result = hierarchy.access_instruction(0x1000)
        assert result.il1_miss and result.l2_miss and result.itlb_miss

    def test_warm_instruction_hits(self, hierarchy):
        hierarchy.access_instruction(0x1000)
        result = hierarchy.access_instruction(0x1000)
        assert not result.il1_miss
        assert not result.itlb_miss

    def test_l2_only_accessed_on_l1_miss(self, hierarchy):
        hierarchy.access_instruction(0x1000)
        hierarchy.access_instruction(0x1000)
        assert hierarchy.l2_instruction_accesses == 1

    def test_data_and_instruction_l2_counted_separately(self, hierarchy):
        hierarchy.access_instruction(0x1000)
        hierarchy.access_data(0x9000)
        assert hierarchy.l2_instruction_accesses == 1
        assert hierarchy.l2_data_accesses == 1
        assert hierarchy.l2_instruction_misses == 1
        assert hierarchy.l2_data_misses == 1

    def test_unified_l2_shared(self, hierarchy):
        # An instruction fill brings the line into the unified L2; a
        # data access to the same line then hits in L2.
        hierarchy.access_instruction(0x4000)
        result = hierarchy.access_data(0x4000)
        assert result.dl1_miss
        assert not result.l2_miss

    def test_six_miss_rates_reported(self, hierarchy):
        hierarchy.access_instruction(0x1000)
        hierarchy.access_data(0x2000)
        rates = hierarchy.miss_rates()
        assert set(rates) == {"il1", "l2_instruction", "dl1", "l2_data",
                              "itlb", "dtlb"}
        assert all(0.0 <= value <= 1.0 for value in rates.values())


class TestLatencies:
    def test_load_latency_levels(self, config):
        assert load_latency(config, False, False, False) == \
            config.dl1.hit_latency
        assert load_latency(config, True, False, False) == \
            config.l2.hit_latency
        assert load_latency(config, True, True, False) == \
            config.memory_latency

    def test_dtlb_miss_adds_penalty(self, config):
        assert load_latency(config, False, False, True) == \
            config.dl1.hit_latency + config.dtlb.miss_latency

    def test_fetch_stall_levels(self, config):
        assert fetch_stall(config, False, False, False) == 0
        assert fetch_stall(config, True, False, False) == \
            config.l2.hit_latency
        assert fetch_stall(config, True, True, False) == \
            config.memory_latency

    def test_itlb_miss_adds_stall(self, config):
        assert fetch_stall(config, False, False, True) == \
            config.itlb.miss_latency


class TestScaling:
    def test_smaller_cache_misses_more(self):
        base = baseline_config()
        small = CacheHierarchy(base.with_cache_scale(0.25))
        large = CacheHierarchy(base)
        addresses = [i * 32 for i in range(2000)] * 2
        small_misses = sum(small.access_data(a).dl1_miss
                           for a in addresses)
        large_misses = sum(large.access_data(a).dl1_miss
                           for a in addresses)
        assert small_misses >= large_misses
