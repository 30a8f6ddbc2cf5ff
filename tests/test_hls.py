"""Tests for the HLS baseline."""

import pytest

from conftest import entries_digest, positions, trace_rows
from repro.config import baseline_config, simplescalar_default_config
from repro.isa.iclass import BRANCH_CLASSES, PRODUCING_CLASSES, IClass
from repro.branch.unit import BranchOutcome
from repro.baselines.hls import (
    HLS_NUM_BLOCKS,
    generate_hls_trace,
    hls_profile,
    run_hls_simulation,
)


@pytest.fixture
def profile(small_trace, config):
    return hls_profile(small_trace, config)


class TestHlsProfile:
    def test_mix_sums_to_one(self, profile):
        assert abs(sum(profile.instruction_mix.values()) - 1.0) < 1e-9

    def test_block_size_statistics(self, profile, small_trace):
        sizes = []
        count = 0
        for inst in trace_rows(small_trace):
            count += 1
            if inst.iclass in BRANCH_CLASSES:
                sizes.append(count)
                count = 0
        assert profile.mean_block_size == pytest.approx(
            sum(sizes) / len(sizes))

    def test_rates_are_probabilities(self, profile):
        for value in (profile.taken_rate, profile.redirect_rate,
                      profile.misprediction_rate,
                      profile.dependency_fraction):
            assert 0.0 <= value <= 1.0
        for rate in profile.miss_rates.values():
            assert 0.0 <= rate <= 1.0

    def test_global_dependency_distribution(self, profile):
        distances, weights = profile.dependency_distances
        assert len(distances) == len(weights)
        assert all(d >= 1 for d in distances)


class TestHlsTraceGeneration:
    def test_requested_length(self, profile):
        trace = generate_hls_trace(profile, length=500, seed=0)
        assert len(trace) == 500

    def test_deterministic(self, profile):
        a = generate_hls_trace(profile, length=300, seed=4)
        b = generate_hls_trace(profile, length=300, seed=4)
        assert positions(a) == positions(b)

    def test_no_deps_on_branch_or_store(self, profile):
        trace = generate_hls_trace(profile, length=800, seed=1)
        entries = positions(trace)
        for index, entry in enumerate(entries):
            for distance in entry[2]:
                target = index - distance
                if target >= 0:
                    assert entries[target][0] in PRODUCING_CLASSES

    def test_branches_annotated(self, profile):
        trace = generate_hls_trace(profile, length=800, seed=1)
        for iclass, _events, _deps, _taken, outcome in trace.distinct:
            if iclass in BRANCH_CLASSES:
                assert outcome in BranchOutcome

    def test_mix_roughly_preserved(self, profile):
        trace = generate_hls_trace(profile, length=4000, seed=2)
        load_fraction = sum(count for entry, count in trace.counted
                            if entry[0] is IClass.LOAD) / len(trace)
        target = profile.instruction_mix.get(IClass.LOAD, 0.0)
        assert abs(load_fraction - target) < 0.08


#: ``entries_digest`` of a 2,000-instruction HLS trace of the warmed
#: gzip reference, per seed: pins the draw order (block build, walk,
#: operand counts, dependency draws with their rejection of
#: non-producing targets, il1, l2i|il1, itlb, the load flags, taken and
#: the outcome draw).
HLS_DIGESTS = {
    0: "0730a991dd1f84858878c2a8e9d2649980715463b4096c4eed67cec60fb46ccc",
    1: "2b7e704e8e0ffe478067ab6c347040eb6322bdea191554017c8baae780789ef4",
}


@pytest.mark.parametrize("seed", sorted(HLS_DIGESTS))
def test_hls_draws_pinned(gzip_reference, seed):
    profile = hls_profile(gzip_reference, baseline_config())
    trace = generate_hls_trace(profile, length=2000, seed=seed)
    assert entries_digest(trace) == HLS_DIGESTS[seed]


class TestHlsSimulation:
    def test_end_to_end(self, small_trace):
        config = simplescalar_default_config()
        result, power = run_hls_simulation(small_trace, config,
                                           synthetic_length=1000, seed=0)
        assert result.instructions == 1000
        assert power.total > 0
