"""Split profiling: a profile assembled from a memoized skeleton, a
memoized branch annotation and a batch locality walk equals a cold
profile, field for field and in the same insertion order."""

import pytest

from repro.core.profiler import profile_trace
from repro.core.sfg import ContextStats
from repro.core.synthesis import generate_synthetic_trace
from repro.errors import ProfileError
from repro.experiments.table4_relative import SCALE_POINTS
from repro.obs.metrics import get_registry


def _copy(trace):
    """The same instructions under a new trace object (cold memos)."""
    return trace.window(0, len(trace), trace.name)


def _count(name):
    return get_registry().counter(name).value


def assert_same_profile(memo, cold):
    assert (memo.name, memo.order, memo.trace_instructions,
            memo.branch_mode, memo.perfect_caches, memo.config) == \
        (cold.name, cold.order, cold.trace_instructions,
         cold.branch_mode, cold.perfect_caches, cold.config)
    a, b = memo.sfg, cold.sfg
    assert a.total_block_executions == b.total_block_executions
    # Synthesis walks these dicts in order: the order is part of the
    # profile.
    assert list(a.contexts) == list(b.contexts)
    assert [(history, list(counts.items()))
            for history, counts in a.transitions.items()] == \
        [(history, list(counts.items()))
         for history, counts in b.transitions.items()]
    for key, stats in a.contexts.items():
        for field in ContextStats.__slots__:
            assert getattr(stats, field) == \
                getattr(b.contexts[key], field), (key, field)


@pytest.fixture
def windows(small_program):
    from repro.frontend.warming import run_program_with_warmup

    return run_program_with_warmup(small_program, 1500, 2000)


class TestEquivalence:
    def test_scale_one_matches_single_profile(self, windows, config):
        warm, trace = windows
        profile_trace(trace, config.with_cache_scale(0.5), order=1,
                      warmup_trace=warm)
        reused = _count("profile.skeleton_reused")
        memo = profile_trace(trace, config.with_cache_scale(1.0), order=1,
                             warmup_trace=warm)
        assert _count("profile.skeleton_reused") == reused + 1
        cold = profile_trace(_copy(trace), config, order=1,
                             warmup_trace=warm)
        assert_same_profile(memo, cold)

    def test_each_scale_matches_its_own_pass(self, windows, config):
        from repro.cpu.locality import plan_locality

        warm, trace = windows
        configs = [config.with_cache_scale(scale) for scale in SCALE_POINTS]
        plan_locality(trace, configs, warm)
        walks = _count("eds.locality_walks")
        built = _count("profile.skeleton_built")
        memo = [profile_trace(trace, scaled, order=1, warmup_trace=warm)
                for scaled in configs]
        assert _count("eds.locality_walks") == walks + 1
        assert _count("profile.skeleton_built") == built + 1
        for scaled, profile in zip(configs, memo):
            cold = profile_trace(_copy(trace), scaled, order=1,
                                 warmup_trace=warm)
            assert_same_profile(profile, cold)

    @pytest.mark.parametrize("mode", ["delayed", "immediate", "perfect"])
    def test_branch_modes_match_cold(self, windows, config, mode):
        warm, trace = windows
        for scale in (0.5, 2.0):
            memo = profile_trace(trace, config.with_cache_scale(scale),
                                 branch_mode=mode, warmup_trace=warm)
        cold = profile_trace(_copy(trace), config.with_cache_scale(2.0),
                             branch_mode=mode, warmup_trace=warm)
        assert_same_profile(memo, cold)
        assert any(stats.outcome_counts[0]
                   for stats in memo.sfg.contexts.values())

    def test_perfect_caches_match_cold(self, windows, config):
        warm, trace = windows
        profile_trace(trace, config, warmup_trace=warm)
        memo = profile_trace(trace, config, warmup_trace=warm,
                             perfect_caches=True)
        cold = profile_trace(_copy(trace), config, warmup_trace=warm,
                             perfect_caches=True)
        assert_same_profile(memo, cold)
        assert not any(any(stats.il1) or any(stats.dl1)
                       for stats in memo.sfg.contexts.values())

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_orders_match_cold(self, windows, config, order):
        warm, trace = windows
        profile_trace(trace, config.with_cache_scale(0.25), order=order,
                      warmup_trace=warm)
        memo = profile_trace(trace, config, order=order, warmup_trace=warm)
        cold = profile_trace(_copy(trace), config, order=order,
                             warmup_trace=warm)
        assert_same_profile(memo, cold)

    def test_other_order_replaces_the_skeleton(self, windows, config):
        warm, trace = windows
        built = _count("profile.skeleton_built")
        for order in (1, 2, 1):
            profile_trace(trace, config, order=order, warmup_trace=warm)
        assert _count("profile.skeleton_built") == built + 3

    def test_profiles_share_no_context_stats(self, windows, config):
        warm, trace = windows
        first = profile_trace(trace, config, warmup_trace=warm)
        second = profile_trace(trace, config, warmup_trace=warm)
        assert first.sfg.contexts.keys() == second.sfg.contexts.keys()

        def mutable_ids(profile):
            ids = {id(profile.sfg.contexts), id(profile.sfg.transitions)}
            ids.update(id(counts)
                       for counts in profile.sfg.transitions.values())
            for stats in profile.sfg.contexts.values():
                ids.add(id(stats))
                for field in ContextStats.__slots__:
                    value = getattr(stats, field)
                    if isinstance(value, list):
                        ids.add(id(value))
                        ids.update(id(item) for item in value
                                   if isinstance(item, (list, dict)))
            return ids

        assert not mutable_ids(first) & mutable_ids(second)
        key, stats = next(iter(first.sfg.contexts.items()))
        stats.il1[0] += 5
        stats.outcome_counts[0] += 5
        stats.occurrences += 5
        third = profile_trace(trace, config, warmup_trace=warm)
        assert_same_profile(second, third)


class TestBehaviour:
    def test_smaller_caches_more_annotated_misses(self, small_trace,
                                                  config):
        def total_dl1(profile):
            return sum(sum(s.dl1) for s in profile.sfg.contexts.values())

        small = profile_trace(small_trace, config.with_cache_scale(0.25))
        large = profile_trace(small_trace, config.with_cache_scale(4.0))
        assert total_dl1(small) >= total_dl1(large)

    def test_profiles_usable_for_synthesis(self, small_trace, config):
        for scale in (0.5, 2.0):
            profile = profile_trace(small_trace,
                                    config.with_cache_scale(scale))
            synthetic = generate_synthetic_trace(profile, 4, seed=0)
            assert len(synthetic) > 0
            assert profile.config.dl1.size_bytes == \
                int(config.dl1.size_bytes * scale)

    def test_structure_shared_across_scales(self, small_trace, config):
        profiles = [profile_trace(small_trace,
                                  config.with_cache_scale(scale))
                    for scale in (0.25, 1.0, 4.0)]
        keys = [list(p.sfg.contexts) for p in profiles]
        assert keys[0] == keys[1] == keys[2]
        dep_hists = [[stats.dep_hists for stats in p.sfg.contexts.values()]
                     for p in profiles]
        assert dep_hists[0] == dep_hists[1] == dep_hists[2]

    def test_validation(self, small_trace, config):
        with pytest.raises(ProfileError):
            profile_trace(small_trace, config, order=-1)
        with pytest.raises(ProfileError):
            profile_trace(small_trace, config, branch_mode="nope")


class TestBatchResolution:
    def test_each_geometry_matches_a_single_walk(self, windows, config,
                                                 monkeypatch):
        from dataclasses import replace

        import repro.cpu.locality as locality

        warm, trace = windows
        configs = [config.with_cache_scale(scale) for scale in SCALE_POINTS]
        # Anti-dependency distances ride along in the same pass.
        configs.append(replace(config.with_cache_scale(0.5),
                               enforce_anti_dependencies=True))
        walks = []
        walk = locality._walk

        def counting(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(locality, "_walk", counting)
        locality.plan_locality(trace, configs, warm)
        batch = [locality.resolve_locality(trace, c, warm) for c in configs]
        assert len(walks) == 1
        for resolution, scaled in zip(batch, configs):
            single = locality.resolve_locality(_copy(trace), scaled, warm)
            assert resolution.key == single.key
            assert resolution.keys == single.keys
            assert resolution.distinct == single.distinct
            assert resolution.tallies == single.tallies
        assert len(walks) == 1 + len(configs)
        # The batch shares one annotation dict.
        assert len({id(resolution.annotations) for resolution in batch}) == 1

    def test_member_hit_reuses_and_miss_replaces(self, windows, config):
        from repro.cpu.locality import plan_locality, resolve_locality

        warm, trace = windows
        configs = [config.with_cache_scale(scale) for scale in (0.5, 2.0)]
        plan_locality(trace, configs, warm)
        first = resolve_locality(trace, configs[1], warm)
        # Planning what the memo already holds keeps it.
        plan_locality(trace, configs[:1], warm)
        walks = _count("eds.locality_walks")
        assert resolve_locality(trace, configs[1], warm) is first
        resolve_locality(trace, configs[0], warm)
        assert _count("eds.locality_walks") == walks
        other = resolve_locality(trace, config.with_cache_scale(4.0), warm)
        assert _count("eds.locality_walks") == walks + 1
        assert resolve_locality(trace, configs[1], warm) is not first
        assert other is not first

    def test_perfect_cache_batch_needs_no_hierarchy(self, windows, config,
                                                    monkeypatch):
        import repro.cpu.locality as locality

        warm, trace = windows

        def fail(*args, **kwargs):
            raise AssertionError("perfect caches warmed a hierarchy")

        monkeypatch.setattr(locality, "warm_locality_structures", fail)
        configs = [config.with_cache_scale(scale) for scale in (0.5, 2.0)]
        locality.plan_locality(trace, configs, warm, perfect_caches=True)
        a, b = (locality.resolve_locality(trace, c, warm,
                                          perfect_caches=True)
                for c in configs)
        assert a.keys == b.keys and a.distinct == b.distinct
