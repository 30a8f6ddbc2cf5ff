"""Sweep engine: determinism, parallel dispatch, caching, containment,
and the analysis layer on top."""

import pytest

from repro.config import baseline_config
from repro.runner import RunnerPolicy
from repro import faults
from repro.faults import ChaosPlan
from repro.frontend.functional import run_program
from repro.core.profiler import profile_trace
from repro.workloads.generator import WorkloadConfig, generate_program
from repro.dse.analysis import pareto_front, verification_shortlist
from repro.dse.cache import ResultCache
from repro.dse.engine import (
    PointResult,
    SweepEngine,
    derive_point_seed,
)
from repro.dse.space import DesignPoint, SweepSpec


@pytest.fixture(scope="module")
def profile():
    program = generate_program(WorkloadConfig(
        name="unit", seed=7, n_blocks=12, mean_block_size=4,
        working_set_kb=32, n_memory_streams=4))
    trace = run_program(program, n_instructions=1200)
    return profile_trace(trace, baseline_config(), order=1)


@pytest.fixture(scope="module")
def points():
    spec = SweepSpec(mode="grid", parameters=(
        ("ruu_size", (32, 64)), ("width", (2, 4))))
    return spec.expand()


def metrics_map(sweep):
    return {r.point.point_id: r.per_seed for r in sweep.results}


class TestDerivedSeeds:
    def test_stable_hash_not_rng_state(self):
        seed = derive_point_seed("sec46", "gzip", "c" * 64, 0)
        assert seed == derive_point_seed("sec46", "gzip", "c" * 64, 0)
        assert 0 <= seed < 2 ** 63

    def test_every_identity_component_matters(self):
        base = derive_point_seed("sec46", "gzip", "c" * 64, 0)
        assert base != derive_point_seed("sec46", "gzip", "c" * 64, 1)
        assert base != derive_point_seed("sec46", "gzip", "d" * 64, 0)
        assert base != derive_point_seed("sec46", "twolf", "c" * 64, 0)
        assert base != derive_point_seed("table4", "gzip", "c" * 64, 0)


class TestDeterminism:
    def test_serial_and_parallel_sweeps_identical(self, profile, points):
        serial = SweepEngine(profile, jobs=1, experiment="t",
                             benchmark="unit").evaluate(
            points, seeds=(0, 1), reduction_factor=4.0)
        parallel = SweepEngine(profile, jobs=4, experiment="t",
                               benchmark="unit").evaluate(
            points, seeds=(0, 1), reduction_factor=4.0)
        assert serial.failed == 0 and parallel.failed == 0
        assert metrics_map(serial) == metrics_map(parallel)

    def test_repeated_serial_sweeps_identical(self, profile, points):
        first = SweepEngine(profile, jobs=1).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        second = SweepEngine(profile, jobs=1).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert metrics_map(first) == metrics_map(second)


class TestCaching:
    def test_warm_rerun_skips_every_point(self, profile, points,
                                          tmp_path):
        def engine():
            return SweepEngine(profile, jobs=1,
                               cache=ResultCache(tmp_path),
                               experiment="t", benchmark="unit")

        cold = engine().evaluate(points, seeds=(0, 1),
                                 reduction_factor=4.0)
        warm = engine().evaluate(points, seeds=(0, 1),
                                 reduction_factor=4.0)
        assert cold.evaluated == len(points) * 2 and cold.cached == 0
        assert warm.evaluated == 0
        assert warm.cached / warm.total_tasks >= 0.9
        assert metrics_map(cold) == metrics_map(warm)

    def test_overlapping_sweep_shares_entries(self, profile, tmp_path):
        wide = SweepSpec(mode="grid", parameters=(
            ("ruu_size", (32, 64, 128)),)).expand()
        narrow = SweepSpec(mode="grid", parameters=(
            ("ruu_size", (32, 64)),)).expand()
        SweepEngine(profile, cache=ResultCache(tmp_path)).evaluate(
            narrow, seeds=(0,), reduction_factor=4.0)
        second = SweepEngine(profile,
                             cache=ResultCache(tmp_path)).evaluate(
            wide, seeds=(0,), reduction_factor=4.0)
        assert second.cached == 2 and second.evaluated == 1

    def test_corrupt_entry_is_reevaluated_identically(
            self, profile, points, tmp_path):
        cold = SweepEngine(profile, cache=ResultCache(tmp_path),
                           experiment="t", benchmark="unit").evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        victim = next((tmp_path / "objects").glob("*/*.json"))
        victim.write_text("{garbage")
        cache = ResultCache(tmp_path)
        warm = SweepEngine(profile, cache=cache, experiment="t",
                           benchmark="unit").evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert cache.stats.corrupt_discarded == 1
        assert warm.evaluated == 1
        assert warm.cached == len(points) - 1
        assert metrics_map(cold) == metrics_map(warm)

    def test_injected_cache_corruption_heals(self, profile, points,
                                             tmp_path, monkeypatch):
        # artifact-corrupt garbles every fresh write; the next run
        # must detect, discard and re-evaluate every entry.
        monkeypatch.setenv("REPRO_CHAOS", "artifact-corrupt:rate=1.0")
        corrupting = ResultCache(tmp_path)
        SweepEngine(profile, cache=corrupting).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        monkeypatch.delenv("REPRO_CHAOS")
        cache = ResultCache(tmp_path)
        healed = SweepEngine(profile, cache=cache).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert cache.stats.corrupt_discarded == len(points)
        assert healed.evaluated == len(points)
        assert all(r.ok for r in healed.results)

    def test_serial_sweep_caches_each_evaluation_on_arrival(
            self, profile, points, tmp_path, monkeypatch):
        """Each evaluation is in the cache before the next one starts,
        so a sweep killed mid-run keeps its finished work."""
        from repro.dse import engine

        cache = ResultCache(tmp_path)
        seen = []
        real = engine.evaluate_metrics

        def counting(*args, **kwargs):
            seen.append(cache.stats.writes)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "evaluate_metrics", counting)
        SweepEngine(profile, cache=cache).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert seen == list(range(len(points)))
        assert cache.stats.writes == len(points)

    def test_failures_are_never_cached(self, profile, points, tmp_path):
        plan = ChaosPlan.parse("task-fail:match=unit")
        cache = ResultCache(tmp_path)
        engine = SweepEngine(profile, cache=cache, benchmark="unit",
                             policy=RunnerPolicy(max_retries=0))
        with faults.use(plan):
            sweep = engine.evaluate(points, seeds=(0,),
                                    reduction_factor=4.0)
        assert sweep.failed == len(points)
        assert cache.stats.writes == 0


class TestContainment:
    def test_permanent_fault_contained_per_point(self, profile, points):
        plan = ChaosPlan.parse("task-fail:match=unit")
        engine = SweepEngine(profile, benchmark="unit",
                             policy=RunnerPolicy(max_retries=0))
        with faults.use(plan):
            sweep = engine.evaluate(points, seeds=(0,),
                                    reduction_factor=4.0)
        assert sweep.ok_results == []
        assert all(r.failed_seeds == 1 and r.errors for r in
                   sweep.results)

    def test_transient_fault_survived_by_retry(self, profile, points):
        plan = ChaosPlan.parse("task-fail:match=unit,attempts=1")
        engine = SweepEngine(
            profile, benchmark="unit",
            policy=RunnerPolicy(max_retries=2, backoff_base=0.0))
        with faults.use(plan):
            sweep = engine.evaluate(points, seeds=(0,),
                                    reduction_factor=4.0)
        assert sweep.failed == 0
        assert all(r.ok for r in sweep.results)

    def test_worker_task_retries_through_runner_loop(self, profile,
                                                     points):
        """A pool worker's evaluation retries through the runner's
        loop: the retry is counted and narrated like a runner unit."""
        from repro.dse.engine import _run_task
        from repro.obs.metrics import get_registry

        retries = get_registry().counter("runner.retries")
        before = retries.value
        engine = SweepEngine(profile, experiment="t", benchmark="unit")
        task = engine._task(0, points[0], 0, 4.0)
        with faults.use(ChaosPlan.parse("task-fail:match=unit,attempts=1")):
            outcome = _run_task(
                task, profile,
                RunnerPolicy(max_retries=1, backoff_base=0.0))
        assert retries.value - before == 1
        assert outcome["status"] == "ok" and outcome["attempts"] == 2
        assert outcome["metrics"] == engine._run_serial([task], 4.0)[0][
            "metrics"]

    def test_parallel_workers_inject_from_env(self, profile, points,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "task-fail:match=unit")
        sweep = SweepEngine(profile, jobs=2,
                            benchmark="unit",
                            policy=RunnerPolicy(max_retries=0)
                            ).evaluate(points, seeds=(0,),
                                       reduction_factor=4.0)
        assert sweep.failed == len(points)
        assert sweep.ok_results == []


class TestRecipeWarmStart:
    def test_serial_sweep_counts_recipe_reuse(self, profile, points):
        from repro.obs.metrics import get_registry
        from repro.core.synthesis import tables_cached

        before = get_registry().snapshot()["counters"].get(
            "dse.recipe_reuse", 0)
        sweep = SweepEngine(profile, jobs=1).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        assert sweep.failed == 0
        after = get_registry().snapshot()["counters"]["dse.recipe_reuse"]
        # Every evaluation ran against tables prepared up front.
        assert after - before == len(points)
        assert tables_cached(profile.sfg)

    def test_worker_init_prebuilds_tables(self, profile):
        from repro.core.reduction import reduce_flow_graph
        from repro.core.serialization import profile_to_dict
        from repro.core.synthesis import tables_cached
        from repro.dse import engine
        from repro.obs.metrics import get_registry

        built = get_registry().counter("synthesis.recipe_contexts_built")
        before = built.value
        # use() scopes the plan the initializer installs to this test.
        with faults.use(None):
            engine._worker_init(profile_to_dict(profile), 4.0)
        try:
            assert engine._WORKER_PROFILE is not None
            sfg = engine._WORKER_PROFILE.sfg
            assert tables_cached(sfg)
            # Only the contexts the sweep's reduced graph keeps.
            kept = reduce_flow_graph(sfg, 4.0).occurrences
            assert built.value - before == len(kept) < len(sfg.contexts)
        finally:
            engine._WORKER_PROFILE = None


def make_result(edp, ipc, label):
    point = DesignPoint(config=baseline_config(),
                        params=(("label", label),))
    result = PointResult(point=point)
    result.per_seed[0] = {"edp": edp, "ipc": ipc, "epc": 1.0,
                          "synthetic_instructions": 100}
    result.evaluated_seeds = 1
    return result


class TestAnalysis:
    def test_pareto_front(self):
        results = [make_result(10.0, 2.0, "a"),   # front
                   make_result(12.0, 2.5, "b"),   # front
                   make_result(12.0, 1.9, "c"),   # dominated by a
                   make_result(9.0, 1.5, "d")]    # front (cheapest)
        front = [r.point.params_dict()["label"]
                 for r in pareto_front(results)]
        assert front == ["d", "a", "b"]

    def test_verification_shortlist_margin(self):
        results = [make_result(10.0, 2.0, "a"),
                   make_result(10.2, 2.0, "b"),
                   make_result(11.0, 2.0, "c")]
        shortlist = verification_shortlist(results, margin=0.03)
        assert [r.point.params_dict()["label"] for r in shortlist] == \
            ["a", "b"]

    def test_failed_points_excluded(self):
        good = make_result(10.0, 2.0, "a")
        bad = PointResult(point=DesignPoint(config=baseline_config()))
        bad.failed_seeds = 1
        assert pareto_front([good, bad]) == [good]
        assert verification_shortlist([good, bad]) == [good]
