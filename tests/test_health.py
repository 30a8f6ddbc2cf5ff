"""The health subsystem: policy parsing, budgets, the degradation
ladder, the vector canary, and their end-to-end wiring into sweeps.

Three integration properties anchor the suite: a blown deadline turns
into structured per-point failures (not a hung sweep), a hung worker
is shot by the supervisor's watchdog and its task requeued like a
crash, and a drifting vector canary degrades the sweep to the scalar
rung while keeping it green.
"""

import json
import time

import pytest

from repro.core.profiler import profile_trace
from repro.dse.engine import SweepEngine, evaluate_metrics
from repro.dse.space import DesignPoint
from repro.errors import (
    CanaryDriftError,
    DeadlineExceededError,
    HealthSpecError,
    MemoryBudgetError,
)
from repro.faults import ChaosPlan
from repro.health import (
    Budget,
    HealthPolicy,
    get_ladder,
    reset_ladder,
    rss_mb,
)
from repro.health.budget import active_budget, install_budget
from repro.health.canary import maybe_check_columnar
from repro.health.ladder import RUNGS
from repro.obs.metrics import get_registry


@pytest.fixture(scope="module")
def profile():
    from repro.config import baseline_config
    from repro.frontend.functional import run_program
    from repro.workloads.generator import WorkloadConfig, generate_program

    program = generate_program(WorkloadConfig(
        name="health", seed=7, n_blocks=12, mean_block_size=4,
        working_set_kb=32, n_memory_streams=4))
    trace = run_program(program, n_instructions=3000)
    return profile_trace(trace, baseline_config(), order=1)


@pytest.fixture
def points(config):
    return [DesignPoint(config=config.with_width(w),
                        params=(("width", w),))
            for w in (2, 4)]


class TestHealthPolicy:
    def test_parse_full_spec(self):
        policy = HealthPolicy.parse(
            "deadline=120;soft-rss=512;hard-rss=1024;hang-timeout=10;"
            "poll-interval=0.5;canary=16;canary-force=1")
        assert policy.deadline == 120.0
        assert policy.soft_rss_mb == 512.0
        assert policy.hard_rss_mb == 1024.0
        assert policy.hang_timeout == 10.0
        assert policy.poll_interval == 0.5
        assert policy.canary_interval == 16
        assert policy.canary_force is True

    def test_parse_empty_gives_defaults(self):
        policy = HealthPolicy.parse("")
        assert policy == HealthPolicy()
        assert policy.deadline is None
        assert policy.hang_timeout == 30.0

    def test_unknown_key_rejected(self):
        with pytest.raises(HealthSpecError):
            HealthPolicy.parse("deadlne=10")

    def test_bad_value_rejected(self):
        with pytest.raises(HealthSpecError):
            HealthPolicy.parse("deadline=ten")

    def test_not_key_value_rejected(self):
        with pytest.raises(HealthSpecError):
            HealthPolicy.parse("deadline")

    def test_negative_deadline_rejected(self):
        with pytest.raises(HealthSpecError):
            HealthPolicy(deadline=-1.0)

    def test_hard_below_soft_rejected(self):
        with pytest.raises(HealthSpecError):
            HealthPolicy(soft_rss_mb=512, hard_rss_mb=256)

    def test_spec_error_is_value_error(self):
        """CLI code catches ValueError for bad flags; the spec error
        must participate."""
        assert issubclass(HealthSpecError, ValueError)

    def test_payload_roundtrip(self):
        policy = HealthPolicy.parse("deadline=5;canary=3")
        assert HealthPolicy.from_payload(policy.to_payload()) == policy

    def test_with_deadline_overrides(self):
        policy = HealthPolicy.parse("deadline=120")
        assert policy.with_deadline(7.0).deadline == 7.0
        assert policy.with_deadline(None).deadline == 120.0

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEALTH", "hang-timeout=0")
        assert HealthPolicy.from_env().hang_timeout == 0.0
        monkeypatch.delenv("REPRO_HEALTH")
        assert HealthPolicy.from_env() == HealthPolicy()


class TestRss:
    def test_rss_reads_positive_on_procfs(self):
        value = rss_mb()
        if value is None:
            pytest.skip("no procfs on this platform")
        assert value > 0


class TestBudget:
    def test_deadline_checkpoint_raises(self):
        budget = Budget(HealthPolicy(), deadline_at=time.time() - 1.0)
        before = get_registry().counter(
            "health.deadlines_exceeded").value
        with pytest.raises(DeadlineExceededError):
            budget.checkpoint()
        assert get_registry().counter(
            "health.deadlines_exceeded").value == before + 1

    def test_expired_predicate(self):
        assert Budget(HealthPolicy(),
                      deadline_at=time.time() - 1.0).expired()
        assert not Budget(HealthPolicy(),
                          deadline_at=time.time() + 60.0).expired()
        assert not Budget(HealthPolicy()).expired()

    def test_checkpoint_without_limits_is_silent(self):
        Budget(HealthPolicy()).checkpoint(123)  # must not raise

    def test_heartbeat_written_to_lease(self, tmp_path):
        budget = Budget(HealthPolicy())
        budget.begin_task(str(tmp_path), "exp/bench/p0/seed0",
                          dispatch=2)
        budget.checkpoint(4096)
        leases = list(tmp_path.glob("*.lease"))
        assert len(leases) == 1
        payload = json.loads(leases[0].read_text())
        assert payload["task_id"] == "exp/bench/p0/seed0"
        assert payload["dispatch"] == 2
        assert payload["progress"] == 4096
        assert payload["beat"] > 0

    def test_heartbeats_are_throttled(self, tmp_path):
        budget = Budget(HealthPolicy())
        budget.begin_task(str(tmp_path), "t", dispatch=1)
        budget.checkpoint(1)
        first = json.loads(
            next(tmp_path.glob("*.lease")).read_text())
        budget.checkpoint(2)  # within BEAT_INTERVAL: no rewrite
        second = json.loads(
            next(tmp_path.glob("*.lease")).read_text())
        assert second == first

    def test_end_task_stops_heartbeats(self, tmp_path):
        budget = Budget(HealthPolicy())
        budget.begin_task(str(tmp_path), "t", dispatch=1)
        budget.end_task()
        budget.checkpoint(1)
        assert list(tmp_path.glob("*.lease")) == []

    def test_hard_rss_ceiling_fails_cleanly(self):
        if rss_mb() is None:
            pytest.skip("no procfs on this platform")
        budget = Budget(HealthPolicy(hard_rss_mb=1.0))
        with pytest.raises(MemoryBudgetError):
            budget.checkpoint()

    def test_soft_rss_ceiling_degrades(self):
        if rss_mb() is None:
            pytest.skip("no procfs on this platform")
        budget = Budget(HealthPolicy(soft_rss_mb=1.0))
        budget.checkpoint()  # degrades, does not raise
        assert get_ladder().is_open("vector")
        breaches = get_registry().counter(
            "health.rss_soft_breaches").value
        # One-shot: a second breach of the same budget is silent.
        budget._last_rss = 0.0
        budget.checkpoint()
        assert get_registry().counter(
            "health.rss_soft_breaches").value == breaches

    def test_module_checkpoint_noop_without_budget(self):
        from repro.health.budget import checkpoint

        install_budget(None)
        checkpoint(10)  # must not raise
        assert active_budget() is None


class TestLadder:
    def test_all_rungs_start_primary(self):
        snapshot = get_ladder().snapshot()
        assert set(snapshot) == set(RUNGS)
        for name, entry in snapshot.items():
            assert entry["rung"] == RUNGS[name][0]
            assert entry["degraded"] is False

    def test_trip_is_one_strike(self):
        ladder = get_ladder()
        assert ladder.trip("vector", reason="drift") is True
        assert ladder.is_open("vector")
        assert ladder.rung("vector") == "scalar"
        # Re-tripping an open breaker is a no-op.
        assert ladder.trip("vector", reason="again") is False
        assert ladder.snapshot()["vector"]["reason"] == "drift"

    def test_counted_breaker_honors_threshold(self):
        ladder = get_ladder()
        for _ in range(4):
            assert ladder.note_failure("cache", reason="io") is False
        assert not ladder.is_open("cache")
        assert ladder.note_failure("cache", reason="io") is True
        assert ladder.rung("cache") == "read-bypass"

    def test_success_resets_streak(self):
        ladder = get_ladder()
        for _ in range(4):
            ladder.note_failure("cache")
        ladder.note_success("cache")
        for _ in range(4):
            assert ladder.note_failure("cache") is False
        assert not ladder.is_open("cache")

    def test_open_breaker_never_closes(self):
        ladder = get_ladder()
        ladder.trip("pool", reason="broken")
        ladder.note_success("pool")
        assert ladder.is_open("pool")

    def test_trip_emits_counters_and_gauge(self):
        registry = get_registry()
        trips = registry.counter("health.breaker_trips").value
        changes = registry.counter("health.rung_changes").value
        get_ladder().trip("pool", reason="rebuild budget exhausted")
        assert registry.counter(
            "health.breaker_trips").value == trips + 1
        assert registry.counter(
            "health.rung_changes").value == changes + 1
        assert registry.gauge("health.rung.pool").value == 1

    def test_reset_gives_fresh_ladder(self):
        get_ladder().trip("vector")
        reset_ladder()
        assert not get_ladder().is_open("vector")


class TestCanary:
    def _columnar(self, profile):
        from repro.core.columnar import generate_columnar_trace

        return generate_columnar_trace(profile, reduction_factor=8.0,
                                       seed=3)

    def test_noop_without_budget(self, profile):
        install_budget(None)
        maybe_check_columnar(profile, self._columnar(profile))

    def test_noop_when_disabled(self, profile):
        install_budget(Budget(HealthPolicy()))  # canary_interval=0
        maybe_check_columnar(profile, self._columnar(profile))
        assert not get_ladder().is_open("vector")

    def test_healthy_columnar_passes(self, profile):
        install_budget(Budget(HealthPolicy(canary_interval=1)))
        checks = get_registry().counter("health.canary_checks").value
        maybe_check_columnar(profile, self._columnar(profile))
        assert get_registry().counter(
            "health.canary_checks").value == checks + 1
        assert not get_ladder().is_open("vector")

    def test_forced_drift_trips_vector(self, profile):
        install_budget(Budget(HealthPolicy(canary_interval=1,
                                           canary_force=True)))
        failures = get_registry().counter(
            "health.canary_failures").value
        with pytest.raises(CanaryDriftError) as excinfo:
            maybe_check_columnar(profile, self._columnar(profile))
        assert excinfo.value.retryable is True
        assert get_ladder().is_open("vector")
        assert get_registry().counter(
            "health.canary_failures").value == failures + 1

    def test_sampling_interval_respected(self, profile):
        install_budget(Budget(HealthPolicy(canary_interval=3)))
        checks = get_registry().counter("health.canary_checks").value
        columnar = self._columnar(profile)
        for _ in range(6):
            maybe_check_columnar(profile, columnar)
        assert get_registry().counter(
            "health.canary_checks").value == checks + 2


class TestEvaluateMetricsRungs:
    def test_mode_annotation(self, profile, config):
        scalar = evaluate_metrics(profile, config, seed=0,
                                  reduction_factor=4.0)
        vector = evaluate_metrics(profile, config, seed=0,
                                  reduction_factor=4.0, vector=True)
        assert scalar["mode"] == "scalar"
        assert vector["mode"] == "vector"

    def test_open_vector_breaker_routes_to_scalar(self, profile,
                                                  config):
        scalar = evaluate_metrics(profile, config, seed=0,
                                  reduction_factor=4.0)
        get_ladder().trip("vector", reason="test")
        degraded = evaluate_metrics(profile, config, seed=0,
                                    reduction_factor=4.0, vector=True)
        assert degraded == scalar

    def test_budget_does_not_perturb_determinism(self, profile,
                                                 config):
        """Checkpoints consume no RNG draws: metrics with an installed
        budget are byte-identical to metrics without one."""
        bare = evaluate_metrics(profile, config, seed=5,
                                reduction_factor=4.0, vector=True)
        install_budget(Budget(HealthPolicy(),
                              deadline_at=time.time() + 3600))
        budgeted = evaluate_metrics(profile, config, seed=5,
                                    reduction_factor=4.0, vector=True)
        assert budgeted == bare


class TestDeadlineSweep:
    def test_blown_deadline_fails_points_cleanly(self, profile,
                                                 points):
        engine = SweepEngine(profile, jobs=1,
                             health=HealthPolicy(deadline=1e-6))
        result = engine.evaluate(points, seeds=(0,),
                                 reduction_factor=4.0)
        assert result.failed == result.total_tasks == 2
        for point in result.results:
            assert not point.ok
            assert point.errors
            assert point.errors[0]["type"] == "DeadlineExceededError"
        # The parent's budget is uninstalled when the sweep returns.
        assert active_budget() is None

    def test_generous_deadline_changes_nothing(self, profile, points):
        plain = SweepEngine(profile, jobs=1).evaluate(
            points, seeds=(0,), reduction_factor=4.0)
        deadlined = SweepEngine(
            profile, jobs=1,
            health=HealthPolicy(deadline=3600)).evaluate(
                points, seeds=(0,), reduction_factor=4.0)
        for a, b in zip(plain.results, deadlined.results):
            assert a.per_seed == b.per_seed


class TestCanarySweepDegradation:
    def test_forced_drift_lands_sweep_green_on_scalar(self, profile,
                                                      points):
        """The acceptance drill: canary-force trips vector -> scalar on
        the first evaluation, the retry succeeds on the scalar rung,
        and the whole sweep finishes green."""
        engine = SweepEngine(
            profile, jobs=1, vector=True,
            health=HealthPolicy(canary_interval=1, canary_force=True))
        failures = get_registry().counter(
            "health.canary_failures").value
        result = engine.evaluate(points, seeds=(0,),
                                 reduction_factor=4.0)
        assert result.failed == 0
        assert all(point.ok for point in result.results)
        for point in result.results:
            for metrics in point.per_seed.values():
                assert metrics["mode"] == "scalar"
        assert get_registry().counter(
            "health.canary_failures").value > failures
        assert get_ladder().is_open("vector")

    def test_mode_annotation_survives_aggregation(self, profile,
                                                  points):
        result = SweepEngine(profile, jobs=1).evaluate(
            points, seeds=(0, 1), reduction_factor=4.0)
        for point in result.results:
            assert point.metrics["ipc"] > 0
            assert "mode" not in point.metrics  # strings don't average


class TestHangWatchdog:
    def test_hung_worker_is_killed_and_task_requeued(self, profile,
                                                     points):
        """worker-hang chaos parks the first dispatch of every task in
        a no-progress spin; the supervisor's heartbeat watchdog must
        SIGKILL the hung workers and requeue their tasks (dispatch 2,
        where attempts=1 chaos no longer fires) so the sweep completes
        without human intervention."""
        engine = SweepEngine(
            profile, jobs=2,
            fault_plan=ChaosPlan.parse(
                "worker-hang:rate=1.0,attempts=1"),
            health=HealthPolicy(hang_timeout=1.0, poll_interval=0.2))
        kills = get_registry().counter("health.hang_kills").value
        started = time.perf_counter()
        result = engine.evaluate(points, seeds=(0,),
                                 reduction_factor=4.0)
        elapsed = time.perf_counter() - started
        assert result.failed == 0
        assert result.quarantined == 0
        assert all(point.ok for point in result.results)
        assert get_registry().counter(
            "health.hang_kills").value > kills
        # Containment, not patience: the watchdog frees the sweep in
        # roughly hang_timeout, far under any per-task timeout.
        assert elapsed < 60

    def test_watchdog_disabled_leaves_healthy_sweeps_alone(
            self, profile, points):
        engine = SweepEngine(profile, jobs=2,
                             health=HealthPolicy(hang_timeout=0.0))
        result = engine.evaluate(points, seeds=(0,),
                                 reduction_factor=4.0)
        assert result.failed == 0
        assert all(point.ok for point in result.results)


class TestChaosSites:
    def test_mem_balloon_grows_ballast(self):
        from repro.faults import chaos

        plan = ChaosPlan.parse("mem-balloon:rate=1.0,attempts=1,mb=1")
        before = len(chaos._BALLAST)
        try:
            plan.maybe_balloon_memory("task", 1)
            assert len(chaos._BALLAST) == before + 1
            assert len(chaos._BALLAST[-1]) == 1024 * 1024
            # Second dispatch: attempts=1 keeps the site quiet.
            plan.maybe_balloon_memory("task", 2)
            assert len(chaos._BALLAST) == before + 1
        finally:
            del chaos._BALLAST[before:]

    def test_worker_hang_spec_roundtrip(self):
        plan = ChaosPlan.parse("worker-hang:rate=1.0,attempts=1")
        assert "worker-hang" in plan.to_spec()
