"""Tests for the fault-tolerant task runner: containment, retries,
timeouts, checkpoint/resume and artifact integrity."""

import json
import time

import pytest

from repro.errors import (
    ArtifactCorruptError,
    ChaosSpecError,
    InjectedFaultError,
    ProfileError,
    ReproError,
    SimulationError,
    SynthesisError,
    TaskTimeoutError,
    is_retryable,
)
from repro.faults import ChaosPlan, plan_from_env
from repro.runner import (
    CheckpointStore,
    ResultRows,
    RunnerPolicy,
    RunReport,
    TaskRunner,
    UnitOutcome,
    WorkUnit,
    read_json_checked,
    report_footer,
    sanitize_unit_id,
    write_json_atomic,
)
from repro.runner.runner import backoff_delay


def units(*benchmarks):
    return [WorkUnit(experiment="exp", benchmark=name)
            for name in benchmarks]


class TestErrorHierarchy:
    def test_subclassing(self):
        for cls in (ProfileError, SynthesisError, SimulationError,
                    ArtifactCorruptError, TaskTimeoutError,
                    InjectedFaultError):
            assert issubclass(cls, ReproError)
        # Back-compat: validation errors still catchable as ValueError.
        for cls in (ProfileError, SynthesisError, SimulationError,
                    ArtifactCorruptError):
            assert issubclass(cls, ValueError)
        assert issubclass(TaskTimeoutError, TimeoutError)

    def test_retryability(self):
        assert is_retryable(TaskTimeoutError("slow"))
        assert is_retryable(InjectedFaultError("boom"))
        assert not is_retryable(ArtifactCorruptError("bad"))
        assert not is_retryable(ValueError("bad"))


class TestWorkUnit:
    def test_unit_id(self):
        assert WorkUnit("table1", "gzip").unit_id == "table1/gzip"
        assert WorkUnit("fig6", "twolf", seed=3).unit_id == \
            "fig6/twolf/seed3"
        unit = WorkUnit("table4", "vpr", params=(("sweep", "cache"),))
        assert unit.unit_id == "table4/vpr/sweep=cache"

    def test_sanitize(self):
        assert "/" not in sanitize_unit_id("table4/vpr/sweep=cache")
        assert sanitize_unit_id("a b:c") == "a_b_c"


class TestContainment:
    def test_one_failure_does_not_abort(self):
        def fn(unit):
            if unit.benchmark == "bad":
                raise ValueError("broken benchmark")
            return {"benchmark": unit.benchmark}

        report = TaskRunner(fault_plan=None).run(
            units("good", "bad", "also-good"), fn)
        assert report.summary() == "2 ok / 1 failed / 0 skipped"
        assert [o.benchmark for o in report.failed] == ["bad"]
        error = report.failed[0].error
        assert error["type"] == "ValueError"
        assert "broken benchmark" in error["message"]
        assert not error["retryable"]
        assert report.results == [{"benchmark": "good"},
                                  {"benchmark": "also-good"}]

    def test_total_failure_raises(self):
        def fn(unit):
            raise ValueError("systematically broken")

        with pytest.raises(ValueError, match="systematically broken"):
            TaskRunner(fault_plan=None).run(units("a", "b"), fn)

    def test_total_failure_raise_can_be_disabled(self):
        runner = TaskRunner(fault_plan=None,
                            raise_on_total_failure=False)
        report = runner.run(units("a"), lambda u: 1 / 0)
        assert report.summary() == "0 ok / 1 failed / 0 skipped"

    def test_warning_lines(self):
        runner = TaskRunner(fault_plan=None)
        report = runner.run(
            units("ok", "bad"),
            lambda u: (_ for _ in ()).throw(RuntimeError("oops"))
            if u.benchmark == "bad" else {})
        lines = report.warning_lines()
        assert len(lines) == 1
        assert "exp/bad" in lines[0] and "RuntimeError" in lines[0]


class TestRetry:
    def test_transient_fault_is_retried(self):
        plan = ChaosPlan.parse("task-fail:match=flaky,attempts=1")
        runner = TaskRunner(
            policy=RunnerPolicy(max_retries=2, backoff_base=0.0),
            fault_plan=plan)
        report = runner.run(units("flaky"), lambda u: {"ok": True})
        assert report.summary() == "1 ok / 0 failed / 0 skipped"
        assert report.ok[0].attempts == 2

    def test_permanent_fault_exhausts_retries(self):
        plan = ChaosPlan.parse("task-fail:match=doomed")
        runner = TaskRunner(
            policy=RunnerPolicy(max_retries=2, backoff_base=0.0),
            fault_plan=plan, raise_on_total_failure=False)
        report = runner.run(units("doomed"), lambda u: {"ok": True})
        outcome = report.failed[0]
        assert outcome.attempts == 3  # initial + 2 retries
        assert outcome.error["type"] == "InjectedFaultError"
        assert outcome.error["retryable"]

    def test_non_retryable_not_retried(self):
        calls = []

        def fn(unit):
            calls.append(unit.benchmark)
            raise KeyError("deterministic")

        runner = TaskRunner(policy=RunnerPolicy(max_retries=5),
                            fault_plan=None,
                            raise_on_total_failure=False)
        report = runner.run(units("a"), fn)
        assert len(calls) == 1
        assert report.failed[0].attempts == 1

    def test_backoff_schedule(self):
        assert backoff_delay(1, 0.1, 0.3) == pytest.approx(0.1)
        assert backoff_delay(2, 0.1, 0.3) == pytest.approx(0.2)
        assert backoff_delay(3, 0.1, 0.3) == pytest.approx(0.3)  # capped
        assert backoff_delay(10, 0.1, 0.3) == pytest.approx(0.3)


class TestTimeout:
    def test_hung_unit_times_out(self):
        def fn(unit):
            time.sleep(5.0)
            return {}

        runner = TaskRunner(
            policy=RunnerPolicy(timeout=0.05, max_retries=0),
            fault_plan=None, raise_on_total_failure=False)
        started = time.perf_counter()
        report = runner.run(units("hung"), fn)
        assert time.perf_counter() - started < 2.0
        outcome = report.failed[0]
        assert outcome.error["type"] == "TaskTimeoutError"
        assert outcome.error["retryable"]

    def test_timeout_retry_can_succeed(self):
        calls = {"n": 0}

        def fn(unit):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(5.0)
            return {"attempt": calls["n"]}

        runner = TaskRunner(
            policy=RunnerPolicy(timeout=0.1, max_retries=1,
                                backoff_base=0.0),
            fault_plan=None)
        report = runner.run(units("slow-once"), fn)
        assert report.summary() == "1 ok / 0 failed / 0 skipped"
        assert report.ok[0].attempts == 2

    def test_fast_unit_unaffected(self):
        runner = TaskRunner(policy=RunnerPolicy(timeout=5.0),
                            fault_plan=None)
        report = runner.run(units("fast"), lambda u: {"v": 1})
        assert report.ok[0].result == {"v": 1}


class TestFaultPlan:
    """The fault plan the runner takes from ``REPRO_CHAOS``."""

    def test_from_env_disabled_by_default(self):
        assert plan_from_env({}) is None

    def test_from_env(self):
        plan = plan_from_env({
            "REPRO_CHAOS": "seed=7;task-fail:match=gzip,attempts=1"})
        site = plan.sites["task-fail"]
        assert (plan.seed, site.match, site.attempts) == (7, "gzip", 1)

    def test_runner_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "task-fail:match=victim")
        runner = TaskRunner(raise_on_total_failure=False)
        report = runner.run(units("victim"), lambda u: {})
        assert report.failed and \
            report.failed[0].error["type"] == "InjectedFaultError"

    def test_random_rate(self):
        plan = ChaosPlan.parse("task-fail:rate=1.0")
        with pytest.raises(InjectedFaultError):
            plan.inject("x", None, 1)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ChaosPlan.parse("task-fail:rate=1.5")

    def test_retired_env_variables_fail_loudly(self):
        """A leftover REPRO_FAULT_* variable must not silently stop
        injecting: it fails and names the REPRO_CHAOS equivalent."""
        with pytest.raises(ChaosSpecError,
                           match="REPRO_FAULT_BENCHMARKS -> "
                                 "task-fail:match="):
            plan_from_env({"REPRO_FAULT_BENCHMARKS": "gzip",
                           "REPRO_CHAOS": "worker-kill"})


class TestCheckpointStore:
    def test_atomic_write_and_checksum(self, tmp_path):
        path = tmp_path / "unit.json"
        write_json_atomic(path, {"a": 1})
        assert not list(tmp_path.glob("*.tmp"))
        assert read_json_checked(path) == {"a": 1}

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "unit.json"
        write_json_atomic(path, {"a": 1})
        path.write_text(path.read_text()[:10])
        with pytest.raises(ArtifactCorruptError, match="JSON"):
            read_json_checked(path)

    def test_tamper_detected(self, tmp_path):
        path = tmp_path / "unit.json"
        write_json_atomic(path, {"a": 1})
        document = json.loads(path.read_text())
        document["a"] = 2
        path.write_text(json.dumps(document))
        with pytest.raises(ArtifactCorruptError, match="integrity"):
            read_json_checked(path)

    def test_missing_checksum_detected(self, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps({"a": 1}))
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            read_json_checked(path)

    def test_store_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.store("exp/gzip", {"status": "ok", "result": [1, 2]})
        assert store.load("exp/gzip") == {"status": "ok",
                                          "result": [1, 2]}
        assert store.load("exp/other") is None


class TestResume:
    def _counting_fn(self, calls):
        def fn(unit):
            calls.append(unit.benchmark)
            if unit.benchmark == "bad":
                raise ValueError("still broken")
            return {"benchmark": unit.benchmark}
        return fn

    def test_resume_skips_completed_units(self, tmp_path):
        calls = []
        first = TaskRunner(run_dir=tmp_path / "run", fault_plan=None)
        first.run(units("a", "b"), self._counting_fn(calls))
        assert calls == ["a", "b"]

        second = TaskRunner(run_dir=tmp_path / "run", resume=True,
                            fault_plan=None)
        report = second.run(units("a", "b"), self._counting_fn(calls))
        assert calls == ["a", "b"]  # nothing re-ran
        assert report.summary() == "0 ok / 0 failed / 2 skipped"
        assert report.results == [{"benchmark": "a"},
                                  {"benchmark": "b"}]

    def test_resume_reruns_failed_units(self, tmp_path):
        calls = []
        first = TaskRunner(run_dir=tmp_path / "run", fault_plan=None)
        first.run(units("a", "bad"), self._counting_fn(calls))

        def fixed(unit):
            calls.append(unit.benchmark)
            return {"benchmark": unit.benchmark}

        second = TaskRunner(run_dir=tmp_path / "run", resume=True,
                            fault_plan=None)
        report = second.run(units("a", "bad"), fixed)
        assert calls == ["a", "bad", "bad"]
        assert report.summary() == "1 ok / 0 failed / 1 skipped"

    def test_resume_after_kill_mid_suite(self, tmp_path):
        """A sweep killed partway through (simulated by running only a
        prefix of the units) resumes where it stopped."""
        calls = []
        first = TaskRunner(run_dir=tmp_path / "run", fault_plan=None)
        first.run(units("a"), self._counting_fn(calls))  # killed after a

        second = TaskRunner(run_dir=tmp_path / "run", resume=True,
                            fault_plan=None)
        report = second.run(units("a", "b", "c"),
                            self._counting_fn(calls))
        assert calls == ["a", "b", "c"]
        assert report.summary() == "2 ok / 0 failed / 1 skipped"

    def test_corrupt_checkpoint_is_rerun(self, tmp_path):
        calls = []
        run_dir = tmp_path / "run"
        first = TaskRunner(run_dir=run_dir, fault_plan=None)
        first.run(units("a"), self._counting_fn(calls))
        checkpoint = next((run_dir / "units").glob("*.json"))
        checkpoint.write_text(checkpoint.read_text()[:20])

        second = TaskRunner(run_dir=run_dir, resume=True,
                            fault_plan=None)
        report = second.run(units("a"), self._counting_fn(calls))
        assert calls == ["a", "a"]
        assert report.summary() == "1 ok / 0 failed / 0 skipped"

    def test_without_resume_everything_reruns(self, tmp_path):
        calls = []
        run_dir = tmp_path / "run"
        TaskRunner(run_dir=run_dir, fault_plan=None).run(
            units("a"), self._counting_fn(calls))
        TaskRunner(run_dir=run_dir, fault_plan=None).run(
            units("a"), self._counting_fn(calls))
        assert calls == ["a", "a"]


class TestReporting:
    def test_result_rows_behave_like_lists(self):
        rows = ResultRows([{"a": 1}], report=RunReport())
        assert rows == [{"a": 1}]
        assert rows.report is not None

    def test_report_footer_silent_on_success(self):
        report = RunReport([UnitOutcome("e/a", "ok")])
        assert report_footer(ResultRows([], report=report)) == ""
        assert report_footer([{"plain": "list"}]) == ""

    def test_report_footer_on_failure(self):
        report = RunReport([
            UnitOutcome("e/a", "ok"),
            UnitOutcome("e/b", "failed",
                        error={"type": "ValueError", "message": "x"},
                        attempts=3),
        ])
        footer = report_footer(ResultRows([], report=report))
        assert "WARNING" in footer
        assert "run summary: 1 ok / 1 failed / 0 skipped" in footer
