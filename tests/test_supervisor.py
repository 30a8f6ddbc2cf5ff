"""Worker supervision: BrokenProcessPool recovery, poison-point
quarantine, serial-fallback degradation, and the lease files and crash
attribution underneath."""

import json
import signal
from pathlib import Path

import pytest

from repro.config import baseline_config
from repro.core.profiler import profile_trace
from repro.errors import WorkerCrashError
from repro.faults import ChaosPlan
from repro.frontend.functional import run_program
from repro.workloads.generator import WorkloadConfig, generate_program
from repro.dse import SweepEngine, SweepSpec, SupervisorPolicy
from repro.dse.supervisor import Quarantine, suspect_task_ids
from repro.health.budget import Budget, HealthPolicy
from repro.runner.lease import (
    clear_lease,
    lease_path,
    read_leases,
    write_lease,
)


@pytest.fixture(scope="module")
def profile():
    program = generate_program(WorkloadConfig(
        name="unit", seed=7, n_blocks=12, mean_block_size=4,
        working_set_kb=32, n_memory_streams=4))
    trace = run_program(program, n_instructions=1200)
    return profile_trace(trace, baseline_config(), order=1)


@pytest.fixture(scope="module")
def points():
    spec = SweepSpec(name="sup", mode="grid", parameters=(
        ("ruu_size", (16, 32, 64)), ("lsq_size", (8,)),
        ("width", (2,))))
    expanded = spec.expand()
    assert len(expanded) == 3
    return expanded


@pytest.fixture(scope="module")
def clean(profile, points):
    sweep = SweepEngine(profile, jobs=2, fault_plan=None,
                        experiment="sup", benchmark="unit").evaluate(
        points, seeds=(0,), reduction_factor=12.0)
    assert all(r.ok for r in sweep.results)
    return sweep


def metrics_map(sweep):
    return {r.point.point_id: r.per_seed for r in sweep.results}


class TestLeases:
    def test_write_read_clear_roundtrip(self, tmp_path):
        write_lease(tmp_path, "exp/bench/p/seed0", dispatch=2, pid=123)
        leases = read_leases(tmp_path)
        assert len(leases) == 1
        assert leases[0]["task_id"] == "exp/bench/p/seed0"
        assert leases[0]["dispatch"] == 2 and leases[0]["pid"] == 123
        clear_lease(tmp_path, "exp/bench/p/seed0")
        assert read_leases(tmp_path) == []

    def test_clear_missing_lease_is_noop(self, tmp_path):
        clear_lease(tmp_path, "never-written")

    def test_unreadable_lease_skipped(self, tmp_path):
        lease_path(tmp_path, "junk").write_text("not json")
        write_lease(tmp_path, "good", dispatch=1, pid=1)
        leases = read_leases(tmp_path)
        assert [lease["task_id"] for lease in leases] == ["good"]

    def test_torn_beat_keeps_previous_record(self, tmp_path,
                                             monkeypatch):
        """A heartbeat interrupted part-way through its write must not
        cost the task its lease: crash attribution still sees the
        previous record and blames the task."""
        task_id = "exp/bench/p/seed0"
        write_lease(tmp_path, task_id, dispatch=2, pid=123)
        budget = Budget(HealthPolicy())
        budget.begin_task(str(tmp_path), task_id, dispatch=2)
        real_write_text = Path.write_text

        def torn_write_text(self, data, *args, **kwargs):
            real_write_text(self, data[:len(data) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", torn_write_text)
        budget.checkpoint(4096)  # the lost beat is swallowed
        monkeypatch.undo()
        leases = read_leases(tmp_path)
        assert [(lease["task_id"], lease["pid"]) for lease in leases] \
            == [(task_id, 123)]
        assert suspect_task_ids(leases, {123: -int(signal.SIGKILL)}) \
            == [task_id]
        assert list(tmp_path.glob("*.tmp")) == []


class TestCrashAttribution:
    def test_abnormal_exit_blamed(self):
        leases = [{"task_id": "a", "pid": 10},
                  {"task_id": "b", "pid": 11}]
        suspects = suspect_task_ids(
            leases, {10: 87, 11: -int(signal.SIGTERM)})
        assert suspects == ["a"]

    def test_sigterm_and_alive_workers_innocent(self):
        leases = [{"task_id": "a", "pid": 10},
                  {"task_id": "b", "pid": 11}]
        assert suspect_task_ids(
            leases, {10: None, 11: -int(signal.SIGTERM)}) == []

    def test_no_exit_codes_blames_all_leased(self):
        leases = [{"task_id": "a", "pid": 10},
                  {"task_id": "b", "pid": 11}]
        assert suspect_task_ids(leases, {}) == ["a", "b"]

    def test_no_leases_no_suspects(self):
        assert suspect_task_ids([], {}) == []


class TestQuarantineManifest:
    def test_manifest_written_with_records(self, tmp_path):
        quarantine = Quarantine(path=tmp_path / "q" / "poison.json",
                                max_point_retries=1)
        task = {"task_id": "exp/bench/p/seed0", "point_id": "p",
                "benchmark": "bench", "base_seed": 0,
                "derived_seed": 42, "reduction_factor": 12.0,
                "config": {"ruu_size": 16}}
        quarantine.add(task, crashes=2,
                       last_error={"type": "WorkerCrashError",
                                   "message": "died"})
        path = quarantine.write()
        payload = json.loads(path.read_text())
        assert payload["format"] == 1
        assert payload["max_point_retries"] == 1
        (record,) = payload["quarantined"]
        assert record["task_id"] == "exp/bench/p/seed0"
        assert record["config"]["ruu_size"] == 16
        assert record["crashes"] == 2
        assert record["last_error"]["type"] == "WorkerCrashError"

    def test_manifest_written_even_when_empty(self, tmp_path):
        quarantine = Quarantine(path=tmp_path / "poison.json")
        path = quarantine.write()
        assert json.loads(path.read_text())["quarantined"] == []

    def test_no_path_no_write(self):
        assert Quarantine(path=None).write() is None


class TestBrokenPoolRecovery:
    def test_transient_kill_requeued_and_identical(self, profile,
                                                   points, clean):
        plan = ChaosPlan.parse("worker-kill:match=ruu_size=16,attempts=1")
        sweep = SweepEngine(profile, jobs=2, fault_plan=plan,
                            experiment="sup", benchmark="unit").evaluate(
            points, seeds=(0,), reduction_factor=12.0)
        assert all(r.ok for r in sweep.results)
        assert sweep.quarantined == 0
        assert metrics_map(sweep) == metrics_map(clean)

    def test_poison_point_quarantined(self, profile, points, clean,
                                      tmp_path):
        plan = ChaosPlan.parse("worker-kill:match=ruu_size=16")
        engine = SweepEngine(
            profile, jobs=2, fault_plan=plan, experiment="sup",
            benchmark="unit",
            supervisor_policy=SupervisorPolicy(max_point_retries=1),
            quarantine_path=tmp_path / "poison.json")
        sweep = engine.evaluate(points, seeds=(0,),
                                reduction_factor=12.0)
        assert sweep.quarantined == 1
        poisoned = [r for r in sweep.results if r.quarantined_seeds]
        assert len(poisoned) == 1
        assert "ruu_size=16" in poisoned[0].point.point_id
        assert not poisoned[0].ok
        (error,) = poisoned[0].errors
        assert error["type"] == "WorkerCrashError"
        # survivors still byte-identical to the fault-free run
        healthy = metrics_map(sweep)
        del healthy[poisoned[0].point.point_id]
        expected = metrics_map(clean)
        assert all(expected[k] == v for k, v in healthy.items())
        # manifest on disk records the poison point's config
        payload = json.loads((tmp_path / "poison.json").read_text())
        (record,) = payload["quarantined"]
        assert record["config"]["ruu_size"] == 16
        assert record["crashes"] == 2  # initial dispatch + 1 retry
        assert sweep.quarantine_manifest == str(tmp_path / "poison.json")

    def test_serial_fallback_completes_sweep(self, profile, points,
                                             clean):
        plan = ChaosPlan.parse("worker-kill:rate=1")
        sweep = SweepEngine(
            profile, jobs=2, fault_plan=plan, experiment="sup",
            benchmark="unit",
            supervisor_policy=SupervisorPolicy(
                max_point_retries=99, max_pool_rebuilds=0)).evaluate(
            points, seeds=(0,), reduction_factor=12.0)
        assert all(r.ok for r in sweep.results)
        assert metrics_map(sweep) == metrics_map(clean)

    def test_summary_reports_quarantine(self, profile, points):
        plan = ChaosPlan.parse("worker-kill:match=ruu_size=16")
        sweep = SweepEngine(
            profile, jobs=2, fault_plan=plan, experiment="sup",
            benchmark="unit",
            supervisor_policy=SupervisorPolicy(max_point_retries=0)
        ).evaluate(points, seeds=(0,), reduction_factor=12.0)
        assert "1 quarantined" in sweep.summary()
        assert sweep.total_tasks == 3


class TestPolicyValidation:
    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(max_point_retries=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_pool_rebuilds=-1)

    def test_worker_crash_error_retryable(self):
        assert WorkerCrashError("boom").retryable is True
