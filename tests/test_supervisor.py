"""Worker supervision: BrokenProcessPool recovery, poison-point
quarantine, serial-fallback degradation, and the lease files and crash
attribution underneath."""

import json
import signal
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.config import baseline_config
from repro.core.profiler import profile_trace
from repro.errors import WorkerCrashError
from repro import faults
from repro.faults import ChaosPlan
from repro.frontend.functional import run_program
from repro.workloads.generator import WorkloadConfig, generate_program
from repro.dse import SweepEngine, SweepSpec, SupervisorPolicy
from repro.dse.supervisor import (
    PoolSupervisor,
    Quarantine,
    suspect_task_ids,
)
from repro.health.budget import Budget, HealthPolicy
from repro.runner import RunnerPolicy
from repro.runner.lease import (
    clear_lease,
    lease_path,
    pid_alive,
    read_leases,
    remove_orphan_lease_dirs,
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
    sweep = SweepEngine(profile, jobs=2,
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

    def test_orphan_lease_dirs_of_dead_owners_removed(self, tmp_path):
        import os
        import subprocess
        import sys

        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        assert not pid_alive(dead.pid)
        orphan = tmp_path / f"repro-leases-{dead.pid}-x1"
        live = tmp_path / f"repro-leases-{os.getpid()}-x2"
        unnamed = tmp_path / "repro-leases-abc_12"
        for path in (orphan, live, unnamed):
            path.mkdir()
        write_lease(orphan, "t", pid=dead.pid)
        remove_orphan_lease_dirs(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == sorted([live.name, unnamed.name])

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
        with faults.use(plan):
            sweep = SweepEngine(profile, jobs=2, experiment="sup",
                                benchmark="unit").evaluate(
                points, seeds=(0,), reduction_factor=12.0)
        assert all(r.ok for r in sweep.results)
        assert sweep.quarantined == 0
        assert metrics_map(sweep) == metrics_map(clean)

    def test_poison_point_quarantined(self, profile, points, clean,
                                      tmp_path):
        plan = ChaosPlan.parse("worker-kill:match=ruu_size=16")
        engine = SweepEngine(
            profile, jobs=2, experiment="sup", benchmark="unit",
            supervisor_policy=SupervisorPolicy(max_point_retries=1),
            quarantine_path=tmp_path / "poison.json")
        with faults.use(plan):
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
        engine = SweepEngine(
            profile, jobs=2, experiment="sup", benchmark="unit",
            supervisor_policy=SupervisorPolicy(
                max_point_retries=99, max_pool_rebuilds=0))
        with faults.use(plan):
            sweep = engine.evaluate(points, seeds=(0,),
                                    reduction_factor=12.0)
        assert all(r.ok for r in sweep.results)
        assert metrics_map(sweep) == metrics_map(clean)

    def test_summary_reports_quarantine(self, profile, points):
        plan = ChaosPlan.parse("worker-kill:match=ruu_size=16")
        engine = SweepEngine(
            profile, jobs=2, experiment="sup", benchmark="unit",
            supervisor_policy=SupervisorPolicy(max_point_retries=0))
        with faults.use(plan):
            sweep = engine.evaluate(points, seeds=(0,),
                                    reduction_factor=12.0)
        assert "1 quarantined" in sweep.summary()
        assert sweep.total_tasks == 3


class _BreaksOnSecondSubmit:
    """A pool whose first task's worker dies before the second task is
    submitted: that submit raises, as ``ProcessPoolExecutor`` does."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        if self.submitted > 1:
            raise BrokenProcessPool("worker died")
        future = Future()
        future.set_exception(BrokenProcessPool("worker died"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        return None


class TestBrokenSubmit:
    def test_unsent_tasks_requeued_not_blamed(self):
        tasks = [{"task_id": f"t{i}"} for i in range(3)]
        supervisor = PoolSupervisor(
            _BreaksOnSecondSubmit, task_fn=None,
            runner_policy=RunnerPolicy(),
            policy=SupervisorPolicy(max_pool_rebuilds=0),
            serial_fn=lambda batch: [{"task": task, "status": "ok"}
                                     for task in batch])
        outcomes = supervisor.run(tasks)
        assert sorted(o["task"]["task_id"] for o in outcomes) == \
            ["t0", "t1", "t2"]
        assert all(o["status"] == "ok" for o in outcomes)
        assert "t1" not in supervisor.crashes
        assert "t2" not in supervisor.crashes


class TestPolicyValidation:
    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(max_point_retries=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_pool_rebuilds=-1)

    def test_worker_crash_error_retryable(self):
        assert WorkerCrashError("boom").retryable is True


class TestSerialFallbackInterrupt:
    def test_interrupted_fallback_keeps_its_finished_work(self):
        """Ctrl-C inside the serial fallback: the evaluations the
        fallback finished travel on the supervisor's SweepInterrupted
        with everything else it collected."""
        from repro.errors import SweepInterrupted

        def no_pool():
            raise OSError("no processes left")

        def finish_one_then_interrupt(batch):
            raise SweepInterrupted([{"task": batch[0], "status": "ok"}])

        supervisor = PoolSupervisor(
            no_pool, task_fn=None, runner_policy=RunnerPolicy(),
            serial_fn=finish_one_then_interrupt)
        with pytest.raises(SweepInterrupted) as interrupt:
            supervisor.run([{"task_id": "t0"}, {"task_id": "t1"}])
        assert [o["task"]["task_id"]
                for o in interrupt.value.outcomes] == ["t0"]
