"""Integration tests: the observability layer wired through the
fault-tolerant runner, the CLI and the design-space engine.

The acceptance contract: running any experiment with ``--log-json``
produces a parseable JSON-lines event log plus a ``metrics.json``
snapshot containing per-phase spans, pipeline occupancy gauges and
runner/DSE counters, with retry/timeout events visible in the log.
"""

import json
import time

import pytest

from repro import faults, obs
from repro.cli import main
from repro.experiments.common import ExperimentScale
from repro.faults import ChaosPlan
from repro.runner import RunnerPolicy, TaskRunner, WorkUnit

TINY = ExperimentScale(warmup=2_000, reference=3_000,
                       reduction_factor=4.0, seeds=(0,),
                       benchmarks=("gzip",))


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.reset()
    obs.reset_registry()
    yield
    obs.reset()
    obs.reset_registry()


def read_events(path):
    return [json.loads(line)
            for line in path.read_text().splitlines() if line]


def events_named(records, name):
    return [r for r in records if r["event"] == name]


class TestRunnerEvents:
    def test_retry_events_reach_the_log(self, tmp_path):
        """A transient injected fault produces a unit_retry event and
        bumps the runner.retries counter."""
        log = tmp_path / "events.jsonl"
        obs.configure(console=False, log_json=log)
        runner = TaskRunner(
            policy=RunnerPolicy(max_retries=1, backoff_base=0.0))
        with faults.use(ChaosPlan.parse("task-fail:match=gzip,attempts=1")):
            report = runner.run(
                [WorkUnit(experiment="exp", benchmark="gzip")],
                lambda unit: {"value": 1})
        assert report.summary() == "1 ok / 0 failed / 0 skipped"

        records = read_events(log)
        retries = events_named(records, "unit_retry")
        assert len(retries) == 1
        assert retries[0]["benchmark"] == "gzip"
        assert retries[0]["attempt"] == 1
        assert retries[0]["error"] == "InjectedFaultError"
        assert events_named(records, "unit_ok")
        snap = obs.get_registry().snapshot()
        assert snap["counters"]["runner.retries"] == 1
        assert snap["counters"]["runner.units_ok"] == 1

    def test_timeout_events_reach_the_log(self, tmp_path):
        """A unit over its wall-clock budget emits unit_timeout and the
        terminal failure lands as unit_failed."""
        log = tmp_path / "events.jsonl"
        obs.configure(console=False, log_json=log)
        runner = TaskRunner(
            policy=RunnerPolicy(timeout=0.05, max_retries=0),
            raise_on_total_failure=False)
        report = runner.run(
            [WorkUnit(experiment="exp", benchmark="slow")],
            lambda unit: time.sleep(5))
        assert report.summary() == "0 ok / 1 failed / 0 skipped"

        records = read_events(log)
        timeouts = events_named(records, "unit_timeout")
        assert len(timeouts) == 1
        assert timeouts[0]["benchmark"] == "slow"
        assert timeouts[0]["timeout"] == 0.05
        failed = events_named(records, "unit_failed")
        assert failed and failed[0]["error"] == "TaskTimeoutError"
        snap = obs.get_registry().snapshot()
        assert snap["counters"]["runner.timeouts"] == 1
        assert snap["counters"]["runner.units_failed"] == 1

    def test_run_dir_gets_metrics_snapshot(self, tmp_path):
        runner = TaskRunner(run_dir=tmp_path / "run")
        runner.run([WorkUnit(experiment="exp", benchmark="b")],
                   lambda unit: 1)
        payload = json.loads((tmp_path / "run" /
                              "metrics.json").read_text())
        assert payload["counters"]["runner.units_ok"] == 1


class TestCLIEndToEnd:
    def test_experiment_log_json_and_metrics(self, tmp_path,
                                             monkeypatch, capsys):
        """One faulted experiment run yields: a fully parseable event
        log with a retry, and a metrics.json with the Figure 1 phase
        spans, pipeline occupancy gauges and runner counters."""
        monkeypatch.setenv("REPRO_CHAOS", "task-fail:match=gzip,attempts=1")
        log = tmp_path / "obs" / "events.jsonl"
        code = main(["experiment", "fig6", "--benchmarks", "gzip",
                     "--run-dir", str(tmp_path / "run"),
                     "--retries", "1", "--log-json", str(log)])
        assert code == 0

        records = read_events(log)
        assert records, "event log must not be empty"
        for record in records:
            for field in obs.REQUIRED_FIELDS:
                assert field in record, f"missing {field}: {record}"
        assert events_named(records, "unit_retry")
        span_phases = {r.get("phase") for r in
                       events_named(records, "span_end")}
        assert {"profile", "reduce", "synthesize",
                "simulate"} <= span_phases

        for metrics_path in (log.parent / "metrics.json",
                             tmp_path / "run" / "metrics.json"):
            payload = json.loads(metrics_path.read_text())
            assert {"profile", "reduce", "synthesize",
                    "simulate"} <= set(payload["phases"])
            assert payload["gauges"]["pipeline.ruu_occupancy"] > 0
            assert payload["gauges"]["pipeline.lsq_occupancy"] > 0
            assert payload["gauges"]["pipeline.ifq_occupancy"] > 0
            assert payload["counters"]["runner.retries"] >= 1
            assert payload["counters"]["runner.units_ok"] >= 1
            assert payload["counters"]["pipeline.runs"] >= 1
        # the rendered table still lands on stdout
        assert "gzip" in capsys.readouterr().out

    def test_dse_counters_in_metrics(self, tmp_path, capsys):
        """Two identical cached sweeps: the second run's metrics count
        the cache hits."""
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "name": "obs-tiny", "mode": "grid",
            "parameters": {"ruu_size": [32, 64], "width": [4]},
        }))
        cache = str(tmp_path / "cache")
        metrics = tmp_path / "metrics.json"
        args = ["dse", "--sweep", str(sweep), "--benchmark", "gzip",
                "--seeds", "0", "-R", "4", "--cache-dir", cache,
                "--no-verify", "--metrics", str(metrics)]
        assert main(args) == 0
        cold = json.loads(metrics.read_text())
        assert cold["counters"]["dse.evaluated"] == 2
        assert cold["counters"].get("dse.cache_hits", 0) == 0
        assert cold["counters"]["dse.cache_writes"] == 2
        assert cold["histograms"]["dse.evaluation_seconds"]["count"] == 2

        obs.reset_registry()
        assert main(args) == 0
        warm = json.loads(metrics.read_text())
        assert warm["counters"]["dse.cache_hits"] == 2
        assert warm["counters"]["dse.evaluated"] == 0
        capsys.readouterr()

    def test_quiet_and_verbose_flags(self, tmp_path, capsys):
        """--quiet hides progress; --verbose surfaces debug events."""
        run_dir = str(tmp_path / "run")
        code = main(["-q", "experiment", "table1", "--benchmarks",
                     "gzip", "--run-dir", run_dir])
        quiet_err = capsys.readouterr().err
        assert code == 0
        assert "checkpoints:" not in quiet_err

        code = main(["experiment", "table1", "--benchmarks", "gzip",
                     "--run-dir", run_dir, "--resume", "--verbose"])
        verbose_err = capsys.readouterr().err
        assert code == 0
        assert "resumed from checkpoint" in verbose_err
        assert "run_start" in verbose_err  # debug events surface


class TestSweepPhases:
    def test_sweep_phases_land_in_registry(self):
        from repro.dse.engine import SweepEngine
        from repro.dse.space import SweepSpec
        from repro.dse.study import profile_benchmark
        from repro.obs.tracing import phase_breakdown

        points = SweepSpec.from_dict({
            "name": "obs-sweep", "mode": "grid",
            "parameters": {"ruu_size": [32, 64], "width": [4]},
        }).expand()
        profile, _warm, _trace = profile_benchmark("gzip", TINY)
        before = phase_breakdown()
        # A pool worker's phases stay in the worker; the serial sweep
        # is the one whose synthesis and simulation land here.
        for jobs in (1, 2):
            sweep = SweepEngine(profile, jobs=jobs).evaluate(
                points, seeds=(0,),
                reduction_factor=TINY.reduction_factor)
            assert sweep.failed == 0
        after = phase_breakdown()
        assert after["sweep"]["count"] - \
            before.get("sweep", {}).get("count", 0) == 2
        for phase in ("simulate", "synthesize"):
            stats, prior = after[phase], before.get(phase, {})
            assert stats["count"] - prior.get("count", 0) > 0, phase
            assert stats["total"] - prior.get("total", 0.0) > 0.0, phase
            assert stats["mean"] == pytest.approx(
                stats["total"] / stats["count"])
