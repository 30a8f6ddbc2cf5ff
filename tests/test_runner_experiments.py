"""Acceptance tests: experiments routed through the fault-tolerant
runner degrade gracefully under fault injection and resume from a run
directory, which serves only results computed from the same inputs."""

from dataclasses import replace

import pytest

from repro import faults
from repro.cli import main
from repro.errors import ProfileError, SimulationError, SynthesisError
from repro.experiments import fig6_absolute, table1_baseline, \
    table4_relative
from repro.experiments.common import ExperimentScale, run_per_benchmark
from repro.faults import ChaosPlan
from repro.runner import RunnerPolicy, TaskRunner

TINY = ExperimentScale(warmup=2000, reference=4000, reduction_factor=4.0,
                       seeds=(0,), benchmarks=("gzip", "twolf"))


class TestGracefulDegradation:
    def test_fault_injected_run_completes_with_summary(self, tmp_path):
        """One benchmark forced to fail: the experiment completes, the
        summary reports the failure, and the rendered table drops the
        failed row with an explicit warning."""
        runner = TaskRunner(policy=RunnerPolicy(max_retries=0),
                            run_dir=tmp_path / "run")
        with faults.use(ChaosPlan.parse("task-fail:match=gzip")):
            rows = table1_baseline.run(TINY, runner=runner)

        assert [row["benchmark"] for row in rows] == ["twolf"]
        assert rows.report.summary() == "1 ok / 1 failed / 0 skipped"

        text = table1_baseline.format_rows(rows)
        table_lines = [line for line in text.splitlines()
                       if not line.startswith(("WARNING", "run summary"))]
        assert not any("gzip" in line for line in table_lines)
        assert "WARNING: table1/gzip failed" in text
        assert "run summary: 1 ok / 1 failed / 0 skipped" in text

    def test_resume_reruns_only_failed_units(self, tmp_path):
        """Second invocation on the same run directory: the previously
        ok benchmark is skipped (loaded from its stored result), only
        the failed one re-runs, and the full table comes out."""
        run_dir = tmp_path / "run"
        first = TaskRunner(policy=RunnerPolicy(max_retries=0),
                           run_dir=run_dir)
        with faults.use(ChaosPlan.parse("task-fail:match=gzip")):
            table1_baseline.run(TINY, runner=first)

        second = TaskRunner(run_dir=run_dir)
        rows = table1_baseline.run(TINY, runner=second)

        statuses = {outcome.benchmark: outcome.status
                    for outcome in rows.report.outcomes}
        assert statuses == {"gzip": "ok", "twolf": "skipped"}
        assert {row["benchmark"] for row in rows} == {"gzip", "twolf"}
        text = table1_baseline.format_rows(rows)
        assert "WARNING" not in text
        assert "run summary: 1 ok / 0 failed / 1 skipped" in text

    def test_resumed_rows_numerically_match(self, tmp_path):
        """Stored results round-trip exactly through JSON."""
        run_dir = tmp_path / "run"
        fresh = table1_baseline.run(
            TINY, runner=TaskRunner(run_dir=run_dir))
        resumed = table1_baseline.run(
            TINY, runner=TaskRunner(run_dir=run_dir))
        assert list(fresh) == list(resumed)

    def test_transient_fault_recovers_via_retry(self):
        """A fault injected only on the first attempt is absorbed by
        the retry budget: every row is produced."""
        runner = TaskRunner(
            policy=RunnerPolicy(max_retries=1, backoff_base=0.0))
        with faults.use(ChaosPlan.parse("task-fail:match=gzip,attempts=1")):
            rows = table1_baseline.run(TINY, runner=runner)
        assert {row["benchmark"] for row in rows} == {"gzip", "twolf"}
        attempts = {outcome.benchmark: outcome.attempts
                    for outcome in rows.report.outcomes}
        assert attempts["gzip"] == 2 and attempts["twolf"] == 1

    def test_prepare_suite_contains_failures(self):
        from repro.experiments.common import prepare_suite

        runner = TaskRunner(policy=RunnerPolicy(max_retries=0))
        with faults.use(ChaosPlan.parse("task-fail:match=gzip")):
            suite = prepare_suite(TINY, runner=runner)
        assert set(suite) == {"twolf"}
        assert suite.report.summary() == "1 ok / 1 failed / 0 skipped"

    def test_fig6_degrades_too(self):
        runner = TaskRunner(policy=RunnerPolicy(max_retries=0))
        with faults.use(ChaosPlan.parse("task-fail:match=twolf")):
            rows = fig6_absolute.run(TINY, runner=runner)
        assert [row["benchmark"] for row in rows] == ["gzip"]
        text = fig6_absolute.format_rows(rows)
        assert "WARNING: fig6/twolf failed" in text
        assert "average errors" in text


class TestStaleResume:
    """A run directory serves a unit only under the inputs it was
    computed from; entries for other inputs stay reusable."""

    @staticmethod
    def _probe(run_dir, scale, calls):
        def unit_fn(name, sc):
            calls.append((name, sc.reference))
            return {"benchmark": name, "reference": sc.reference}

        return run_per_benchmark(
            "probe", scale, unit_fn,
            runner=TaskRunner(run_dir=run_dir),
            benchmarks=("gzip",))

    @staticmethod
    def _statuses(rows):
        return [outcome.status for outcome in rows.report.outcomes]

    def test_changed_scale_reruns_the_unit(self, tmp_path):
        calls = []
        first = self._probe(tmp_path, replace(TINY, reference=1), calls)
        second = self._probe(tmp_path, replace(TINY, reference=2), calls)
        assert self._statuses(second) == ["ok"]
        assert list(second) == [{"benchmark": "gzip", "reference": 2}]
        again = self._probe(tmp_path, replace(TINY, reference=1), calls)
        assert self._statuses(again) == ["skipped"]
        assert list(again) == list(first)
        assert calls == [("gzip", 1), ("gzip", 2)]

    def test_same_inputs_come_back_skipped(self, tmp_path):
        calls = []
        first = self._probe(tmp_path, TINY, calls)
        second = self._probe(tmp_path, TINY, calls)
        assert self._statuses(first) == ["ok"]
        assert self._statuses(second) == ["skipped"]
        assert list(second) == list(first)
        assert len(calls) == 1

    def test_changed_points_rerun_table4(self, tmp_path):
        scale = TINY.with_benchmarks(["gzip"])

        def run(window_points):
            return table4_relative.run(
                scale, sweeps=("window",),
                points={"window": window_points},
                runner=TaskRunner(run_dir=tmp_path))

        first = run((16, 32))
        second = run((32, 64))
        assert self._statuses(second) == ["ok"]
        assert {row["transition"] for row in second} == {"32 -> 64"}
        again = run((16, 32))
        assert self._statuses(again) == ["skipped"]
        assert list(again) == list(first)


class TestCLI:
    def test_experiment_fault_injection_and_resume(self, tmp_path,
                                                   capsys, monkeypatch):
        run_dir = tmp_path / "run"
        monkeypatch.setenv("REPRO_CHAOS", "task-fail:match=gzip")
        code = main(["experiment", "table1", "--benchmarks",
                     "gzip,twolf", "--run-dir", str(run_dir),
                     "--retries", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "WARNING: table1/gzip failed" in captured.out
        assert "1 ok / 1 failed / 0 skipped" in captured.out

        monkeypatch.delenv("REPRO_CHAOS")
        code = main(["experiment", "table1", "--benchmarks",
                     "gzip,twolf", "--run-dir", str(run_dir),
                     "--resume"])
        captured = capsys.readouterr()
        assert code == 0
        assert "WARNING" not in captured.out
        assert "gzip" in captured.out and "twolf" in captured.out
        assert "resumed from checkpoint" in captured.err

    def test_resume_requires_run_dir(self, capsys):
        assert main(["experiment", "table1", "--resume"]) == 2
        assert "--run-dir" in capsys.readouterr().err

    def test_unknown_benchmark_rejected(self, capsys):
        code = main(["experiment", "table1", "--benchmarks", "nosuch"])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_negative_instructions_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "gzip", "--instructions", "-5"])
        assert "positive integer" in capsys.readouterr().err

    def test_negative_warmup_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "gzip", "--warmup", "-1"])
        assert "non-negative" in capsys.readouterr().err

    def test_zero_reduction_factor_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "gzip", "-R", "0"])
        assert "positive number" in capsys.readouterr().err

    def test_zero_order_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "gzip", "-o", "x.json", "-k", "0"])
        assert "positive integer" in capsys.readouterr().err


class TestApiValidation:
    def test_run_statistical_simulation_rejects_bad_inputs(
            self, small_trace, config):
        from repro.core.framework import run_statistical_simulation

        with pytest.raises(SynthesisError, match="reduction_factor"):
            run_statistical_simulation(small_trace, config,
                                       reduction_factor=0)
        with pytest.raises(ProfileError, match="order"):
            run_statistical_simulation(small_trace, config, order=-1)

    def test_pipeline_rejects_unusable_config(self, config):
        from dataclasses import replace

        from repro.cpu.pipeline import SuperscalarPipeline

        # fetch_speed is not validated by MachineConfig itself; a zero
        # fetch width would livelock the fetch stage.
        broken = replace(config, fetch_speed=0)
        with pytest.raises(SimulationError, match="fetch_width"):
            SuperscalarPipeline(broken, source=None)

    @pytest.mark.parametrize("knob", ["int_alus", "load_store_units",
                                      "fp_adders", "int_mult_divs",
                                      "fp_mult_divs"])
    def test_pipeline_rejects_zero_functional_units(self, config, knob):
        from dataclasses import replace

        from repro.cpu.pipeline import SuperscalarPipeline

        # MachineConfig accepts a zero unit count, and a sweep spec can
        # set one; the class it serves would then never issue.
        broken = replace(config, **{knob: 0})
        with pytest.raises(SimulationError, match=knob):
            SuperscalarPipeline(broken, source=None)
