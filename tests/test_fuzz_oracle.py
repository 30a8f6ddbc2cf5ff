"""Differential oracle: identical pipelines, injected skew, logs."""

from repro.config import baseline_config
from repro.cpu.pipeline import SuperscalarPipeline
from repro.cpu.reference import ReferencePipeline
from repro.cpu.source import ExecutionDrivenSource
from repro import faults
from repro.faults import ChaosPlan
from repro.frontend.functional import run_program
from repro.fuzz.generator import random_case
from repro.fuzz.oracle import diff_program, diff_synthetic


def _small_case():
    return random_case(seed=7, index=1)


class TestIdenticalPipelines:
    def test_diff_program_reports_identical(self):
        case = _small_case()
        report = diff_program(case.program(), case.machine_config(),
                              1000, warmup=case.warmup)
        assert report.identical
        assert not report.field_diffs
        assert report.first_retirement_divergence is None
        assert not report.skew_injected
        assert report.summary() == "pipelines identical"

    def test_commit_logs_match_and_are_real_path_only(self):
        case = _small_case()
        config = case.machine_config()
        trace = run_program(case.program(), 800)
        ref_log, opt_log = [], []
        ref = ReferencePipeline(
            config, ExecutionDrivenSource(trace, config)).run(
            commit_log=ref_log)
        opt = SuperscalarPipeline(
            config, ExecutionDrivenSource(trace, config)).run(
            commit_log=opt_log)
        assert ref_log == opt_log
        assert len(ref_log) == ref.instructions == opt.instructions
        # Retirement order: cycles non-decreasing.
        cycles = [cycle for cycle, _ in ref_log]
        assert cycles == sorted(cycles)

    def test_diff_slots_on_synthetic_stream(self):
        from repro.core.profiler import profile_trace
        from repro.core.synthesis import generate_synthetic_trace

        case = _small_case()
        config = case.machine_config()
        trace = run_program(case.program(), 1500)
        profile = profile_trace(trace, config, order=1)
        synthetic = generate_synthetic_trace(profile, 3.0, seed=2)
        report = diff_synthetic(synthetic, config)
        assert report.identical


class TestInjectedSkew:
    def test_skew_is_caught_and_flagged(self):
        case = _small_case()
        plan = ChaosPlan.parse("seed=1;pipeline-skew:rate=1.0")
        with faults.use(plan):
            report = diff_program(case.program(), case.machine_config(),
                                  600, token=case.case_id)
        assert not report.identical
        assert report.skew_injected
        fields = {diff.field for diff in report.field_diffs}
        assert "cycles" in fields
        assert report.first_retirement_divergence is not None
        assert "injected skew" in report.summary()

    def test_skew_keyed_by_token(self):
        case = _small_case()
        plan = ChaosPlan.parse(
            "seed=1;pipeline-skew:rate=1.0,match=other-case")
        with faults.use(plan):
            report = diff_program(case.program(), case.machine_config(),
                                  600, token=case.case_id)
        assert report.identical  # match excludes this token

    def test_report_round_trips_to_dict(self):
        case = _small_case()
        plan = ChaosPlan.parse("seed=1;pipeline-skew:rate=1.0")
        with faults.use(plan):
            report = diff_program(case.program(), case.machine_config(),
                                  600, token=case.case_id)
        data = report.to_dict()
        assert data["identical"] is False
        assert data["skew_injected"] is True
        assert data["field_diffs"][0]["field"] == "cycles"
