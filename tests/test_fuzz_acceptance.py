"""Statistical acceptance: convergence checks and tolerance scaling."""

import pytest

from repro.config import baseline_config
from repro.core.profiler import profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.core.synthetic import SyntheticTrace
from repro.cpu.locality import EV_LOCALITY
from repro.frontend.functional import run_program
from repro.fuzz.acceptance import (
    ToleranceConfig,
    acceptance_report,
    chi_square_critical,
)
from repro.fuzz.generator import random_case
from repro.isa.iclass import BRANCH_CLASSES, IClass


@pytest.fixture(scope="module")
def profile_and_synthetic():
    case = random_case(seed=7, index=2)
    config = case.machine_config()
    trace = run_program(case.program(), 3000)
    profile = profile_trace(trace, config, order=1)
    synthetic = generate_synthetic_trace(profile, 4.0, seed=3)
    return profile, synthetic


class TestAcceptance:
    def test_faithful_synthesis_passes(self, profile_and_synthetic):
        profile, synthetic = profile_and_synthetic
        report = acceptance_report(profile, synthetic)
        assert report.passed, report.summary()
        assert report.synthetic_instructions == len(synthetic)
        names = {check.name for check in report.checks}
        assert any(name.startswith("mix[") for name in names)
        assert "taken_rate" in names

    def test_margins_are_positive_when_passing(self,
                                               profile_and_synthetic):
        profile, synthetic = profile_and_synthetic
        report = acceptance_report(profile, synthetic)
        for check in report.checks:
            assert check.margin >= 0.0, check.name

    def test_tampered_mix_fails(self, profile_and_synthetic):
        profile, synthetic = profile_and_synthetic
        # Rewrite every non-branch instruction to INT_ALU: the realized
        # mix no longer matches the profile.
        entries = [
            entry if entry[0] in BRANCH_CLASSES
            else (IClass.INT_ALU, entry[1] & EV_LOCALITY) + entry[2:]
            for entry in map(synthetic.distinct.__getitem__,
                             synthetic.keys)]
        tampered = SyntheticTrace.from_entries(
            synthetic.name, entries, synthetic.order,
            synthetic.reduction_factor, synthetic.seed)
        report = acceptance_report(profile, tampered)
        assert not report.passed
        failing = {check.name for check in report.failures}
        assert any(name.startswith("mix[") for name in failing)
        assert "out of tolerance" in report.summary()

    def test_report_serializes(self, profile_and_synthetic):
        profile, synthetic = profile_and_synthetic
        data = acceptance_report(profile, synthetic).to_dict()
        assert data["passed"] in (True, False)
        assert data["checks"]
        assert {"name", "deviation", "tolerance",
                "margin"} <= set(data["checks"][0])


class TestToleranceModel:
    def test_tolerance_shrinks_with_length(self):
        tolerances = ToleranceConfig()
        loose = tolerances.effective(0.05, p=0.3, n=100)
        tight = tolerances.effective(0.05, p=0.3, n=10_000)
        assert loose > tight > 0.05

    def test_tolerance_floor_for_degenerate_p(self):
        tolerances = ToleranceConfig()
        # p=0 or 1 still gets a non-zero statistical allowance.
        assert tolerances.effective(0.05, p=0.0, n=100) > 0.05
        assert tolerances.effective(0.05, p=1.0, n=100) > 0.05

    def test_chi_square_critical_grows_with_df(self):
        values = [chi_square_critical(df, z=4.0)
                  for df in (1, 2, 5, 10)]
        assert values == sorted(values)
        assert values[0] > 0

    def test_chi_square_critical_reasonable(self):
        # z=3 is the one-sided 0.99865 normal quantile; the matching
        # chi2(df=4) quantile is about 18.2.
        assert chi_square_critical(4, z=3.0) == pytest.approx(18.2,
                                                              rel=0.05)
