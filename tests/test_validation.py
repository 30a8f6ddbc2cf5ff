"""Tests for the profile/synthetic consistency diagnostics."""

import pytest

from repro.core.profiler import profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.core.validation import (
    drift_report,
    format_drift_report,
    profile_rates,
    synthetic_rates,
)


@pytest.fixture
def profile(small_trace, config):
    return profile_trace(small_trace, config, order=1)


@pytest.fixture
def synthetic(profile):
    return generate_synthetic_trace(profile, 2, seed=0)


class TestProfileRates:
    def test_rates_are_probabilities(self, profile):
        rates = profile_rates(profile)
        for key, value in rates.as_dict().items():
            if key.endswith(("fraction", "rate")):
                assert 0.0 <= value <= 1.0, key

    def test_load_fraction_matches_trace(self, profile, small_trace):
        rates = profile_rates(profile)
        # The profile covers the trace minus a possible partial block.
        from repro.isa.iclass import IClass

        mix = small_trace.instruction_mix()
        assert rates.load_fraction == pytest.approx(
            mix.get(IClass.LOAD, 0.0), abs=0.02)

    def test_taken_rate_in_sane_band(self, profile):
        assert 0.2 < profile_rates(profile).taken_rate < 1.0


class TestSyntheticRates:
    def test_dependency_statistics(self, synthetic):
        rates = synthetic_rates(synthetic)
        assert rates.dependencies_per_instruction > 0
        assert rates.mean_dependency_distance >= 1.0


class TestDriftReport:
    def test_low_reduction_low_drift(self, profile):
        synthetic = generate_synthetic_trace(profile, 1, seed=0)
        report = drift_report(profile, synthetic, threshold=0.08)
        # Mix, branch and distance characteristics reproduce closely at
        # R=1; dependency *counts* legitimately drift (step 4 squashes
        # dependencies whose sampled producer lands on a branch/store).
        core_keys = ("load_fraction", "branch_fraction", "taken_rate",
                     "misprediction_rate", "mean_dependency_distance")
        for key in core_keys:
            assert "flagged" not in report[key], (key, report[key])

    def test_dependency_squashing_is_visible(self, profile):
        # The diagnostic exists to surface exactly this effect.
        synthetic = generate_synthetic_trace(profile, 1, seed=0)
        report = drift_report(profile, synthetic)
        entry = report["dependencies_per_instruction"]
        assert entry["realized"] <= entry["expected"]

    def test_report_structure(self, profile, synthetic):
        report = drift_report(profile, synthetic)
        for key, entry in report.items():
            absolute = abs(entry["expected"] - entry["realized"])
            if key in ("dependencies_per_instruction",
                       "mean_dependency_distance") and entry["expected"]:
                assert entry["drift"] == pytest.approx(
                    absolute / entry["expected"])
            else:
                assert entry["drift"] == pytest.approx(absolute)

    def test_formatting(self, profile, synthetic):
        text = format_drift_report(drift_report(profile, synthetic))
        assert "load_fraction" in text
        assert "expected" in text
