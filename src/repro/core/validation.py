"""Consistency diagnostics between profile, synthetic trace and
reference.

When a statistical simulation misses, the question is always *which
characteristic* drifted: the block mix, the dependency structure, the
branch characteristics or the cache events.  This module compares the
same quantities at three stages — as profiled (expectation), as
realized in a synthetic trace (sample), and as observed by the
execution-driven reference — and reports the drifts, making accuracy
debugging systematic instead of ad hoc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.branch.unit import BranchOutcome
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.cpu.locality import EV_DL1, EV_IL1, EV_L2D
from repro.core.profiler import StatisticalProfile
from repro.core.synthetic import SyntheticTrace


@dataclass(frozen=True)
class CharacteristicRates:
    """The comparable characteristic set at one stage."""

    load_fraction: float
    branch_fraction: float
    taken_rate: float
    misprediction_rate: float
    redirection_rate: float
    dl1_miss_rate: float
    l2d_miss_rate: float
    il1_miss_rate: float
    dependencies_per_instruction: float
    mean_dependency_distance: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "load_fraction": self.load_fraction,
            "branch_fraction": self.branch_fraction,
            "taken_rate": self.taken_rate,
            "misprediction_rate": self.misprediction_rate,
            "redirection_rate": self.redirection_rate,
            "dl1_miss_rate": self.dl1_miss_rate,
            "l2d_miss_rate": self.l2d_miss_rate,
            "il1_miss_rate": self.il1_miss_rate,
            "dependencies_per_instruction":
                self.dependencies_per_instruction,
            "mean_dependency_distance": self.mean_dependency_distance,
        }


def profile_rates(profile: StatisticalProfile) -> CharacteristicRates:
    """Expected characteristic rates implied by the profile
    (occurrence-weighted over all contexts)."""
    instructions = loads = branches = 0
    taken = mispredicted = redirected = 0
    dl1 = l2d = il1 = 0.0
    dependencies = 0
    distance_mass = 0
    for stats in profile.sfg.contexts.values():
        occurrences = stats.occurrences
        instructions += occurrences * stats.block_size
        branches += occurrences
        taken += stats.taken
        redirected += stats.outcome_counts[
            BranchOutcome.FETCH_REDIRECTION]
        mispredicted += stats.outcome_counts[BranchOutcome.MISPREDICTION]
        for slot, iclass in enumerate(stats.iclasses):
            il1 += stats.il1[slot]
            if iclass is IClass.LOAD:
                loads += occurrences
                dl1 += stats.dl1[slot]
                l2d += stats.l2d[slot]
            for hist in stats.dep_hists[slot]:
                for distance, count in hist.items():
                    dependencies += count
                    distance_mass += distance * count
    return CharacteristicRates(
        load_fraction=loads / max(1, instructions),
        branch_fraction=branches / max(1, instructions),
        taken_rate=taken / max(1, branches),
        misprediction_rate=mispredicted / max(1, branches),
        redirection_rate=redirected / max(1, branches),
        dl1_miss_rate=dl1 / max(1, loads),
        l2d_miss_rate=l2d / max(1.0, dl1),
        il1_miss_rate=il1 / max(1, instructions),
        dependencies_per_instruction=dependencies / max(1, instructions),
        mean_dependency_distance=(distance_mass / dependencies
                                  if dependencies else 0.0),
    )


def synthetic_rates(synthetic: SyntheticTrace) -> CharacteristicRates:
    """Characteristic rates realized in a synthetic trace."""
    instructions = len(synthetic)
    loads = branches = taken = mispredicted = redirected = 0
    dl1 = l2d = il1 = 0
    dependencies = distance_mass = 0
    for (iclass, events, deps, was_taken, outcome), count \
            in synthetic.counted:
        if events & EV_IL1:
            il1 += count
        if iclass is IClass.LOAD:
            loads += count
            if events & EV_DL1:
                dl1 += count
            if events & EV_L2D:
                l2d += count
        if iclass in BRANCH_CLASSES:
            branches += count
            if was_taken:
                taken += count
            if outcome is BranchOutcome.MISPREDICTION:
                mispredicted += count
            elif outcome is BranchOutcome.FETCH_REDIRECTION:
                redirected += count
        dependencies += len(deps) * count
        distance_mass += sum(deps) * count
    return CharacteristicRates(
        load_fraction=loads / max(1, instructions),
        branch_fraction=branches / max(1, instructions),
        taken_rate=taken / max(1, branches),
        misprediction_rate=mispredicted / max(1, branches),
        redirection_rate=redirected / max(1, branches),
        dl1_miss_rate=dl1 / max(1, loads),
        l2d_miss_rate=l2d / max(1, dl1),
        il1_miss_rate=il1 / max(1, instructions),
        dependencies_per_instruction=dependencies / max(1, instructions),
        mean_dependency_distance=(distance_mass / dependencies
                                  if dependencies else 0.0),
    )


def drift_report(profile: StatisticalProfile,
                 synthetic: SyntheticTrace,
                 threshold: float = 0.05) -> Dict[str, Dict[str, float]]:
    """Compare expected vs realized rates.

    Returns, per characteristic, the expected value, the realized value
    and the absolute drift; entries whose drift exceeds *threshold*
    carry ``"flagged": 1.0``.  A flagged drift usually means the
    reduction factor is too aggressive for this characteristic's
    carrier contexts (see DESIGN.md) or the synthetic trace is too
    short for its rare events.
    """
    expected = profile_rates(profile).as_dict()
    realized = synthetic_rates(synthetic).as_dict()
    # Probabilities compare absolutely; instruction-scaled quantities
    # (dependency counts and distances) compare relatively.
    relative_keys = {"dependencies_per_instruction",
                     "mean_dependency_distance"}
    report: Dict[str, Dict[str, float]] = {}
    for key in expected:
        drift = abs(expected[key] - realized[key])
        if key in relative_keys and expected[key] > 0:
            drift /= expected[key]
        entry = {"expected": expected[key], "realized": realized[key],
                 "drift": drift}
        if drift > threshold:
            entry["flagged"] = 1.0
        report[key] = entry
    # Note: a drift on dependencies_per_instruction is expected at any
    # R: step 4's rejection rule squashes a dependency whenever its
    # sampled distance keeps landing on a branch/store in the synthetic
    # layout (the paper's algorithm does the same).
    return report


def format_drift_report(report: Dict[str, Dict[str, float]]) -> str:
    """Render a drift report as a fixed-width table."""
    lines = [f"{'characteristic':30} {'expected':>10} {'realized':>10} "
             f"{'drift':>8}"]
    for key, entry in report.items():
        flag = "  <-- drift" if "flagged" in entry else ""
        lines.append(f"{key:30} {entry['expected']:>10.4f} "
                     f"{entry['realized']:>10.4f} "
                     f"{entry['drift']:>8.4f}{flag}")
    return "\n".join(lines)
