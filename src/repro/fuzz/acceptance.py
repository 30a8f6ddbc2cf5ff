"""Statistical acceptance: do synthetic traces converge to the profile?

For each fuzz case the harness runs the paper's full loop —
profile → reduce → synthesize — and then asserts the *synthetic*
statistics converge to the *profiled* ones within configurable
tolerances:

* instruction mix, per class: max absolute deviation of the class
  fraction, plus one chi-square goodness-of-fit check across classes
  (critical value via the Wilson–Hilferty cube approximation, so no
  scipy dependency);
* dependency-distance distribution, over log2 buckets;
* branch characteristics: taken / misprediction / redirection rates;
* cache characteristics: IL1, DL1 and L2-data miss rates.

Every tolerance scales with the synthetic trace length: a statistic
realized over ``n`` samples gets ``base + scale * sqrt(p*(1-p)/n)``,
i.e. the binomial standard error times a configurable multiplier, so
short reduced traces are judged more leniently than long ones and the
harness stays deterministic (no re-rolls, no flaky thresholds).

Known modeling slack is encoded, not hidden: synthesis step 4 rejects a
dependency whenever its sampled distance lands on a branch/store slot
(the paper's rule), so the dependency checks carry a looser base
tolerance than the mix and rate checks — see ``dep_max_dev``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.profiler import StatisticalProfile
from repro.core.synthetic import SyntheticTrace
from repro.core.validation import profile_rates, synthetic_rates
from repro.cpu.locality import EV_DL1
from repro.isa.iclass import BRANCH_CLASSES, IClass

#: Dependency distances are bucketed at powers of two: 1, 2, (2,4],
#: (4,8], ... (256,512].  Coarse enough to be stable at fuzz-trace
#: lengths, fine enough to catch a broken distance sampler.
_DEP_BUCKET_EDGES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class ToleranceConfig:
    """Acceptance tolerances (all deviations are absolute fractions)."""

    #: Base tolerance for per-class instruction-mix fractions.
    mix_max_dev: float = 0.05
    #: Base tolerance for branch and cache rates.
    rate_max_dev: float = 0.05
    #: Base tolerance for dependency-distance bucket fractions
    #: (looser: synthesis rejection legitimately reshapes the tail).
    dep_max_dev: float = 0.08
    #: z-score for the chi-square critical value (Wilson–Hilferty).
    chi_square_z: float = 4.0
    #: Multiplier on the binomial standard error sqrt(p*(1-p)/n).
    scale: float = 4.0

    def effective(self, base: float, p: float, n: int) -> float:
        """Length-scaled tolerance for a fraction ``p`` over ``n`` draws."""
        variance = max(p * (1.0 - p), 1e-6)
        return base + self.scale * math.sqrt(variance / max(1, n))


def chi_square_critical(df: int, z: float) -> float:
    """Wilson–Hilferty approximation of the chi-square quantile at
    normal deviate *z* (z=4 ≈ the 0.99997 quantile)."""
    if df <= 0:
        return 0.0
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


@dataclass(frozen=True)
class StatisticCheck:
    """One statistic compared between profile and synthetic trace."""

    name: str
    metric: str  # "max_abs_deviation" or "chi_square"
    expected: float
    realized: float
    deviation: float
    tolerance: float
    passed: bool

    @property
    def margin(self) -> float:
        """Headroom before failure (negative = failed)."""
        return self.tolerance - self.deviation


@dataclass
class AcceptanceReport:
    """All acceptance checks for one profile/synthetic pair."""

    checks: List[StatisticCheck] = field(default_factory=list)
    synthetic_instructions: int = 0

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> List[StatisticCheck]:
        return [check for check in self.checks if not check.passed]

    def summary(self) -> str:
        if self.passed:
            return f"all {len(self.checks)} statistics within tolerance"
        parts = [f"{check.name}: |{check.realized:.4f} - "
                 f"{check.expected:.4f}| > {check.tolerance:.4f}"
                 for check in self.failures[:4]]
        return f"{len(self.failures)} statistic(s) out of tolerance: " \
               + "; ".join(parts)


def _profile_mix(profile: StatisticalProfile) -> Tuple[Dict[IClass, float], int]:
    """Occurrence-weighted instruction-class fractions of the profile."""
    counts: Dict[IClass, int] = {}
    total = 0
    for stats in profile.sfg.contexts.values():
        occurrences = stats.occurrences
        for iclass in stats.iclasses:
            counts[iclass] = counts.get(iclass, 0) + occurrences
            total += occurrences
    return ({iclass: count / total for iclass, count in counts.items()}
            if total else {}, total)


def _synthetic_mix(synthetic: SyntheticTrace) -> Tuple[Dict[IClass, float], int]:
    counts: Dict[IClass, int] = {}
    for entry, count in synthetic.counted:
        counts[entry[0]] = counts.get(entry[0], 0) + count
    total = len(synthetic)
    return ({iclass: count / total for iclass, count in counts.items()}
            if total else {}, total)


def _dep_bucket(distance: int) -> int:
    for index, edge in enumerate(_DEP_BUCKET_EDGES):
        if distance <= edge:
            return index
    return len(_DEP_BUCKET_EDGES) - 1


def _profile_dep_buckets(profile: StatisticalProfile) -> Dict[int, int]:
    buckets: Dict[int, int] = {}
    for stats in profile.sfg.contexts.values():
        for slot in range(stats.block_size):
            for hist in stats.dep_hists[slot]:
                for distance, count in hist.items():
                    bucket = _dep_bucket(distance)
                    buckets[bucket] = buckets.get(bucket, 0) + count
    return buckets


def _synthetic_dep_buckets(synthetic: SyntheticTrace) -> Dict[int, int]:
    buckets: Dict[int, int] = {}
    for entry, count in synthetic.counted:
        for distance in entry[2]:
            bucket = _dep_bucket(distance)
            buckets[bucket] = buckets.get(bucket, 0) + count
    return buckets


def _bucket_name(index: int) -> str:
    low = 0 if index == 0 else _DEP_BUCKET_EDGES[index - 1]
    high = _DEP_BUCKET_EDGES[index]
    if high - low <= 1:
        return f"dep_dist[{high}]"
    return f"dep_dist[({low},{high}]]"


def acceptance_report(profile: StatisticalProfile,
                      synthetic: SyntheticTrace,
                      tolerances: ToleranceConfig = ToleranceConfig()
                      ) -> AcceptanceReport:
    """Compare *synthetic* against *profile* statistic by statistic."""
    checks: List[StatisticCheck] = []
    n = len(synthetic)

    # --- instruction mix, per class + chi-square across classes -----
    expected_mix, _ = _profile_mix(profile)
    realized_mix, _ = _synthetic_mix(synthetic)
    chi_square = 0.0
    chi_square_df = 0
    for iclass in sorted(set(expected_mix) | set(realized_mix),
                         key=int):
        p = expected_mix.get(iclass, 0.0)
        q = realized_mix.get(iclass, 0.0)
        deviation = abs(p - q)
        tolerance = tolerances.effective(tolerances.mix_max_dev, p, n)
        checks.append(StatisticCheck(
            name=f"mix[{iclass.name}]", metric="max_abs_deviation",
            expected=p, realized=q, deviation=deviation,
            tolerance=tolerance, passed=deviation <= tolerance))
        expected_count = p * n
        if expected_count >= 5.0:
            chi_square += (q * n - expected_count) ** 2 / expected_count
            chi_square_df += 1
    if chi_square_df > 1:
        critical = chi_square_critical(chi_square_df - 1,
                                       tolerances.chi_square_z)
        checks.append(StatisticCheck(
            name="mix[chi_square]", metric="chi_square",
            expected=critical, realized=chi_square,
            deviation=chi_square, tolerance=critical,
            passed=chi_square <= critical))

    # --- dependency-distance distribution over log2 buckets ---------
    expected_buckets = _profile_dep_buckets(profile)
    realized_buckets = _synthetic_dep_buckets(synthetic)
    expected_total = sum(expected_buckets.values())
    realized_total = sum(realized_buckets.values())
    if expected_total and realized_total:
        for bucket in sorted(set(expected_buckets) | set(realized_buckets)):
            p = expected_buckets.get(bucket, 0) / expected_total
            q = realized_buckets.get(bucket, 0) / realized_total
            deviation = abs(p - q)
            tolerance = tolerances.effective(tolerances.dep_max_dev, p,
                                             realized_total)
            checks.append(StatisticCheck(
                name=_bucket_name(bucket), metric="max_abs_deviation",
                expected=p, realized=q, deviation=deviation,
                tolerance=tolerance, passed=deviation <= tolerance))

    # --- branch and cache rates -------------------------------------
    expected_rates = profile_rates(profile).as_dict()
    realized_rates = synthetic_rates(synthetic).as_dict()
    branches = sum(count for entry, count in synthetic.counted
                   if entry[0] in BRANCH_CLASSES)
    loads = sum(count for entry, count in synthetic.counted
                if entry[0] is IClass.LOAD)
    dl1_misses = sum(count for entry, count in synthetic.counted
                     if entry[0] is IClass.LOAD and entry[1] & EV_DL1)
    rate_samples = {
        "taken_rate": branches,
        "misprediction_rate": branches,
        "redirection_rate": branches,
        "il1_miss_rate": n,
        "dl1_miss_rate": loads,
        "l2d_miss_rate": dl1_misses,
    }
    for name, samples in rate_samples.items():
        if samples <= 0:
            continue  # the statistic never realized; nothing to judge
        p = expected_rates[name]
        q = realized_rates[name]
        deviation = abs(p - q)
        tolerance = tolerances.effective(tolerances.rate_max_dev, p,
                                         samples)
        checks.append(StatisticCheck(
            name=name, metric="max_abs_deviation",
            expected=p, realized=q, deviation=deviation,
            tolerance=tolerance, passed=deviation <= tolerance))

    return AcceptanceReport(checks=checks, synthetic_instructions=n)
