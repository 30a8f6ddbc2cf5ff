"""Table 4 — relative accuracy of statistical simulation across
architectural sweeps: window size, processor width, IFQ size, branch
predictor size and cache size.

For each sweep step A -> B and each metric M, the relative error is

    RE = |(M_B,SS / M_A,SS) - (M_B,EDS / M_A,EDS)| / (M_B,EDS / M_A,EDS)

averaged over benchmarks.  Reproduction target: relative errors are
small (the paper reports generally < 3%) — statistical simulation
tracks *trends*, which is what makes it a design-space exploration tool.

Re-profiling: window and width sweeps reuse one statistical profile
(the profile does not depend on those parameters), so they follow the
paper's Figure 1 flow: profile once, synthesize one trace per seed, then
simulate those traces at every design point.  The points also share the
traces' priced fetch slots, since window and width leave every latency
unchanged.  IFQ, branch-predictor and cache sweeps re-profile per design
point, exactly the trade-off the paper notes in section 4.4, and
generate and simulate one trace per seed at a time.  A re-profile
repeats only what its point changes: every sweep plans all its points'
locality in one batch, so one program-order walk drives every cache
geometry of a cache sweep (:func:`~repro.cpu.locality.plan_locality`),
and the profiles share one skeleton and, across a cache sweep, one
branch annotation (:mod:`repro.core.profiler`).  Each ``(sweep,
benchmark)`` runner unit plans its own batch, so a resumed unit
rebuilds exactly what it needs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.core.framework import (
    run_execution_driven,
    simulate_synthetic_trace,
)
from repro.core.metrics import relative_error
from repro.core.profiler import StatisticalProfile, profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.core.synthetic import SyntheticTrace
from repro.cpu.locality import plan_locality
from repro.cpu.results import SimulationResult
from repro.power.wattch import PowerBreakdown
from repro.runner import ResultRows, TaskRunner, WorkUnit
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    format_table,
    mean,
    prepare_benchmark,
    suite_config,
    with_report_footer,
)

#: Metrics per sweep, following the paper's Table 4 sub-tables.
WINDOW_METRICS = ("ipc", "ruu_occupancy", "lsq_occupancy", "epc",
                  "ruu_power", "lsq_power")
WIDTH_METRICS = ("ipc", "execution_bandwidth", "epc", "fetch_power",
                 "dispatch_power", "issue_power")
IFQ_METRICS = ("ipc", "epc", "ifq_occupancy")
BPRED_METRICS = ("ipc", "epc", "ruu_occupancy", "ruu_power",
                 "lsq_occupancy", "lsq_power", "ifq_occupancy",
                 "fetch_power", "bpred_power")
CACHE_METRICS = ("ipc", "epc", "ruu_occupancy", "ruu_power",
                 "lsq_occupancy", "lsq_power", "ifq_occupancy",
                 "fetch_power", "il1_power", "dl1_power", "l2_power")

#: The paper's sweep points.
WINDOW_POINTS = (8, 16, 32, 48, 64, 96, 128)
WIDTH_POINTS = (2, 4, 6, 8)
IFQ_POINTS = (4, 8, 16, 32)
SCALE_POINTS = (0.25, 0.5, 1.0, 2.0, 4.0)


def collect_metrics(result: SimulationResult,
                    power: PowerBreakdown) -> Dict[str, float]:
    """Flatten a simulation outcome into Table 4's metric namespace."""
    return {
        "ipc": result.ipc,
        "epc": power.total,
        "ruu_occupancy": result.avg_ruu_occupancy,
        "lsq_occupancy": result.avg_lsq_occupancy,
        "ifq_occupancy": result.avg_ifq_occupancy,
        "execution_bandwidth": result.execution_bandwidth,
        "ruu_power": power.unit("ruu"),
        "lsq_power": power.unit("lsq"),
        "fetch_power": power.unit("fetch"),
        "dispatch_power": power.unit("dispatch"),
        "issue_power": power.unit("issue"),
        "bpred_power": power.unit("bpred"),
        "il1_power": power.unit("il1"),
        "dl1_power": power.unit("dl1"),
        "l2_power": power.unit("l2"),
    }


def _sweep_definitions(points: Optional[Dict[str, Sequence]] = None):
    """Sweep name -> (points, config builder, label fn, needs_reprofile,
    metrics)."""
    base = suite_config()
    chosen = points or {}

    def window_config(ruu: int) -> MachineConfig:
        return base.with_window(ruu_size=ruu, lsq_size=max(4, ruu // 2))

    return {
        "window": (chosen.get("window", WINDOW_POINTS), window_config,
                   lambda p: str(p), False, WINDOW_METRICS),
        "width": (chosen.get("width", WIDTH_POINTS), base.with_width,
                  lambda p: str(p), False, WIDTH_METRICS),
        "ifq": (chosen.get("ifq", IFQ_POINTS), base.with_ifq,
                lambda p: str(p), True, IFQ_METRICS),
        "bpred": (chosen.get("bpred", SCALE_POINTS),
                  base.with_predictor_scale,
                  lambda p: f"base*{p:g}", True, BPRED_METRICS),
        "cache": (chosen.get("cache", SCALE_POINTS),
                  base.with_cache_scale,
                  lambda p: f"base*{p:g}", True, CACHE_METRICS),
    }


def _synthesize(profile: StatisticalProfile, scale: ExperimentScale
                ) -> Iterable[SyntheticTrace]:
    """One synthetic trace per seed of *scale*, generated lazily."""
    return (generate_synthetic_trace(profile, scale.reduction_factor,
                                     seed=seed)
            for seed in scale.seeds)


def _measure(trace, warm, config: MachineConfig, scale: ExperimentScale,
             synthetics: Optional[Sequence[SyntheticTrace]] = None
             ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """EDS and SS metric dicts for one (benchmark, design point).  SS
    simulates *synthetics*, one per seed, when the sweep shares them;
    otherwise it profiles at *config* and synthesizes one trace per
    seed."""
    result, power = run_execution_driven(trace, config, warmup_trace=warm)
    eds = collect_metrics(result, power)
    if synthetics is None:
        profile = profile_trace(trace, config, order=1,
                                branch_mode="delayed", warmup_trace=warm)
        synthetics = _synthesize(profile, scale)
    ss_samples = [collect_metrics(*simulate_synthetic_trace(synthetic,
                                                            config))
                  for synthetic in synthetics]
    ss = {key: mean([s[key] for s in ss_samples]) for key in ss_samples[0]}
    return eds, ss


def _measure_sweep_benchmark(name: str, sweep: str,
                             scale: ExperimentScale,
                             definitions) -> List[List[Dict]]:
    """All design-point measurements of one benchmark along one sweep:
    ``[[eds_metrics, ss_metrics], ...]`` per sweep point (the unit a
    run directory stores, hence plain JSON lists).  All points'
    locality is resolved in one walk, done by the first run that needs
    it.  A sweep that reuses one profile synthesizes its seeds' traces
    once, for every point."""
    sweep_points, builder, label, reprofile, metrics = definitions[sweep]
    warm, trace = prepare_benchmark(name, scale)
    plan_locality(trace, [builder(point) for point in sweep_points], warm)
    synthetics = None
    if not reprofile:
        base_profile = profile_trace(trace, builder(sweep_points[0]),
                                     order=1, branch_mode="delayed",
                                     warmup_trace=warm)
        synthetics = list(_synthesize(base_profile, scale))
    return [list(_measure(trace, warm, builder(point), scale,
                          synthetics))
            for point in sweep_points]


def run(scale: ExperimentScale = DEFAULT_SCALE,
        sweeps: Sequence[str] = ("window", "width", "ifq", "bpred",
                                 "cache"),
        points: Optional[Dict[str, Sequence]] = None,
        runner: Optional[TaskRunner] = None) -> List[Dict]:
    """Rows: sweep, transition label, metric, mean relative error.

    Every ``(sweep, benchmark)`` pair is one work unit of the
    fault-tolerant runner: a failing benchmark is dropped from that
    sweep's averages (with a warning in the rendered table) rather
    than aborting the whole experiment, and a runner with a run
    directory resumes a killed sweep without re-measuring finished
    pairs measured at the same scale and points.
    """
    definitions = _sweep_definitions(points)
    runner = runner if runner is not None else TaskRunner()
    units = [WorkUnit("table4", benchmark=name,
                      params=(("sweep", sweep),))
             for sweep in sweeps for name in scale.benchmarks]
    report = runner.run(
        units,
        lambda unit: _measure_sweep_benchmark(
            unit.benchmark, dict(unit.params)["sweep"], scale,
            definitions),
        inputs={**scale.unit_inputs(),
                "points": {sweep: list(definitions[sweep][0])
                           for sweep in sweeps}})
    # measurements[sweep][benchmark][point_index] -> [eds, ss]
    unit_sweeps = {unit.unit_id: dict(unit.params)["sweep"]
                   for unit in units}
    per_sweep: Dict[str, Dict[str, List[List[Dict]]]] = \
        {sweep: {} for sweep in sweeps}
    for outcome in report.outcomes:
        if outcome.status == "failed" or outcome.result is None:
            continue
        sweep = unit_sweeps[outcome.unit_id]
        per_sweep[sweep][outcome.benchmark] = outcome.result

    rows: List[Dict] = []
    for sweep in sweeps:
        sweep_points, builder, label, reprofile, metrics = \
            definitions[sweep]
        measurements = per_sweep[sweep]
        for i in range(len(sweep_points) - 1):
            transition = f"{label(sweep_points[i])} -> " \
                         f"{label(sweep_points[i + 1])}"
            for metric in metrics:
                errors = []
                for name in measurements:
                    eds_a, ss_a = measurements[name][i]
                    eds_b, ss_b = measurements[name][i + 1]
                    if 0 in (eds_a[metric], eds_b[metric],
                             ss_a[metric]):
                        continue
                    errors.append(relative_error(
                        ss_a[metric], ss_b[metric],
                        eds_a[metric], eds_b[metric]))
                if errors:
                    rows.append({
                        "sweep": sweep,
                        "transition": transition,
                        "metric": metric,
                        "relative_error": mean(errors),
                    })
    return ResultRows(rows, report=report)


def average_by_sweep(rows: List[Dict]) -> Dict[str, float]:
    sweeps = {row["sweep"] for row in rows}
    return {sweep: mean([r["relative_error"] for r in rows
                         if r["sweep"] == sweep])
            for sweep in sweeps}


def format_rows(rows: List[Dict]) -> str:
    table = format_table(
        ["sweep", "transition", "metric", "relative error"],
        [(r["sweep"], r["transition"], r["metric"],
          f"{r['relative_error'] * 100:.2f}%") for r in rows],
    )
    averages = average_by_sweep(rows)
    footer = "averages: " + "  ".join(
        f"{sweep} {value * 100:.2f}%"
        for sweep, value in sorted(averages.items()))
    return with_report_footer(table + "\n" + footer, rows)


if __name__ == "__main__":  # pragma: no cover
    print(format_rows(run()))
