"""Shared experiment plumbing: scales, prepared workloads, formatting.

The paper simulates 100M-instruction SimPoint samples of SPEC binaries;
our substrate is a pure-Python simulator, so experiments run on scaled
windows (tens of thousands of instructions, see DESIGN.md).  An
:class:`ExperimentScale` bundles the scaling knobs so every experiment
can be run quick (CI-sized) or full (paper-shaped).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig, baseline_config
from repro.obs.tracing import trace_span
from repro.frontend.trace import Trace
from repro.frontend.warming import run_program_with_warmup
from repro.runner import (
    ResultRows,
    TaskRunner,
    WorkUnit,
    report_footer,
)
from repro.workloads.spec import benchmark_names, build_benchmark


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs for one experiment run.

    ``warmup`` instructions bring each workload's behaviour and the
    locality structures to steady state (the paper skips 1B
    instructions); ``reference`` instructions form the measurement
    window (the paper's 100M samples); ``reduction_factor`` is the
    synthetic trace reduction factor R; ``seeds`` are the synthesis
    seeds averaged per estimate.
    """

    warmup: int = 40_000
    reference: int = 60_000
    reduction_factor: float = 6.0
    seeds: Tuple[int, ...] = (0, 1, 2)
    benchmarks: Tuple[str, ...] = field(
        default_factory=lambda: tuple(benchmark_names()))

    def with_benchmarks(self, names: Sequence[str]) -> "ExperimentScale":
        return replace(self, benchmarks=tuple(names))

    def unit_inputs(self) -> Dict[str, Any]:
        """The fields a per-benchmark work unit reads (its benchmark is
        in the unit id), for :meth:`~repro.runner.TaskRunner.run`."""
        return {"warmup": self.warmup, "reference": self.reference,
                "reduction_factor": self.reduction_factor,
                "seeds": list(self.seeds)}


DEFAULT_SCALE = ExperimentScale()

#: A CI-sized scale: one third the window, two seeds, five benchmarks
#: spanning the suite's personality range.
QUICK_SCALE = ExperimentScale(
    warmup=20_000,
    reference=20_000,
    reduction_factor=4.0,
    seeds=(0, 1),
    benchmarks=("bzip2", "eon", "gzip", "parser", "twolf"),
)


def bench_scale() -> ExperimentScale:
    """Scale used by the benchmark harness: QUICK by default, DEFAULT
    when the environment sets ``REPRO_BENCH_SCALE=full``."""
    if os.environ.get("REPRO_BENCH_SCALE", "").lower() == "full":
        return DEFAULT_SCALE
    return QUICK_SCALE


def prepare_benchmark(name: str,
                      scale: ExperimentScale) -> Tuple[Trace, Trace]:
    """Return ``(warmup_trace, reference_trace)`` for one workload."""
    with trace_span("prepare", bench=name):
        program = build_benchmark(name)
        return run_program_with_warmup(program, warmup=scale.warmup,
                                       n_instructions=scale.reference)


class PreparedSuite(Dict[str, Tuple[Trace, Trace]]):
    """Benchmark name -> (warmup, reference) windows, plus the
    :class:`~repro.runner.RunReport` of the preparation pass."""

    report = None


def prepare_suite(scale: ExperimentScale,
                  runner: Optional[TaskRunner] = None) -> PreparedSuite:
    """Prepared (warmup, reference) windows for every scale benchmark.

    Preparation runs through the fault-tolerant runner (traces are not
    stored in a run directory): a workload that fails to
    build or execute is dropped from the suite with its failure
    recorded on ``suite.report`` instead of aborting every experiment
    that shares the suite.
    """
    runner = runner if runner is not None else TaskRunner()
    units = [WorkUnit(experiment="prepare", benchmark=name)
             for name in scale.benchmarks]
    report = runner.run(
        units, lambda unit: prepare_benchmark(unit.benchmark, scale))
    suite = PreparedSuite()
    for outcome in report.outcomes:
        if outcome.status != "failed" and outcome.result is not None:
            suite[outcome.benchmark] = outcome.result
    suite.report = report
    return suite


def suite_config() -> MachineConfig:
    """The Table 2 baseline configuration."""
    return baseline_config()


def run_per_benchmark(experiment: str,
                      scale: ExperimentScale,
                      unit_fn: Callable[[str, ExperimentScale], object],
                      runner: Optional[TaskRunner] = None,
                      benchmarks: Optional[Sequence[str]] = None
                      ) -> ResultRows:
    """Execute ``unit_fn(benchmark, scale)`` per benchmark through the
    fault-tolerant runner.

    Each benchmark is one :class:`~repro.runner.WorkUnit`: an exception
    in one benchmark no longer aborts the suite — the unit is retried
    (when retryable), then recorded as a structured failure and dropped
    from the returned rows, with the :class:`~repro.runner.RunReport`
    attached as ``rows.report`` so renderers can surface warnings and
    the ``N ok / M failed / K skipped`` summary.  Pass a *runner* with
    a run directory to reuse units finished there by an earlier run of
    the same scale (the only input ``unit_fn`` may read besides the
    benchmark).

    ``unit_fn`` may return one row dict or a list of row dicts; the
    value must be JSON-serializable to be stored.
    """
    runner = runner if runner is not None else TaskRunner()
    names = tuple(benchmarks) if benchmarks is not None \
        else scale.benchmarks
    units = [WorkUnit(experiment=experiment, benchmark=name)
             for name in names]
    report = runner.run(
        units, lambda unit: unit_fn(unit.benchmark, scale),
        inputs=scale.unit_inputs())
    rows: List[Dict] = []
    for result in report.results:
        if isinstance(result, list):
            rows.extend(result)
        elif result is not None:
            rows.append(result)
    return ResultRows(rows, report=report)


def with_report_footer(table: str, rows: Sequence[Dict]) -> str:
    """Append degradation warnings / run summary to a rendered table."""
    footer = report_footer(rows)
    return table + "\n" + footer if footer else table


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render rows as a fixed-width text table for bench output."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def geometric_spread(values: Sequence[float]) -> float:
    """max/min ratio (used to sanity-check IPC spread in tests)."""
    lo, hi = min(values), max(values)
    if lo <= 0:
        raise ValueError("values must be positive")
    return hi / lo


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("empty sequence")
    return sum(values) / len(values)
