"""Section 4.6 — design space exploration with statistical simulation.

The paper sweeps RUU size, LSQ size and decode/issue/commit widths
(1,792 design points), computes the energy-delay product of every point
with statistical simulation, and verifies with execution-driven
simulation that the SS-optimal point is the true optimum or within a
short range of it (7 of 10 benchmarks exact; the rest within 1.24%).

Here the grid is scaled down but the verification protocol is the same,
and it runs on the :mod:`repro.dse` subsystem: one profile serves the
whole grid (window and width do not affect the statistical profile),
every grid point is evaluated through the parallel, cached
:class:`~repro.dse.engine.SweepEngine`, then all points whose SS EDP is
within ``verify_margin`` of the SS optimum are re-evaluated
execution-driven.  Pass ``jobs``/``cache_dir`` to spread the sweep over
worker processes and to skip already-evaluated points across runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.runner import RunnerPolicy, TaskRunner
from repro.dse.analysis import DEFAULT_VERIFY_MARGIN
from repro.dse.space import reduced_sec46_spec
from repro.dse.study import run_study
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    format_table,
    run_per_benchmark,
    suite_config,
    with_report_footer,
)

DEFAULT_RUU = (16, 32, 64, 128)
DEFAULT_LSQ = (8, 16, 32)
DEFAULT_WIDTHS = (2, 4, 8)


def run(benchmark: str = "twolf",
        scale: ExperimentScale = DEFAULT_SCALE,
        ruu_sizes: Sequence[int] = DEFAULT_RUU,
        lsq_sizes: Sequence[int] = DEFAULT_LSQ,
        widths: Sequence[int] = DEFAULT_WIDTHS,
        verify_margin: float = DEFAULT_VERIFY_MARGIN,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        policy: Optional[RunnerPolicy] = None) -> Dict:
    """Explore the grid for one benchmark.

    Returns the SS-optimal design, the EDS-verified optimum among the
    candidate region, and the EDS EDP gap between them (0.0 when SS
    found the true optimum, as it does for most benchmarks in the
    paper), plus the sweep's execution accounting (evaluations, cache
    hits, wall-clock, worker count).
    """
    spec = reduced_sec46_spec(ruu_sizes, lsq_sizes, widths)
    study = run_study(spec, benchmark, scale, jobs=jobs,
                      cache_dir=cache_dir, policy=policy,
                      verify_margin=verify_margin,
                      base_config=suite_config())
    return study.to_row()


def run_suite(benchmarks: Sequence[str] = ("twolf", "gzip", "parser"),
              scale: ExperimentScale = DEFAULT_SCALE,
              runner: Optional[TaskRunner] = None) -> List[Dict]:
    """One default-grid exploration per benchmark, each as an
    independent work unit of the fault-tolerant runner (a 100+-point
    grid is exactly the long batch job that must survive one benchmark
    crashing).  Within a benchmark, the :mod:`repro.dse` engine
    additionally applies timeout/retry/caching per design point."""
    return run_per_benchmark(
        "sec46", scale, lambda name, sc: run(name, scale=sc),
        runner=runner, benchmarks=benchmarks)


def format_rows(rows: List[Dict]) -> str:
    table = format_table(
        ["benchmark", "grid", "verified", "SS optimum",
         "EDS optimum", "found", "EDP gap", "evals", "cached"],
        [(r["benchmark"], r["grid_points"], r["candidates_verified"],
          r["ss_optimal"], r["eds_optimal_in_region"],
          "yes" if r["found_optimal"] else "no",
          f"{r['edp_gap'] * 100:.2f}%",
          r.get("evaluations", "-"), r.get("cached_evaluations", "-"))
         for r in rows],
    )
    return with_report_footer(table, rows)


if __name__ == "__main__":  # pragma: no cover
    print(format_rows(run_suite()))
