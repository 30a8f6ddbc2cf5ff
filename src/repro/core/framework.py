"""End-to-end statistical simulation API (paper Figure 1).

``run_statistical_simulation`` chains profiling, reduction, synthesis and
synthetic-trace simulation; ``run_execution_driven`` runs the reference
simulator on the same trace.  Both return power along with performance,
so callers compute the paper's metrics (IPC, EPC, EDP) directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import MachineConfig
from repro.errors import ProfileError, SynthesisError
from repro.obs.tracing import trace_span
from repro.frontend.trace import Trace
from repro.cpu.pipeline import simulate
from repro.cpu.results import SimulationResult
from repro.cpu.source import ExecutionDrivenSource, PreannotatedSource
from repro.power.wattch import (
    PowerBreakdown,
    WattchPowerModel,
    energy_delay_product,
)
from repro.core.profiler import StatisticalProfile, profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.core.synthetic import SyntheticTrace

#: The paper's typical synthetic trace reduction factors range from
#: 1,000 to 100,000; scaled to our shorter reference streams we default
#: to a modest factor.
DEFAULT_REDUCTION_FACTOR = 10.0


@dataclass
class StatisticalSimulationReport:
    """Everything produced by one statistical simulation run."""

    profile: StatisticalProfile
    synthetic_trace: SyntheticTrace
    result: SimulationResult
    power: PowerBreakdown

    @property
    def ipc(self) -> float:
        return self.result.ipc

    @property
    def epc(self) -> float:
        return self.power.total

    @property
    def edp(self) -> float:
        return energy_delay_product(self.epc, self.ipc)


def run_execution_driven(
    trace: Trace,
    config: MachineConfig,
    perfect_caches: bool = False,
    perfect_branch_prediction: bool = False,
    warmup_trace: Optional[Trace] = None,
) -> Tuple[SimulationResult, PowerBreakdown]:
    """Reference simulation: the shared pipeline fed the real dynamic
    trace, its locality resolved through the caches and its branches
    through a live predictor.  *warmup_trace*, if given, functionally
    warms caches and predictor first (the paper measures warm samples
    out of long executions); the warm resolution is shared by every
    run with the same cache geometry."""
    with trace_span("simulate", bench=trace.name, mode="execution"):
        source = ExecutionDrivenSource(
            trace, config,
            perfect_caches=perfect_caches,
            perfect_branch_prediction=perfect_branch_prediction,
            warmup_trace=warmup_trace,
        )
        result = simulate(config, source)
        power = WattchPowerModel(config).energy_per_cycle(result)
    return result, power


def simulate_synthetic_trace(
    synthetic: SyntheticTrace, config: MachineConfig
) -> Tuple[SimulationResult, PowerBreakdown]:
    """Synthetic-trace simulation (paper section 2.3): the shared
    pipeline consuming pre-annotated slots, no caches, no predictors."""
    with trace_span("simulate", bench=synthetic.name, mode="synthetic"):
        source = PreannotatedSource(synthetic.to_fetch_slots(config))
        result = simulate(config, source)
        power = WattchPowerModel(config).energy_per_cycle(result)
    return result, power


def simulate_columnar_trace(
    columnar, config: MachineConfig
) -> Tuple[SimulationResult, PowerBreakdown]:
    """Synthetic-trace simulation from a columnar trace: the pipeline
    consumes rows built from the trace's numpy columns (no
    per-instruction FetchSlot objects)."""
    from repro.cpu.source import ColumnarSource

    with trace_span("simulate", bench=columnar.name, mode="synthetic"):
        result = simulate(config, ColumnarSource(columnar, config))
        power = WattchPowerModel(config).energy_per_cycle(result)
    return result, power


def run_statistical_simulation(
    trace: Trace,
    config: MachineConfig,
    order: int = 1,
    reduction_factor: float = DEFAULT_REDUCTION_FACTOR,
    seed: int = 0,
    branch_mode: str = "delayed",
    perfect_caches: bool = False,
    profile: Optional[StatisticalProfile] = None,
    warmup_trace: Optional[Trace] = None,
    include_anti_dependencies: bool = False,
    vector: bool = False,
) -> StatisticalSimulationReport:
    """Full statistical simulation of *trace* on *config*.

    Pass a pre-computed *profile* to amortize profiling across several
    synthesis seeds or microarchitecture-independent sweeps (window,
    width and functional units do not change the profile; caches,
    predictor and IFQ size do — re-profile for those, as the paper notes
    in section 4.4).

    *vector* routes synthesis and simulation through the columnar batch
    kernels (:mod:`repro.core.columnar`): same distributions and same
    pipeline semantics, different (statistically equivalent) draw
    sequence — see docs/performance.md.  The report's
    ``synthetic_trace`` is materialized from the columns either way.
    """
    if reduction_factor <= 0:
        raise SynthesisError(
            f"reduction_factor must be positive, got "
            f"{reduction_factor!r}")
    if order < 0:
        raise ProfileError(f"order must be >= 0, got {order!r}")
    if profile is None:
        profile = profile_trace(trace, config, order=order,
                                branch_mode=branch_mode,
                                perfect_caches=perfect_caches,
                                warmup_trace=warmup_trace)
    if vector:
        from repro.core.columnar import generate_columnar_trace

        columnar = generate_columnar_trace(
            profile, reduction_factor, seed=seed,
            include_anti_dependencies=include_anti_dependencies)
        result, power = simulate_columnar_trace(columnar, config)
        synthetic = columnar.to_synthetic_trace()
    else:
        synthetic = generate_synthetic_trace(
            profile, reduction_factor, seed=seed,
            include_anti_dependencies=include_anti_dependencies)
        result, power = simulate_synthetic_trace(synthetic, config)
    return StatisticalSimulationReport(
        profile=profile,
        synthetic_trace=synthetic,
        result=result,
        power=power,
    )
