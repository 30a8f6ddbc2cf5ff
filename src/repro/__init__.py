"""repro — statistical simulation with control-flow modeling.

A full reproduction of *Control Flow Modeling in Statistical Simulation
for Accurate and Efficient Processor Design Studies* (Eeckhout, Bell,
Stougie, De Bosschere, John — ISCA 2004): statistical flow graphs,
delayed-update branch profiling, synthetic trace generation, and the
complete simulation substrate (workloads, functional frontend, branch
predictors, caches, an out-of-order superscalar core and a Wattch-style
power model) needed to evaluate it.

Quickstart::

    from repro import (baseline_config, build_benchmark, run_program,
                       run_statistical_simulation, run_execution_driven)

    program = build_benchmark("gzip")
    trace = run_program(program, n_instructions=50_000)
    config = baseline_config()

    reference, _ = run_execution_driven(trace, config)
    report = run_statistical_simulation(trace, config, order=1,
                                        reduction_factor=10)
    print(reference.ipc, report.ipc)
"""

from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    MachineConfig,
    TLBConfig,
    baseline_config,
    simplescalar_default_config,
)
from repro.errors import (
    ArtifactCorruptError,
    InjectedFaultError,
    ProfileError,
    ReproError,
    SimulationError,
    SynthesisError,
    TaskTimeoutError,
)
from repro.runner import (
    RunnerPolicy,
    RunReport,
    TaskRunner,
    WorkUnit,
)
from repro.isa import IClass, Program, BasicBlock
from repro.workloads import (
    SPEC_INT_2000,
    WorkloadConfig,
    benchmark_names,
    build_benchmark,
    build_suite,
    generate_program,
)
from repro.frontend import Trace, run_program, split_intervals
from repro.branch import (
    BranchOutcome,
    BranchPredictorUnit,
    profile_branches_delayed,
    profile_branches_immediate,
)
from repro.cache import CacheHierarchy
# repro.core before repro.cpu: cpu.locality takes its dependency-distance
# cap from core.sfg, and core's own modules import cpu.locality.
from repro.core import (
    StatisticalFlowGraph,
    StatisticalProfile,
    StatisticalSimulationReport,
    SyntheticTrace,
    absolute_error,
    coefficient_of_variation,
    generate_synthetic_trace,
    profile_trace,
    reduce_flow_graph,
    relative_error,
    run_execution_driven,
    run_statistical_simulation,
    simulate_synthetic_trace,
)
from repro.cpu import (
    ExecutionDrivenSource,
    PreannotatedSource,
    SimulationResult,
    simulate,
)
from repro.power import WattchPowerModel, energy_delay_product

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "MachineConfig", "CacheConfig", "TLBConfig", "BranchPredictorConfig",
    "baseline_config", "simplescalar_default_config",
    # ISA / workloads
    "IClass", "Program", "BasicBlock", "WorkloadConfig",
    "generate_program", "SPEC_INT_2000", "benchmark_names",
    "build_benchmark", "build_suite",
    # frontend
    "Trace", "run_program", "split_intervals",
    # substrates
    "BranchOutcome", "BranchPredictorUnit",
    "profile_branches_immediate", "profile_branches_delayed",
    "CacheHierarchy",
    "ExecutionDrivenSource", "PreannotatedSource", "SimulationResult",
    "simulate", "WattchPowerModel", "energy_delay_product",
    # core methodology
    "StatisticalFlowGraph", "StatisticalProfile", "SyntheticTrace",
    "StatisticalSimulationReport", "profile_trace", "reduce_flow_graph",
    "generate_synthetic_trace", "simulate_synthetic_trace",
    "run_statistical_simulation", "run_execution_driven",
    "absolute_error", "relative_error", "coefficient_of_variation",
    # errors
    "ReproError", "ProfileError", "SynthesisError", "SimulationError",
    "ArtifactCorruptError", "TaskTimeoutError", "InjectedFaultError",
    # fault-tolerant runner
    "TaskRunner", "RunnerPolicy", "RunReport", "WorkUnit",
]
