"""The paper's primary contribution: statistical simulation with a
statistical flow graph (SFG) and delayed-update branch profiling.

Pipeline (paper Figure 1):

1. :mod:`repro.core.profiler` measures a :class:`StatisticalProfile`
   containing an order-k :class:`StatisticalFlowGraph` annotated with
   instruction types, operand counts, dependency-distance distributions,
   and per-context branch/cache characteristics.
2. :mod:`repro.core.reduction` divides node occurrences by the synthetic
   trace reduction factor R.
3. :mod:`repro.core.synthesis` random-walks the reduced graph to emit a
   :class:`SyntheticTrace` (the nine-step algorithm of section 2.2).
4. :mod:`repro.core.framework` simulates the synthetic trace on the
   shared out-of-order pipeline and reports IPC / EPC / EDP.
"""

from repro.core.sfg import ContextStats, StatisticalFlowGraph
from repro.core.profiler import StatisticalProfile, profile_trace
from repro.core.reduction import ReducedFlowGraph, reduce_flow_graph
from repro.core.synthesis import generate_synthetic_trace
from repro.core.synthetic import SyntheticInstruction, SyntheticTrace
from repro.core.framework import (
    StatisticalSimulationReport,
    run_execution_driven,
    run_statistical_simulation,
    simulate_synthetic_trace,
)
from repro.core.metrics import (
    absolute_error,
    coefficient_of_variation,
    relative_error,
)
from repro.core.analysis import (
    hottest_contexts,
    reduced_connectivity,
    to_networkx,
    transition_entropy,
)
from repro.core.serialization import (
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)

__all__ = [
    "StatisticalFlowGraph",
    "ContextStats",
    "StatisticalProfile",
    "profile_trace",
    "ReducedFlowGraph",
    "reduce_flow_graph",
    "generate_synthetic_trace",
    "SyntheticInstruction",
    "SyntheticTrace",
    "StatisticalSimulationReport",
    "run_statistical_simulation",
    "run_execution_driven",
    "simulate_synthetic_trace",
    "absolute_error",
    "relative_error",
    "coefficient_of_variation",
    "to_networkx",
    "transition_entropy",
    "reduced_connectivity",
    "hottest_contexts",
    "profile_to_dict",
    "profile_from_dict",
    "save_profile",
    "load_profile",
]
