"""Functional-simulation frontend: executes programs into dynamic traces.

This plays the role of SimpleScalar's functional simulation in the paper:
it produces the dynamic instruction stream that statistical profiling and
execution-driven simulation both consume (paper Figure 1, step 1).  A
stream is a :class:`Trace`, one numpy column per instruction field,
written a block at a time by the :class:`FunctionalSimulator`; nothing
downstream sees a per-instruction object.
"""

from repro.frontend.functional import FunctionalSimulator, run_program
from repro.frontend.trace import Trace, split_intervals
from repro.frontend.warming import (
    run_program_with_warmup,
    warm_locality_structures,
)
from repro.frontend.tracefile import load_trace, save_trace

__all__ = [
    "FunctionalSimulator",
    "run_program",
    "run_program_with_warmup",
    "warm_locality_structures",
    "Trace",
    "split_intervals",
    "save_trace",
    "load_trace",
]
