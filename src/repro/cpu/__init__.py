"""Trace-driven superscalar out-of-order core (sim-outorder stand-in).

One cycle-accurate pipeline (:mod:`repro.cpu.pipeline`) serves as both of
the paper's simulators:

* fed by an :class:`~repro.cpu.source.ExecutionDrivenSource`, it is the
  execution-driven *reference* simulator — warm caches resolve every
  locality event from real addresses (once per cache geometry,
  :mod:`repro.cpu.locality`), and a live branch predictor looks up at
  fetch and updates speculatively at dispatch;
* fed by a :class:`~repro.cpu.source.PreannotatedSource` (or a
  :class:`~repro.cpu.source.ColumnarSource`), it is the
  *synthetic-trace* simulator of paper section 2.3 — no caches or
  predictors, all outcomes pre-assigned by the trace generator.

This makes the paper's statement that the two simulators share their
cycle model literal, so accuracy comparisons measure the statistical
methodology rather than model drift.  The pipeline does not step
cycles: nothing younger ever delays anything older, so it times each
instruction once, in program order, and stays cycle-for-cycle
identical to the frozen cycle-stepped :mod:`repro.cpu.reference`.
"""

from repro.cpu.source import (
    ExecutionDrivenSource,
    FetchSlot,
    InstructionSource,
    PreannotatedSource,
)
from repro.cpu.pipeline import SuperscalarPipeline, simulate
from repro.cpu.results import SimulationResult

__all__ = [
    "FetchSlot",
    "InstructionSource",
    "ExecutionDrivenSource",
    "PreannotatedSource",
    "SuperscalarPipeline",
    "SimulationResult",
    "simulate",
]
