"""Instruction-set layer: instruction classes, static programs, basic blocks.

The paper profiles Alpha binaries; we substitute a small RISC-style ISA
rich enough to exercise every mechanism the methodology depends on:
the 12 semantic instruction classes of section 2.1.1, register operands
(for dependency-distance profiling; at most
:data:`~repro.isa.instruction.MAX_SOURCES` sources, the fixed width of
a dynamic trace's source column), memory operands
(for cache profiling) and conditional/indirect control flow (for branch
profiling).  Executed instructions live in
:class:`~repro.frontend.trace.Trace` columns, not here.
"""

from repro.isa.iclass import (
    IClass,
    BRANCH_CLASSES,
    CONDITIONAL_BRANCH_CLASSES,
    MEMORY_CLASSES,
    PRODUCING_CLASSES,
    execution_latency,
    functional_unit,
)
from repro.isa.instruction import StaticInstruction
from repro.isa.program import BasicBlock, Program

__all__ = [
    "IClass",
    "BRANCH_CLASSES",
    "CONDITIONAL_BRANCH_CLASSES",
    "MEMORY_CLASSES",
    "PRODUCING_CLASSES",
    "execution_latency",
    "functional_unit",
    "StaticInstruction",
    "BasicBlock",
    "Program",
]
