"""Static instruction representation.

A :class:`StaticInstruction` is one slot of a basic block in a program's
static code.  Executed instructions have no object form: the functional
simulator (:mod:`repro.frontend.functional`) writes them as the columns
of a :class:`~repro.frontend.trace.Trace`, gathered from a copy of these
static fields made once per program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.isa.iclass import BRANCH_CLASSES, PRODUCING_CLASSES, IClass

#: Most source registers an instruction may name: the fixed width of a
#: dynamic trace's source-register column.
MAX_SOURCES = 4


@dataclass(frozen=True)
class StaticInstruction:
    """One instruction slot of a basic block.

    Parameters
    ----------
    iclass:
        Semantic instruction class.
    src_regs:
        Architectural source register numbers (0..63).  The paper records
        the *number* of source operands per instruction and a dependency
        distance per operand; both are derived from these registers during
        profiling.
    dst_reg:
        Destination register, or ``None`` for branches and stores.
    mem_stream:
        For loads/stores: index of the memory-stream generator (in the
        owning program) that produces this instruction's effective
        addresses.  ``None`` for non-memory instructions.
    """

    iclass: IClass
    src_regs: Tuple[int, ...] = field(default=())
    dst_reg: Optional[int] = None
    mem_stream: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.src_regs) > MAX_SOURCES:
            raise ValueError(
                f"{len(self.src_regs)} source registers exceed the limit "
                f"of {MAX_SOURCES}")
        if self.dst_reg is not None and self.iclass not in PRODUCING_CLASSES:
            raise ValueError(
                f"{self.iclass.name} cannot have a destination register"
            )
        if self.iclass in BRANCH_CLASSES and self.dst_reg is not None:
            raise ValueError("branches have no destination operand")

    @property
    def is_branch(self) -> bool:
        return self.iclass in BRANCH_CLASSES

    @property
    def is_load(self) -> bool:
        return self.iclass is IClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.iclass is IClass.STORE

    @property
    def produces_register(self) -> bool:
        return self.dst_reg is not None
