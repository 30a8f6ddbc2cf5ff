"""Dynamic traces: one numpy column per instruction field."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.isa.instruction import MAX_SOURCES

#: Per IClass code: does it end a basic block.
IS_BRANCH = np.array([c in BRANCH_CLASSES for c in IClass])

_ICLASSES = list(IClass)

#: The columns of a trace, in constructor order.
FIELDS = ("pc", "iclass", "bb_id", "src_regs", "dst_reg", "mem_addr",
          "taken", "target")


class Trace:
    """A dynamic instruction stream, one numpy column per field.

    Traces are produced by the functional simulator and consumed by
    profiling, execution-driven simulation and the SimPoint baseline.
    An instruction's position is its sequence number.  Per position:
    ``pc``; ``iclass``, the :class:`IClass` code; ``bb_id``, the basic
    block it belongs to; ``src_regs``, a row of :data:`MAX_SOURCES`
    source registers padded with -1; ``dst_reg`` and ``mem_addr``, -1
    for none; and for branches ``taken`` and ``target``, the next
    instruction's address (False and 0 elsewhere).  Any array-like
    converts to the column's dtype.
    """

    def __init__(self, name: str, pc=(), iclass=(), bb_id=(), src_regs=(),
                 dst_reg=(), mem_addr=(), taken=(), target=()) -> None:
        self.name = name
        self.pc = np.asarray(pc, np.int64)
        self.iclass = np.asarray(iclass, np.uint8)
        self.bb_id = np.asarray(bb_id, np.int32)
        self.src_regs = np.asarray(src_regs, np.int16).reshape(
            -1, MAX_SOURCES)
        self.dst_reg = np.asarray(dst_reg, np.int16)
        self.mem_addr = np.asarray(mem_addr, np.int64)
        self.taken = np.asarray(taken, np.bool_)
        self.target = np.asarray(target, np.int64)
        if any(len(getattr(self, field)) != len(self.pc)
               for field in FIELDS):
            raise ValueError("trace columns differ in length")
        self._branches: Optional[Dict[int, tuple]] = None

    def __len__(self) -> int:
        return len(self.pc)

    def window(self, start: int, stop: int,
               name: Optional[str] = None) -> "Trace":
        """Instructions *start* to *stop* as a trace of their own, whose
        columns are views of this one's."""
        return Trace(name or f"{self.name}[{start}:{stop}]",
                     *(getattr(self, field)[start:stop] for field in FIELDS))

    def branch_positions(self) -> np.ndarray:
        """The positions of the branches."""
        return np.flatnonzero(IS_BRANCH[self.iclass])

    def source_counts(self) -> np.ndarray:
        """The number of source registers of every instruction."""
        return (self.src_regs >= 0).sum(axis=1)

    def block_sizes(self) -> np.ndarray:
        """The size of every complete block: the distance from each
        branch back to the previous one (or the trace start)."""
        return np.diff(self.branch_positions(), prepend=-1)

    def branch_records(self) -> Dict[int, tuple]:
        """Every branch as ``position: (pc, IClass, taken, target)``, in
        trace order: the record the branch unit reads.  Built on the
        first call and kept."""
        if self._branches is None:
            at = self.branch_positions()
            self._branches = dict(zip(at.tolist(), zip(
                self.pc[at].tolist(),
                map(_ICLASSES.__getitem__, self.iclass[at].tolist()),
                self.taken[at].tolist(), self.target[at].tolist())))
        return self._branches

    def instruction_mix(self) -> Dict[IClass, float]:
        """Fraction of the trace in each instruction class, in order of
        first appearance."""
        codes, first, counts = np.unique(self.iclass, return_index=True,
                                         return_counts=True)
        order = np.argsort(first)
        return dict(zip(map(_ICLASSES.__getitem__, codes[order].tolist()),
                        (counts[order] / len(self)).tolist()))

    def basic_block_sequence(self) -> List[int]:
        """The executed basic-block id sequence (one entry per block
        execution, delimited by branch instructions)."""
        return self.bb_id[self.branch_positions()].tolist()


def split_intervals(trace: Trace, interval: int) -> List[Trace]:
    """Split a trace into fixed-size intervals (for phase analysis and
    SimPoint basic-block vectors).  The final partial interval, if any,
    is dropped — matching SimPoint's fixed-length intervals.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    return [trace.window(start, start + interval)
            for start in range(0, len(trace) - interval + 1, interval)]


def concat_traces(name: str, traces: Sequence[Trace]) -> Trace:
    """Concatenate traces into one."""
    if not traces:
        return Trace(name)
    return Trace(name, *(np.concatenate([getattr(piece, field)
                                         for piece in traces])
                         for field in FIELDS))
