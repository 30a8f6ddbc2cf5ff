"""One dependency pass per trace (paper section 2.1.1).

The profile records, per source operand, the distance back to the
instruction that produced its register (RAW), and per destination the
distances back to the previous writer (WAW) and the previous reader
(WAR) of that register.  A distance is a difference of trace positions
to the last such instruction in trace order, kept when
``0 < d <= MAX_DEPENDENCY_DISTANCE``.  Reads see only older writers,
and an instruction's own reads come before its write, so one that reads
its own destination records no WAR.

:func:`dependency_pass` computes all three for every instruction of a
:class:`~repro.frontend.trace.Trace` with a few sorts and binary
searches over register-major keys instead of a last-writer walk, and
memoizes the result weakly on the trace.  The profiler's skeleton, the
execution-driven locality walk and the baseline profilers all read it.
"""

from __future__ import annotations

import weakref
from typing import Tuple

import numpy as np

from repro.core.sfg import MAX_DEPENDENCY_DISTANCE
from repro.frontend.trace import Trace


class DependencyPass:
    """The dependency distances of one trace, and the columns its
    consumers read.

    Per instruction *i*: ``iclass[i]`` (the IClass code), its operands
    at ``src_off[i]`` to ``src_off[i + 1]`` of the flat operand arrays,
    ``raw[f]`` the RAW distance of flat operand *f*, and ``waw[i]`` and
    ``war[i]`` those of its destination; 0 means none in range.
    ``branches`` are the positions of the branches; ``bb_id`` and
    ``taken`` their block ids and outcomes.
    """

    __slots__ = ("iclass", "src_off", "raw", "waw", "war", "branches",
                 "bb_id", "taken", "__weakref__")

    def __init__(self, trace: Trace) -> None:
        n = len(trace)
        self.iclass = trace.iclass
        # Sources are a prefix of each padded row.
        present = trace.src_regs >= 0
        self.src_off = src_off = np.zeros(n + 1, np.int32)
        np.cumsum(present.sum(axis=1), out=src_off[1:])
        self.branches = branches = trace.branch_positions()
        self.bb_id = trace.bb_id[branches].tolist()
        self.taken = trace.taken[branches]
        self.raw, self.waw, self.war = _distances(
            n, src_off, trace.src_regs[present], trace.dst_reg)

    def __len__(self) -> int:
        return len(self.iclass)

    def operand_positions(self) -> np.ndarray:
        """The instruction position of every flat operand."""
        return np.repeat(np.arange(len(self.iclass), dtype=np.int32),
                         np.diff(self.src_off))


def _distances(n: int, src_off: np.ndarray, src: np.ndarray,
               dst: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(raw, waw, war)`` as :class:`DependencyPass` holds them.

    Each access is keyed ``register * n + position``: sorted, the keys
    of one register are contiguous and in trace order, so the last
    writer before a read is the write key just below the read's key,
    the previous writer of a write is its sorted predecessor, and the
    last reader at or before a write is the read key at or just below
    the write's key.  A candidate belongs to the same register when
    its key is at least ``register * n``.  Keys and positions are int32
    whenever they fit.
    """
    registers = max(int(src.max(initial=0)), int(dst.max(initial=0))) + 1
    key = np.int32 if registers * (n + 1) < 1 << 31 else np.int64
    # A stable sort by register keeps each register's accesses in trace
    # order (a radix sort on narrow registers).
    order = np.argsort(src, kind="stable")
    reader = np.repeat(np.arange(n, dtype=key), np.diff(src_off))[order]
    read_keys = src[order].astype(key)
    read_keys *= n
    read_keys += reader
    writer = np.flatnonzero(dst >= 0).astype(key)
    writer = writer[np.argsort(dst[writer], kind="stable")]
    write_base = dst[writer].astype(key)
    write_base *= n
    write_keys = write_base + writer

    def kept(at: np.ndarray, candidate: np.ndarray, index: np.ndarray,
             base: np.ndarray) -> np.ndarray:
        """Distances from positions *at* back to the key
        ``candidate[index]`` of the same register, 0 where there is
        none or it is out of range.  Consumes *index*."""
        distances = np.zeros(len(at), np.uint16)
        if not len(candidate):
            return distances
        found = index >= 0
        np.maximum(index, 0, out=index)
        offset = candidate[index]
        offset -= base
        found &= offset >= 0
        offset *= found
        delta = at - offset
        found &= delta > 0
        found &= delta <= MAX_DEPENDENCY_DISTANCE
        np.copyto(distances, delta, casting="unsafe", where=found)
        return distances

    # Sorted needles: np.searchsorted resumes from the previous hit.
    raw = np.empty(len(read_keys), np.uint16)
    raw[order] = kept(reader, write_keys,
                      np.searchsorted(write_keys, read_keys) - 1,
                      read_keys - reader)
    del order
    waw = np.zeros(n, np.uint16)
    war = np.zeros(n, np.uint16)
    waw[writer] = kept(writer, write_keys,
                       np.arange(-1, len(writer) - 1), write_base)
    war[writer] = kept(writer, read_keys,
                       np.searchsorted(read_keys, write_keys, "right") - 1,
                       write_base)
    return raw, waw, war


#: trace -> its dependency pass; entries die with their trace.
_PASSES: "weakref.WeakKeyDictionary[Trace, DependencyPass]" = \
    weakref.WeakKeyDictionary()


def dependency_pass(trace: Trace) -> DependencyPass:
    """The memoized :class:`DependencyPass` of *trace*."""
    result = _PASSES.get(trace)
    if result is None:
        result = _PASSES[trace] = DependencyPass(trace)
    return result


def first_appearance(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of *codes* in order of first
    appearance: returns each position's number and, per number, the
    position where it first appears."""
    _values, first, inverse = np.unique(codes, return_index=True,
                                        return_inverse=True)
    # np.unique numbers by sorted value; rank the values by where each
    # first appears instead.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]


def pack_columns(rows: int, columns, widths) -> np.ndarray:
    """One int64 code per row of *columns* (length-*rows* int arrays,
    ``0 <= columns[c] < widths[c]``) such that two rows get equal codes
    exactly when they are equal, renumbering densely whenever the next
    column would overflow 62 bits."""
    code = np.zeros(rows, np.int64)
    bound = 1
    for column, width in zip(columns, widths):
        if bound * width >= 1 << 62:
            code = np.unique(code, return_inverse=True)[1].reshape(-1)
            bound = rows
        code *= width
        code += column
        bound *= width
    return code
