"""Functional simulator: interprets a program's CFG into a dynamic trace.

The simulator walks the control-flow graph from the entry block.  Each
block's terminating branch asks the block's branch behaviour for an
outcome (taken / not-taken, or an indirect target), and each memory
instruction asks its memory stream for an effective address.  The result
is a deterministic :class:`~repro.frontend.trace.Trace`.

The walk steps once per executed block, not once per instruction: every
field that does not change between executions of a block (pc, class,
block id, registers) is gathered into the trace's columns from static
columns built once per program.  Only the memory addresses and the
branch outcomes are drawn during the walk, in program order, so each
stream and behaviour sees the same calls as an instruction-at-a-time
walk would make.

There is no notion of program exit: workloads are steady-state kernels and
the caller chooses the dynamic instruction count, exactly as the paper
simulates fixed-size samples (100M instructions per SimPoint).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.isa.iclass import IClass
from repro.isa.instruction import MAX_SOURCES
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.frontend.trace import FIELDS, Trace, concat_traces


class FunctionalSimulator:
    """Executes a :class:`Program` into dynamic traces.

    The simulator owns no microarchitectural state — branch predictors and
    caches are separate observers (:mod:`repro.branch`, :mod:`repro.cache`)
    driven by the emitted trace, mirroring the paper's extended
    ``sim-bpred`` / ``sim-cache`` profiling tools.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        # The program's static code as a trace of one pass over every
        # block in id order, with no address or outcome yet.
        self._static = Trace(program.name, *zip(*[
            (block.address + index * INSTRUCTION_BYTES, inst.iclass,
             block.bb_id,
             inst.src_regs + (-1,) * (MAX_SOURCES - len(inst.src_regs)),
             -1 if inst.dst_reg is None else inst.dst_reg, -1, False, 0)
            for block in program.blocks
            for index, inst in enumerate(block.instructions)]))
        # Per block: its first static row, its size, and the
        # ``next_address`` of each of its memory instructions with how
        # many precede each position.  A block's branch draws no
        # address, whatever its stream.
        streams = program.memory_streams
        self._blocks = []
        is_mem = []
        for block in program.blocks:
            calls, before = [], [0]
            for inst in block.instructions[:-1]:
                if inst.mem_stream is not None:
                    calls.append(streams[inst.mem_stream].next_address)
                before.append(len(calls))
            before.append(len(calls))
            self._blocks.append((len(is_mem), block.size, calls, before))
            # Position i draws an address when the count grows past it.
            is_mem += [x < y for x, y in zip(before, before[1:])]
        self._is_mem = np.array(is_mem, np.bool_)
        self.reset()

    def reset(self) -> None:
        """Restart execution from the entry block with fresh behaviours."""
        self._current = self.program.entry
        self._index = 0
        for behavior in self.program.branch_behaviors:
            behavior.reset()
        for stream in self.program.memory_streams:
            stream.reset()

    def run(self, n_instructions: int) -> Trace:
        """The next *n_instructions* dynamic instructions.

        Execution state (block, intra-block position, behaviour state)
        persists across calls, so consecutive ``run`` calls produce one
        contiguous stream.
        """
        program = self.program
        blocks = program.blocks
        plans = self._blocks
        behaviors = program.branch_behaviors
        indirect = IClass.INDIRECT_BRANCH
        # Each executed stretch of a block: its first static row and
        # length.
        rows, lengths = [], []
        addresses, taken_list, targets = [], [], []
        append_address = addresses.append
        current = self._current
        index = self._index
        done = 0
        while done < n_instructions:
            first_row, size, calls, before = plans[current]
            length = min(size - index, n_instructions - done)
            rows.append(first_row + index)
            lengths.append(length)
            if calls:
                for call in calls[before[index]:before[index + length]]:
                    append_address(call())
            done += length
            index += length
            if index == size:
                block = blocks[current]
                behavior = behaviors[block.branch_behavior]
                if block.branch.iclass is indirect:
                    current = block.indirect_targets[behavior.next_target()]
                    taken = True
                else:
                    taken = behavior.next_taken()
                    current = (block.taken_target if taken
                               else block.fallthrough)
                taken_list.append(taken)
                targets.append(blocks[current].address)
                index = 0
        self._current = current
        self._index = index
        return self._columns(rows, lengths, addresses, taken_list, targets)

    def finish_block(self) -> Trace:
        """The rest of the block execution stopped in (empty at a block
        boundary)."""
        return self.run(self._blocks[self._current][1] - self._index
                        if self._index else 0)

    def _columns(self, rows, lengths, addresses, taken_list,
                 targets) -> Trace:
        """The trace of the executed stretches ``(rows[j], lengths[j])``
        with their drawn addresses and branch outcomes."""
        lengths = np.array(lengths, np.int64)
        static = np.arange(int(lengths.sum()))
        static += np.repeat(np.array(rows, np.int64)
                            - (np.cumsum(lengths) - lengths), lengths)
        trace = Trace(self.program.name,
                      *(getattr(self._static, field)[static]
                        for field in FIELDS))
        trace.mem_addr[self._is_mem[static]] = addresses
        branches = trace.branch_positions()
        trace.taken[branches] = taken_list
        trace.target[branches] = targets
        return trace


def run_program_with_warmup(program: Program, warmup: int,
                            n_instructions: int) -> Tuple[Trace, Trace]:
    """Execute *program* and return ``(warmup_trace, measurement_trace)``
    as two contiguous windows of one execution.

    The warmup window is extended to the next basic-block boundary so
    the measurement window starts with a complete block — profiling
    keys statistics by basic block, and a truncated leading block would
    alias with its full-size executions.
    """
    sim = FunctionalSimulator(program)
    warm = concat_traces(f"{program.name}/warmup",
                         [sim.run(warmup), sim.finish_block()])
    return warm, sim.run(n_instructions)


def run_program(program: Program, n_instructions: int,
                warmup: int = 0) -> Trace:
    """Execute *program* and return a :class:`Trace`.

    Parameters
    ----------
    program:
        The workload to execute.
    n_instructions:
        Dynamic instructions to record.
    warmup:
        Instructions to execute and discard first (the paper skips the
        first 1B instructions in its phase experiments), extended to the
        next basic-block boundary as :func:`run_program_with_warmup`
        does.
    """
    return run_program_with_warmup(program, warmup, n_instructions)[1]
