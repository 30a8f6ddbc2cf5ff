"""Functional simulator: interprets a program's CFG into a dynamic trace.

The simulator walks the control-flow graph from the entry block.  Each
block's terminating branch asks the block's branch behaviour for an
outcome (taken / not-taken, or an indirect target), and each memory
instruction asks its memory stream for an effective address.  The result
is a deterministic stream of :class:`~repro.isa.instruction.DynamicInstruction`.

There is no notion of program exit: workloads are steady-state kernels and
the caller chooses the dynamic instruction count, exactly as the paper
simulates fixed-size samples (100M instructions per SimPoint).
"""

from __future__ import annotations

from typing import List

from repro.isa.iclass import IClass
from repro.isa.instruction import DynamicInstruction
from repro.isa.program import Program
from repro.frontend.trace import Trace


class FunctionalSimulator:
    """Executes a :class:`Program` into lists of dynamic instructions.

    The simulator owns no microarchitectural state — branch predictors and
    caches are separate observers (:mod:`repro.branch`, :mod:`repro.cache`)
    driven by the emitted trace, mirroring the paper's extended
    ``sim-bpred`` / ``sim-cache`` profiling tools.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.reset()

    def reset(self) -> None:
        """Restart execution from the entry block with fresh behaviours."""
        self._current = self.program.entry
        self._index = 0
        self._seq = 0
        for behavior in self.program.branch_behaviors:
            behavior.reset()
        for stream in self.program.memory_streams:
            stream.reset()

    def run(self, n_instructions: int) -> List[DynamicInstruction]:
        """The next *n_instructions* dynamic instructions.

        Execution state (block, intra-block position, behaviour state)
        persists across calls, so consecutive ``run`` calls produce one
        contiguous stream.
        """
        program = self.program
        blocks = program.blocks
        behaviors = program.branch_behaviors
        streams = program.memory_streams
        indirect = IClass.INDIRECT_BRANCH
        out: List[DynamicInstruction] = []
        append = out.append
        seq = self._seq
        stop = seq + n_instructions
        index = self._index
        block = blocks[self._current]
        bb_id = block.bb_id
        instructions = block.instructions
        last = len(instructions) - 1
        while seq < stop:
            static = instructions[index]
            pc = block.address + index * 8
            stream = static.mem_stream
            mem_addr = (None if stream is None
                        else streams[stream].next_address())
            if index < last:
                append(DynamicInstruction(seq, pc, static.iclass, bb_id,
                                          static.src_regs, static.dst_reg,
                                          mem_addr))
                index += 1
            else:
                behavior = behaviors[block.branch_behavior]
                if static.iclass is indirect:
                    next_bb = block.indirect_targets[behavior.next_target()]
                    taken = True
                else:
                    taken = behavior.next_taken()
                    next_bb = (block.taken_target if taken
                               else block.fallthrough)
                block = blocks[next_bb]
                append(DynamicInstruction(seq, pc, static.iclass, bb_id,
                                          static.src_regs, None, None,
                                          taken, block.address))
                self._current = next_bb
                index = 0
                bb_id = block.bb_id
                instructions = block.instructions
                last = len(instructions) - 1
            seq += 1
        self._seq = seq
        self._index = index
        return out


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
        first 1B instructions in its phase experiments).  The warmup is
        extended to the next basic-block boundary so the recorded trace
        starts with a complete block.
    """
    sim = FunctionalSimulator(program)
    if warmup:
        discarded = sim.run(warmup)
        while discarded and not discarded[-1].is_branch:
            discarded = sim.run(1)
    instructions = sim.run(n_instructions)
    # Renumber so trace sequence numbers start at zero even after warmup;
    # dependency-distance profiling relies on dense 0-based numbering.
    if warmup:
        for offset, inst in enumerate(instructions):
            inst.seq = offset
    return Trace(name=program.name, instructions=instructions)
