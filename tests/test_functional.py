"""Tests for the functional simulator and warm windows.

The simulator steps once per executed block and gathers each block's
static columns; :class:`ReferenceSimulator` is the instruction-at-a-time
loop it replaced, kept here, and the differential below holds the two
to the same trace, field for field.
"""

import os
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.frontend.functional import (FunctionalSimulator, run_program,
                                       run_program_with_warmup)
from repro.frontend.trace import concat_traces
from repro.fuzz.generator import random_case
from repro.isa.iclass import IClass
from repro.workloads.generator import WorkloadConfig, generate_program
from repro.workloads.micro import build_microbenchmark, microbenchmark_names
from repro.workloads.spec import benchmark_names, build_benchmark

from conftest import Row, make_tiny_program, trace_rows

#: Examples per run of the differential; CI runs a deeper pass by
#: setting ``FUNCTIONAL_DIFFERENTIAL_EXAMPLES``.
_DIFFERENTIAL_EXAMPLES = int(os.environ.get(
    "FUNCTIONAL_DIFFERENTIAL_EXAMPLES", "100"))


class TestFunctionalSimulator:
    def test_trace_length(self, tiny_program):
        trace = run_program(tiny_program, n_instructions=100)
        assert len(trace) == 100

    def test_sequence_numbers_dense(self, tiny_trace):
        # A position is a sequence number: consecutive runs continue
        # each other's numbering once concatenated.
        sim = FunctionalSimulator(make_tiny_program())
        merged = concat_traces("merged", [sim.run(250), sim.run(350)])
        assert list(merged.branch_records()) == \
            list(tiny_trace.branch_records())

    def test_tiny_program_block_pattern(self, tiny_program):
        # Loop body (block 0) executes trip_count times per exit visit.
        trace = run_program(tiny_program, n_instructions=3 * 4 + 2)
        blocks = trace.basic_block_sequence()
        assert blocks == [0, 0, 0, 0, 1][:len(blocks)]

    def test_branch_targets_match_blocks(self, tiny_program):
        rows = trace_rows(run_program(tiny_program, n_instructions=200))
        for i, inst in enumerate(rows[:-1]):
            if inst.is_branch:
                assert inst.target == rows[i + 1].pc

    def test_taken_flag_consistent_with_control_flow(self, tiny_program):
        trace = run_program(tiny_program, n_instructions=200)
        for inst in trace_rows(trace):
            if inst.is_branch and inst.iclass is IClass.INT_COND_BRANCH:
                block = tiny_program.blocks[inst.bb_id]
                expected = (tiny_program.blocks[block.taken_target].address
                            if inst.taken else
                            tiny_program.blocks[block.fallthrough].address)
                assert inst.target == expected

    def test_loads_have_addresses(self, tiny_trace):
        for inst in trace_rows(tiny_trace):
            if inst.iclass in (IClass.LOAD, IClass.STORE):
                assert inst.mem_addr is not None
            else:
                assert inst.mem_addr is None

    def test_pc_matches_block_layout(self, tiny_program):
        trace = run_program(tiny_program, n_instructions=50)
        for inst in trace_rows(trace):
            block = tiny_program.blocks[inst.bb_id]
            offset = (inst.pc - block.address) // 8
            assert 0 <= offset < block.size

    def test_reset_replays(self, tiny_program):
        sim = FunctionalSimulator(tiny_program)
        first = trace_rows(sim.run(100))
        sim.reset()
        second = trace_rows(sim.run(100))
        assert first == second

    def test_run_resumes_where_it_stopped(self, tiny_program):
        sim = FunctionalSimulator(tiny_program)
        part1 = trace_rows(sim.run(60))
        part2 = trace_rows(sim.run(60))
        sim.reset()
        whole = trace_rows(sim.run(120))
        assert part1 + part2 == whole


class TestWarmup:
    def test_run_program_warmup_renumbers(self, tiny_program):
        trace = run_program(tiny_program, n_instructions=50, warmup=30)
        # The window starts on a whole block, numbered from zero.
        first_block = tiny_program.blocks[int(trace.bb_id[0])]
        assert min(trace.branch_records()) == first_block.size - 1

    def test_warmup_is_contiguous(self, tiny_program):
        warm, measured = run_program_with_warmup(tiny_program, warmup=40,
                                                 n_instructions=40)
        total = len(warm) + len(measured)
        full = run_program(tiny_program, n_instructions=total)
        assert trace_rows(warm) + trace_rows(measured) == trace_rows(full)

    def test_warmup_trace_named(self, tiny_program):
        warm, measured = run_program_with_warmup(tiny_program, warmup=10,
                                                 n_instructions=10)
        assert "warmup" in warm.name
        assert measured.name == tiny_program.name


# -- the instruction-at-a-time loop ----------------------------------


class ReferenceSimulator:
    """The loop the block-at-a-time simulator replaced: one
    :class:`Row` per executed instruction, each memory address and
    branch outcome drawn as the instruction executes."""

    def __init__(self, program):
        self.program = program
        self.reset()

    def reset(self):
        self._current = self.program.entry
        self._index = 0
        for behavior in self.program.branch_behaviors:
            behavior.reset()
        for stream in self.program.memory_streams:
            stream.reset()

    def run(self, n_instructions):
        program = self.program
        blocks = program.blocks
        streams = program.memory_streams
        rows = []
        block = blocks[self._current]
        index = self._index
        for _ in range(n_instructions):
            static = block.instructions[index]
            pc = block.address + index * 8
            if index < block.size - 1:
                stream = static.mem_stream
                rows.append(Row(pc, static.iclass, block.bb_id,
                                static.src_regs, static.dst_reg,
                                None if stream is None
                                else streams[stream].next_address()))
                index += 1
                continue
            behavior = program.branch_behaviors[block.branch_behavior]
            if static.iclass is IClass.INDIRECT_BRANCH:
                successor = block.indirect_targets[behavior.next_target()]
                taken = True
            else:
                taken = behavior.next_taken()
                successor = (block.taken_target if taken
                             else block.fallthrough)
            rows.append(Row(pc, static.iclass, block.bb_id,
                            static.src_regs, taken=taken,
                            target=blocks[successor].address))
            block = blocks[successor]
            self._current = successor
            index = 0
        self._index = index
        return rows


def _generated(seed, n_blocks, block_size, streams, indirect):
    return generate_program(WorkloadConfig(
        name="generated", seed=seed, n_blocks=n_blocks,
        mean_block_size=block_size, working_set_kb=16,
        n_memory_streams=streams, indirect_fraction=indirect))


#: Zero-argument builders of fresh programs: the workload generator
#: (random shapes and the ten benchmarks), the microbenchmarks and the
#: fuzz generator's cases.
_programs = st.one_of(
    st.builds(partial, st.just(_generated), st.integers(0, 1 << 16),
              st.integers(1, 24), st.integers(1, 9), st.integers(1, 6),
              st.sampled_from([0.0, 0.04, 0.3])),
    st.builds(partial, st.just(build_benchmark),
              st.sampled_from(benchmark_names())),
    st.builds(partial, st.just(build_microbenchmark),
              st.sampled_from(microbenchmark_names())),
    st.builds(lambda seed, index: random_case(seed, index).program,
              st.integers(0, 1 << 16), st.integers(0, 40)),
)


@settings(max_examples=_DIFFERENTIAL_EXAMPLES, derandomize=True,
          deadline=None)
@given(build=_programs, warmup=st.integers(0, 300),
       window=st.integers(0, 400),
       cuts=st.lists(st.integers(0, 400), max_size=4),
       replay=st.integers(0, 200))
def test_matches_the_instruction_loop(build, warmup, window, cuts, replay):
    reference = ReferenceSimulator(build())
    expected_warm = reference.run(warmup)
    while expected_warm and not expected_warm[-1].is_branch:
        expected_warm += reference.run(1)
    expected = reference.run(window)
    reference.reset()
    expected_replay = reference.run(replay)

    # The warm-up and the window split over several runs.
    sim = FunctionalSimulator(build())
    warm = concat_traces("warm", [sim.run(warmup), sim.finish_block()])
    assert trace_rows(warm) == expected_warm
    bounds = [0] + sorted(min(cut, window) for cut in cuts) + [window]
    pieces = [sim.run(stop - start)
              for start, stop in zip(bounds, bounds[1:])]
    assert trace_rows(concat_traces("window", pieces)) == expected
    sim.reset()
    assert trace_rows(sim.run(replay)) == expected_replay

    warm, measured = run_program_with_warmup(build(), warmup, window)
    assert trace_rows(warm) == expected_warm
    assert trace_rows(measured) == expected
    assert trace_rows(run_program(build(), window, warmup)) == expected
