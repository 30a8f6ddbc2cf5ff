"""Cross-module edge cases: tiny inputs, degenerate configurations and
empty artifacts must not crash or hang."""

from dataclasses import replace

import pytest

from repro.config import MachineConfig, baseline_config
from repro.isa.iclass import IClass
from repro.isa.instruction import StaticInstruction
from repro.isa.program import BasicBlock, Program
from repro.frontend.functional import run_program
from repro.core.framework import (
    run_execution_driven,
    run_statistical_simulation,
    simulate_synthetic_trace,
)
from repro.core.profiler import profile_trace
from repro.core.reduction import reduce_flow_graph
from repro.core.synthesis import generate_synthetic_trace
from repro.core.synthetic import SyntheticTrace
from repro.workloads.behaviors import PatternBehavior


def _one_block_program():
    block = BasicBlock(
        bb_id=0, address=0x1000,
        instructions=[
            StaticInstruction(IClass.INT_ALU, src_regs=(0,), dst_reg=1),
            StaticInstruction(IClass.INT_COND_BRANCH, src_regs=(1,)),
        ],
        taken_target=0, fallthrough=0, branch_behavior=0)
    return Program(name="one-block", blocks=[block], entry=0,
                   branch_behaviors=[PatternBehavior("T")],
                   memory_streams=[])


class TestTinyInputs:
    def test_single_block_program_end_to_end(self, config):
        trace = run_program(_one_block_program(), n_instructions=400)
        reference, _ = run_execution_driven(trace, config)
        report = run_statistical_simulation(trace, config,
                                            reduction_factor=2, seed=0)
        assert reference.instructions == 400
        assert report.ipc > 0

    def test_trace_shorter_than_one_block(self, tiny_program, config):
        trace = run_program(tiny_program, n_instructions=2)
        profile = profile_trace(trace, config, order=1)
        # No block completed: the profile is empty but valid.
        assert profile.num_nodes == 0
        profile.sfg.validate()

    def test_synthesis_from_empty_reduction(self, tiny_trace, config):
        profile = profile_trace(tiny_trace, config, order=1)
        synthetic = generate_synthetic_trace(profile, 10**9, seed=0)
        assert len(synthetic) == 0

    def test_simulating_empty_synthetic_trace(self, config):
        empty = SyntheticTrace.from_entries(
            name="empty", entries=[], order=1, reduction_factor=1)
        result, power = simulate_synthetic_trace(empty, config)
        assert result.instructions == 0
        assert power.total > 0  # idle power remains

    def test_one_instruction_trace_eds(self, tiny_program, config):
        trace = run_program(tiny_program, n_instructions=1)
        result, _ = run_execution_driven(trace, config)
        assert result.instructions == 1


class TestDegenerateConfigs:
    def test_single_wide_machine(self, tiny_trace):
        config = MachineConfig(decode_width=1, issue_width=1,
                               commit_width=1, fetch_speed=1,
                               ruu_size=4, lsq_size=2, ifq_size=2)
        result, _ = run_execution_driven(tiny_trace, config)
        assert result.instructions == len(tiny_trace)
        assert result.ipc <= 1.0 + 1e-9

    def test_minimal_window(self, tiny_trace):
        config = baseline_config().with_window(ruu_size=2, lsq_size=2)
        result, _ = run_execution_driven(tiny_trace, config)
        assert result.instructions == len(tiny_trace)

    def test_tiny_ifq(self, tiny_trace):
        result, _ = run_execution_driven(tiny_trace,
                                         baseline_config().with_ifq(1))
        assert result.instructions == len(tiny_trace)

    def test_zero_frontend_depth(self, tiny_trace):
        config = replace(baseline_config(), frontend_depth=0)
        result, _ = run_execution_driven(tiny_trace, config)
        assert result.instructions == len(tiny_trace)

    def test_tiny_predictor_tables(self, tiny_trace):
        config = baseline_config().with_predictor_scale(0.001)
        result, _ = run_execution_driven(tiny_trace, config)
        assert result.instructions == len(tiny_trace)

    def test_tiny_caches(self, small_trace):
        config = baseline_config().with_cache_scale(0.01)
        result, _ = run_execution_driven(small_trace, config)
        assert result.instructions == len(small_trace)

    def test_everything_degenerate_at_once(self, tiny_trace):
        config = MachineConfig(decode_width=1, issue_width=1,
                               commit_width=1, fetch_speed=1,
                               ruu_size=2, lsq_size=2, ifq_size=1,
                               in_order_issue=True,
                               conservative_loads=True,
                               enforce_anti_dependencies=True)
        result, _ = run_execution_driven(tiny_trace, config)
        assert result.instructions == len(tiny_trace)


class TestHighOrders:
    def test_order_larger_than_distinct_history(self, tiny_trace,
                                                config):
        profile = profile_trace(tiny_trace, config, order=6,
                                branch_mode="perfect",
                                perfect_caches=True)
        profile.sfg.validate()
        synthetic = generate_synthetic_trace(profile, 2, seed=0)
        result, _ = simulate_synthetic_trace(synthetic, config)
        assert result.instructions == len(synthetic)

    def test_reduction_factor_between_one_and_two(self, tiny_trace,
                                                  config):
        profile = profile_trace(tiny_trace, config, order=1)
        reduced = reduce_flow_graph(profile.sfg, 1.5)
        for context, budget in reduced.occurrences.items():
            assert budget == int(
                profile.sfg.contexts[context].occurrences // 1.5)
