"""Tests validating the simulators against analytically known
microbenchmarks."""

from collections import Counter

import pytest

from repro.config import baseline_config
from repro.core.framework import run_execution_driven
from repro.frontend.functional import run_program
from repro.workloads.micro import (
    MICROBENCHMARKS,
    branch_torture_kernel,
    build_microbenchmark,
    independent_alu_kernel,
    loop_nest_kernel,
    microbenchmark_names,
    pointer_chase_kernel,
    serial_chain_kernel,
    streaming_kernel,
)


def _ipc(program, n=20_000, **eds_kwargs):
    config = baseline_config()
    trace = run_program(program, n_instructions=n, warmup=4000)
    result, _ = run_execution_driven(trace, config, **eds_kwargs)
    return result


class TestRegistry:
    def test_names(self):
        assert set(microbenchmark_names()) == set(MICROBENCHMARKS)
        assert len(MICROBENCHMARKS) == 6

    def test_build_by_name(self):
        program = build_microbenchmark("serial-chain", block_size=8)
        assert program.name == "micro/serial-chain"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_microbenchmark("matrix-multiply")


class TestAnalyticExpectations:
    def test_independent_alu_reaches_high_ipc(self):
        result = _ipc(independent_alu_kernel(block_size=16))
        # 8-wide machine, no deps, no misses: IPC well above half width.
        assert result.ipc > 4.0

    def test_serial_chain_caps_near_one(self):
        result = _ipc(serial_chain_kernel(block_size=16))
        assert result.ipc < 1.3

    def test_independent_beats_serial(self):
        independent = _ipc(independent_alu_kernel(block_size=16))
        serial = _ipc(serial_chain_kernel(block_size=16))
        assert independent.ipc > 2.5 * serial.ipc

    def test_pointer_chase_serializes_memory(self):
        config = baseline_config()
        result = _ipc(pointer_chase_kernel(working_set_kb=512,
                                           chain_loads=4), n=5000)
        # Each block: 4 serial loads (mostly L2-or-worse) + a branch.
        # IPC must sit far below 1 — the chain hides nothing.
        assert result.ipc < 5 / config.l2.hit_latency * 2.5

    def test_streaming_faster_than_chase(self):
        streaming = _ipc(streaming_kernel(array_kb=256), n=10_000)
        chase = _ipc(pointer_chase_kernel(working_set_kb=512), n=5000)
        assert streaming.ipc > 2 * chase.ipc

    def test_branch_torture_misprediction_rate(self):
        result = _ipc(branch_torture_kernel(p_taken=0.5), n=10_000)
        # Half the instructions are unpredictable branches: the
        # misprediction rate per branch approaches ~0.5.
        per_branch = result.branch_mispredictions / result.branches
        assert 0.3 < per_branch < 0.6

    def test_branch_torture_dominated_by_recovery(self):
        tortured = _ipc(branch_torture_kernel(p_taken=0.5), n=10_000)
        predictable = _ipc(branch_torture_kernel(p_taken=0.999),
                           n=10_000)
        assert predictable.ipc > 3 * tortured.ipc

    def test_loop_nest_block_frequencies(self):
        program = loop_nest_kernel(inner_trips=16, outer_trips=64)
        trace = run_program(program, n_instructions=20_000, warmup=1000)
        counts = Counter(trace.basic_block_sequence())
        # The inner block executes inner_trips times per outer visit.
        ratio = counts[0] / counts[1]
        assert 14 < ratio < 18

    def test_loop_nest_highly_predictable(self):
        result = _ipc(loop_nest_kernel(), n=20_000)
        # Tight 3-instruction loop bodies keep the local history
        # stale (delayed update), so exits mispredict: ~1 exit per 17
        # branches over 4-instruction average spacing.
        assert result.mispredictions_per_kilo_instruction < 30.0


class TestStatisticalSimulationOnMicros:
    @pytest.mark.parametrize("name", ["serial-chain", "streaming",
                                      "loop-nest"])
    def test_ss_tracks_eds(self, name):
        from repro.core.framework import run_statistical_simulation
        from repro.frontend.warming import run_program_with_warmup

        config = baseline_config()
        program = build_microbenchmark(name)
        warm, trace = run_program_with_warmup(program, 5000, 10_000)
        reference, _ = run_execution_driven(trace, config,
                                            warmup_trace=warm)
        report = run_statistical_simulation(trace, config,
                                            reduction_factor=4, seed=0,
                                            warmup_trace=warm)
        error = abs(report.ipc - reference.ipc) / reference.ipc
        # Single-context kernels expose the methodology's i.i.d. miss
        # sampling (real misses are periodic), so the bound is looser
        # than for the mixed workloads of Figure 6.
        assert error < 0.25, f"{name}: {error:.3f}"
