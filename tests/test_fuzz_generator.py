"""Fuzz-case generation: determinism and validity."""

import pytest

from repro.errors import WorkloadSpecError
from repro.frontend.functional import run_program
from repro.fuzz.generator import generate_cases, random_case
from repro.isa.iclass import IClass
from repro.workloads.generator import WorkloadConfig, generate_program


class TestDeterminism:
    def test_same_seed_same_case(self):
        for index in range(10):
            assert random_case(7, index) == random_case(7, index)

    def test_different_indices_differ(self):
        workloads = [random_case(7, i).workload for i in range(8)]
        assert any(w != workloads[0] for w in workloads[1:])

    def test_different_seeds_differ(self):
        assert random_case(1, 0).workload != random_case(2, 0).workload


class TestValidity:
    def test_many_cases_generate_valid_programs(self):
        for case in generate_cases(seed=3, count=30):
            program = case.program()
            program.validate_reachability()
            config = case.machine_config()
            assert config.ruu_size >= 1
            assert program.num_blocks == case.workload.n_blocks

    def test_cases_run_through_functional_frontend(self):
        for case in generate_cases(seed=5, count=6):
            trace = run_program(case.program(), 500, warmup=case.warmup)
            assert len(trace) >= 500


class TestWorkloadEdgeCases:
    """The generator edge cases the fuzz sweeps rely on (issue fix)."""

    def test_single_block_program_is_valid(self):
        config = WorkloadConfig(name="one", seed=1, n_blocks=1,
                                mean_block_size=3)
        program = generate_program(config)
        assert program.num_blocks == 1
        trace = run_program(program, 200)
        assert len(trace) >= 200

    def test_two_block_program_is_valid(self):
        config = WorkloadConfig(name="two", seed=2, n_blocks=2,
                                mean_block_size=2)
        program = generate_program(config)
        assert program.num_blocks == 2
        run_program(program, 200)

    def test_zero_probability_classes_never_emitted(self):
        mix = {IClass.INT_ALU: 1.0, IClass.LOAD: 0.0,
               IClass.STORE: 0.0, IClass.FP_DIV: 0.0}
        config = WorkloadConfig(name="onehot", seed=3, n_blocks=4,
                                mean_block_size=6, instruction_mix=mix,
                                n_memory_streams=0)
        program = generate_program(config)
        body_classes = {
            inst.iclass
            for block in program.blocks
            for inst in block.instructions[:-1]
        }
        assert body_classes <= {IClass.INT_ALU}

    def test_zero_blocks_rejected(self):
        with pytest.raises(WorkloadSpecError, match="n_blocks"):
            WorkloadConfig(name="none", seed=1, n_blocks=0)

    def test_zero_mass_mix_rejected(self):
        with pytest.raises(WorkloadSpecError, match="positive"):
            WorkloadConfig(name="empty", seed=1, n_blocks=2,
                           instruction_mix={IClass.INT_ALU: 0.0})

    def test_negative_mix_weight_rejected(self):
        with pytest.raises(WorkloadSpecError, match="negative"):
            WorkloadConfig(name="neg", seed=1, n_blocks=2,
                           instruction_mix={IClass.INT_ALU: -1.0})

    def test_branch_class_in_mix_rejected(self):
        with pytest.raises(WorkloadSpecError, match="branch"):
            WorkloadConfig(
                name="br", seed=1, n_blocks=2,
                instruction_mix={IClass.INT_COND_BRANCH: 1.0})

    def test_memory_mix_without_streams_rejected(self):
        with pytest.raises(WorkloadSpecError, match="memory"):
            WorkloadConfig(name="nostreams", seed=1, n_blocks=2,
                           instruction_mix={IClass.LOAD: 1.0},
                           n_memory_streams=0)

    def test_loop_plus_pattern_over_one_rejected(self):
        with pytest.raises(WorkloadSpecError, match="fraction"):
            WorkloadConfig(name="frac", seed=1, n_blocks=2,
                           loop_fraction=0.8, pattern_fraction=0.4)
