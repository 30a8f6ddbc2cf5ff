"""Tests for immediate- and delayed-update branch profiling (the
paper's section 2.1.3 contribution)."""

import pytest

from repro.config import BranchPredictorConfig, baseline_config
from repro.frontend.functional import run_program
from repro.branch.profiler import (
    mispredictions_per_kilo_instruction,
    outcome_counts,
    profile_branches_delayed,
    profile_branches_immediate,
)
from repro.branch.unit import BranchOutcome, BranchPredictorUnit

from conftest import make_tiny_program, trace_rows


def _unit():
    return BranchPredictorUnit(BranchPredictorConfig(
        meta_entries=512, bimodal_entries=512,
        local_history_entries=512, local_pht_entries=512,
        local_history_bits=8, btb_entries=64, btb_associativity=4))


@pytest.fixture
def loop_trace():
    return run_program(make_tiny_program(trip_count=6), n_instructions=800)


class TestImmediateProfiling:
    def test_one_record_per_branch(self, loop_trace):
        records = profile_branches_immediate(loop_trace, _unit())
        assert len(records) == len(loop_trace.basic_block_sequence())

    def test_records_in_trace_order(self, loop_trace):
        records = profile_branches_immediate(loop_trace, _unit())
        sequences = [record.seq for record in records]
        assert sequences == sorted(sequences)

    def test_taken_flags_match_trace(self, loop_trace):
        records = profile_branches_immediate(loop_trace, _unit())
        by_seq = dict(enumerate(trace_rows(loop_trace)))
        for record in records:
            assert record.taken == by_seq[record.seq].taken


class TestDelayedProfiling:
    def test_one_record_per_branch(self, loop_trace):
        records = profile_branches_delayed(loop_trace, _unit(),
                                           fifo_size=32)
        assert len(records) == len(loop_trace.basic_block_sequence())

    def test_fifo_size_one_equals_immediate(self, loop_trace):
        # With a 1-entry FIFO the update directly follows the lookup, so
        # delayed profiling degenerates to immediate profiling.
        immediate = profile_branches_immediate(loop_trace, _unit())
        delayed = profile_branches_delayed(loop_trace, _unit(),
                                           fifo_size=1)
        assert [r.outcome for r in immediate] == \
            [r.outcome for r in delayed]

    def test_delay_increases_mispredictions_on_tight_loops(self):
        # A short-trip loop's exit pattern is learnable with immediate
        # update, but stale with a large FIFO.
        trace = run_program(make_tiny_program(trip_count=4),
                            n_instructions=4000)
        immediate = profile_branches_immediate(trace, _unit())
        delayed = profile_branches_delayed(trace, _unit(), fifo_size=32)
        imm = mispredictions_per_kilo_instruction(immediate, len(trace))
        dly = mispredictions_per_kilo_instruction(delayed, len(trace))
        assert dly >= imm

    def test_rejects_bad_fifo(self, loop_trace):
        with pytest.raises(ValueError):
            profile_branches_delayed(loop_trace, _unit(), fifo_size=0)

    def test_deterministic(self, loop_trace):
        a = profile_branches_delayed(loop_trace, _unit(), fifo_size=16)
        b = profile_branches_delayed(loop_trace, _unit(), fifo_size=16)
        assert [(r.seq, r.outcome) for r in a] == \
            [(r.seq, r.outcome) for r in b]


class TestMetrics:
    def test_mpki(self):
        records = [
            type("R", (), {"outcome": BranchOutcome.MISPREDICTION})(),
            type("R", (), {"outcome": BranchOutcome.CORRECT})(),
        ]
        assert mispredictions_per_kilo_instruction(records, 1000) == 1.0

    def test_mpki_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            mispredictions_per_kilo_instruction([], 0)

    def test_outcome_counts(self, loop_trace):
        records = profile_branches_immediate(loop_trace, _unit())
        counts = outcome_counts(records)
        assert sum(counts.values()) == len(records)
        assert set(counts) == set(BranchOutcome)


def reference_delayed(trace, unit, fifo_size):
    """The FIFO walked one instruction at a time: fill, then remove the
    oldest; a mispredicted branch squashes the rest."""
    from collections import deque

    branches = trace.branch_records()
    n = len(trace)
    final = {}
    fifo = deque()
    i = 0
    while i < n or fifo:
        while i < n and len(fifo) < fifo_size:
            branch = branches.get(i)
            fifo.append((i, None if branch is None
                         else unit.record(i, branch)))
            i += 1
        index, record = fifo.popleft()
        if record is not None:
            final[index] = record
            unit.train(branches[index])
            if record.outcome is BranchOutcome.MISPREDICTION and fifo:
                fifo.clear()
                i = index + 1
    return [final[index] for index in sorted(final)]


class TestDelayedMatchesInstructionFifo:
    """The branch-at-a-time FIFO makes the same lookups and trainings,
    in the same order, as the instruction-at-a-time one: the records
    and the predictor left behind (its BTB LRU order included, which
    every lookup refreshes) are identical."""

    @pytest.mark.parametrize("bench", ["gzip", "twolf", "parser"])
    @pytest.mark.parametrize("fifo_size", [1, 2, 3, 8, 32, 100])
    def test_benchmarks(self, bench, fifo_size):
        import pickle

        from repro.workloads.spec import build_benchmark

        trace = run_program(build_benchmark(bench), n_instructions=3_000)
        for config in (baseline_config().predictor,
                       BranchPredictorConfig(
                           meta_entries=16, bimodal_entries=16,
                           local_history_entries=16, local_pht_entries=16,
                           local_history_bits=3, btb_entries=4,
                           btb_associativity=2)):
            fast, slow = BranchPredictorUnit(config), \
                BranchPredictorUnit(config)
            assert (profile_branches_delayed(trace, fast, fifo_size)
                    == reference_delayed(trace, slow, fifo_size))
            assert pickle.dumps(fast) == pickle.dumps(slow)

    def test_trace_ending_in_a_mispredicted_branch(self, loop_trace):
        for cut in range(len(loop_trace) - 12, len(loop_trace)):
            trace = loop_trace.window(0, cut, "cut")
            for fifo_size in (1, 4, 32):
                assert (profile_branches_delayed(trace, _unit(), fifo_size)
                        == reference_delayed(trace, _unit(), fifo_size))
