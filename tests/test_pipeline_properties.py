"""Property-based tests of the pipeline over random slot streams.

These check conservation laws and monotonicity properties that must
hold for *any* instruction stream, complementing the targeted unit
tests of ``test_pipeline.py``.
"""

import random
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import baseline_config
from repro.isa.iclass import IClass, execution_latency
from repro.branch.unit import BranchOutcome
from repro.cpu.pipeline import SuperscalarPipeline, simulate
from repro.cpu.reference import ReferencePipeline
from repro.cpu.source import FetchSlot, PreannotatedSource

_NON_BRANCH = [IClass.LOAD, IClass.STORE, IClass.INT_ALU,
               IClass.INT_MULT, IClass.INT_DIV, IClass.FP_ALU,
               IClass.FP_MULT]


def _random_slots(seed: int, n: int, mispredict_rate: float = 0.1):
    rng = random.Random(seed)
    slots = []
    for index in range(n):
        if rng.random() < 0.2:
            outcome = (BranchOutcome.MISPREDICTION
                       if rng.random() < mispredict_rate
                       else rng.choice((BranchOutcome.CORRECT,
                                        BranchOutcome.FETCH_REDIRECTION)))
            slots.append(FetchSlot(IClass.INT_COND_BRANCH,
                                   exec_latency=1,
                                   taken=rng.random() < 0.6,
                                   outcome=outcome))
            continue
        iclass = rng.choice(_NON_BRANCH)
        latency = execution_latency(iclass)
        if iclass is IClass.LOAD and rng.random() < 0.2:
            latency = rng.choice((20, 150))
        deps = tuple(rng.randint(1, 40)
                     for _ in range(rng.randint(0, 2)))
        stall = 20 if rng.random() < 0.01 else 0
        slots.append(FetchSlot(iclass, exec_latency=latency,
                               dep_distances=deps, fetch_stall=stall))
    return slots


class TestConservationProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 400))
    def test_every_instruction_commits_exactly_once(self, seed, n):
        slots = _random_slots(seed, n)
        result = simulate(baseline_config(), PreannotatedSource(slots))
        assert result.instructions == n

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 300))
    def test_counters_are_consistent(self, seed, n):
        slots = _random_slots(seed, n)
        result = simulate(baseline_config(), PreannotatedSource(slots))
        expected_branches = sum(1 for s in slots if s.is_branch)
        assert result.branches == expected_branches
        assert result.branch_mispredictions == sum(
            1 for s in slots
            if s.outcome is BranchOutcome.MISPREDICTION)
        assert result.taken_branches == sum(
            1 for s in slots if s.is_branch and s.taken)
        assert 0 < result.cycles
        assert result.activity["commit"] == n
        # Every committed instruction was fetched, dispatched, issued.
        assert result.activity["fetch"] >= n
        assert result.activity["dispatch"] >= n
        assert result.activity["issue"] >= n

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 300))
    def test_occupancies_within_bounds(self, seed, n):
        config = baseline_config()
        slots = _random_slots(seed, n)
        result = simulate(config, PreannotatedSource(slots))
        assert 0 <= result.avg_ruu_occupancy <= config.ruu_size
        assert 0 <= result.avg_lsq_occupancy <= config.lsq_size
        assert 0 <= result.avg_ifq_occupancy <= config.ifq_size

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(10, 300))
    def test_determinism(self, seed, n):
        slots = _random_slots(seed, n)
        a = simulate(baseline_config(), PreannotatedSource(list(slots)))
        b = simulate(baseline_config(), PreannotatedSource(list(slots)))
        assert a.cycles == b.cycles
        assert a.activity == b.activity


class TestMonotonicityProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_wider_machine_is_never_slower(self, seed):
        slots = _random_slots(seed, 300, mispredict_rate=0.0)
        narrow = replace(baseline_config(), decode_width=2,
                         issue_width=2, commit_width=2)
        wide = baseline_config()
        narrow_result = simulate(narrow, PreannotatedSource(list(slots)))
        wide_result = simulate(wide, PreannotatedSource(list(slots)))
        assert wide_result.cycles <= narrow_result.cycles

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bigger_window_is_never_slower(self, seed):
        slots = _random_slots(seed, 300, mispredict_rate=0.0)
        small = baseline_config().with_window(16, 8)
        large = baseline_config().with_window(128, 32)
        small_result = simulate(small, PreannotatedSource(list(slots)))
        large_result = simulate(large, PreannotatedSource(list(slots)))
        assert large_result.cycles <= small_result.cycles + 2

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    @example(seed=2570)
    @example(seed=6315)
    def test_in_order_is_never_faster(self, seed):
        """In-order issue never beats out-of-order on a stream without
        mispredictions.

        With mispredictions the two machines do not run the same
        dependency graph.  Dependency distances resolve against the
        dispatch history, and that history keeps the squashed
        wrong-path fillers: after a recovery, a correct-path distance
        that reaches back past the fillers lands on a squashed filler
        (the dependency is dropped) or on a nearer correct-path
        instruction than its real producer.  In-order issue resolves a
        mispredicted branch later, so it squashes more fillers and sees
        a different graph; 15 of this strategy's 10,001 seeds then run
        faster in order (see ``test_mispredicted_counter_example``).
        Rewinding the history on a squash makes all 10,001 hold.
        """
        slots = _random_slots(seed, 300, mispredict_rate=0.0)
        config = baseline_config()
        in_order = replace(config, in_order_issue=True)
        ooo = simulate(config, PreannotatedSource(list(slots)))
        ino = simulate(in_order, PreannotatedSource(list(slots)))
        assert ino.cycles >= ooo.cycles - 2

    def test_mispredicted_counter_example(self):
        """Seed 2570 with mispredictions: in-order takes 553 cycles and
        out-of-order 605, in both loops.  It squashes more fillers (647
        vs 428) yet finishes first; with its 10 mispredictions made
        correct, out-of-order wins (364 vs 393)."""
        slots = _random_slots(2570, 300)
        config = baseline_config()
        in_order = replace(config, in_order_issue=True)
        for pipeline in (SuperscalarPipeline, ReferencePipeline):
            ooo = pipeline(config, PreannotatedSource(list(slots))).run()
            ino = pipeline(in_order, PreannotatedSource(list(slots))).run()
            assert (ino.cycles, ooo.cycles) == (553, 605)
            assert ooo.branch_mispredictions == 10
            assert (ino.squashed_instructions,
                    ooo.squashed_instructions) == (647, 428)
        correct = [
            FetchSlot(slot.iclass, exec_latency=slot.exec_latency,
                      taken=slot.taken, outcome=BranchOutcome.CORRECT)
            if slot.outcome is BranchOutcome.MISPREDICTION else slot
            for slot in slots]
        ooo = simulate(config, PreannotatedSource(list(correct)))
        ino = simulate(in_order, PreannotatedSource(list(correct)))
        assert (ino.cycles, ooo.cycles) == (393, 364)
