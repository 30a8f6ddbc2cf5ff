"""Tests for synthetic trace generation (the nine-step algorithm)."""

import hashlib
import json
import random
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import positions
from repro.config import baseline_config
from repro.isa.iclass import BRANCH_CLASSES, PRODUCING_CLASSES, IClass
from repro.branch.unit import BranchOutcome
from repro.core.profiler import StatisticalProfile, profile_trace
from repro.core.reduction import reduce_flow_graph
from repro.core.sfg import ContextStats, StatisticalFlowGraph
from repro.core.synthesis import (MAX_DEPENDENCY_RETRIES, _build_recipes,
                                  _Interner, generate_synthetic_trace,
                                  prepare_recipes)
from repro.core.synthetic import SyntheticTrace
from repro.cpu.locality import (EV_DL1, EV_DTLB, EV_IL1, EV_ITLB, EV_L2D,
                                EV_L2I)
from repro.experiments.common import QUICK_SCALE, prepare_benchmark
from repro.frontend.warming import run_program_with_warmup
from repro.obs.metrics import get_registry
from repro.workloads.spec import build_benchmark


@pytest.fixture
def tiny_profile(tiny_trace, config):
    return profile_trace(tiny_trace, config, order=1)


@pytest.fixture
def small_profile(small_trace, config):
    return profile_trace(small_trace, config, order=1)


class TestWalk:
    def test_emits_budgeted_blocks(self, tiny_profile):
        reduced = reduce_flow_graph(tiny_profile.sfg, 4)
        synthetic = generate_synthetic_trace(tiny_profile, 4, seed=0)
        branches = sum(count for entry, count in synthetic.counted
                       if entry[0] in BRANCH_CLASSES)
        assert branches == reduced.total_blocks

    def test_deterministic_per_seed(self, small_profile):
        a = generate_synthetic_trace(small_profile, 4, seed=7)
        b = generate_synthetic_trace(small_profile, 4, seed=7)
        assert len(a) == len(b)
        assert [e[0] for e in positions(a)] == [e[0] for e in positions(b)]
        assert [e[2] for e in positions(a)] == [e[2] for e in positions(b)]

    def test_seeds_differ(self, small_profile):
        a = generate_synthetic_trace(small_profile, 4, seed=1)
        b = generate_synthetic_trace(small_profile, 4, seed=2)
        assert [e[0] for e in positions(a)] != [e[0] for e in positions(b)]

    def test_order_zero_walk(self, small_trace, config):
        profile = profile_trace(small_trace, config, order=0)
        synthetic = generate_synthetic_trace(profile, 4, seed=0)
        reduced = reduce_flow_graph(profile.sfg, 4)
        branches = sum(count for entry, count in synthetic.counted
                       if entry[0] in BRANCH_CLASSES)
        assert branches == reduced.total_blocks

    def test_block_mix_preserved(self, small_profile, small_trace):
        synthetic = generate_synthetic_trace(small_profile, 2, seed=0)
        real_mix = small_trace.instruction_mix()
        loads = sum(count for entry, count in synthetic.counted
                    if entry[0] is IClass.LOAD) / len(synthetic)
        assert abs(loads - real_mix.get(IClass.LOAD, 0.0)) < 0.08

    def test_max_instructions_cap(self, small_profile):
        synthetic = generate_synthetic_trace(small_profile, 1, seed=0,
                                             max_instructions=100)
        assert len(synthetic) <= 100 + 30  # cap checked per block

    def test_reduced_graph_ownership_checked(self, small_profile,
                                             tiny_profile):
        foreign = reduce_flow_graph(tiny_profile.sfg, 2)
        with pytest.raises(ValueError):
            generate_synthetic_trace(small_profile, 2, reduced=foreign)
        with pytest.raises(ValueError):
            prepare_recipes(small_profile, foreign)


class TestDependencies:
    def test_no_dependency_on_branch_or_store(self, small_profile):
        # Paper section 2.2 step 4: rejected and redrawn, squashed
        # after 1000 tries.
        synthetic = generate_synthetic_trace(small_profile, 2, seed=3)
        entries = positions(synthetic)
        for index, entry in enumerate(entries):
            for distance in entry[2]:
                if index - distance >= 0:
                    assert entries[index - distance][0] in \
                        PRODUCING_CLASSES

    def test_distances_positive(self, small_profile):
        synthetic = generate_synthetic_trace(small_profile, 2, seed=3)
        for entry in synthetic.distinct:
            for distance in entry[2]:
                assert distance > 0


class TestAnnotations:
    def test_flags_only_on_loads(self, small_profile):
        synthetic = generate_synthetic_trace(small_profile, 2, seed=1)
        for iclass, events, _deps, _taken, _outcome in synthetic.distinct:
            if iclass is not IClass.LOAD:
                assert not events & (EV_DL1 | EV_L2D | EV_DTLB)

    def test_l2_miss_requires_l1_miss(self, small_profile):
        synthetic = generate_synthetic_trace(small_profile, 2, seed=1)
        for entry in synthetic.distinct:
            events = entry[1]
            if events & EV_L2D:
                assert events & EV_DL1
            if events & EV_L2I:
                assert events & EV_IL1

    def test_outcomes_only_on_branches(self, small_profile):
        synthetic = generate_synthetic_trace(small_profile, 2, seed=1)
        for iclass, _events, _deps, taken, outcome in synthetic.distinct:
            if iclass in BRANCH_CLASSES:
                assert outcome in BranchOutcome
            else:
                assert outcome is None
                assert not taken

    def test_misprediction_rate_preserved(self, small_trace, config):
        profile = profile_trace(small_trace, config, order=1)
        synthetic = generate_synthetic_trace(profile, 2, seed=0)
        # Real rate from the profile's own annotations.
        mispredicts = sum(s.outcome_counts[BranchOutcome.MISPREDICTION]
                          for s in profile.sfg.contexts.values())
        total = sum(s.occurrences for s in profile.sfg.contexts.values())
        real_rate = mispredicts / total
        branches = [e for e in positions(synthetic)
                    if e[0] in BRANCH_CLASSES]
        syn_rate = sum(e[4] is BranchOutcome.MISPREDICTION
                       for e in branches) / len(branches)
        assert abs(syn_rate - real_rate) < 0.05

    def test_perfect_profile_gives_clean_trace(self, small_trace,
                                               config):
        profile = profile_trace(small_trace, config, order=1,
                                branch_mode="perfect",
                                perfect_caches=True)
        synthetic = generate_synthetic_trace(profile, 2, seed=0)
        for iclass, events, _deps, _taken, outcome in synthetic.distinct:
            assert not events & (EV_IL1 | EV_DL1)
            if iclass in BRANCH_CLASSES:
                assert outcome is BranchOutcome.CORRECT

    def test_taken_rate_preserved(self, small_trace, config):
        profile = profile_trace(small_trace, config, order=1)
        synthetic = generate_synthetic_trace(profile, 2, seed=0)
        taken_real = sum(s.taken for s in profile.sfg.contexts.values())
        total = sum(s.occurrences for s in profile.sfg.contexts.values())
        branches = [e for e in positions(synthetic)
                    if e[0] in BRANCH_CLASSES]
        taken_syn = sum(e[3] for e in branches) / len(branches)
        assert abs(taken_syn - taken_real / total) < 0.07


def _fields(trace):
    return [(iclass, deps)
            + tuple(bool(events & bit) for bit in (
                EV_IL1, EV_L2I, EV_ITLB, EV_DL1, EV_L2D, EV_DTLB))
            + (taken, outcome)
            for iclass, events, deps, taken, outcome in positions(trace)]


#: Per block: slot classes and one operand dependency table per slot
#: (``None`` = no source operand).  The walk cycles 0 -> 1 -> 2 -> 0,
#: 40 visits per block; a table holding 40 or more counts always has a
#: dependency.
_LD, _ST, _ALU, _BR = (IClass.LOAD, IClass.STORE, IClass.INT_ALU,
                       IClass.INT_COND_BRANCH)
_RETRY_BLOCKS = {
    # Slot 2's only distance lands on the in-block store: squashed on
    # every visit after one draw.  The branch's distance 20 reaches
    # before the trace start on the first visits.
    0: ([_LD, _ST, _ALU, _BR], [None, None, {1: 40}, {2: 30, 20: 10}]),
    # Both of slot 2's distances land on in-block stores: a certain
    # squash that only the scan of the whole table can establish.
    1: ([_ST, _ST, _ALU, _BR], [None, None, {1: 20, 2: 20}, None]),
    # Distances 1-8 land on stores, 9 on the leading ALU: the loop
    # usually accepts after hundreds of draws and now and then
    # exhausts all 1,000 retries.
    2: ([_ALU] + [_ST] * 8 + [_ALU, _BR],
        [None] * 9 + [{**{d: 1000 for d in range(1, 9)}, 9: 20}, None]),
}


#: Blocks whose retry loops reject redraws below a floor.
_FLOOR_BLOCKS = {
    # Slot 3's shortest distance reaches the ALU in slot 2, so the floor
    # is 0 and every redraw walks the table; distances 2 and 3 land on
    # stores.
    0: ([_ST, _ST, _ALU, _ALU, _BR], [None, None, None,
                                      {1: 5, 2: 30, 3: 30}, None]),
    # Slot 5's distances alternate: 1, 2 and 4 land on stores, 3 and 5
    # on ALUs and 6 on the previous block's branch.  Rejected distances
    # lie on both sides of the shortest acceptable one (3), so a redraw
    # above the floor can still be rejected; now and then all 1,000
    # retries are exhausted.
    1: ([_ALU, _ST, _ALU, _ST, _ST, _ALU, _BR],
        [None] * 5 + [{1: 300, 2: 300, 3: 1, 4: 60, 5: 1, 6: 40}, None]),
}


def _retry_profile(config, visits=40, blocks=_RETRY_BLOCKS):
    sfg = StatisticalFlowGraph(order=1)
    for block, (iclasses, tables) in blocks.items():
        previous = (block - 1) % len(blocks)
        stats = sfg.context_for(
            (previous,), block, iclasses,
            [0 if table is None else 1 for table in tables])
        stats.occurrences = visits
        for slot, table in enumerate(tables):
            if table is not None:
                stats.dep_hists[slot][0] = dict(table)
            stats.il1[slot] = visits // 3
            stats.l2i[slot] = visits // 8
            stats.itlb[slot] = visits // 10
            if iclasses[slot] is IClass.LOAD:
                stats.dl1[slot] = visits // 2
                stats.l2d[slot] = visits // 5
        stats.taken = visits // 2
        stats.outcome_counts = [visits - 6, 2, 4]
        sfg.transitions[(previous,)] = {block: visits}
        sfg.total_block_executions += visits
    return StatisticalProfile(
        name="retry", order=1, sfg=sfg,
        trace_instructions=visits * sum(
            len(iclasses) for iclasses, _tables in blocks.values()),
        branch_mode="delayed",
        perfect_caches=False, config=config)


def _digest(trace):
    """SHA-256 of a byte-stable JSON form of a trace's fields."""
    payload = [[iclass.name, list(deps), *map(int, events), int(taken),
                None if outcome is None else outcome.name]
               for iclass, deps, *events, taken, outcome in _fields(trace)]
    return hashlib.sha256(json.dumps(
        payload, separators=(",", ":")).encode()).hexdigest()


#: ``_digest`` of the pre-overhaul generator's trace of ``_retry_profile``
#: at R = 1, per seed.  That generator ran every one of step 4's 1,000
#: retries.
_LEGACY_DIGESTS = {
    0: "119f0f9eee8068de46718109bbc0765b950de048d0bf5aa85ec47324c6feeee8",
    1: "14d1b3decd10ee3cf948692e9b6c674e25bed6a1ba2280ddc923ce70796c832b",
    2: "2936c95a56151d6eb445ae8561191a4dfd377fe413da2647bab4703d352bc2a5",
    3: "f616c36c148f3962eddc8a4dbfeed9e3a61e56a61a2da7a652f015ad477b5738",
    4: "905116f621cf839ccf442e13e6b5c6444d9af3f654d8af339151626c8cfa5e2b",
}

#: ``_digest`` of the pre-overhaul generator's seed-0 trace of gzip's
#: quick-scale profile, per reduction factor: the short figure 6
#: regime and the long-trace regime.
_LEGACY_GZIP_DIGESTS = {
    1000.0: "35500e6d18bc817ba2f700cf47e7fe05f78879028361410cf1d2c156fed37123",
    4.0: "19558cb346f383dc63fc82b7ba3d4ccdb0887ad1f0e55aaaf95117d12efbcebd",
}


class TestDependencySquashSkip:
    """Step 4's certain squashes are skipped without changing a draw:
    the traces must match the pinned digests of the pre-overhaul
    generator, which ran every one of the 1,000 retries."""

    @pytest.fixture
    def profile(self, config):
        return _retry_profile(config)

    @pytest.fixture(scope="class")
    def gzip_profile(self):
        warm, trace = prepare_benchmark("gzip", QUICK_SCALE)
        return profile_trace(trace, baseline_config(), order=1,
                             branch_mode="delayed", warmup_trace=warm)

    @pytest.mark.parametrize("seed", sorted(_LEGACY_DIGESTS))
    def test_matches_pinned_digest(self, profile, seed):
        synthetic = generate_synthetic_trace(profile, 1, seed=seed)
        assert _digest(synthetic) == _LEGACY_DIGESTS[seed]

    @pytest.mark.parametrize("reduction", sorted(_LEGACY_GZIP_DIGESTS))
    def test_gzip_matches_pinned_digest(self, gzip_profile, reduction):
        synthetic = generate_synthetic_trace(gzip_profile, reduction,
                                             seed=0)
        assert _digest(synthetic) == _LEGACY_GZIP_DIGESTS[reduction]

    def test_squashes_counted_and_long_loops_accept(self, profile):
        counter = get_registry().counter("synthesis.dependency_squashes")
        before = counter.value
        synthetic = generate_synthetic_trace(profile, 1, seed=0)
        # Blocks 0 and 1 squash slot 2 on each of their 40 visits.
        assert counter.value - before >= 80
        # Block 2's long retry loops do reach the one accepted distance.
        assert any(entry[2] == (9,) for entry in synthetic.distinct)


#: ``_digest`` of the trace of ``_retry_profile(_FLOOR_BLOCKS)`` at
#: R = 1, per seed, generated by the emitter that walked the table on
#: every redraw.
_FLOOR_DIGESTS = {
    0: "d0a1f1a4972a0495570d6e5cd25974c860db68a70b7c9fbd213eebca400dd1ac",
    1: "d3bfa325bfdd5256602884d5389decd781e3a6ce10b6e16225e3b014e0032988",
    2: "a2287dc1c1efc6ef9c1b400cda087a7a3ba2de72f14ab3f5afc7bdfa7ef85cee",
    3: "c7b9e72aa16e88cc6c6b15a164e899dda8eb2366957583a54d0a390002abebe7",
}


def _one_operand_emitter(histogram):
    """The compiled emitter of a one-slot ALU block whose only operand
    always has a dependency, drawn from *histogram*."""
    stats = ContextStats([IClass.INT_ALU], [1])
    stats.occurrences = sum(histogram.values())
    stats.dep_hists[0][0] = dict(histogram)
    return _build_recipes(stats, False)


def _emitted_deps(emit, produces, rng, rand=None):
    """Run *emit* once after a *produces* window; its dependencies."""
    def squash(skipped):
        if skipped:
            rng.getrandbits(64 * skipped)

    out = [0] * len(produces)
    intern = _Interner()
    emit(out, list(produces), rand or rng.random, squash, intern)
    return intern.entries()[out[-1]][2]


def _reference_deps(histogram, produces, rng):
    """Step 4 as the paper states it, one table lookup per draw, for the
    block of :func:`_one_operand_emitter`."""
    distances = sorted(histogram)
    cumulative = list(accumulate(histogram[d] for d in distances))
    base = len(produces)
    rng.random()  # the gate draw, p_dep = 1
    deps = ()
    for _ in range(MAX_DEPENDENCY_RETRIES):
        index = bisect_right(cumulative, rng.random() * cumulative[-1])
        distance = distances[min(index, len(distances) - 1)]
        if distance > base or produces[base - distance]:
            deps = (distance,)
            break
    rng.random()  # il1, rate 0
    rng.random()  # itlb, rate 0
    return deps


class TestRedrawFloor:
    """Step 4 redraws below the shortest acceptable distance are
    rejected without a table walk; no draw moves."""

    @pytest.mark.parametrize("seed", sorted(_FLOOR_DIGESTS))
    def test_floor_blocks_match_pinned_digest(self, config, seed):
        profile = _retry_profile(config, blocks=_FLOOR_BLOCKS)
        synthetic = generate_synthetic_trace(profile, 1, seed=seed)
        assert _digest(synthetic) == _FLOOR_DIGESTS[seed]

    @settings(max_examples=300, deadline=None)
    @given(histogram=st.dictionaries(
               st.integers(1, 16),
               st.one_of(st.integers(1, 9), st.integers(1, 10 ** 9)),
               min_size=1, max_size=8),
           produces=st.lists(st.sampled_from((0, 0, 0, 1)), max_size=20),
           seed=st.integers(0, 2 ** 32))
    def test_retry_loop_matches_per_draw_reference(self, histogram,
                                                   produces, seed):
        emitted = random.Random(seed)
        reference = random.Random(seed)
        deps = _emitted_deps(_one_operand_emitter(histogram), produces,
                             emitted)
        assert deps == _reference_deps(histogram, produces, reference)
        assert emitted.getstate() == reference.getstate()

    @pytest.mark.parametrize("uniforms, produces", [
        # The first draw is 1.0.
        ((0.0, 1.0), [1] * 8),
        # The first draw lands on distance 1, which is rejected; the
        # redraw is 1.0.
        ((0.0, 0.0, 1.0), [0, 1, 1, 1, 1, 1, 1, 0]),
    ], ids=["first-draw", "redraw"])
    def test_walk_is_bounded_at_the_closed_end(self, uniforms, produces):
        # random() never returns 1.0, but the walk's sentinels keep it in
        # the table there too, on the last distance, as
        # GuideTableSampler.sample clamps.
        histogram = {1: 3, 2: 5, 7: 11}
        draws = iter(uniforms + (0.5, 0.5))
        deps = _emitted_deps(_one_operand_emitter(histogram), produces,
                             random.Random(0), rand=draws.__next__)
        assert deps == (7,)

    def test_redraw_at_the_floor_walks(self):
        # Distance 1 is rejected and distance 2 accepted, so the floor is
        # distance 1's weight, 1 of 4.  A redraw of 0.25 scales to exactly
        # the floor and lands on distance 2, as in the per-draw loop.
        histogram = {1: 1, 2: 1, 7: 2}
        produces = [1, 1, 1, 1, 1, 1, 1, 0]
        draws = iter((0.0, 0.0, 0.25, 0.5, 0.5, 0.5))
        deps = _emitted_deps(_one_operand_emitter(histogram), produces,
                             random.Random(0), rand=draws.__next__)
        assert deps == (2,)


class TestInterning:
    """Within one synthesis call, instructions with the same class,
    events and dependencies are one shared entry, and the pipeline
    conversion prices one row per entry."""

    @pytest.fixture(scope="class")
    def profile(self):
        config = baseline_config()
        warm, trace = run_program_with_warmup(
            build_benchmark("twolf"), warmup=2_000, n_instructions=6_000)
        return profile_trace(trace, config, order=1,
                             branch_mode="delayed", warmup_trace=warm)

    def test_trace_reuses_instances(self, profile):
        synthetic = generate_synthetic_trace(profile, 2, seed=0)
        assert len(synthetic.distinct) < len(synthetic) // 4
        assert len(set(synthetic.distinct)) == len(synthetic.distinct)

    def test_entries_not_shared_across_calls(self, profile):
        first = generate_synthetic_trace(profile, 2, seed=0)
        second = generate_synthetic_trace(profile, 2, seed=0)
        assert _fields(first) == _fields(second)
        assert not ({id(entry) for entry in first.distinct}
                    & {id(entry) for entry in second.distinct})

    def test_fetch_slots_match_per_instance_conversion(self, profile,
                                                       config):
        synthetic = generate_synthetic_trace(profile, 2, seed=1)
        rows = synthetic.to_fetch_slots(config)
        assert len(rows) == len(synthetic)
        assert len({id(row) for row in rows}) == len(synthetic.distinct)
        for entry, row in zip(positions(synthetic), rows):
            alone = SyntheticTrace.from_entries(
                "one", [entry], order=1, reduction_factor=1.0)
            assert alone.to_fetch_slots(config)[0] == row
