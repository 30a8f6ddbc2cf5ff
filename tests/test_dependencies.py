"""The numpy dependency pass against plain-Python references.

``core.dependencies.dependency_pass`` finds every instruction's RAW,
WAW and WAR distances with sorts and binary searches; the profiler's
skeleton, the locality walk's entries and the baseline profilers are
built from it.  Each is held to the loop it replaced, kept here: a
last-writer/last-reader walk, the block-at-a-time skeleton builder,
the per-instruction entry interning and the baselines' own walks.
"""

import os
import pickle
from collections import Counter
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.hls import hls_profile
from repro.baselines.related import IndependentModel, SizeCorrelatedModel
from repro.config import baseline_config
from repro.core.dependencies import DependencyPass, dependency_pass
from repro.core.profiler import _build_skeleton
from repro.core.sfg import (MAX_DEPENDENCY_DISTANCE, START_BLOCK,
                            StatisticalFlowGraph)
from repro.cpu.locality import EV_DATA, _locality_key, _walk
from repro.frontend.trace import Trace
from repro.frontend.warming import (run_program_with_warmup,
                                    warm_locality_structures)
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.workloads.spec import benchmark_names, build_benchmark

from conftest import Row, make_trace, trace_rows

CAP = MAX_DEPENDENCY_DISTANCE

#: Examples per run of the random-trace differential tests; CI runs a
#: deeper pass by setting ``DEPENDENCY_DIFFERENTIAL_EXAMPLES``.
_DIFFERENTIAL_EXAMPLES = int(os.environ.get(
    "DEPENDENCY_DIFFERENTIAL_EXAMPLES", "100"))


# -- references ------------------------------------------------------


def _in_range(seq, prior):
    return prior is not None and 0 < seq - prior <= CAP


def reference_distances(rows):
    """The last-writer/last-reader walk over a trace's rows: ``(raw,
    waw, war)``, one RAW distance per source operand and one WAW and
    WAR distance per instruction, 0 for none."""
    last_writer, last_reader = {}, {}
    raw, waw, war = [], [], []
    for seq, inst in enumerate(rows):
        for reg in inst.src_regs:
            writer = last_writer.get(reg)
            raw.append(seq - writer if _in_range(seq, writer) else 0)
            last_reader[reg] = seq
        dst = inst.dst_reg
        distances = [0, 0]
        if dst is not None:
            for index, prior in enumerate((last_writer.get(dst),
                                           last_reader.get(dst))):
                if _in_range(seq, prior):
                    distances[index] = seq - prior
            last_writer[dst] = seq
        waw.append(distances[0])
        war.append(distances[1])
    return raw, waw, war


def reference_skeleton(trace, order):
    """The previous builder, one block at a time: ``(pickled SFG,
    block starts, block contexts, branch seqs)``."""
    sfg = StatisticalFlowGraph(order)
    index_of = {}
    starts, contexts, branch_seqs = [0], [], []
    history = (START_BLOCK,) * order
    last_writer, last_reader = {}, {}
    block = []
    for seq, inst in enumerate(trace_rows(trace)):
        block.append((seq, inst))
        if not inst.is_branch:
            continue
        bb = inst.bb_id
        stats = sfg.context_for(history, bb, [i.iclass for _s, i in block],
                                [len(i.src_regs) for _s, i in block])
        stats.occurrences += 1
        sfg.total_block_executions += 1
        sfg.record_transition(history, bb)
        starts.append(starts[-1] + len(block))
        contexts.append(index_of.setdefault(history + (bb,),
                                            len(index_of)))
        branch_seqs.append(seq)
        for slot, (seq, binst) in enumerate(block):
            for operand, reg in enumerate(binst.src_regs):
                writer = last_writer.get(reg)
                if _in_range(seq, writer):
                    stats.record_dependency(slot, operand, seq - writer)
                last_reader[reg] = seq
            dst = binst.dst_reg
            if dst is not None:
                for kind, prior in (("waw", last_writer.get(dst)),
                                    ("war", last_reader.get(dst))):
                    if _in_range(seq, prior):
                        stats.record_anti_dependency(slot, kind,
                                                     seq - prior)
                last_writer[dst] = seq
        if order:
            history = history[1:] + (bb,)
        block = []
    # Every histogram lists its distances in ascending order.
    for stats in sfg.contexts.values():
        for hists in stats.dep_hists + [stats.waw_hists, stats.war_hists]:
            for hist in hists:
                items = sorted(hist.items())
                hist.clear()
                hist.update(items)
    return (pickle.dumps(sfg, pickle.HIGHEST_PROTOCOL), starts, contexts,
            branch_seqs)


def reference_entries(rows, anti):
    """Each instruction's geometry-independent locality entry
    ``(iclass, distances, taken)``: RAW distances in operand order,
    with *anti* then the WAW and the WAR distance."""
    raw, waw, war = reference_distances(rows)
    entries = []
    operand = 0
    for index, inst in enumerate(rows):
        deps = [d for d in raw[operand:operand + len(inst.src_regs)] if d]
        operand += len(inst.src_regs)
        if anti:
            deps += [d for d in (waw[index], war[index]) if d]
        taken = inst.iclass in BRANCH_CLASSES and inst.taken
        entries.append((inst.iclass, tuple(deps), taken))
    return entries


def _skeleton_tuple(skeleton):
    return (skeleton.sfg, list(skeleton.block_starts),
            list(skeleton.block_contexts), skeleton.branch_seqs)


# -- random traces ---------------------------------------------------

_BRANCHES = sorted(BRANCH_CLASSES)
_OTHERS = [c for c in IClass if c not in BRANCH_CLASSES]
#: A few registers, so that reuse, duplicates and self-reads are common.
_REGS = st.integers(0, 5)


@st.composite
def _instructions(draw, branch, n_src):
    """One instruction body: ``(iclass, src_regs, dst_reg, taken)``."""
    iclass = draw(st.sampled_from(_BRANCHES if branch else _OTHERS))
    src = tuple(draw(st.lists(_REGS, min_size=n_src, max_size=n_src)))
    dst = None if branch else draw(st.one_of(st.none(), _REGS))
    return iclass, src, dst, draw(st.booleans())


#: A register-free instruction, to space the others out.
_FILLER = Row(0, IClass.INT_ALU, 9)


@st.composite
def _traces(draw, gaps=True):
    """Blocks of ``(bb_id, body)``; a block's size usually follows its
    id, sometimes not, and the trace may end mid-block.  A slot's
    operand count follows its block id and position, as in a program.
    With *gaps*, fillers space the instructions out by gaps around the
    distance cap."""
    bodies = []
    for _ in range(draw(st.integers(0, 12))):
        bb = draw(st.integers(0, 3))
        size = (bb % 3 + 1 if draw(st.integers(0, 9))
                else draw(st.integers(1, 4)))
        bodies += [draw(_instructions(False, (bb + slot) % 4))
                   for slot in range(size - 1)]
        bodies.append(draw(_instructions(True, (bb + size) % 4)) + (bb,))
    bodies += [draw(_instructions(False, draw(st.integers(0, 3))))
               for _ in range(draw(st.integers(0, 3)))]
    spacing = st.sampled_from([1, 1, 1, 2, 3, 100, 256, 511, 512, 513])
    rows = []
    for body in bodies:
        iclass, src, dst, taken = body[:4]
        bb = body[4] if len(body) > 4 else 9
        rows.append(Row(8 * len(rows), iclass, bb, src, dst, taken=taken))
        if gaps:
            rows += [_FILLER] * (draw(spacing) - 1)
    return make_trace("random", rows)


def _check_pass(trace):
    deps = DependencyPass(trace)
    rows = trace_rows(trace)
    raw, waw, war = reference_distances(rows)
    assert deps.raw.tolist() == raw
    assert deps.waw.tolist() == waw
    assert deps.war.tolist() == war
    branches = [i for i, inst in enumerate(rows) if inst.is_branch]
    assert deps.branches.tolist() == branches
    assert deps.bb_id == [rows[i].bb_id for i in branches]
    assert deps.taken.tolist() == [rows[i].taken for i in branches]
    assert deps.src_off.tolist() == [0] + list(accumulate(
        len(inst.src_regs) for inst in rows))
    return deps


@settings(max_examples=_DIFFERENTIAL_EXAMPLES, derandomize=True,
          deadline=None)
@given(trace=_traces())
def test_pass_matches_the_walk(trace):
    _check_pass(trace)


@settings(max_examples=_DIFFERENTIAL_EXAMPLES, derandomize=True,
          deadline=None)
@given(trace=_traces(gaps=False), order=st.integers(0, 4))
def test_skeleton_matches_the_previous_builder(trace, order):
    try:
        expected = reference_skeleton(trace, order)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            _build_skeleton(trace, order)
        assert str(raised.value) == str(error)
        return
    assert _skeleton_tuple(_build_skeleton(trace, order)) == expected


# -- edge cases ------------------------------------------------------


def _inst(seq, src=(), dst=None, iclass=IClass.INT_ALU, bb=0):
    """An instruction at position *seq*, for :func:`_spaced`."""
    return seq, Row(8 * seq, iclass, bb, src, dst)


def _spaced(name, placed):
    """The trace of instructions placed by :func:`_inst`, register-free
    fillers between them."""
    rows = []
    for seq, row in placed:
        rows += [_FILLER] * (seq - len(rows))
        rows.append(row)
    return make_trace(name, rows)


def _distances(placed):
    """RAW distances of *placed*'s operands, and the WAW and WAR
    distances of each of its instructions."""
    deps = _check_pass(_spaced("edge", placed))
    at = [seq for seq, _row in placed]
    return deps.raw.tolist(), deps.waw[at].tolist(), deps.war[at].tolist()


def test_duplicate_source_registers_share_a_producer():
    raw, _waw, _war = _distances([_inst(0, dst=1), _inst(1, (1, 1), 2)])
    assert raw == [1, 1]


def test_a_self_read_destination_records_no_war():
    raw, waw, war = _distances([_inst(0, dst=1), _inst(1, (2,), 1),
                                _inst(2, (1,), 1)])
    # The last instruction reads r1 (RAW 1 on its writer) and rewrites
    # it (WAW 1); its own read is the last read of r1, so no WAR.
    assert raw == [0, 1]
    assert waw == [0, 1, 1]
    assert war == [0, 0, 0]


def test_non_contiguous_sequence_numbers_set_the_distances():
    raw, waw, war = _distances([_inst(10, dst=3), _inst(17, (3,)),
                                _inst(40, dst=3)])
    assert (raw, waw, war) == ([7], [0, 0, 30], [0, 0, 23])


def test_distance_512_is_kept_and_513_is_not():
    raw, _waw, _war = _distances([_inst(0, dst=1), _inst(1, dst=2),
                                  _inst(512, (1,)), _inst(514, (2,))])
    assert raw == [512, 0]


def test_an_empty_trace():
    deps = dependency_pass(Trace("empty"))
    assert len(deps) == 0
    assert deps.raw.size == deps.waw.size == deps.war.size == 0
    skeleton = _build_skeleton(Trace("empty"), 1)
    assert _skeleton_tuple(skeleton) == reference_skeleton(
        Trace("empty"), 1)


def test_a_trace_ending_mid_block_drops_the_partial_block():
    instructions = [_inst(0, dst=1),
                    _inst(1, (1,), iclass=IClass.INT_COND_BRANCH, bb=5),
                    _inst(2, (1,), 1), _inst(3, (1,), 2)]
    trace = _spaced("partial", instructions)
    skeleton = _build_skeleton(trace, 1)
    assert _skeleton_tuple(skeleton) == reference_skeleton(trace, 1)
    assert list(skeleton.block_starts) == [0, 2]
    assert dependency_pass(trace).raw.tolist() == [1, 2, 1]


def test_orders_beyond_the_block_count():
    """Fewer blocks than the order: every context starts with
    START_BLOCK padding."""
    for count in range(1, 6):
        trace = _spaced("short", [
            _inst(i, (1,), iclass=IClass.INT_COND_BRANCH, bb=i % 2)
            for i in range(count)])
        for order in range(7):
            assert (_skeleton_tuple(_build_skeleton(trace, order))
                    == reference_skeleton(trace, order)), (count, order)


def test_a_resized_context_is_rejected():
    trace = _spaced("resized", [
        _inst(0, iclass=IClass.INT_COND_BRANCH, bb=1), _inst(1),
        _inst(2, iclass=IClass.INT_COND_BRANCH, bb=1)])
    with pytest.raises(ValueError,
                       match=r"context \(1,\) re-observed with a different"):
        _build_skeleton(trace, 0)


def test_the_pass_is_memoized_per_trace():
    trace = _spaced("memo", [_inst(0, dst=1), _inst(1, (1,))])
    assert dependency_pass(trace) is dependency_pass(trace)
    other = trace.window(0, len(trace), "memo")
    assert dependency_pass(other) is not dependency_pass(trace)


# -- whole benchmarks ------------------------------------------------


@pytest.fixture(scope="module")
def suite_windows():
    return {name: run_program_with_warmup(build_benchmark(name),
                                          warmup=1_000, n_instructions=5_000)
            for name in benchmark_names()}


@pytest.mark.parametrize("order", [0, 1, 2])
def test_skeleton_bytes_match_on_every_benchmark(suite_windows, order):
    for name, (_warm, trace) in suite_windows.items():
        assert (_skeleton_tuple(_build_skeleton(trace, order))
                == reference_skeleton(trace, order)), name


def _expected_resolution(entries, events):
    """``(keys, distinct)`` numbered by first appearance."""
    index = {}
    keys = [index.setdefault((iclass, bits, deps, taken, None), len(index))
            for (iclass, deps, taken), bits in zip(entries, events)]
    return keys, list(index)


@pytest.mark.parametrize("perfect", [False, True])
@pytest.mark.parametrize("name", ["gzip", "twolf", "parser"])
def test_locality_entries_match_the_interning_walk(suite_windows, name,
                                                   perfect):
    warm, trace = suite_windows[name]
    base = baseline_config()
    configs = {}
    for anti in (False, True):
        config = replace(base, enforce_anti_dependencies=anti)
        configs[_locality_key(config, perfect)] = config
    rows = trace_rows(trace)
    if perfect:
        events = [EV_DATA if inst.iclass is IClass.LOAD else 0
                  for inst in rows]
    else:
        hierarchy, _ = warm_locality_structures(warm, base)
        walked = bytearray()
        hierarchy.walk(trace, walked)
        events = list(walked)
    for key, resolution in _walk(trace, configs, warm).items():
        anti = key[1]
        keys, distinct = _expected_resolution(
            reference_entries(rows, anti), events)
        assert list(resolution.keys) == keys, (name, anti)
        assert resolution.distinct == distinct, (name, anti)
        assert [type(field) for entry in resolution.distinct
                for field in entry] == [type(field) for entry in distinct
                                        for field in entry]


def _reference_dependency_stats(rows):
    """The baselines' walk: the RAW histogram, dependent operands and
    all operands, over the whole trace and per complete block's size."""
    raw, _waw, _war = reference_distances(rows)
    whole = [Counter(), 0, 0]
    per_size = {}
    block, operand = [], 0
    for inst in rows:
        block.append(raw[operand:operand + len(inst.src_regs)])
        operand += len(inst.src_regs)
        for d in block[-1]:
            whole[2] += 1
            if d:
                whole[0][d] += 1
                whole[1] += 1
        if inst.is_branch:
            stats = per_size.setdefault(len(block), [Counter(), 0, 0])
            for d in (d for distances in block for d in distances):
                stats[2] += 1
                if d:
                    stats[0][d] += 1
                    stats[1] += 1
            block = []
    return whole, per_size


@pytest.mark.parametrize("name", ["gzip", "twolf", "parser", "vortex"])
def test_baseline_profiles_match_the_walk(suite_windows, name):
    _warm, trace = suite_windows[name]
    config = baseline_config()
    (hist, dependent, operands), per_size = _reference_dependency_stats(
        trace_rows(trace))
    distances = tuple(sorted(hist))

    profile = hls_profile(trace, config)
    assert profile.dependency_distances == (
        distances, tuple(hist[d] for d in distances))
    assert profile.dependency_fraction == dependent / operands

    independent = IndependentModel(trace, config)
    assert independent._distances.values == list(distances)
    assert independent._distances.cumulative == list(
        accumulate(hist[d] for d in distances))
    assert independent._p_dep == dependent / operands

    correlated = SizeCorrelatedModel(trace, config)
    assert set(correlated._frozen_dep) == set(per_size)
    for size, (size_hist, size_dependent, size_operands) in \
            per_size.items():
        frozen, p_dep = correlated._frozen_dep[size]
        assert frozen.values == sorted(size_hist)
        assert frozen.total == sum(size_hist.values())
        assert p_dep == (size_dependent / size_operands
                         if size_operands else 0.0)


def test_wide_registers_and_sequence_numbers():
    """The widest registers a trace holds, over enough positions that
    keys ``register * n + position`` pass int32, take the int64
    path."""
    top = (1 << 15) - 1
    n = (1 << 31) // top + 10
    trace = make_trace("wide", [
        Row(0, IClass.INT_ALU, 0, (top - (i + 1) % 3, i % 7), top - i % 3)
        for i in range(n)])
    deps = _check_pass(trace)
    assert deps.raw.any() and deps.waw.any() and deps.war.any()


def test_packed_rows_are_equal_exactly_when_the_rows_are():
    """Columns that would overflow 62 bits are renumbered on the way."""
    from repro.core.dependencies import pack_columns

    rng = np.random.default_rng(7)
    columns = [rng.integers(0, 3, 500) for _ in range(50)]
    codes = pack_columns(500, columns, [1 << 20] * 50).tolist()
    rows = list(zip(*(column.tolist() for column in columns)))
    # One row per code, and as many codes as rows.
    row_of = {}
    for code, row in zip(codes, rows):
        assert row_of.setdefault(code, row) == row
    assert len(row_of) == len(set(rows))
