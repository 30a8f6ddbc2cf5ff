"""The numpy passes of a locality walk against plain-Python references.

``cpu.locality.number_entries`` numbers one geometry's entries with
``np.unique`` and ``np.bincount``; ``core.profiler._cache_events``
folds a resolution's event bits into context slots with
``np.searchsorted``.  Each is held to the loop it replaced, kept here:
a ``setdefault`` numbering plus ``Counter`` tallies, and a per-position
``bisect_right`` fold.
"""

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import baseline_config
from repro.core.profiler import _skeleton, profile_trace
from repro.cpu.locality import (EV_LOCALITY, _walk, _locality_key,
                                entry_tallies, number_entries)
from repro.experiments.table4_relative import SCALE_POINTS
from repro.frontend.trace import Trace
from repro.frontend.warming import run_program_with_warmup
from repro.workloads.spec import build_benchmark


def reference_numbering(ids, events):
    """The ``setdefault`` pass: ``(keys, codes, counts)`` with entries
    numbered by first appearance."""
    index = {}
    setdefault = index.setdefault
    keys = [setdefault(base << 7 | bits, len(index))
            for base, bits in zip(ids, events)]
    counted = Counter(keys)
    return keys, list(index), [counted[key] for key in range(len(index))]


def numbered(ids, events):
    keys, codes, counts = number_entries(np.array(ids, dtype=np.uintc),
                                         np.array(events, dtype=np.uint8))
    assert isinstance(keys, array) and keys.typecode == "I"
    return list(keys), codes, counts


class TestNumberEntries:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 127)),
                    max_size=300))
    def test_matches_setdefault(self, pairs):
        """Empty input included: hypothesis always tries it."""
        ids = [base for base, _bits in pairs]
        events = [bits for _base, bits in pairs]
        assert numbered(ids, events) == reference_numbering(ids, events)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1),
                              st.integers(0, 127)), max_size=50))
    def test_wide_base_ids(self, pairs):
        """A base id keeps all 32 bits under the 7-bit shift."""
        ids = [base for base, _bits in pairs]
        events = [bits for _base, bits in pairs]
        assert numbered(ids, events) == reference_numbering(ids, events)

    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_more_than_two_to_the_sixteen_entries(self, seed):
        rng = np.random.default_rng(seed)
        n = 90_000
        ids = rng.integers(0, 2_000, n).tolist()
        events = rng.integers(0, 128, n).tolist()
        keys, codes, counts = numbered(ids, events)
        assert len(codes) > 2**16
        assert (keys, codes, counts) == reference_numbering(ids, events)


# -- whole walks: every id flavour, perfect and real caches ----------


@pytest.fixture(scope="module")
def gzip_windows():
    return run_program_with_warmup(build_benchmark("gzip"), warmup=1_000,
                                   n_instructions=4_000)


def check_resolution(resolution):
    """*resolution* is numbered by first appearance of its entries, and
    its tallies are the ``Counter`` tallies."""
    entries = [resolution.distinct[key] for key in resolution.keys]
    index = {}
    expected = [index.setdefault(entry, len(index)) for entry in entries]
    assert list(resolution.keys) == expected
    assert resolution.distinct == list(index)
    assert resolution.tallies == entry_tallies(
        (resolution.distinct[key], count)
        for key, count in Counter(resolution.keys).items())


@pytest.mark.parametrize("perfect", [False, True])
def test_walk_numbers_every_flavour_by_first_appearance(gzip_windows,
                                                        perfect):
    warm, trace = gzip_windows
    base = baseline_config()
    configs = {}
    for anti in (False, True):
        for scale in (0.25, 1.0):
            config = replace(base.with_cache_scale(scale),
                             enforce_anti_dependencies=anti)
            configs[_locality_key(config, perfect)] = config
    resolutions = _walk(trace, configs, warm)
    assert len(resolutions) == len(configs)
    for resolution in resolutions.values():
        check_resolution(resolution)
    plain = {key: r for key, r in resolutions.items() if not key[1]}
    anti = {key: r for key, r in resolutions.items() if key[1]}
    assert plain and anti


def test_walk_of_an_empty_trace():
    config = baseline_config()
    for perfect in (False, True):
        key = _locality_key(config, perfect)
        resolution = _walk(Trace("empty", []), {key: config}, None)[key]
        assert list(resolution.keys) == []
        assert resolution.distinct == []
        assert resolution.tallies == entry_tallies([])
        profile = profile_trace(Trace("empty", []), config,
                                perfect_caches=perfect)
        assert profile.sfg.contexts == {}


# -- the profiler's cache annotation --------------------------------


def reference_cache_annotation(resolution, skeleton):
    """The per-position loop: ``{(context, slot): [six counts]}``."""
    contexts = skeleton.block_contexts
    starts = skeleton.block_starts
    key_events = [entry[1] & EV_LOCALITY for entry in resolution.distinct]
    cells = {}
    for position, key in enumerate(resolution.keys[:starts[-1]]):
        events = key_events[key]
        if events:
            block = bisect_right(starts, position) - 1
            cell = cells.setdefault(
                (contexts[block], position - starts[block]), [0] * 6)
            for bit in range(6):
                cell[bit] += events >> bit & 1
    return cells


_FIELDS = ("il1", "l2i", "itlb", "dl1", "l2d", "dtlb")


@pytest.mark.parametrize("bench", ["gzip", "twolf", "parser"])
def test_cache_annotation_matches_the_position_loop(bench):
    from repro.cpu.locality import resolve_locality

    warm, trace = run_program_with_warmup(build_benchmark(bench),
                                          warmup=1_000, n_instructions=4_000)
    base = baseline_config()
    for scale in SCALE_POINTS:
        config = base.with_cache_scale(scale)
        profile = profile_trace(trace, config, order=1, warmup_trace=warm)
        resolution = resolve_locality(trace, config, warm)
        expected = reference_cache_annotation(resolution,
                                              _skeleton(trace, 1))
        assert expected, (bench, scale)
        stats = list(profile.sfg.contexts.values())
        seen = {}
        for index, context in enumerate(stats):
            for slot in range(context.block_size):
                counts = [getattr(context, field)[slot]
                          for field in _FIELDS]
                if any(counts):
                    seen[(index, slot)] = counts
                for field in _FIELDS:
                    assert type(getattr(context, field)[slot]) is int
        assert seen == {cell: counts for cell, counts in expected.items()
                        if any(counts)}, (bench, scale)


def test_perfect_caches_annotate_nothing(gzip_windows):
    warm, trace = gzip_windows
    profile = profile_trace(trace, baseline_config(), order=1,
                            perfect_caches=True, warmup_trace=warm)
    assert profile.sfg.contexts
    for context in profile.sfg.contexts.values():
        for field in _FIELDS:
            assert getattr(context, field) == [0] * context.block_size
