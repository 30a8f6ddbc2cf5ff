"""Unit tests for the hot-path categorical samplers.

The guide-table and Fenwick samplers carry a *draw-stability* contract
(same uniform, same outcome as the legacy ``bisect_right`` code) that
the determinism goldens depend on; these tests check that contract
directly against ``bisect_right`` over thousands of randomized draws,
including adversarial weight shapes (zeros, single spikes, draining
counts).
"""

import random
from bisect import bisect_right
from itertools import accumulate

import pytest

from repro.core.sampling import FenwickSampler, GuideTableSampler

WEIGHT_SHAPES = [
    [1],
    [5],
    [1, 1, 1, 1],
    [1000, 1, 1, 1],
    [1, 1, 1, 1000],
    [0, 3, 0, 0, 7, 0],
    [0, 0, 1],
    [2, 0, 0, 0, 0, 9, 4],
    list(range(1, 60)),
    [17] * 128,
    [2 ** 40, 1, 2 ** 40],
]


def _legacy_bisect(cumulative, u, total):
    index = bisect_right(cumulative, u * total)
    return min(index, len(cumulative) - 1)


@pytest.mark.parametrize("weights", WEIGHT_SHAPES,
                         ids=[str(i) for i in range(len(WEIGHT_SHAPES))])
def test_guide_table_matches_bisect(weights):
    sampler = GuideTableSampler(weights)
    cumulative = list(accumulate(weights))
    total = cumulative[-1]
    rng = random.Random(42)
    for _ in range(4000):
        u = rng.random()
        assert sampler.sample(u) == _legacy_bisect(cumulative, u, total)
    # Boundary uniforms, including ones that land exactly on cumulative
    # edges after the float multiply.
    for u in [0.0, 0.5, 1.0 - 2 ** -53]:
        assert sampler.sample(u) == _legacy_bisect(cumulative, u, total)
    for edge in cumulative:
        u = edge / total
        if u < 1.0:
            assert sampler.sample(u) == _legacy_bisect(cumulative, u,
                                                       total)


def test_guide_table_empty_and_totals():
    assert GuideTableSampler([]).total == 0
    assert GuideTableSampler([3, 4]).total == 7


def _fenwick_reference_sample(weights, u):
    """What the legacy restart code did: bisect over the cumulative
    weights of the currently *positive* entries."""
    entries = [(i, w) for i, w in enumerate(weights) if w > 0]
    cumulative = list(accumulate(w for _, w in entries))
    draw = u * cumulative[-1]
    return entries[bisect_right(cumulative, draw)][0]


@pytest.mark.parametrize("weights", [w for w in WEIGHT_SHAPES
                                     if sum(w) > 0])
def test_fenwick_matches_filtered_bisect(weights):
    sampler = FenwickSampler(weights)
    rng = random.Random(7)
    for _ in range(2000):
        u = rng.random()
        assert sampler.sample(u) == _fenwick_reference_sample(weights, u)


def test_fenwick_drain_stays_equivalent():
    """Decrement weights the way the random walk drains start-node
    budgets; the sampler must keep matching the filtered bisect."""
    rng = random.Random(3)
    weights = [rng.randrange(0, 6) for _ in range(40)]
    while sum(weights) == 0:
        weights = [rng.randrange(0, 6) for _ in range(40)]
    sampler = FenwickSampler(list(weights))
    while sampler.total > 0:
        u = rng.random()
        index = sampler.sample(u)
        assert index == _fenwick_reference_sample(weights, u)
        assert weights[index] > 0  # zero entries can't absorb a draw
        weights[index] -= 1
        sampler.add(index, -1)
        assert sampler.weight(index) == weights[index]
    assert sampler.total == 0


def test_fenwick_add_and_weight_roundtrip():
    sampler = FenwickSampler([4, 0, 9, 2])
    assert [sampler.weight(i) for i in range(4)] == [4, 0, 9, 2]
    sampler.add(1, 5)
    sampler.add(2, -9)
    assert [sampler.weight(i) for i in range(4)] == [4, 5, 0, 2]
    assert sampler.total == 11


def test_fenwick_rejects_negative_weights():
    with pytest.raises(ValueError):
        FenwickSampler([1, -2])
