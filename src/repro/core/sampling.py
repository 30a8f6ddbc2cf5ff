"""Fast categorical samplers for the synthesis hot path.

The nine-step random walk (section 2.2) draws millions of categorical
samples — dependency distances, start nodes, branch outcomes, outgoing
edges.  The original implementation paid ``O(n)`` per start-node draw
(rebuilding a cumulative table over every context) and ``O(log n)`` per
distance draw (``bisect_right``).  This module provides two
constant-or-log-time samplers:

* :class:`GuideTableSampler` — O(1) expected draws over a *fixed*
  integer-weight distribution.  **Draw-stable**: for the same uniform
  ``u`` it returns exactly ``bisect_right(cumulative, u * total)``, so
  replacing a cumulative-list sampler with a guide table cannot change
  a single sampled value for a given seed (the determinism goldens in
  ``tests/golden/`` rely on this).
* :class:`FenwickSampler` — O(log n) draws and O(log n) weight updates
  over a *mutable* integer-weight distribution (the draining start-node
  budgets).  Also draw-stable: it selects the same element as a
  ``bisect_right`` over the cumulative weights of the currently
  positive entries, because zero-weight entries can never absorb a
  draw and all arithmetic is exact (integer partial sums, and
  float-minus-int stays exact below 2**53).

Both samplers take the uniform draw as an argument (``sample(u)``)
instead of an RNG so callers can hoist the ``rng.random`` bound method
out of their hot loops and so the draw count per sample is explicit:
exactly one.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence


class GuideTableSampler:
    """Indexed inverse-CDF sampling over fixed non-negative int weights.

    A guide table of ``len(weights)`` buckets stores, per bucket, a
    lower bound on the answer index; a draw lands in its bucket in O(1)
    and walks at most a couple of entries forward (expected O(1) for
    any distribution, by the classic guide-table argument).

    ``sample(u)`` returns ``bisect_right(cumulative, u * total)`` —
    bit-for-bit, because the bucket of every cumulative entry is
    computed with the same float expression used at draw time.
    """

    __slots__ = ("cumulative", "total", "n", "guide", "buckets", "inv")

    def __init__(self, weights: Sequence[int]) -> None:
        cumulative = list(accumulate(weights))
        self.cumulative = cumulative
        self.total = cumulative[-1] if cumulative else 0
        self.n = len(cumulative)
        buckets = max(1, self.n)
        self.buckets = buckets
        self.inv = buckets / self.total if self.total else 0.0
        # guide[j] counts the cumulative entries whose bucket < j — a
        # provable lower bound on the answer for every draw in bucket j
        # (monotonicity of x -> int(x * inv) makes the bound exact-safe
        # under float rounding; no epsilon fudging needed).
        histogram = [0] * (buckets + 1)
        if self.total:
            inv = self.inv
            for value in cumulative:
                bucket = int(value * inv)
                if bucket > buckets:
                    bucket = buckets
                histogram[bucket] += 1
        guide: List[int] = [0] * (buckets + 1)
        running = 0
        for j in range(1, buckets + 1):
            running += histogram[j - 1]
            guide[j] = running
        self.guide = guide

    def sample(self, u: float) -> int:
        """Index drawn by uniform ``u`` in [0, 1); clamped to ``n - 1``
        like the legacy operand sampler."""
        draw = u * self.total
        bucket = int(draw * self.inv)
        if bucket >= self.buckets:
            bucket = self.buckets - 1
        index = self.guide[bucket]
        cumulative = self.cumulative
        n = self.n
        while index < n and cumulative[index] <= draw:
            index += 1
        return index if index < n else n - 1


class FenwickSampler:
    """Dynamic categorical sampler over mutable integer weights.

    Backed by a Fenwick (binary-indexed) tree: ``add`` adjusts one
    weight in O(log n); ``sample`` finds, for a uniform draw, the first
    index whose running prefix sum exceeds ``u * total`` in O(log n).
    Zero-weight entries are transparent (they cannot absorb a draw), so
    the selected index always matches a ``bisect_right`` over the
    cumulative weights of the entries that are still positive — the
    exact behaviour of the per-restart rebuild it replaces.
    """

    __slots__ = ("tree", "n", "total", "_top")

    def __init__(self, weights: Sequence[int]) -> None:
        n = len(weights)
        self.n = n
        self.total = 0
        tree = [0] * (n + 1)
        for index, weight in enumerate(weights):
            if weight < 0:
                raise ValueError(f"negative weight {weight} at "
                                 f"index {index}")
            self.total += weight
            position = index + 1
            tree[position] += weight
            parent = position + (position & -position)
            if parent <= n:
                tree[parent] += tree[position]
        self.tree = tree
        top = 1
        while top * 2 <= n:
            top *= 2
        self._top = top if n else 0

    def add(self, index: int, delta: int) -> None:
        """Adjust ``weights[index]`` by *delta* (commonly -1 as a
        start-node budget drains)."""
        self.total += delta
        position = index + 1
        tree = self.tree
        n = self.n
        while position <= n:
            tree[position] += delta
            position += position & -position

    def sample(self, u: float) -> int:
        """Index of the entry selected by uniform ``u`` in [0, 1).

        Requires ``total > 0``.  Descends the implicit tree: at each
        step the candidate prefix sum is an exact integer, and
        ``draw - prefix`` stays exact in float64, so the comparison
        sequence is identical to scanning an explicit cumulative list.
        """
        draw = u * self.total
        position = 0
        span = self._top
        tree = self.tree
        n = self.n
        while span:
            probe = position + span
            if probe <= n and tree[probe] <= draw:
                position = probe
                draw -= tree[probe]
            span >>= 1
        return position

    def weight(self, index: int) -> int:
        """Current weight of one entry (testing aid)."""
        position = index + 1
        tree = self.tree
        value = tree[position]
        stop = position - (position & -position)
        position -= 1
        while position > stop:
            value -= tree[position]
            position -= position & -position
        return value
