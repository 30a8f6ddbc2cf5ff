"""Workload models from the paper's related work (section 5).

Between "no structure at all" and the SFG lies a spectrum of
statistical workload models the paper positions itself against:

* :class:`IndependentModel` — "the simplest way to build a statistical
  profile is to assume that all characteristics are independent from
  each other" (Carl & Smith and the early Eeckhout/De Bosschere line,
  refs [5, 8, 9, 10]): instructions are drawn i.i.d. from the global
  mix, with global dependency/branch/cache statistics.
* :class:`SizeCorrelatedModel` — Nussbaum & Smith (PACT 2001)
  "correlate various characteristics ... to the size of the basic
  block", which the paper notes "raises the possibility of basic block
  size aliasing": two very different blocks of equal size share one
  distribution.

Both produce :class:`~repro.core.synthetic.SyntheticTrace` objects and
run on the same synthetic-trace simulator, so the workload-model
ablation (independent -> size-correlated -> SFG) isolates exactly the
control-flow-modeling contribution.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import MachineConfig
from repro.isa.iclass import BRANCH_CLASSES, PRODUCING_CLASSES, IClass
from repro.frontend.trace import IS_BRANCH, Trace
from repro.branch.profiler import profile_branches_delayed
from repro.branch.unit import BranchOutcome, BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.core.dependencies import dependency_pass
from repro.core.synthetic import SyntheticTrace
from repro.cpu.locality import (EV_DATA, EV_DL1, EV_DTLB, EV_IL1, EV_ITLB,
                                EV_L2D, EV_L2I)
from repro.cpu.results import SimulationResult
from repro.power.wattch import PowerBreakdown

_ICLASSES = list(IClass)


class _Distribution:
    """A sampled discrete distribution with cumulative lookup."""

    __slots__ = ("values", "cumulative", "total")

    def __init__(self, histogram: Dict) -> None:
        self.values = sorted(histogram)
        weights = [histogram[v] for v in self.values]
        self.cumulative = list(accumulate(weights))
        self.total = self.cumulative[-1] if self.cumulative else 0

    def sample(self, rng: random.Random):
        if self.total == 0:
            raise ValueError("empty distribution")
        draw = rng.random() * self.total
        return self.values[bisect_right(self.cumulative, draw)]

    def __bool__(self) -> bool:
        return self.total > 0


@dataclass
class _GlobalStats:
    """Shared whole-program statistics measured by both models."""

    block_sizes: Dict[int, int]
    taken_rate: float
    redirect_rate: float
    misprediction_rate: float
    miss_rates: Dict[str, float]
    trace_instructions: int


def _measure_globals(trace: Trace, config: MachineConfig) -> _GlobalStats:
    hierarchy = CacheHierarchy(config)
    hierarchy.walk(trace)
    records = profile_branches_delayed(
        trace, BranchPredictorUnit(config.predictor),
        fifo_size=config.ifq_size)
    n = max(1, len(records))
    return _GlobalStats(
        block_sizes=_histogram(trace.block_sizes()),
        taken_rate=sum(r.taken for r in records) / n,
        redirect_rate=sum(r.outcome is BranchOutcome.FETCH_REDIRECTION
                          for r in records) / n,
        misprediction_rate=sum(r.outcome is BranchOutcome.MISPREDICTION
                               for r in records) / n,
        miss_rates=hierarchy.miss_rates(),
        trace_instructions=len(trace),
    )


def _histogram(values: np.ndarray) -> Dict[int, int]:
    """The count of every distinct value of *values*."""
    distinct, counts = np.unique(values, return_counts=True)
    return dict(zip(distinct.tolist(), counts.tolist()))


def dependency_histogram(raw: np.ndarray
                         ) -> Tuple[Dict[int, int], int, int]:
    """``(histogram, dependent, operands)`` of the RAW distances *raw*
    (one per operand, 0 for none, as
    :class:`~repro.core.dependencies.DependencyPass` holds them): the
    count per distance, the operands with a distance and all
    operands."""
    hist = _histogram(raw[raw > 0])
    return hist, sum(hist.values()), len(raw)


def _sample_locality(rng: random.Random, iclass: IClass,
                     stats: _GlobalStats, deps: Tuple[int, ...]) -> tuple:
    """The ``(iclass, events, deps, taken, outcome)`` entry of one
    instruction, its flags drawn from *stats*' global rates (an
    :class:`~repro.baselines.hls.HLSProfile` has the same fields)."""
    rates = stats.miss_rates
    events = 0
    if rng.random() < rates["il1"]:
        events = EV_IL1
        if rng.random() < rates["l2_instruction"]:
            events |= EV_L2I
    if rng.random() < rates["itlb"]:
        events |= EV_ITLB
    taken = False
    outcome: Optional[BranchOutcome] = None
    if iclass is IClass.LOAD:
        events |= EV_DATA
        if rng.random() < rates["dl1"]:
            events |= EV_DL1
            if rng.random() < rates["l2_data"]:
                events |= EV_L2D
        if rng.random() < rates["dtlb"]:
            events |= EV_DTLB
    if iclass in BRANCH_CLASSES:
        taken = rng.random() < stats.taken_rate
        draw = rng.random()
        if draw < stats.misprediction_rate:
            outcome = BranchOutcome.MISPREDICTION
        elif draw < stats.misprediction_rate + stats.redirect_rate:
            outcome = BranchOutcome.FETCH_REDIRECTION
        else:
            outcome = BranchOutcome.CORRECT
    return (iclass, events, deps, taken, outcome)


def _sample_dependencies(rng: random.Random, n_src: int, p_dep: float,
                         sample: Optional[Callable[[random.Random], int]],
                         producers: List[bool]) -> Tuple[int, ...]:
    """Dependency distances of the instruction at ``len(producers)``:
    each of *n_src* operands depends with probability *p_dep* on a
    distance drawn by *sample* (None: nothing to draw), redrawn up to
    1,000 times while it names a position that writes no register."""
    distances: List[int] = []
    position = len(producers)
    for _ in range(n_src):
        if sample is None or rng.random() >= p_dep:
            continue
        for _ in range(1000):
            distance = sample(rng)
            target = position - distance
            if target >= 0 and not producers[target]:
                continue
            distances.append(distance)
            break
    return tuple(distances)


class _Emitter:
    """A baseline trace under construction: one entry per position, and
    whether that position writes a register."""

    def __init__(self) -> None:
        self.entries: List[tuple] = []
        self.producers: List[bool] = []

    def __len__(self) -> int:
        return len(self.entries)

    def emit(self, rng: random.Random, iclass: IClass, n_src: int,
             p_dep: float, sample, stats) -> None:
        """Append *iclass* with sampled dependencies and flags."""
        deps = _sample_dependencies(rng, n_src, p_dep, sample,
                                    self.producers)
        self.entries.append(_sample_locality(rng, iclass, stats, deps))
        self.producers.append(iclass in PRODUCING_CLASSES)

    def trace(self, name: str, length: int, trace_instructions: int,
              seed: int) -> SyntheticTrace:
        """The first *length* entries as a trace with no SFG order."""
        return SyntheticTrace.from_entries(
            name, self.entries[:length], order=-1,
            reduction_factor=trace_instructions / max(1, length),
            seed=seed)


class IndependentModel:
    """All characteristics independent (the pre-HLS strawman)."""

    def __init__(self, trace: Trace, config: MachineConfig) -> None:
        self.name = trace.name
        self.globals = _measure_globals(trace, config)
        distance_hist, with_dep, operands = dependency_histogram(
            dependency_pass(trace).raw)
        mix = _histogram(trace.iclass[~IS_BRANCH[trace.iclass]])
        self._mix = _Distribution({_ICLASSES[code]: count
                                   for code, count in mix.items()})
        self._operand_counts = _Distribution(
            _histogram(trace.source_counts()))
        self._distances = _Distribution(distance_hist)
        self._p_dep = with_dep / operands if operands else 0.0
        self._sizes = _Distribution(self.globals.block_sizes)

    def generate(self, length: int, seed: int = 0) -> SyntheticTrace:
        """Draw instructions i.i.d.; blocks only delimit branches."""
        rng = random.Random(seed)
        out = _Emitter()
        sample = self._distances.sample if self._distances else None
        while len(out) < length:
            size = self._sizes.sample(rng)
            for slot in range(size):
                is_branch = slot == size - 1
                iclass = (IClass.INT_COND_BRANCH if is_branch
                          else self._mix.sample(rng))
                out.emit(rng, iclass, self._operand_counts.sample(rng),
                         self._p_dep, sample, self.globals)
        return out.trace(f"{self.name}/independent", length,
                         self.globals.trace_instructions, seed)


class SizeCorrelatedModel:
    """Characteristics correlated to basic block size (Nussbaum &
    Smith)."""

    def __init__(self, trace: Trace, config: MachineConfig) -> None:
        self.name = trace.name
        self.globals = _measure_globals(trace, config)
        # Per block size: per-slot instruction mixes, operand counts and
        # dependency distances; blocks of equal size share everything
        # (the "size aliasing" the paper criticises).
        deps = dependency_pass(trace)
        ends = deps.branches
        sizes = trace.block_sizes()
        complete = int(ends[-1]) + 1 if len(ends) else 0
        # Each instruction of a complete block: its block's size and its
        # slot in the block.
        block_size = np.repeat(sizes, sizes)
        slot = np.arange(complete) - np.repeat(ends + 1 - sizes, sizes)
        self._per_size: Dict[int, List[Dict]] = {
            size: [dict(mix={}, operands={}) for _ in range(size)]
            for size in np.unique(sizes).tolist()}
        for field, values, key in (
                ("mix", trace.iclass[:complete], _ICLASSES.__getitem__),
                ("operands", trace.source_counts()[:complete], int)):
            cells, counts = np.unique(np.stack([block_size, slot, values]),
                                      axis=1, return_counts=True)
            for (size, position, value), count in zip(cells.T.tolist(),
                                                      counts.tolist()):
                self._per_size[size][position][field][key(value)] = count
        # The RAW distances of the operands of complete blocks, by the
        # size of their block.
        operands = int(deps.src_off[complete])
        raw = deps.raw[:operands]
        operand_sizes = block_size[deps.operand_positions()[:operands]]
        self._dep_per_size: Dict[int, Tuple[Dict[int, int], int, int]] = {
            size: dependency_histogram(raw[operand_sizes == size])
            for size in self._per_size}
        self._sizes = _Distribution(self.globals.block_sizes)
        # Freeze distributions.
        self._frozen: Dict[int, List[Tuple[_Distribution, _Distribution]]] = {}
        self._frozen_dep: Dict[int, Tuple[_Distribution, float]] = {}
        for size, slots in self._per_size.items():
            self._frozen[size] = [
                (_Distribution(slot["mix"]), _Distribution(slot["operands"]))
                for slot in slots
            ]
            hist, with_dep, operands = self._dep_per_size[size]
            self._frozen_dep[size] = (
                _Distribution(hist),
                with_dep / operands if operands else 0.0,
            )

    def generate(self, length: int, seed: int = 0) -> SyntheticTrace:
        rng = random.Random(seed)
        out = _Emitter()
        while len(out) < length:
            size = self._sizes.sample(rng)
            slots = self._frozen[size]
            distances, p_dep = self._frozen_dep[size]
            sample = distances.sample if distances else None
            for slot in range(size):
                mix, operand_counts = slots[slot]
                out.emit(rng, mix.sample(rng), operand_counts.sample(rng),
                         p_dep, sample, self.globals)
        return out.trace(f"{self.name}/size-correlated", length,
                         self.globals.trace_instructions, seed)


def run_model(model, config: MachineConfig, length: int, seed: int = 0
              ) -> Tuple[SimulationResult, PowerBreakdown]:
    """Generate a trace from *model* and simulate it."""
    from repro.core.framework import simulate_synthetic_trace

    return simulate_synthetic_trace(model.generate(length, seed=seed),
                                    config)
