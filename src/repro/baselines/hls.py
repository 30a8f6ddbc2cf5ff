"""The HLS baseline (Oskin, Chong and Farrens — ISCA 2000).

HLS is statistical simulation *without* control-flow structure, which is
exactly what the paper contrasts the SFG against (section 4.3/5):

    "In HLS, Oskin et al. generate one hundred basic blocks of a size
    determined by a normal distribution over the average size found in
    the original workload.  The basic block branch predictabilities are
    statistically generated from the overall branch predictability
    obtained from the original workload.  Instructions are assigned to
    the basic blocks randomly based on the overall instruction mix
    distribution, in contrast to the basic block modeling granularity of
    the SFG."

This implementation profiles *global* statistics only (instruction mix,
mean/std block size, one dependency-distance distribution, one branch
predictability, six cache miss rates), builds the 100-block graph, walks
it, and simulates the result on the same synthetic-trace pipeline used
by SMART-HLS — so any accuracy difference is attributable to the
workload model, as in the paper.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

import numpy as np

from repro.config import MachineConfig
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.frontend.trace import Trace
from repro.baselines.related import (_Emitter, _measure_globals,
                                     dependency_histogram)
from repro.core.dependencies import dependency_pass
from repro.core.synthetic import SyntheticTrace
from repro.cpu.results import SimulationResult
from repro.power.wattch import PowerBreakdown

#: HLS models the program as this many synthetic basic blocks.
HLS_NUM_BLOCKS = 100

_ICLASSES = list(IClass)


@dataclass
class HLSProfile:
    """Global (structure-free) program statistics."""

    name: str
    instruction_mix: Dict[IClass, float]
    mean_block_size: float
    std_block_size: float
    operand_counts: Dict[IClass, Tuple[Tuple[int, ...], Tuple[int, ...]]]
    dependency_distances: Tuple[Tuple[int, ...], Tuple[int, ...]]
    dependency_fraction: float
    taken_rate: float
    redirect_rate: float
    misprediction_rate: float
    miss_rates: Dict[str, float]
    trace_instructions: int


def hls_profile(trace: Trace, config: MachineConfig) -> HLSProfile:
    """Measure HLS's global statistical profile from a dynamic trace."""
    stats = _measure_globals(trace, config)
    distance_hist, operands_with_dep, operands_total = \
        dependency_histogram(dependency_pass(trace).raw)
    block_sizes = trace.block_sizes().tolist()
    mix = trace.instruction_mix()
    # Operand-count histograms per class, classes in order of first
    # appearance and counts ascending.
    pairs, pair_counts = np.unique(
        np.stack([trace.iclass, trace.source_counts()]), axis=1,
        return_counts=True)
    operand_counter: Dict[IClass, Dict[int, int]] = {ic: {} for ic in mix}
    for (code, n_src), count in zip(pairs.T.tolist(), pair_counts.tolist()):
        operand_counter[_ICLASSES[code]][n_src] = count

    mean_size = (sum(block_sizes) / len(block_sizes)) if block_sizes else 1.0
    if len(block_sizes) > 1:
        variance = (sum((s - mean_size) ** 2 for s in block_sizes)
                    / (len(block_sizes) - 1))
    else:
        variance = 0.0
    distances = tuple(sorted(distance_hist))
    weights = tuple(distance_hist[d] for d in distances)
    operand_counts = {
        iclass: (tuple(sorted(counts)),
                 tuple(counts[n] for n in sorted(counts)))
        for iclass, counts in operand_counter.items()
    }

    return HLSProfile(
        name=trace.name,
        instruction_mix=mix,
        mean_block_size=mean_size,
        std_block_size=variance ** 0.5,
        operand_counts=operand_counts,
        dependency_distances=(distances, weights),
        dependency_fraction=(operands_with_dep / operands_total
                             if operands_total else 0.0),
        taken_rate=stats.taken_rate,
        redirect_rate=stats.redirect_rate,
        misprediction_rate=stats.misprediction_rate,
        miss_rates=stats.miss_rates,
        trace_instructions=stats.trace_instructions,
    )


def _weighted_choice(rng: random.Random, values, cumulative) -> object:
    draw = rng.random() * cumulative[-1]
    return values[bisect_right(cumulative, draw)]


def generate_hls_trace(profile: HLSProfile, length: int,
                       seed: int = 0) -> SyntheticTrace:
    """Generate an HLS synthetic trace of roughly *length* instructions.

    One hundred basic blocks are built with normally distributed sizes
    and globally sampled instruction contents, wired into a random graph
    (two successors per block with a random split); the trace is a random
    walk over that graph with globally sampled locality events.
    """
    rng = random.Random(seed)
    branch_classes = [IClass.INT_COND_BRANCH]
    non_branch_mix = {ic: w for ic, w in profile.instruction_mix.items()
                      if ic not in BRANCH_CLASSES}
    mix_classes = list(non_branch_mix)
    mix_cumulative = list(accumulate(non_branch_mix[ic]
                                     for ic in mix_classes))

    # Build 100 blocks: a list of instruction classes per block.
    blocks: List[List[IClass]] = []
    for _ in range(HLS_NUM_BLOCKS):
        body = max(0, int(round(rng.gauss(profile.mean_block_size - 1,
                                          profile.std_block_size))))
        instructions = [
            _weighted_choice(rng, mix_classes, mix_cumulative)
            for _ in range(body)
        ]
        instructions.append(rng.choice(branch_classes))
        blocks.append(instructions)
    successors = [
        (rng.randrange(HLS_NUM_BLOCKS), rng.randrange(HLS_NUM_BLOCKS),
         rng.random())
        for _ in range(HLS_NUM_BLOCKS)
    ]

    # The profile's distances are sorted, but a hand-built profile's
    # need not be: keep HLS's own sampler rather than re-sort them.
    distances, weights = profile.dependency_distances
    distance_cumulative = list(accumulate(weights))
    sample = ((lambda r: _weighted_choice(r, distances,
                                          distance_cumulative))
              if distances else None)

    operand_counts = {iclass: (values, list(accumulate(weights)))
                      for iclass, (values, weights)
                      in profile.operand_counts.items()}
    out = _Emitter()
    current = rng.randrange(HLS_NUM_BLOCKS)
    while len(out) < length:
        for iclass in blocks[current]:
            counts = operand_counts.get(iclass)
            if counts:
                n_src = _weighted_choice(rng, *counts)
            else:
                n_src = 0
            out.emit(rng, iclass, n_src, profile.dependency_fraction,
                     sample, profile)
        a, b, split = successors[current]
        current = a if rng.random() < split else b

    return out.trace(f"{profile.name}/hls", length,
                     profile.trace_instructions, seed)


def run_hls_simulation(trace: Trace, config: MachineConfig,
                       synthetic_length: int = 10_000, seed: int = 0
                       ) -> Tuple[SimulationResult, PowerBreakdown]:
    """Profile *trace* the HLS way, generate an HLS synthetic trace and
    simulate it on the shared synthetic-trace pipeline."""
    from repro.core.framework import simulate_synthetic_trace

    profile = hls_profile(trace, config)
    synthetic = generate_hls_trace(profile, length=synthetic_length,
                                   seed=seed)
    return simulate_synthetic_trace(synthetic, config)
