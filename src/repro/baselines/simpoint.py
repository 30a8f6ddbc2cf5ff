"""SimPoint sampling baseline (Sherwood et al., ASPLOS 2002).

The paper compares statistical simulation against SimPoint in section
4.4: SimPoint splits the execution into fixed-size intervals, summarizes
each by its basic block vector (BBV), clusters the (projected) vectors
with k-means, and simulates one representative interval per cluster in
detail, weighting results by cluster size.

This implementation follows that pipeline: BBVs weighted by instruction
counts, random projection to a low-dimensional space, k-means++ seeding,
and BIC-style model selection over k — all deterministic given a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import MachineConfig
from repro.frontend.trace import Trace, concat_traces, split_intervals

#: SimPoint projects BBVs to this many dimensions before clustering.
PROJECTED_DIMENSIONS = 15


def basic_block_vectors(trace: Trace, interval: int) -> Tuple[np.ndarray,
                                                              List[Trace]]:
    """Split *trace* into intervals and compute normalized BBVs.

    Each vector counts, per basic block, the instructions executed in
    that block during the interval, normalized to sum to one.
    """
    pieces = split_intervals(trace, interval)
    if not pieces:
        raise ValueError("trace shorter than one interval")
    block_ids, columns = np.unique(trace.bb_id, return_inverse=True)
    vectors = np.array([
        np.bincount(columns[row * interval:(row + 1) * interval],
                    minlength=len(block_ids))
        for row in range(len(pieces))], dtype=float)
    vectors /= np.maximum(1.0, vectors.sum(axis=1, keepdims=True))
    return vectors, pieces


def _kmeans(data: np.ndarray, k: int, rng: random.Random,
            iterations: int = 50) -> Tuple[np.ndarray, np.ndarray]:
    """k-means with k-means++ seeding; returns (labels, centroids)."""
    n = data.shape[0]
    centroids = [data[rng.randrange(n)]]
    while len(centroids) < k:
        d2 = np.min(
            [np.sum((data - c) ** 2, axis=1) for c in centroids], axis=0)
        total = float(d2.sum())
        if total <= 0:
            centroids.append(data[rng.randrange(n)])
            continue
        draw = rng.random() * total
        centroids.append(data[int(np.searchsorted(np.cumsum(d2), draw))])
    centers = np.array(centroids)
    labels = np.zeros(n, dtype=int)
    for iteration in range(iterations):
        distances = np.linalg.norm(data[:, None, :] - centers[None, :, :],
                                   axis=2)
        new_labels = distances.argmin(axis=1)
        if iteration > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = data[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return labels, centers


def _bic_score(data: np.ndarray, labels: np.ndarray,
               centers: np.ndarray) -> float:
    """A BIC-style score (higher is better) as SimPoint uses for model
    selection over k."""
    n, d = data.shape
    k = centers.shape[0]
    sse = sum(
        float(np.sum((data[labels == j] - centers[j]) ** 2))
        for j in range(k)
    )
    variance = max(sse / max(1, n - k), 1e-12)
    log_likelihood = -0.5 * n * (d * math.log(2 * math.pi * variance) + 1)
    parameters = k * (d + 1)
    return log_likelihood - 0.5 * parameters * math.log(n)


@dataclass
class SimPointSelection:
    """Chosen representative intervals with their weights."""

    interval: int
    representatives: List[int]      # interval indices
    weights: List[float]            # sum to 1
    labels: np.ndarray
    k: int

    @property
    def simulated_instructions(self) -> int:
        return len(self.representatives) * self.interval


def select_simpoints(trace: Trace, interval: int, max_k: int = 6,
                     seed: int = 0) -> SimPointSelection:
    """Pick representative intervals via BBV clustering."""
    vectors, pieces = basic_block_vectors(trace, interval)
    rng = random.Random(seed)
    n, dims = vectors.shape
    if dims > PROJECTED_DIMENSIONS:
        projector = np.array([
            [rng.gauss(0, 1) for _ in range(PROJECTED_DIMENSIONS)]
            for _ in range(dims)
        ])
        data = vectors @ projector
    else:
        data = vectors

    best = None
    for k in range(1, min(max_k, n) + 1):
        labels, centers = _kmeans(data, k, rng)
        score = _bic_score(data, labels, centers)
        if best is None or score > best[0]:
            best = (score, k, labels, centers)
    _, k, labels, centers = best

    representatives: List[int] = []
    weights: List[float] = []
    for j in range(k):
        members = np.nonzero(labels == j)[0]
        if len(members) == 0:
            continue
        cluster = data[members]
        closest = members[int(np.argmin(
            np.linalg.norm(cluster - centers[j], axis=1)))]
        representatives.append(int(closest))
        weights.append(len(members) / n)
    return SimPointSelection(interval=interval,
                             representatives=representatives,
                             weights=weights, labels=labels, k=k)


def _prefix_trace(trace: Trace, start: int,
                  warmup_trace: Optional[Trace]) -> Trace:
    """Everything preceding interval *start*, to warm caches and the
    branch predictor on (SimPoint-style architectural warming: the
    original tooling fast-forwards functionally to each simulation
    point)."""
    pieces = [warmup_trace] if warmup_trace else []
    return concat_traces(f"{trace.name}/prefix",
                         pieces + [trace.window(0, start)])


def run_simpoint(trace: Trace, config: MachineConfig, interval: int,
                 max_k: int = 6, seed: int = 0,
                 warmup_trace: Optional[Trace] = None) -> Dict[str, float]:
    """Full SimPoint estimate: cluster, simulate representatives in
    detail (execution-driven, with full architectural warming on each
    representative's prefix), and weight the results.  *warmup_trace*
    is the execution window preceding *trace*, if any."""
    from repro.cpu.pipeline import simulate
    from repro.cpu.source import ExecutionDrivenSource
    from repro.power.wattch import WattchPowerModel

    selection = select_simpoints(trace, interval, max_k=max_k, seed=seed)
    pieces = split_intervals(trace, interval)
    model = WattchPowerModel(config)
    # SimPoint weights estimate per-instruction quantities, so CPI (not
    # IPC) is averaged; overall IPC is the weighted harmonic mean.  EPC
    # is energy per *cycle*, so it is weighted by estimated cycles.
    weighted_cpi = 0.0
    weighted_energy = 0.0
    for index, weight in zip(selection.representatives, selection.weights):
        source = ExecutionDrivenSource(
            pieces[index], config,
            warmup_trace=_prefix_trace(trace, index * interval,
                                       warmup_trace))
        result = simulate(config, source)
        power = model.energy_per_cycle(result)
        weighted_cpi += weight * result.cpi
        weighted_energy += weight * result.cpi * power.total
    return {
        "ipc": 1.0 / weighted_cpi if weighted_cpi else 0.0,
        "epc": (weighted_energy / weighted_cpi) if weighted_cpi else 0.0,
        "k": selection.k,
        "simulated_instructions": selection.simulated_instructions,
    }
