"""Columnar batch synthesis: the nine-step algorithm, vectorized.

The scalar generator (:mod:`repro.core.synthesis`) appends one interned
entry id per instruction and consumes one uniform per decision, at
Python interpreter speed.  This module is the batch twin: the random
walk over the reduced SFG stays scalar (it is inherently sequential and
cheap — one node per *basic block*), but everything per *instruction*
is emitted in whole-trace numpy columns:

* per-context slot statistics are compiled once per SFG into flat
  per-slot arrays (:class:`ColumnarTables`) — event probabilities,
  branch-outcome thresholds, produces-register flags, and every
  operand's dependency-distance distribution as a CSR table whose
  cumulative weights live in one global array offset by table id, so a
  single ``np.searchsorted`` samples thousands of per-slot
  distributions at once;
* the walk fixes the context sequence first, which fixes the whole
  trace's produces-register column up front — the paper's step 4
  rejection (redraw a distance whose producer is a branch or store)
  then runs as a shrinking-mask redraw loop over arrays instead of a
  per-operand retry loop;
* locality events, taken flags and branch outcomes are drawn as whole
  columns with one RNG call each.

The price is draw-sequence divergence: the columnar generator consumes
uniforms from ``numpy.random.Generator(PCG64(seed))`` in column order,
not from ``random.Random(seed)`` in instruction order, so the same seed
produces a *different* (but identically distributed) trace than the
scalar path.  The scalar generator remains the accuracy oracle; the
statistical-equivalence suite (``repro.fuzz.acceptance`` tolerances)
pins the columnar draws to the scalar distributions, and
``tests/test_columnar.py`` pins end-to-end IPC agreement.
:meth:`ColumnarTrace.to_synthetic_trace` interns the columns into the
scalar path's ``(iclass, events, deps, taken, outcome)`` entries, so
every trace statistic and the fuzz acceptance checks read one form.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.errors import SynthesisError
from repro.health.budget import checkpoint as _health_checkpoint
from repro.obs.metrics import get_registry
from repro.obs.tracing import trace_span
from repro.isa.iclass import (
    BRANCH_CLASSES,
    IClass,
    PRODUCING_CLASSES,
)
from repro.branch.unit import BranchOutcome
from repro.core.profiler import StatisticalProfile
from repro.core.reduction import ReducedFlowGraph, reduce_flow_graph
from repro.core.sampling import FenwickSampler
from repro.core.sfg import Context, StatisticalFlowGraph
from repro.core.synthesis import MAX_DEPENDENCY_RETRIES
from repro.core.synthesis import _HEALTH_EVERY
from repro.core.synthetic import SyntheticTrace
from repro.cpu.locality import (EV_DATA, EV_DL1, EV_DTLB, EV_IL1, EV_ITLB,
                                EV_L2D, EV_L2I)

_OUTCOMES = (BranchOutcome(0), BranchOutcome(1), BranchOutcome(2))


class ColumnarTables:
    """Per-SFG compiled sampling tables in flat numpy form.

    One row per (context, slot) pair, contexts in ``sfg.contexts``
    iteration order; ``block_off``/``block_len`` map a context id to
    its row range.  Operand tables (RAW operands first, then any
    WAW/WAR tables when built with anti-dependencies) hang off the rows
    through the ``op_off`` CSR; each table's distance values and
    cumulative probabilities live in the ``dist_*`` arrays, with the
    cumulative of table ``t`` shifted into ``(t, t+1]`` so sampling is
    one global ``searchsorted`` regardless of which table each draw
    belongs to.
    """

    __slots__ = (
        "order", "ctx_index",
        "block_off", "block_len",
        "iclass", "produces", "is_load", "is_branch",
        "p_il1", "p_l2i", "p_itlb", "p_dl1", "p_l2d", "p_dtlb",
        "p_taken", "oc0", "oc1", "ototal",
        "op_off", "row_ops", "p_dep", "rejectable",
        "dist_off", "dist_val", "dist_cum",
        "edges",
    )


def _append_table(hist: Dict[int, int], occurrences: int,
                  rejectable: bool, p_dep: List[float],
                  reject_flags: List[bool], dist_off: List[int],
                  dist_val: List[int], dist_cum: List[float]) -> None:
    """Flatten one distance histogram into the global CSR arrays."""
    distances = sorted(hist)
    weights = [hist[d] for d in distances]
    total = sum(weights)
    table_id = len(p_dep)
    p_dep.append(total / occurrences if occurrences else 0.0)
    reject_flags.append(rejectable)
    running = 0
    for distance, weight in zip(distances, weights):
        running += weight
        dist_val.append(distance)
        dist_cum.append(table_id + running / total)
    # The final cumulative must be exactly table_id + 1.0 so a draw of
    # u -> 1 can never fall through into the next table's range.
    dist_cum[-1] = table_id + 1.0
    dist_off.append(len(dist_val))


def build_columnar_tables(sfg: StatisticalFlowGraph,
                          include_anti_dependencies: bool = False
                          ) -> ColumnarTables:
    """Compile *sfg*'s context statistics into flat batch tables."""
    tables = ColumnarTables()
    tables.order = sfg.order
    contexts: List[Context] = list(sfg.contexts)
    ctx_index = {context: cid for cid, context in enumerate(contexts)}
    tables.ctx_index = ctx_index

    block_off = [0]
    iclass_col: List[int] = []
    produces: List[int] = []
    is_load: List[bool] = []
    is_branch: List[bool] = []
    p_il1: List[float] = []
    p_l2i: List[float] = []
    p_itlb: List[float] = []
    p_dl1: List[float] = []
    p_l2d: List[float] = []
    p_dtlb: List[float] = []
    p_taken: List[float] = []
    oc0: List[float] = []
    oc1: List[float] = []
    ototal: List[float] = []
    op_off = [0]
    p_dep: List[float] = []
    reject_flags: List[bool] = []
    dist_off = [0]
    dist_val: List[int] = []
    dist_cum: List[float] = []

    for context in contexts:
        stats = sfg.contexts[context]
        occurrences = stats.occurrences
        counts = stats.outcome_counts
        for slot in range(stats.block_size):
            iclass = stats.iclasses[slot]
            branch = iclass in BRANCH_CLASSES
            iclass_col.append(int(iclass))
            produces.append(int(iclass in PRODUCING_CLASSES))
            is_load.append(iclass is IClass.LOAD)
            is_branch.append(branch)
            il1_count = stats.il1[slot]
            dl1_count = stats.dl1[slot]
            p_il1.append(il1_count / occurrences if occurrences else 0.0)
            p_l2i.append(stats.l2i[slot] / il1_count if il1_count
                         else 0.0)
            p_itlb.append(stats.itlb[slot] / occurrences
                          if occurrences else 0.0)
            p_dl1.append(dl1_count / occurrences if occurrences else 0.0)
            p_l2d.append(stats.l2d[slot] / dl1_count if dl1_count
                         else 0.0)
            p_dtlb.append(stats.dtlb[slot] / occurrences
                          if occurrences else 0.0)
            p_taken.append(stats.taken / occurrences
                           if branch and occurrences else 0.0)
            if branch:
                oc0.append(float(counts[0]))
                oc1.append(float(counts[0] + counts[1]))
                ototal.append(float(counts[0] + counts[1] + counts[2]))
            else:
                oc0.append(0.0)
                oc1.append(0.0)
                ototal.append(0.0)
            # Zero-total operand tables are omitted entirely, exactly
            # like the scalar emitter (they can never produce a dep).
            for op in range(stats.n_src[slot]):
                hist = stats.dep_hists[slot][op]
                if hist and sum(hist.values()):
                    _append_table(hist, occurrences, True, p_dep,
                                  reject_flags, dist_off, dist_val,
                                  dist_cum)
            if include_anti_dependencies:
                for hist in (stats.waw_hists[slot],
                             stats.war_hists[slot]):
                    if hist:
                        _append_table(hist, occurrences, False, p_dep,
                                      reject_flags, dist_off, dist_val,
                                      dist_cum)
            op_off.append(len(p_dep))
        block_off.append(len(iclass_col))

    tables.block_off = np.asarray(block_off, dtype=np.int64)
    tables.block_len = np.diff(tables.block_off)
    tables.iclass = np.asarray(iclass_col, dtype=np.uint8)
    tables.produces = np.asarray(produces, dtype=np.uint8)
    tables.is_load = np.asarray(is_load, dtype=bool)
    tables.is_branch = np.asarray(is_branch, dtype=bool)
    tables.p_il1 = np.asarray(p_il1)
    tables.p_l2i = np.asarray(p_l2i)
    tables.p_itlb = np.asarray(p_itlb)
    tables.p_dl1 = np.asarray(p_dl1)
    tables.p_l2d = np.asarray(p_l2d)
    tables.p_dtlb = np.asarray(p_dtlb)
    tables.p_taken = np.asarray(p_taken)
    tables.oc0 = np.asarray(oc0)
    tables.oc1 = np.asarray(oc1)
    tables.ototal = np.asarray(ototal)
    tables.op_off = np.asarray(op_off, dtype=np.int64)
    tables.row_ops = np.diff(tables.op_off)
    tables.p_dep = np.asarray(p_dep)
    tables.rejectable = np.asarray(reject_flags, dtype=bool)
    tables.dist_off = np.asarray(dist_off, dtype=np.int64)
    tables.dist_val = np.asarray(dist_val, dtype=np.int64)
    tables.dist_cum = np.asarray(dist_cum)

    # Step 9 walk tables: per context, its history's outgoing edges as
    # (weight, target context id); targets outside the graph can never
    # hold budget, so they are dropped here once instead of checked in
    # the walk.
    edges: List[Tuple[Tuple[int, int], ...]] = []
    for context in contexts:
        counts = sfg.transitions.get(context[1:])
        if counts:
            edges.append(tuple(
                (weight, ctx_index[context[1:] + (block,)])
                for block, weight in counts.items()
                if context[1:] + (block,) in ctx_index))
        else:
            edges.append(())
    tables.edges = edges
    return tables


# -- per-SFG table cache ------------------------------------------------
#
# Same lifetime rule as the scalar recipe tables: columnar tables depend
# only on the SFG's statistics, never on R or the seed, so one build
# serves every synthesis call for the profile.

_COLUMNAR_CACHE: "WeakKeyDictionary[StatisticalFlowGraph, Dict[bool, ColumnarTables]]" = \
    WeakKeyDictionary()


def columnar_tables_for(sfg: StatisticalFlowGraph,
                        include_anti_dependencies: bool = False
                        ) -> ColumnarTables:
    """The cached (or freshly built) batch tables for *sfg*."""
    per_sfg = _COLUMNAR_CACHE.get(sfg)
    if per_sfg is None:
        per_sfg = {}
        _COLUMNAR_CACHE[sfg] = per_sfg
    tables = per_sfg.get(include_anti_dependencies)
    if tables is None:
        tables = build_columnar_tables(sfg, include_anti_dependencies)
        per_sfg[include_anti_dependencies] = tables
        get_registry().counter("synthesis.columnar_tables_built").inc()
    else:
        get_registry().counter("synthesis.table_reuse").inc()
    return tables


def columnar_tables_cached(sfg: StatisticalFlowGraph,
                           include_anti_dependencies: bool = False
                           ) -> bool:
    """Whether *sfg* already has warm columnar tables (metrics aid)."""
    per_sfg = _COLUMNAR_CACHE.get(sfg)
    return bool(per_sfg) and include_anti_dependencies in per_sfg


# -- the columnar trace -------------------------------------------------


class ColumnarTrace:
    """A synthetic trace as parallel numpy columns.

    Dependencies are CSR: instruction ``i`` carries distances
    ``dep_val[dep_off[i]:dep_off[i+1]]``.  ``outcome`` holds
    :class:`BranchOutcome` codes (0 correct / 1 redirection /
    2 misprediction) and is only meaningful where the class is a
    branch.
    """

    __slots__ = ("name", "order", "reduction_factor", "seed",
                 "iclass", "dep_off", "dep_val", "il1", "l2i", "itlb",
                 "dl1", "l2d", "dtlb", "taken", "outcome")

    def __len__(self) -> int:
        return int(self.iclass.size)

    def to_synthetic_trace(self) -> SyntheticTrace:
        """The same trace as interned entries (tests, the fuzz vector
        layer and the health canary; the pipeline consumes the columns
        directly)."""
        is_load = self.iclass == int(IClass.LOAD)
        events = (self.il1 * EV_IL1 + self.l2i * EV_L2I
                  + self.itlb * EV_ITLB + self.dl1 * EV_DL1
                  + self.l2d * EV_L2D + self.dtlb * EV_DTLB
                  + is_load * EV_DATA).tolist()
        dep_off = self.dep_off.tolist()
        dep_val = self.dep_val.tolist()
        taken = self.taken.tolist()
        outcome = self.outcome.tolist()
        entries = []
        for i, iclass in enumerate(map(IClass, self.iclass.tolist())):
            lo, hi = dep_off[i], dep_off[i + 1]
            entries.append((
                iclass, events[i], tuple(dep_val[lo:hi]), bool(taken[i]),
                _OUTCOMES[outcome[i]] if iclass in BRANCH_CLASSES
                else None))
        return SyntheticTrace.from_entries(
            self.name, entries, self.order, self.reduction_factor,
            self.seed)


# -- generation ---------------------------------------------------------


def _walk_context_sequence(tables: ColumnarTables,
                           reduced: ReducedFlowGraph,
                           rng: random.Random,
                           limit: float) -> List[int]:
    """Steps 1, 2 and 9: the scalar random walk, emitting context ids.

    Structurally identical to the scalar generator's walk (Fenwick
    restarts with batched budget drains, eligible-edge scan per block);
    only the per-block emission is deferred to the batch pass.
    """
    rand = rng.random
    ctx_index = tables.ctx_index
    order = tables.order
    block_len = tables.block_len.tolist()
    edges_list = tables.edges

    remaining: Dict[int, int] = {
        ctx_index[context]: budget
        for context, budget in reduced.occurrences.items()}
    remaining_get = remaining.get
    cids_by_index = list(remaining)
    index_of = {cid: index for index, cid in enumerate(cids_by_index)}
    start = FenwickSampler(list(remaining.values()))
    start_sample = start.sample
    start_add = start.add
    total_remaining = start.total
    pending: Dict[int, int] = {}
    pending_get = pending.get

    sequence: List[int] = []
    seq_append = sequence.append
    total_len = 0
    eligible_weights: List[int] = []
    eligible_targets: List[int] = []
    next_health = _HEALTH_EVERY

    while total_remaining > 0:
        if pending:
            for drained, count in pending.items():
                start_add(index_of[drained], -count)
            pending.clear()
        cid = cids_by_index[start_sample(rand())]
        while True:
            remaining[cid] -= 1
            pending[cid] = pending_get(cid, 0) + 1
            total_remaining -= 1
            seq_append(cid)
            total_len += block_len[cid]
            if total_len >= next_health:
                next_health = total_len + _HEALTH_EVERY
                _health_checkpoint(total_len)
            if total_len >= limit:
                total_remaining = 0
                break
            if order == 0:
                break
            entries = edges_list[cid]
            if not entries:
                break
            eligible_weights.clear()
            eligible_targets.clear()
            total = 0
            for weight, target in entries:
                if remaining_get(target, 0) > 0:
                    eligible_weights.append(weight)
                    eligible_targets.append(target)
                    total += weight
            if not total:
                break
            draw = rand() * total
            running = 0
            chosen = 0
            for index, weight in enumerate(eligible_weights):
                running += weight
                if running > draw:
                    chosen = index
                    break
            cid = eligible_targets[chosen]
    return sequence


def generate_columnar_trace(
    profile: StatisticalProfile,
    reduction_factor: float,
    seed: int = 0,
    reduced: Optional[ReducedFlowGraph] = None,
    max_instructions: Optional[int] = None,
    include_anti_dependencies: bool = False,
) -> ColumnarTrace:
    """Batch twin of :func:`repro.core.synthesis.generate_synthetic_trace`.

    Same parameters, same reduced-graph semantics, same step 4
    rejection rule — but the emitted trace is columnar and the draw
    sequence differs from the scalar generator's (statistically
    equivalent, not bit-compatible; see the module docstring).
    """
    sfg = profile.sfg
    if not sfg.contexts:
        raise SynthesisError(
            f"profile {profile.name!r} holds no contexts; nothing to "
            f"synthesize (was the trace shorter than one basic block?)")
    with trace_span("synthesize", bench=profile.name, seed=seed,
                    mode="columnar"):
        if reduced is None:
            with trace_span("reduce", bench=profile.name):
                reduced = reduce_flow_graph(sfg, reduction_factor)
        elif reduced.sfg is not sfg:
            raise SynthesisError(
                "reduced graph does not belong to this profile")
        tables = columnar_tables_for(sfg, include_anti_dependencies)
        limit = (max_instructions if max_instructions is not None
                 else float("inf"))
        sequence = _walk_context_sequence(
            tables, reduced, random.Random(seed), limit)
        trace = _emit_columns(tables, sequence,
                              np.random.Generator(np.random.PCG64(seed)))
    trace.name = f"{profile.name}/synthetic"
    trace.order = profile.order
    trace.reduction_factor = reduction_factor
    trace.seed = seed
    return trace


def _emit_columns(tables: ColumnarTables, sequence: List[int],
                  rng: np.random.Generator) -> ColumnarTrace:
    """Steps 3-8 for the whole walk at once."""
    cids = np.asarray(sequence, dtype=np.int64)
    lens = tables.block_len[cids]
    n = int(lens.sum())
    # Row index per instruction: each block contributes the contiguous
    # row range of its context (the standard CSR expansion).
    block_pos = np.zeros(cids.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=block_pos[1:])
    rows = np.repeat(tables.block_off[cids] - block_pos, lens) \
        + np.arange(n, dtype=np.int64)

    trace = ColumnarTrace.__new__(ColumnarTrace)
    trace.iclass = tables.iclass[rows]
    produces = tables.produces[rows]
    is_load = tables.is_load[rows]
    is_branch = tables.is_branch[rows]

    # Steps 5-7: locality events.  The second-level draws keep the
    # scalar conditional structure (L2 given L1 miss); masking by the
    # first-level outcome is distribution-identical to the scalar
    # path's conditional draw.
    trace.il1 = rng.random(n) < tables.p_il1[rows]
    trace.l2i = trace.il1 & (rng.random(n) < tables.p_l2i[rows])
    trace.itlb = rng.random(n) < tables.p_itlb[rows]
    trace.dl1 = is_load & (rng.random(n) < tables.p_dl1[rows])
    trace.l2d = trace.dl1 & (rng.random(n) < tables.p_l2d[rows])
    trace.dtlb = is_load & (rng.random(n) < tables.p_dtlb[rows])

    # Step 6: branch characteristics.  Contexts that never observed an
    # outcome classify as CORRECT, like the scalar emitter.
    trace.taken = is_branch & (rng.random(n) < tables.p_taken[rows])
    ototal = tables.ototal[rows]
    draw = rng.random(n) * ototal
    code = (tables.oc0[rows] <= draw).view(np.int8) \
        + (tables.oc1[rows] <= draw)
    trace.outcome = np.where(is_branch & (ototal > 0.0),
                             code, 0).astype(np.uint8)

    # Steps 3-4: dependency distances with branch/store-producer
    # rejection against the full-trace produces column.
    ops_per_inst = tables.row_ops[rows]
    total_ops = int(ops_per_inst.sum())
    if total_ops:
        ops_pos = np.zeros(n, dtype=np.int64)
        np.cumsum(ops_per_inst[:-1], out=ops_pos[1:])
        table_ids = np.repeat(tables.op_off[rows] - ops_pos,
                              ops_per_inst) \
            + np.arange(total_ops, dtype=np.int64)
        inst_ids = np.repeat(np.arange(n, dtype=np.int64), ops_per_inst)
        gate = rng.random(total_ops) < tables.p_dep[table_ids]
        table_ids = table_ids[gate]
        inst_ids = inst_ids[gate]
        active = int(table_ids.size)
        dist_cum = tables.dist_cum
        dist_val = tables.dist_val
        idx = np.searchsorted(dist_cum, table_ids + rng.random(active),
                              side="right")
        dist = dist_val[idx]
        producer = inst_ids - dist
        rejected = tables.rejectable[table_ids] & (producer >= 0) \
            & (produces[np.maximum(producer, 0)] == 0)
        pending = np.flatnonzero(rejected)
        keep = np.ones(active, dtype=bool)
        tries = 0
        while pending.size and tries < MAX_DEPENDENCY_RETRIES:
            tries += 1
            redraw = np.searchsorted(
                dist_cum, table_ids[pending] + rng.random(pending.size),
                side="right")
            new_dist = dist_val[redraw]
            dist[pending] = new_dist
            producer = inst_ids[pending] - new_dist
            still = (producer >= 0) \
                & (produces[np.maximum(producer, 0)] == 0)
            pending = pending[still]
        if pending.size:
            # Retries exhausted: the dependency is squashed (step 4).
            keep[pending] = False
        inst_ids = inst_ids[keep]
        dep_counts = np.bincount(inst_ids, minlength=n)
        trace.dep_val = dist[keep]
    else:
        dep_counts = np.zeros(n, dtype=np.int64)
        trace.dep_val = np.zeros(0, dtype=np.int64)
    dep_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dep_counts, out=dep_off[1:])
    trace.dep_off = dep_off
    return trace
