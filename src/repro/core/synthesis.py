"""Synthetic trace generation: the nine-step algorithm of section 2.2.

The reduced SFG is random-walked: a start node is drawn from the
cumulative node-occurrence distribution (step 1), each visited node's
budget is decremented (step 2) and its basic block is emitted with
statistically assigned operands, dependencies and locality events
(steps 3-8), then an outgoing edge is drawn from the cumulative
transition distribution (step 9).  Per DESIGN.md, an edge is eligible
only while its target node has budget left; at a dead end the walk
restarts from step 1, and the algorithm terminates when every budget is
exhausted — emitting exactly ``sum(Ni)`` basic blocks.

Dependency sampling follows the paper exactly: a sampled distance whose
producer "is supposedly generated by a branch or a store" is rejected
and redrawn up to 1,000 times, after which the dependency is squashed.

Hot-path layout (see ``docs/performance.md``): every categorical draw
goes through the draw-stable samplers of :mod:`repro.core.sampling` —
O(1) guide tables for the fixed per-slot distributions (flattened into
plain tuples and inlined into the emit loop), a Fenwick tree for the
draining start-node budgets — and all per-context recipe tables are
built once per SFG and cached on the graph (a DSE worker therefore
builds them once per *profile*, not once per design point).  The
samplers are bit-compatible with the original ``bisect_right`` code:
the same profile and seed produce a byte-identical synthetic trace
(pinned by ``tests/test_determinism_golden.py``, and against digests of
the pre-overhaul generator's traces by ``tests/test_synthesis.py``).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.errors import SynthesisError
from repro.health.budget import checkpoint as _health_checkpoint
from repro.obs.metrics import get_registry
from repro.obs.tracing import trace_span
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.branch.unit import BranchOutcome
from repro.core.profiler import StatisticalProfile
from repro.core.reduction import ReducedFlowGraph, reduce_flow_graph
from repro.core.sampling import FenwickSampler, GuideTableSampler
from repro.core.sfg import Context, ContextStats, StatisticalFlowGraph
from repro.core.synthetic import SyntheticTrace
from repro.cpu.locality import (EV_DATA, EV_DL1, EV_DTLB, EV_IL1, EV_ITLB,
                                EV_L2D, EV_L2I, EV_LOCALITY)

#: Emitted instructions between cooperative health checkpoints
#: (:mod:`repro.health`); the checkpoint draws nothing from the RNG,
#: so synthesized traces are byte-identical with or without a budget.
_HEALTH_EVERY = 8192

#: Paper section 2.2 step 4: retries before squashing a dependency.
MAX_DEPENDENCY_RETRIES = 1000

#: Branch outcomes indexed by their position in ``outcome_counts``
#: (index 0, CORRECT, is also the outcome of a branch never observed).
_OUTCOMES = (BranchOutcome(0), BranchOutcome(1), BranchOutcome(2))


def _operand_table(histogram: Dict[int, int], occurrences: int) -> tuple:
    """Flat guide-table form of one operand's distance distribution:
    ``(p_dep, total, distances, cumulative, guide, inv)``, unpacked and
    walked directly inside the emit loop.

    *distances* repeats its last entry and *cumulative* ends in ``inf``,
    so the walk needs no bounds test; the guide's spare last bucket
    takes a draw that scales to the top bucket.  *total* and
    *cumulative* are floats, exact for counts below ``2**53``, so the
    walk and the redraw floor compare float to float (mixed int/float
    arithmetic made parser synthesis about 15% slower)."""
    distances = sorted(histogram)
    table = GuideTableSampler([histogram[d] for d in distances])
    total = table.total
    p_dep = total / occurrences if occurrences else 0.0
    return (p_dep, float(total), distances + distances[-1:],
            [float(c) for c in table.cumulative] + [math.inf],
            table.guide, table.inv)


class _SlotRecipe:
    """Pre-computed sampling recipe for one instruction slot.

    ``packed`` is the flat tuple the emit loop unpacks in one go —
    operand/anti guide tables, event probabilities, the truncated
    cumulative branch-outcome thresholds (precomputed once here; the
    old code sliced ``outcome_cumulative[:-1]`` per branch draw), and
    the produces-register flag the walk uses for the step 4 rejection
    test without looking back at the emitted entries.
    """

    __slots__ = ("packed",)

    def __init__(self, stats: ContextStats, slot: int,
                 include_anti_dependencies: bool = False) -> None:
        occurrences = stats.occurrences
        iclass = stats.iclasses[slot]
        is_branch = iclass in BRANCH_CLASSES
        operands = tuple(
            _operand_table(stats.dep_hists[slot][op], occurrences)
            for op in range(stats.n_src[slot])
        )
        anti: tuple = ()
        if include_anti_dependencies:
            anti = tuple(
                _operand_table(hist, occurrences)
                for hist in (stats.waw_hists[slot], stats.war_hists[slot])
                if hist
            )
        il1_count = stats.il1[slot]
        dl1_count = stats.dl1[slot]
        counts = stats.outcome_counts
        outcome_c0 = counts[0]
        outcome_c1 = counts[0] + counts[1]
        self.packed = (
            operands,
            anti,
            iclass is IClass.LOAD,
            is_branch,
            il1_count / occurrences,
            stats.l2i[slot] / il1_count if il1_count else 0.0,
            stats.itlb[slot] / occurrences,
            dl1_count / occurrences,
            stats.l2d[slot] / dl1_count if dl1_count else 0.0,
            stats.dtlb[slot] / occurrences,
            stats.taken / occurrences,
            outcome_c0,
            outcome_c1,
            outcome_c1 + counts[2],
            iclass,
            0 if (iclass is IClass.STORE or is_branch) else 1,
        )


# -- per-SFG recipe/transition table cache ------------------------------
#
# Recipes depend only on the SFG's context statistics (never on the
# reduction factor or seed), so they are built once per graph and
# shared by every synthesis call — across seeds, design points and the
# lifetime of a DSE worker process.  Keyed weakly so dropping a profile
# frees its tables.


class _SfgTables:
    """Lazily built per-context emitters and per-history edge tables."""

    __slots__ = ("recipes", "anti_recipes", "transitions", "edges")

    def __init__(self) -> None:
        # context -> compiled emit(out, produces, rand, squash, intern)
        self.recipes: Dict[Context, object] = {}
        self.anti_recipes: Dict[Context, object] = {}
        self.transitions: Dict[Tuple[int, ...],
                               Tuple[Tuple[int, Context], ...]] = {}
        # context -> its history's edge table (saves the per-block
        # ``context[1:]`` slice in the walk's step 9)
        self.edges: Dict[Context,
                         Tuple[Tuple[int, Context], ...]] = {}


_TABLE_CACHE: "WeakKeyDictionary[StatisticalFlowGraph, _SfgTables]" = \
    WeakKeyDictionary()


def _tables_for(sfg: StatisticalFlowGraph) -> _SfgTables:
    tables = _TABLE_CACHE.get(sfg)
    if tables is None:
        tables = _SfgTables()
        _TABLE_CACHE[sfg] = tables
    return tables


def tables_cached(sfg: StatisticalFlowGraph,
                  include_anti_dependencies: bool = False) -> bool:
    """Whether *sfg* already has warm recipe tables (metrics aid)."""
    tables = _TABLE_CACHE.get(sfg)
    if tables is None:
        return False
    recipes = (tables.anti_recipes if include_anti_dependencies
               else tables.recipes)
    return bool(recipes)


def _build_recipes(stats: ContextStats,
                   include_anti_dependencies: bool):
    """Pack every slot's recipe and compile the context's emitter."""
    return _compile_emitter([
        _SlotRecipe(stats, slot, include_anti_dependencies).packed
        for slot in range(stats.block_size)])


def _edge_table(tables: _SfgTables, sfg: StatisticalFlowGraph,
                context: Context) -> Tuple[Tuple[int, Context], ...]:
    """*context*'s outgoing ``(weight, target)`` edges, built once per
    history and cached per context."""
    history = context[1:]
    entries = tables.transitions.get(history)
    if entries is None:
        counts = sfg.transitions.get(history)
        entries = tables.transitions[history] = tuple(
            (weight, history + (block,))
            for block, weight in counts.items()) if counts else ()
    tables.edges[context] = entries
    return entries


def prepare_recipes(profile: StatisticalProfile,
                    reduced: ReducedFlowGraph,
                    include_anti_dependencies: bool = False) -> int:
    """Prebuild slot recipes and edge tables for the contexts *reduced*
    keeps, the only ones a walk of it can emit (a DSE worker calls this
    once at startup so each design-point evaluation starts with warm
    tables).  Returns the number of contexts whose recipes were built
    by this call."""
    sfg = profile.sfg
    if reduced.sfg is not sfg:
        raise SynthesisError(
            "reduced graph does not belong to this profile")
    contexts = reduced.occurrences
    tables = _tables_for(sfg)
    recipes = (tables.anti_recipes if include_anti_dependencies
               else tables.recipes)
    built = 0
    for context in contexts:
        if context not in recipes:
            recipes[context] = _build_recipes(sfg.contexts[context],
                                              include_anti_dependencies)
            built += 1
        if context not in tables.edges:
            _edge_table(tables, sfg, context)
    if built:
        get_registry().counter("synthesis.recipe_contexts_built").inc(
            built)
    return built


# -- per-context compiled block emitters --------------------------------
#
# The inner loop of synthesis is "emit this basic block's instructions",
# and every decision that does not depend on the uniform draws —
# instruction classes, which operands carry distributions, the guide
# tables themselves, which event probabilities are exactly zero — is
# fixed per context.  So instead of interpreting a recipe tuple per
# slot per emission, each context's recipe is compiled ONCE into a
# specialized Python function with the constants baked in and the
# operand loops unrolled.  The generated code consumes uniforms in
# exactly the legacy order (the determinism contract): per operand with
# a non-empty distribution, one gate draw then one draw per retry; per
# non-empty anti table, a gate draw then one sample draw; il1 / (l2i if
# il1) / itlb; for loads dl1 / (l2d if dl1) / dtlb; for branches taken
# then, if any outcomes were observed, one outcome draw.  Zero-total
# operand tables consume no draws (the legacy code `continue`d before
# touching the rng), so they are simply omitted from the generated
# code.
#
# Redraw floor: while one operand's retry loop runs, neither the
# instruction's position nor the produces-register flags change, so
# after its first rejected draw the emitter hands the operand to
# :func:`_redraw`, which scans the distances once, shortest first, for
# the shortest acceptable one.  If there is none, the remaining retries
# are certain to fail (a certain squash): the generator is advanced
# past them in one ``getrandbits(64 * remaining)`` call and the
# dependency squashed.  CPython's ``random()`` consumes exactly two
# 32-bit MT19937 words and ``getrandbits(64 * m)`` exactly ``2 * m``, so
# the stream stays draw-for-draw identical to the legacy loop.
# Otherwise the cumulative weight below that distance is a floor: a
# draw that scales below it lands on a shorter distance, and every
# shorter one is rejected.  So a redraw that scales below the floor is
# rejected by one comparison; only the draws at or above it walk the
# table and test the producer.  Every redraw still consumes its one
# ``random()``.
#
# Interning: an emitted instruction is fully determined by its class,
# its event bits and its dependency distances, so the emitter packs the
# first two into one int key (``int(iclass) << 9 | bits``, paired with
# the distance tuple when there are dependencies) and appends that key's
# entry id from a per-call :class:`_Interner`.  The trace is those ids
# plus one ``(iclass, events, deps, taken, outcome)`` entry per key
# (:class:`~repro.core.synthetic.SyntheticTrace`); no per-instruction
# object is built.  The table lives for one synthesis call only.

#: Bits of an interning key: the six locality events in ``EV_*`` order,
#: the taken flag, the outcome index (bits 7-8) and the class code.
_IL1, _L2I, _ITLB, _DL1, _L2D, _DTLB = (EV_IL1, EV_L2I, EV_ITLB, EV_DL1,
                                        EV_L2D, EV_DTLB)
_TAKEN = 1 << 6
_OUTCOME_SHIFT = 7
_CLASS_SHIFT = 9
_ICLASSES = tuple(IClass)


class _Interner(dict):
    """One synthesis call's entry ids, keyed by ``int(iclass) << 9 |
    event bits`` or ``(that int, deps)``; a missing key takes the next
    id and is recorded in :attr:`order`."""

    __slots__ = ("order",)

    def __init__(self) -> None:
        super().__init__()
        self.order: List[object] = []

    def __missing__(self, key):
        order = self.order
        entry_id = self[key] = len(order)
        order.append(key)
        return entry_id

    def entries(self) -> List[tuple]:
        """The ``(iclass, events, deps, taken, outcome)`` entry of every
        id, in id order."""
        heads: Dict[int, tuple] = {}
        entries = []
        for key in self.order:
            if key.__class__ is int:
                bits, deps = key, ()
            else:
                bits, deps = key
            head = heads.get(bits)
            if head is None:
                iclass = _ICLASSES[bits >> _CLASS_SHIFT]
                head = heads[bits] = (
                    iclass,
                    bits & EV_LOCALITY
                    | (EV_DATA if iclass is IClass.LOAD else 0),
                    bits & _TAKEN != 0,
                    _OUTCOMES[(bits >> _OUTCOME_SHIFT) & 3]
                    if iclass in BRANCH_CLASSES else None)
            iclass, events, taken, outcome = head
            entries.append((iclass, events, deps, taken, outcome))
        return entries


def _redraw(rand, squash, produces: List[int], base: int,
            table: tuple) -> Optional[int]:
    """Step 4's redraws for the operand at *base* after its first draw
    was rejected: the accepted distance, or None once the dependency is
    squashed.  A redraw below the floor of the shortest acceptable
    distance (one before the trace start, or one that writes a
    register) is rejected without walking the table."""
    _p_dep, total, dists, cumulative, guide, inv = table
    floor = 0.0
    for d, weight in zip(dists, cumulative):
        if d > base or produces[base - d]:
            break
        floor = weight
    else:
        squash(MAX_DEPENDENCY_RETRIES - 1)
        return None
    for _ in range(MAX_DEPENDENCY_RETRIES - 1):
        draw = rand() * total
        if draw < floor:
            continue
        i = guide[int(draw * inv)]
        while cumulative[i] <= draw:
            i += 1
        d = dists[i]
        if d > base or produces[base - d]:
            return d
    squash(0)
    return None


def _emit_distance_walk(body: List[str], pad: str, table: tuple,
                        bind) -> str:
    """Generate the inlined guide-table walk; returns the expression
    holding the sampled distance."""
    _p_dep, total, dists, cumulative, guide, inv = table
    if len(dists) == 2:
        # Single-distance table (one distance and its sentinel): the
        # draw is consumed but the outcome is fixed, so skip the table
        # walk entirely.
        body.append(f"{pad}rand()")
        return repr(dists[0])
    g = bind("_G", guide)
    c = bind("_C", cumulative)
    d = bind("_D", dists)
    body.append(f"{pad}draw = rand() * {total}")
    body.append(f"{pad}i = {g}[int(draw * {inv!r})]")
    body.append(f"{pad}while {c}[i] <= draw:")
    body.append(f"{pad}    i += 1")
    body.append(f"{pad}dd = {d}[i]")
    return "dd"


def _emit_operand(body: List[str], k: int, table: tuple, bind) -> None:
    """Generate step 4 for one operand: gate draw, then up to
    MAX_DEPENDENCY_RETRIES distance draws rejecting branch/store
    producers, then a squash."""
    retries_left = MAX_DEPENDENCY_RETRIES - 1
    body.append(f"    if rand() < {table[0]!r}:")
    expr = _emit_distance_walk(body, "        ", table, bind)
    body.append(f"        t = position + {k} - {expr}")
    body.append("        if t >= 0 and not produces[t]:")
    if len(table[2]) == 2:
        # One distance (and its sentinel): a rejected first draw is a
        # certain squash.
        body.append(f"            squash({retries_left})")
        body.append("        else:")
        body.append(f"            deps += ({expr},)")
        return
    body.append(f"            dd = _REDRAW(rand, squash, produces,"
                f" position + {k}, {bind('_T', table)})")
    body.append("            if dd:")
    body.append("                deps += (dd,)")
    body.append("        else:")
    body.append("            deps += (dd,)")


def _emit_event(body: List[str], pad: str, p: float, bit: int) -> None:
    """Generate one locality/branch event draw setting *bit* in ``e``
    (a draw is consumed even when the probability is zero, matching
    the legacy comparisons)."""
    if p:
        body.append(f"{pad}if rand() < {p!r}:")
        body.append(f"{pad}    e += {bit}")
    else:
        body.append(f"{pad}rand()")


def _compile_emitter(packed_recipes: List[tuple]):
    """Compile one context's packed slot recipes into an
    ``emit(out, produces, rand, squash, intern)`` function (steps 3-8
    specialized): *squash(m)* skips *m* draws and counts a squashed
    dependency, *intern* is the call's :class:`_Interner`."""
    env: Dict[str, object] = {"_REDRAW": _redraw}
    names: List[str] = ["_REDRAW"]

    def bind(prefix: str, value) -> str:
        name = f"{prefix}{len(names)}"
        env[name] = value
        names.append(name)
        return name

    body: List[str] = ["    position = len(out)", "    append = out.append"]
    flags = bind("_P", [r[15] for r in packed_recipes])
    # The block's produces-register flags are static, so the parallel
    # array is extended up front; in-block dependency targets (distance
    # smaller than the slot index) then resolve like any older slot.
    body.append(f"    produces.extend({flags})")
    for k, packed in enumerate(packed_recipes):
        (operand_tables, anti_tables, is_load, is_branch,
         p_il1, p_l2i, p_itlb, p_dl1, p_l2d, p_dtlb,
         p_taken, oc0, oc1, ototal, iclass, _flag) = packed
        active = [t for t in operand_tables if t[1]]
        has_deps = bool(active) or bool(anti_tables)
        if has_deps:
            body.append("    deps = ()")
        # Step 4: dependency distances, rejecting branch/store
        # producers (up to MAX_DEPENDENCY_RETRIES redraws each).
        for table in active:
            _emit_operand(body, k, table, bind)
        # WAW/WAR distances for non-renaming machines (section 2.1.1
        # extension): no producer check, no retries.
        for table in anti_tables:
            body.append(f"    if rand() < {table[0]!r}:")
            expr = _emit_distance_walk(body, "        ", table, bind)
            body.append(f"        deps += ({expr},)")
        # Steps 5-7: locality events.  A branch that never saw an
        # outcome is CORRECT, outcome index 0.
        body.append(f"    e = {int(iclass) << _CLASS_SHIFT}")
        if p_il1:
            body.append(f"    if rand() < {p_il1!r}:")
            body.append(f"        e += {_IL1}")
            _emit_event(body, "        ", p_l2i, _L2I)
        else:
            body.append("    rand()")
        _emit_event(body, "    ", p_itlb, _ITLB)
        if is_load:
            if p_dl1:
                body.append(f"    if rand() < {p_dl1!r}:")
                body.append(f"        e += {_DL1}")
                _emit_event(body, "        ", p_l2d, _L2D)
            else:
                body.append("    rand()")
            _emit_event(body, "    ", p_dtlb, _DTLB)
        # Step 6: branch characteristics.
        if is_branch:
            _emit_event(body, "    ", p_taken, _TAKEN)
            if ototal:
                body.append(f"    draw = rand() * {ototal}")
                body.append(f"    if {oc0} <= draw:")
                body.append(f"        e += {1 << _OUTCOME_SHIFT}")
                body.append(f"        if {oc1} <= draw:")
                body.append(f"            e += {1 << _OUTCOME_SHIFT}")
        key = "(e, deps) if deps else e" if has_deps else "e"
        body.append(f"    append(intern[{key}])")
    params = "".join(f", {name}={name}" for name in names)
    source = "\n".join(
        [f"def _emit(out, produces, rand, squash, intern{params}):"]
        + body)
    exec(compile(source, "<sfg-emitter>", "exec"), env)
    return env["_emit"]


def generate_synthetic_trace(
    profile: StatisticalProfile,
    reduction_factor: float,
    seed: int = 0,
    reduced: Optional[ReducedFlowGraph] = None,
    max_instructions: Optional[int] = None,
    include_anti_dependencies: bool = False,
) -> SyntheticTrace:
    """Generate a synthetic trace a factor *reduction_factor* smaller
    than the profiled execution (paper section 2.2).

    Pass *reduced* to reuse an already-reduced graph (e.g. when
    generating multiple traces with different seeds for convergence
    studies); it must come from this profile's SFG.
    *include_anti_dependencies* additionally samples the profiled
    WAW/WAR distances into the trace, for machines simulated without
    full register renaming (pair with
    ``MachineConfig.enforce_anti_dependencies``).
    """
    with trace_span("synthesize", bench=profile.name, seed=seed):
        return _generate_synthetic_trace(
            profile, reduction_factor, seed=seed, reduced=reduced,
            max_instructions=max_instructions,
            include_anti_dependencies=include_anti_dependencies)


def _generate_synthetic_trace(
    profile: StatisticalProfile,
    reduction_factor: float,
    seed: int = 0,
    reduced: Optional[ReducedFlowGraph] = None,
    max_instructions: Optional[int] = None,
    include_anti_dependencies: bool = False,
) -> SyntheticTrace:
    sfg = profile.sfg
    if not sfg.contexts:
        raise SynthesisError(
            f"profile {profile.name!r} holds no contexts; nothing to "
            f"synthesize (was the trace shorter than one basic block?)")
    if reduced is None:
        with trace_span("reduce", bench=profile.name):
            reduced = reduce_flow_graph(sfg, reduction_factor)
    elif reduced.sfg is not sfg:
        raise SynthesisError(
            "reduced graph does not belong to this profile")

    rng = random.Random(seed)
    rand = rng.random
    getrandbits = rng.getrandbits
    order = profile.order
    intern = _Interner()
    squashes = 0

    def squash(skipped: int) -> None:
        # Advance past *skipped* certain-to-fail retries (two MT19937
        # words per random() call) and count the squashed dependency.
        nonlocal squashes
        squashes += 1
        if skipped:
            getrandbits(64 * skipped)

    tables = _tables_for(sfg)
    recipe_cache = (tables.anti_recipes if include_anti_dependencies
                    else tables.recipes)
    if recipe_cache:
        get_registry().counter("synthesis.table_reuse").inc()
    sfg_contexts = sfg.contexts

    # Step 1 state: budgets as a Fenwick tree so a restart draw is
    # O(log n) instead of an O(n) cumulative rebuild (contexts in the
    # reduced graph's insertion order, matching the original dict
    # iteration).  Drained budgets are batched in *pending* and flushed
    # into the tree only when the next restart actually samples it.
    remaining: Dict[Context, int] = dict(reduced.occurrences)
    remaining_get = remaining.get
    contexts_by_index = list(remaining)
    index_of = {context: index
                for index, context in enumerate(contexts_by_index)}
    start = FenwickSampler(list(remaining.values()))
    start_sample = start.sample
    start_add = start.add
    total_remaining = start.total
    pending: Dict[Context, int] = {}
    pending_get = pending.get

    out: List[int] = []
    produces: List[int] = []
    built = 0
    limit = (max_instructions if max_instructions is not None
             else float("inf"))
    recipe_get = recipe_cache.get
    edges_get = tables.edges.get
    # Reused per-draw scratch for the eligible-edge scan (step 9).
    eligible_weights: List[int] = []
    eligible_targets: List[Context] = []
    next_health = _HEALTH_EVERY

    while total_remaining > 0:
        if pending:
            for drained, count in pending.items():
                start_add(index_of[drained], -count)
            pending.clear()
        context = contexts_by_index[start_sample(rand())]  # step 1
        while True:
            remaining[context] -= 1  # step 2
            pending[context] = pending_get(context, 0) + 1
            total_remaining -= 1
            emit = recipe_get(context)
            if emit is None:
                emit = _build_recipes(sfg_contexts[context],
                                      include_anti_dependencies)
                recipe_cache[context] = emit
                built += 1
            emit(out, produces, rand, squash, intern)  # steps 3-8
            if len(out) >= next_health:
                next_health = len(out) + _HEALTH_EVERY
                _health_checkpoint(len(out))
            if len(out) >= limit:
                total_remaining = 0
                break
            if order == 0:
                break  # k = 0: no edges; restart from step 1
            # Step 9: draw an outgoing edge among targets with budget.
            entries = edges_get(context)
            if entries is None:
                entries = _edge_table(tables, sfg, context)
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
            context = eligible_targets[chosen]

    if built:
        get_registry().counter("synthesis.recipe_contexts_built").inc(
            built)
    if squashes:
        get_registry().counter("synthesis.dependency_squashes").inc(
            squashes)
    return SyntheticTrace(
        name=f"{profile.name}/synthetic",
        keys=out,
        distinct=intern.entries(),
        order=order,
        reduction_factor=reduction_factor,
        seed=seed,
    )
