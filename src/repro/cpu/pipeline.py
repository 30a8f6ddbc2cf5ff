"""Cycle-based superscalar out-of-order pipeline.

The stage structure follows sim-outorder (the paper's simulator):

* **fetch** — up to ``decode_width * fetch_speed`` instructions per cycle
  into the IFQ; a taken branch ends the fetch group; I-cache misses stall
  the fetch engine; a fetch redirection (BTB miss on a correctly
  predicted taken branch) costs a short front-end bubble; a mispredicted
  branch switches fetch to wrong-path filler instructions until the
  branch resolves (paper section 2.3).
* **dispatch** — up to ``decode_width`` from IFQ into the RUU (and LSQ
  for memory ops); RAW dependencies resolve against the last 512
  dispatched instructions by dependency distance; branch predictors are
  speculatively updated here (dispatch-time update, section 2.1.3).
* **issue/execute** — up to ``issue_width`` data-ready instructions to
  the functional-unit pool each cycle, oldest first (or strictly in
  program order with ``in_order_issue``).
* **writeback** — completions wake dependents; a resolving mispredicted
  branch squashes all younger instructions and redirects fetch after the
  misprediction penalty.
* **commit** — up to ``commit_width`` completed instructions in order
  from the RUU head.

Per-cycle occupancies and per-unit activity counts feed the power model.

One loop runs every source, and fetch has one path: every source
hands over its list of immutable rows (layout in
:mod:`repro.cpu.source`) up front, and fetch indexes it.  The
execution-driven source's rows come from a locality resolution built
once per cache geometry, so no ``FetchSlot`` exists in an
execution-driven run either.  Its only live rows are its branches: the
loop binds the source predictor's ``classify`` and ``train`` once per
run, classifies each live branch at fetch (counting the outcome in the
source's ``outcomes``, where the misprediction and redirection tallies
are defined) and trains it at dispatch.  The synthetic trace
simulator is thus the execution-driven machine with a different
instruction source, as in the paper.  Branch and locality tallies come
from the source, not from the fetch stage: correct-path instructions
are never squashed and wrong-path fillers never commit, so those counts
do not depend on timing.  The loop counts only what does.

The loop is event-driven (see ``docs/performance.md``): after any cycle
in which no stage did work, the clock fast-forwards to the next
scheduled event (earliest functional-unit completion, fetch unblock, or
IFQ-head decode readiness) and the skipped idle cycles are accounted
analytically.  Completions wait in a wheel of reusable buckets sized
from the source's longest latency.  A dependency-history entry is
released as soon as its instruction completes or is squashed, so
dispatch only asks whether the slot a distance names is occupied.
``_Inflight`` records are pooled, and the RUU and IFQ are index-based
ring buffers instead of deques.  The ``max_cycles`` guard is checked on
the health-checkpoint cadence, clamped to fire at exactly
``max_cycles``.  The results are cycle-for-cycle identical to the
strictly iterative loop preserved in :mod:`repro.cpu.reference`, which
``tests/test_pipeline_equivalence.py`` and
``tests/test_pipeline_bookkeeping.py`` enforce exactly.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import List, Optional

from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.obs.metrics import record_simulation
from repro.isa.iclass import FunctionalUnit
from repro.cpu.results import SimulationResult
from repro.cpu.source import (CTRL_LIVE, CTRL_MISPREDICT, CTRL_REDIRECT,
                              CTRL_STALL, CTRL_TAKEN,
                              MAX_DEPENDENCY_DISTANCE, _FILLER_ROWS,
                              InstructionSource)

from repro.health.budget import checkpoint as _health_checkpoint

#: Dependency-resolution window (matches the profile's distance cap;
#: a power of two, so the cursor wraps with a mask).
_HISTORY = MAX_DEPENDENCY_DISTANCE

#: Cycles between cooperative health checkpoints (deadline check,
#: progress heartbeat, RSS guardrail — :mod:`repro.health`).  The
#: checkpoint consumes no randomness and touches no machine state, so
#: the simulated results are bit-identical with or without a budget;
#: the in-loop cost, run-length guard included, is one integer
#: comparison per cycle.
_HEALTH_EVERY = 4096

#: Knobs that must be >= 1.  MachineConfig validates its own widths and
#: sizes; these are the derived and unvalidated ones a livelocked
#: pipeline would otherwise only reveal as an infinite loop (a zero
#: functional-unit count leaves its class forever unissued).
_POSITIVE_KNOBS = ("fetch_width", "ifq_size", "decode_width",
                   "issue_width", "commit_width", "ruu_size",
                   "int_alus", "load_store_units", "fp_adders",
                   "int_mult_divs", "fp_mult_divs")


class _Inflight:
    """Book-keeping for one instruction in the pipeline.

    ``row`` is the instruction's immutable data (see
    :mod:`repro.cpu.source`); everything else is pipeline state.
    Instances are pooled: a record is recycled once nothing can
    reference it again — at commit (its history slot and waiter list
    were already released when it completed) or when the IFQ is
    squashed before the instruction ever dispatched.  Squashed RUU
    instructions are *not* recycled; they may still sit in the ready
    heap or a completion bucket, where the ``squashed`` flag keeps them
    inert.
    """

    __slots__ = ("row", "pseq", "pending", "waiters", "completed",
                 "squashed", "recover", "is_mem", "decode_ready",
                 "hist_slot")

    def __init__(self) -> None:
        self.pending = 0
        self.waiters: List["_Inflight"] = []
        self.squashed = False


class SuperscalarPipeline:
    """One configured out-of-order core; call :meth:`run` once."""

    def __init__(self, config: MachineConfig,
                 source: InstructionSource) -> None:
        for knob in _POSITIVE_KNOBS:
            value = getattr(config, knob)
            if value < 1:
                raise SimulationError(
                    f"machine config {knob} must be >= 1, got {value!r}; "
                    f"the pipeline cannot make progress")
        self.config = config
        self.source = source

    def run(self, max_cycles: Optional[int] = None,
            commit_log: Optional[list] = None) -> SimulationResult:
        """Simulate until the source drains; return the result.

        When *commit_log* is a list, every retired instruction appends
        ``(cycle, pseq)`` to it in retirement order — the differential
        fuzzing oracle (:mod:`repro.fuzz.oracle`) diffs this schedule
        against the reference pipeline's.  ``None`` (the default) keeps
        the commit stage allocation-free.
        """
        config = self.config
        source = self.source
        fetch_width = config.fetch_width
        decode_width = config.decode_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        ifq_size = config.ifq_size
        ruu_size = config.ruu_size
        lsq_size = config.lsq_size
        mispredict_penalty = config.branch_misprediction_penalty
        redirect_penalty = config.fetch_redirect_penalty
        frontend_depth = config.frontend_depth
        in_order = config.in_order_issue
        conservative_loads = config.conservative_loads
        # Fetch and wrong-path peeking are list indexes (the ``_pos``
        # cursor is written back on every exit).  A live row
        # (CTRL_LIVE) is a branch the predictor classifies at fetch.
        rows = source.rows
        n_rows = len(rows)
        pos = source._pos
        predictor = getattr(source, "predictor", None)
        if predictor is not None:
            classify = predictor.classify
            train = predictor.train
            instructions = source.instructions
            outcomes = source.outcomes
        # Correct-path branches dispatch in fetch order and are never
        # squashed, so a FIFO of (record, instruction) hands each live
        # one to train (the predictor's dispatch-time update);
        # ``next_live`` is the record at its head.
        live_branches: deque = deque()
        next_live: Optional[_Inflight] = None
        filler_rows = _FILLER_ROWS
        heap_push = heappush
        heap_pop = heappop
        last_store: Optional[_Inflight] = None
        # FU pools indexed by FunctionalUnit value (an IntEnum); rows
        # carry the plain-int index, so the issue stage indexes lists
        # instead of hashing enum keys.
        fu_caps: List[int] = [0] * len(FunctionalUnit)
        fu_caps[FunctionalUnit.INT_ALU] = config.int_alus
        fu_caps[FunctionalUnit.LOAD_STORE] = config.load_store_units
        fu_caps[FunctionalUnit.FP_ADDER] = config.fp_adders
        fu_caps[FunctionalUnit.INT_MULT_DIV] = config.int_mult_divs
        fu_caps[FunctionalUnit.FP_MULT_DIV] = config.fp_mult_divs
        fu_counts: List[int] = [0] * len(FunctionalUnit)

        # Index-based ring buffers: the RUU and IFQ have hard capacity
        # bounds, so a fixed list with head/count cursors replaces the
        # deque (no per-cycle allocation, O(1) everything).  In-order
        # issue only ever issues the oldest unissued entry, so the
        # issued entries are the first ``ruu_issued`` of the RUU.
        ruu_buf: List[Optional[_Inflight]] = [None] * ruu_size
        ruu_head = 0
        ruu_count = 0
        ruu_issued = 0
        ifq_buf: List[Optional[_Inflight]] = [None] * ifq_size
        ifq_head = 0
        ifq_count = 0

        # Ready queue, split by arrival order.  Instructions that are
        # data-ready at dispatch arrive in strictly increasing pseq
        # (dispatch drains the in-order IFQ and pseq never rewinds), so
        # a plain FIFO list holds them with no heap discipline at all.
        # Only writeback wakeups (arbitrary order) and FU-contention
        # deferrals go through a real heap; issue pops the global
        # pseq-minimum across both, which preserves oldest-first issue
        # exactly.
        rq_fifo: List[_Inflight] = []
        rq_head = 0
        rq_heap: list = []  # heap of (pseq, _Inflight)
        # Completion wheel: an instruction finishing at cycle f waits
        # in bucket ``f & wheel_mask``.  Writeback drains the current
        # cycle's bucket before issue fills any, so pending finishes
        # lie in (cycle, cycle + longest] and a wheel of at least
        # ``longest`` buckets never holds two finish cycles in one.
        wheel_size = 1 << (max(source.longest_latency, 1) - 1).bit_length()
        wheel_mask = wheel_size - 1
        wheel: List[List[_Inflight]] = [[] for _ in range(wheel_size)]
        # The last _HISTORY dispatches, by dependency distance.  An
        # entry is cleared when its instruction completes or is
        # squashed, so a non-None producer is always still pending.
        history: List[Optional[_Inflight]] = [None] * _HISTORY
        hist_pos = 0
        hist_mask = _HISTORY - 1
        lsq_count = 0
        free: List[_Inflight] = []  # recycled _Inflight records
        free_pop = free.pop
        free_append = free.append

        cycle = 0
        fetch_block_until = 0
        episode: Optional[_Inflight] = None  # unresolved mispredicted branch
        filler_offset = 0
        exhausted = False
        pseq_counter = 0
        committed = 0

        # Accounting (the timing-independent tallies live in the source)
        ruu_occupancy_sum = 0
        lsq_occupancy_sum = 0
        ifq_occupancy_sum = 0
        squashed_total = 0
        act_fetch = act_dispatch = act_issue = 0
        act_dl1_filler = 0

        if max_cycles is None:
            max_cycles = 1000 * max(n_rows, 1) + 100_000
        # The run-length guard rides on the health cadence: the next
        # check is the next health checkpoint or max_cycles, whichever
        # comes first.
        next_health = _HEALTH_EVERY
        next_check = min(next_health, max_cycles)

        while True:
            # ---------------------------------------------------- commit
            retired = 0
            while ruu_count and retired < commit_width:
                head = ruu_buf[ruu_head]
                if not head.completed:
                    break
                # The vacated slot is not cleared: ring entries beyond
                # ``count`` are never read, only overwritten.
                ruu_head += 1
                if ruu_head == ruu_size:
                    ruu_head = 0
                ruu_count -= 1
                if head.is_mem:
                    lsq_count -= 1
                retired += 1
                if commit_log is not None:
                    commit_log.append((cycle, head.pseq))
                # Recycle: completion already released the history
                # slot and the waiter list, so only the store-forwarding
                # pointer can still name the record.
                if last_store is head:
                    last_store = None
                free_append(head)
            committed += retired
            ruu_issued -= retired

            # ------------------------------------------------- writeback
            done = wheel[cycle & wheel_mask]
            if done:
                for inst in done:
                    if inst.squashed:
                        continue
                    inst.completed = True
                    slot_index = inst.hist_slot
                    if history[slot_index] is inst:
                        history[slot_index] = None
                    waiters = inst.waiters
                    if waiters:
                        for waiter in waiters:
                            if waiter.squashed:
                                continue
                            waiter.pending -= 1
                            if waiter.pending == 0:
                                heap_push(rq_heap, (waiter.pseq, waiter))
                        waiters.clear()
                    if inst.recover:
                        # Mispredicted branch resolves: squash younger.
                        pseq_limit = inst.pseq
                        while ruu_count:
                            tail = ruu_head + ruu_count - 1
                            if tail >= ruu_size:
                                tail -= ruu_size
                            victim = ruu_buf[tail]
                            if victim.pseq <= pseq_limit:
                                break
                            ruu_buf[tail] = None
                            ruu_count -= 1
                            victim.squashed = True
                            slot_index = victim.hist_slot
                            if history[slot_index] is victim:
                                history[slot_index] = None
                            if victim.is_mem:
                                lsq_count -= 1
                            squashed_total += 1
                        if ruu_issued > ruu_count:
                            ruu_issued = ruu_count
                        squashed_total += ifq_count
                        index = ifq_head
                        for _ in range(ifq_count):
                            junk = ifq_buf[index]
                            ifq_buf[index] = None
                            index += 1
                            if index == ifq_size:
                                index = 0
                            # Never dispatched: nothing references it.
                            free_append(junk)
                        ifq_head = 0
                        ifq_count = 0
                        episode = None
                        filler_offset = 0
                        if cycle + mispredict_penalty > fetch_block_until:
                            fetch_block_until = cycle + mispredict_penalty
                done.clear()
                worked = True
            else:
                worked = retired > 0

            # ----------------------------------------------------- issue
            if in_order:
                # In-order issue: instructions leave for the functional
                # units strictly in program order; the first stalled
                # instruction blocks all younger ones.  It walks the
                # RUU, so the ready queue only needs emptying.
                if rq_fifo:
                    rq_fifo.clear()
                if rq_heap:
                    rq_heap.clear()
                issued = 0
                fu_free = fu_caps[:]
                index = ruu_head + ruu_issued
                if index >= ruu_size:
                    index -= ruu_size
                for _ in range(ruu_count - ruu_issued):
                    if issued >= issue_width:
                        break
                    inst = ruu_buf[index]
                    index += 1
                    if index == ruu_size:
                        index = 0
                    row = inst.row
                    fi = row[1]
                    if inst.pending > 0 or fu_free[fi] <= 0:
                        break
                    fu_free[fi] -= 1
                    issued += 1
                    fu_counts[fi] += 1
                    wheel[(cycle + row[0]) & wheel_mask].append(inst)
                ruu_issued += issued
                act_issue += issued
                if issued:
                    worked = True
            elif rq_heap or rq_head < len(rq_fifo):
                fu_free = fu_caps[:]
                issued = 0
                deferred = None
                n_deferred = 0
                rq_tail = len(rq_fifo)
                while issued < issue_width and n_deferred < 64:
                    # Pop the lowest pseq across the FIFO and the heap.
                    if rq_head < rq_tail:
                        inst = rq_fifo[rq_head]
                        if rq_heap and rq_heap[0][0] < inst.pseq:
                            inst = heap_pop(rq_heap)[1]
                        else:
                            rq_head += 1
                    elif rq_heap:
                        inst = heap_pop(rq_heap)[1]
                    else:
                        break
                    if inst.squashed:
                        continue
                    row = inst.row
                    fi = row[1]
                    if fu_free[fi] > 0:
                        fu_free[fi] -= 1
                        issued += 1
                        fu_counts[fi] += 1
                        wheel[(cycle + row[0]) & wheel_mask].append(inst)
                    else:
                        if deferred is None:
                            deferred = []
                        deferred.append((inst.pseq, inst))
                        n_deferred += 1
                # Deferred instructions re-enter via the heap after the
                # scan (never mid-scan: each blocked instruction must be
                # passed over exactly once per cycle, as the reference
                # loop does).
                if deferred is not None:
                    for item in deferred:
                        heap_push(rq_heap, item)
                if rq_head == rq_tail and rq_head:
                    del rq_fifo[:rq_head]
                    rq_head = 0
                act_issue += issued
                if issued:
                    worked = True

            # -------------------------------------------------- dispatch
            dispatched = 0
            while (ifq_count and dispatched < decode_width
                   and ruu_count < ruu_size):
                inst = ifq_buf[ifq_head]
                if inst.decode_ready > cycle:
                    break  # still in the decode/rename front-end stages
                if inst.is_mem and lsq_count >= lsq_size:
                    break
                ifq_head += 1
                if ifq_head == ifq_size:
                    ifq_head = 0
                ifq_count -= 1
                tail = ruu_head + ruu_count
                if tail >= ruu_size:
                    tail -= ruu_size
                ruu_buf[tail] = inst
                ruu_count += 1
                if inst.is_mem:
                    lsq_count += 1
                row = inst.row
                if inst is next_live:
                    train(live_branches.popleft()[1])
                    next_live = live_branches[0][0] if live_branches else None
                # Resolve RAW dependencies against dispatch history.
                # Rows carry no distance beyond _HISTORY, and a slot
                # nothing was dispatched into yet is None, so a
                # negative index needs no fix-up.
                distances = row[2]
                if distances:
                    for distance in distances:
                        producer = history[hist_pos - distance]
                        if producer is not None:
                            inst.pending += 1
                            producer.waiters.append(inst)
                if conservative_loads:
                    if (row[3] and last_store is not None
                            and not last_store.completed
                            and not last_store.squashed):
                        inst.pending += 1
                        last_store.waiters.append(inst)
                    if row[4]:
                        last_store = inst
                history[hist_pos] = inst
                inst.hist_slot = hist_pos
                hist_pos = hist_pos + 1 & hist_mask
                dispatched += 1
                if inst.pending == 0:
                    rq_fifo.append(inst)
            act_dispatch += dispatched
            if dispatched:
                worked = True

            # ----------------------------------------------------- fetch
            if cycle >= fetch_block_until:
                fetched = 0
                decode_ready = cycle + frontend_depth
                while fetched < fetch_width and ifq_count < ifq_size:
                    if episode is not None:
                        # Wrong path: fillers carry no control bits (see
                        # _FILLER_SLOTS), so they only occupy fetch,
                        # window and FU resources and D-cache ports.
                        row = filler_rows[
                            rows[(pos + filler_offset) % n_rows][8]]
                        filler_offset += 1
                        if row[5]:
                            act_dl1_filler += 1
                    elif pos < n_rows:
                        row = rows[pos]
                        pos += 1
                    else:
                        exhausted = True
                        break
                    if free:
                        # Pooled records need no pending/squashed/
                        # hist_slot reset: pending is always 0 by the
                        # time a record is recyclable, only RUU-squashed
                        # records (never recycled) carry squashed=True,
                        # and hist_slot is only read after dispatch,
                        # which always re-assigns it first.
                        inst = free_pop()
                    else:
                        inst = _Inflight()
                    inst.row = row
                    inst.pseq = pseq_counter
                    inst.decode_ready = decode_ready
                    inst.completed = False
                    inst.recover = False
                    inst.is_mem = row[5]
                    pseq_counter += 1
                    tail = ifq_head + ifq_count
                    if tail >= ifq_size:
                        tail -= ifq_size
                    ifq_buf[tail] = inst
                    ifq_count += 1
                    fetched += 1
                    ctrl = row[6]
                    if ctrl:
                        if ctrl & CTRL_LIVE:
                            # Classify against the predictor as it
                            # stands; the row for the outcome shares
                            # every field fetch has read so far.
                            branch = instructions[pos - 1]
                            outcome = classify(branch)
                            outcomes[outcome] += 1
                            row = inst.row = row[9][outcome]
                            ctrl = row[6]
                            live_branches.append((inst, branch))
                            if next_live is None:
                                next_live = inst
                        # The bit priority is the fetch group's break
                        # order: a correctly predicted taken branch ends
                        # the group before any I-miss stall counts.
                        if ctrl & CTRL_MISPREDICT:
                            inst.recover = True
                            episode = inst
                            filler_offset = 0
                            if ctrl & CTRL_TAKEN:
                                break
                            if ctrl & CTRL_STALL:
                                fetch_block_until = cycle + 1 + row[7]
                                break
                        elif ctrl & CTRL_REDIRECT:
                            fetch_block_until = cycle + 1 + redirect_penalty
                            break
                        elif ctrl & CTRL_TAKEN:
                            break
                        elif ctrl & CTRL_STALL:
                            fetch_block_until = cycle + 1 + row[7]
                            break
                act_fetch += fetched
                if fetched:
                    worked = True

            # ------------------------------------------------ accounting
            ruu_occupancy_sum += ruu_count
            lsq_occupancy_sum += lsq_count
            ifq_occupancy_sum += ifq_count
            cycle += 1
            if cycle >= next_check:
                if cycle >= next_health:
                    next_health = cycle + _HEALTH_EVERY
                    _health_checkpoint(committed)
                if (cycle >= max_cycles
                        and not (exhausted and not ifq_count
                                 and not ruu_count)):
                    source._pos = pos
                    raise RuntimeError(
                        f"pipeline did not drain within {max_cycles} "
                        f"cycles ({committed} committed)")
                next_check = min(next_health, max_cycles)

            if exhausted and not ifq_count and not ruu_count:
                break

            if not worked:
                # Event-driven fast-forward: a cycle in which every
                # stage was a no-op leaves the machine state untouched,
                # so nothing can change before the next scheduled event
                # — the earliest completion, the fetch unblock, or the
                # IFQ head leaving the decode front-end.  Skip straight
                # there and account the idle cycles analytically.
                # A candidate equal to ``cycle`` means the event is due
                # right now (it expired with the clock increment): the
                # skip clamps to zero and the loop proceeds normally.
                # Candidates in the past are stale, not constraints.
                target = max_cycles
                if cycle <= fetch_block_until < target:
                    target = fetch_block_until
                if ifq_count:
                    head_ready = ifq_buf[ifq_head].decode_ready
                    if cycle <= head_ready < target:
                        target = head_ready
                # Every pending finish lies within one wheel turn.
                scan_end = cycle + wheel_size
                if scan_end > target:
                    scan_end = target
                finish = cycle
                while finish < scan_end:
                    if wheel[finish & wheel_mask]:
                        target = finish
                        break
                    finish += 1
                skip = target - cycle
                if skip > 0:
                    ruu_occupancy_sum += ruu_count * skip
                    lsq_occupancy_sum += lsq_count * skip
                    ifq_occupancy_sum += ifq_count * skip
                    cycle = target
                    if cycle >= max_cycles:
                        source._pos = pos
                        raise RuntimeError(
                            f"pipeline did not drain within {max_cycles} "
                            f"cycles ({committed} committed)"
                        )

        source._pos = pos
        activity = {
            "fetch": act_fetch, "dispatch": act_dispatch,
            "issue": act_issue, "commit": committed,
            "bpred": source.act_bpred, "il1": act_fetch,
            "dl1": source.act_dl1 + act_dl1_filler,
            "l2": source.act_l2,
            "int_alu": fu_counts[FunctionalUnit.INT_ALU],
            "load_store": fu_counts[FunctionalUnit.LOAD_STORE],
            "fp_adder": fu_counts[FunctionalUnit.FP_ADDER],
            "int_mult_div": fu_counts[FunctionalUnit.INT_MULT_DIV],
            "fp_mult_div": fu_counts[FunctionalUnit.FP_MULT_DIV],
        }
        result = SimulationResult(
            cycles=cycle,
            instructions=committed,
            avg_ruu_occupancy=ruu_occupancy_sum / cycle if cycle else 0.0,
            avg_lsq_occupancy=lsq_occupancy_sum / cycle if cycle else 0.0,
            avg_ifq_occupancy=ifq_occupancy_sum / cycle if cycle else 0.0,
            activity=activity,
            branches=source.branches,
            taken_branches=source.taken_branches,
            fetch_redirections=source.redirections,
            branch_mispredictions=source.mispredictions,
            squashed_instructions=squashed_total,
        )
        record_simulation(result)
        return result


def simulate(config: MachineConfig,
             source: InstructionSource,
             max_cycles: Optional[int] = None) -> SimulationResult:
    """Convenience wrapper: build and run a pipeline."""
    return SuperscalarPipeline(config, source).run(max_cycles=max_cycles)
