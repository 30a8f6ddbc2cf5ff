"""Frozen reference implementation of the superscalar pipeline loop.

This is the original strictly cycle-by-cycle ``SuperscalarPipeline.run``
preserved verbatim (minus metrics recording) from before the
event-driven rewrite of :mod:`repro.cpu.pipeline`.  It is the
exact-equivalence guard: ``tests/test_pipeline_equivalence.py`` asserts
the optimized pipeline produces an identical :class:`SimulationResult`
and commit schedule for the same source and configuration, on fixed
streams, random machines and random programs.

Do not optimize this module; its value is that it stays slow and
obviously correct.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.isa.iclass import FunctionalUnit
from repro.branch.unit import BranchOutcome
from repro.cpu.results import SimulationResult
from repro.cpu.source import FetchSlot, InstructionSource

#: Dependency-resolution window (matches the profile's distance cap).
_HISTORY = 512


class _Inflight:
    """Book-keeping for one instruction in the pipeline."""

    __slots__ = ("slot", "pseq", "pending", "waiters", "completed",
                 "squashed", "recover", "wrong_path", "is_mem",
                 "decode_ready", "issued")

    def __init__(self, slot: FetchSlot, pseq: int, wrong_path: bool) -> None:
        self.slot = slot
        self.pseq = pseq
        self.decode_ready = 0
        self.issued = False
        self.pending = 0
        self.waiters: List["_Inflight"] = []
        self.completed = False
        self.squashed = False
        self.recover = False
        self.wrong_path = wrong_path
        self.is_mem = slot.is_load or slot.is_store


class ReferencePipeline:
    """The pre-overhaul pipeline; call :meth:`run` once."""

    def __init__(self, config: MachineConfig,
                 source: InstructionSource) -> None:
        for knob in ("fetch_width", "ifq_size", "decode_width",
                     "issue_width", "commit_width", "ruu_size"):
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
        ``(cycle, pseq)`` in retirement order — the same hook the
        optimized pipeline exposes, so the equivalence suite can diff
        retirement schedules cycle-for-cycle.
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
        last_store: Optional[_Inflight] = None
        fu_capacity: Dict[FunctionalUnit, int] = {
            FunctionalUnit.INT_ALU: config.int_alus,
            FunctionalUnit.LOAD_STORE: config.load_store_units,
            FunctionalUnit.FP_ADDER: config.fp_adders,
            FunctionalUnit.INT_MULT_DIV: config.int_mult_divs,
            FunctionalUnit.FP_MULT_DIV: config.fp_mult_divs,
        }

        ifq: deque = deque()
        ruu: deque = deque()
        ready: list = []  # heap of (pseq, _Inflight)
        completing: Dict[int, List[_Inflight]] = {}
        history: List[Optional[_Inflight]] = [None] * _HISTORY
        dispatch_count = 0
        lsq_count = 0

        cycle = 0
        fetch_block_until = 0
        episode: Optional[_Inflight] = None  # unresolved mispredicted branch
        filler_offset = 0
        exhausted = False
        pseq_counter = 0
        committed = 0

        # Accounting
        ruu_occupancy_sum = 0
        lsq_occupancy_sum = 0
        ifq_occupancy_sum = 0
        squashed_total = 0
        branches = taken_branches = redirections = mispredictions = 0
        activity = {
            "fetch": 0, "dispatch": 0, "issue": 0, "commit": 0,
            "bpred": 0, "il1": 0, "dl1": 0, "l2": 0,
            "int_alu": 0, "load_store": 0, "fp_adder": 0,
            "int_mult_div": 0, "fp_mult_div": 0,
        }
        fu_activity_key = {
            FunctionalUnit.INT_ALU: "int_alu",
            FunctionalUnit.LOAD_STORE: "load_store",
            FunctionalUnit.FP_ADDER: "fp_adder",
            FunctionalUnit.INT_MULT_DIV: "int_mult_div",
            FunctionalUnit.FP_MULT_DIV: "fp_mult_div",
        }

        if max_cycles is None:
            source_len = len(source) if hasattr(source, "__len__") else 0
            max_cycles = 1000 * max(source_len, 1) + 100_000

        while True:
            # ---------------------------------------------------- commit
            retired = 0
            while ruu and retired < commit_width:
                head = ruu[0]
                if not head.completed:
                    break
                ruu.popleft()
                if head.is_mem:
                    lsq_count -= 1
                committed += 1
                retired += 1
                if commit_log is not None:
                    commit_log.append((cycle, head.pseq))
            activity["commit"] += retired

            # ------------------------------------------------- writeback
            done = completing.pop(cycle, None)
            if done:
                for inst in done:
                    if inst.squashed:
                        continue
                    inst.completed = True
                    for waiter in inst.waiters:
                        if waiter.squashed:
                            continue
                        waiter.pending -= 1
                        if waiter.pending == 0:
                            heappush(ready, (waiter.pseq, waiter))
                    if inst.recover:
                        # Mispredicted branch resolves: squash younger.
                        while ruu and ruu[-1].pseq > inst.pseq:
                            victim = ruu.pop()
                            victim.squashed = True
                            if victim.is_mem:
                                lsq_count -= 1
                            squashed_total += 1
                        squashed_total += len(ifq)
                        ifq.clear()
                        episode = None
                        filler_offset = 0
                        fetch_block_until = max(
                            fetch_block_until, cycle + mispredict_penalty)

            # ----------------------------------------------------- issue
            if in_order:
                # In-order issue: instructions leave for the functional
                # units strictly in program order; the first stalled
                # instruction blocks all younger ones.
                issued = 0
                fu_free = dict(fu_capacity)
                for inst in ruu:
                    if issued >= issue_width:
                        break
                    if inst.issued:
                        continue
                    fu = inst.slot.fu
                    if inst.pending > 0 or fu_free[fu] <= 0:
                        break
                    fu_free[fu] -= 1
                    inst.issued = True
                    issued += 1
                    activity[fu_activity_key[fu]] += 1
                    finish = cycle + inst.slot.exec_latency
                    completing.setdefault(finish, []).append(inst)
                activity["issue"] += issued
            elif ready:
                fu_free = dict(fu_capacity)
                issued = 0
                deferred = []
                while ready and issued < issue_width and len(deferred) < 64:
                    pseq, inst = heappop(ready)
                    if inst.squashed:
                        continue
                    fu = inst.slot.fu
                    if fu_free[fu] > 0:
                        fu_free[fu] -= 1
                        inst.issued = True
                        issued += 1
                        activity[fu_activity_key[fu]] += 1
                        finish = cycle + inst.slot.exec_latency
                        completing.setdefault(finish, []).append(inst)
                    else:
                        deferred.append((pseq, inst))
                for item in deferred:
                    heappush(ready, item)
                activity["issue"] += issued

            # -------------------------------------------------- dispatch
            dispatched = 0
            while (ifq and dispatched < decode_width
                   and len(ruu) < ruu_size):
                inst = ifq[0]
                if inst.decode_ready > cycle:
                    break  # still in the decode/rename front-end stages
                if inst.is_mem and lsq_count >= lsq_size:
                    break
                ifq.popleft()
                ruu.append(inst)
                if inst.is_mem:
                    lsq_count += 1
                slot = inst.slot
                if slot.is_branch and not inst.wrong_path:
                    source.on_dispatch(slot)
                    activity["bpred"] += 1
                # Resolve RAW dependencies against dispatch history.
                for distance in slot.dep_distances:
                    if distance > dispatch_count or distance > _HISTORY:
                        continue
                    producer = history[(dispatch_count - distance) % _HISTORY]
                    if (producer is None or producer.completed
                            or producer.squashed):
                        continue
                    inst.pending += 1
                    producer.waiters.append(inst)
                if conservative_loads:
                    if (slot.is_load and last_store is not None
                            and not last_store.completed
                            and not last_store.squashed):
                        inst.pending += 1
                        last_store.waiters.append(inst)
                    if slot.is_store:
                        last_store = inst
                history[dispatch_count % _HISTORY] = inst
                dispatch_count += 1
                dispatched += 1
                if inst.pending == 0:
                    heappush(ready, (inst.pseq, inst))
            activity["dispatch"] += dispatched

            # ----------------------------------------------------- fetch
            if cycle >= fetch_block_until:
                fetched = 0
                while fetched < fetch_width and len(ifq) < ifq_size:
                    if episode is not None:
                        slot = source.peek_filler(filler_offset)
                        filler_offset += 1
                        wrong_path = True
                    elif exhausted:
                        break
                    else:
                        slot = source.fetch()
                        if slot is None:
                            exhausted = True
                            break
                        wrong_path = False
                    if slot is None:
                        break
                    inst = _Inflight(slot, pseq_counter, wrong_path)
                    inst.decode_ready = cycle + frontend_depth
                    pseq_counter += 1
                    ifq.append(inst)
                    fetched += 1
                    activity["il1"] += 1
                    activity["l2"] += slot.il1_miss
                    if slot.is_load or slot.is_store:
                        activity["dl1"] += 1
                        activity["l2"] += slot.dl1_miss
                    if slot.is_branch and not wrong_path:
                        activity["bpred"] += 1
                        branches += 1
                        outcome = slot.outcome
                        if slot.taken:
                            taken_branches += 1
                        if outcome is BranchOutcome.MISPREDICTION:
                            mispredictions += 1
                            inst.recover = True
                            episode = inst
                            filler_offset = 0
                        elif outcome is BranchOutcome.FETCH_REDIRECTION:
                            redirections += 1
                            fetch_block_until = cycle + 1 + redirect_penalty
                            break
                        if slot.taken:
                            break
                    if slot.fetch_stall:
                        fetch_block_until = cycle + 1 + slot.fetch_stall
                        break
                activity["fetch"] += fetched

            # ------------------------------------------------ accounting
            ruu_occupancy_sum += len(ruu)
            lsq_occupancy_sum += lsq_count
            ifq_occupancy_sum += len(ifq)
            cycle += 1

            if exhausted and not ifq and not ruu:
                break
            if cycle >= max_cycles:
                raise RuntimeError(
                    f"pipeline did not drain within {max_cycles} cycles "
                    f"({committed} committed)"
                )

        return SimulationResult(
            cycles=cycle,
            instructions=committed,
            avg_ruu_occupancy=ruu_occupancy_sum / cycle if cycle else 0.0,
            avg_lsq_occupancy=lsq_occupancy_sum / cycle if cycle else 0.0,
            avg_ifq_occupancy=ifq_occupancy_sum / cycle if cycle else 0.0,
            activity=activity,
            branches=branches,
            taken_branches=taken_branches,
            fetch_redirections=redirections,
            branch_mispredictions=mispredictions,
            squashed_instructions=squashed_total,
        )


def simulate_reference(config: MachineConfig,
                       source: InstructionSource,
                       max_cycles: Optional[int] = None) -> SimulationResult:
    """Run the frozen reference pipeline (equivalence/benchmark aid)."""
    return ReferencePipeline(config, source).run(max_cycles=max_cycles)
