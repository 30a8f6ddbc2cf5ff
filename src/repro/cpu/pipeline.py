"""Superscalar out-of-order pipeline, timed one instruction at a time.

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

The loop does not step cycles (see ``docs/performance.md``).  In this
machine nothing younger ever delays anything older: every stage takes
the oldest first, so an instruction's fetch, dispatch, issue,
completion and commit cycles follow from older instructions alone.
One pass in program order computes them from rings of older
instructions' leave cycles (IFQ, RUU, LSQ), a ring of completion
cycles by dependency distance, and per-cycle issue-slot,
functional-unit and scan-deferral counts.  A mispredicted branch's
wrong-path fillers are timed right after it, once its resolution cycle
is known, and then stepped back out of the RUU and LSQ rings; a live
branch is classified after the predictor has been trained with every
older branch that dispatched by its fetch cycle.  Occupancy sums are
sums of residencies.  Health checkpoints fire every ``_HEALTH_EVERY``
simulated cycles with the commits before that cycle, and the
``max_cycles`` guard stops the run with the schedule a cycle-stepped
loop would have reached by then.  The results are cycle-for-cycle
identical to the strictly iterative loop preserved in
:mod:`repro.cpu.reference`, which
``tests/test_pipeline_equivalence.py`` and
``tests/test_pipeline_bookkeeping.py`` enforce exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

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

#: Dependency-resolution window (matches the profile's distance cap).
_HISTORY = MAX_DEPENDENCY_DISTANCE

#: Simulated cycles between cooperative health checkpoints (deadline
#: check, progress heartbeat, RSS guardrail — :mod:`repro.health`).  The
#: checkpoint consumes no randomness and touches no machine state, so
#: the simulated results are bit-identical with or without a budget;
#: the in-loop cost, run-length guard included, is one integer
#: comparison per instruction.
_HEALTH_EVERY = 4096

#: The issue scan passes over at most this many ready instructions
#: whose functional unit is busy; then the cycle issues nothing more.
_MAX_DEFERRED = 64

#: Knobs that must be >= 1.  MachineConfig validates its own widths and
#: sizes; these are the derived and unvalidated ones a livelocked
#: pipeline would otherwise only reveal as an infinite loop (a zero
#: functional-unit count leaves its class forever unissued).
_POSITIVE_KNOBS = ("fetch_width", "ifq_size", "decode_width",
                   "issue_width", "commit_width", "ruu_size",
                   "int_alus", "load_store_units", "fp_adders",
                   "int_mult_divs", "fp_mult_divs")


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
        ``(cycle, pseq)`` to it in retirement order — the equivalence
        suite diffs this schedule against the reference pipeline's.
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
        # Fetch runs after dispatch within a cycle, so an instruction
        # dispatches no earlier than the cycle after its fetch.
        decode_delay = max(config.frontend_depth, 1)
        in_order = config.in_order_issue
        conservative_loads = config.conservative_loads
        rows = source.rows
        n_rows = len(rows)
        start = source._pos
        # A live row (CTRL_LIVE) is a branch the predictor classifies
        # at fetch and trains with at dispatch; ``untrained`` holds the
        # classified ones as (dispatch cycle, branch record).
        predictor = getattr(source, "predictor", None)
        if predictor is not None:
            classify = predictor.classify
            train = predictor.train
            branch_records = source.branch_records
            outcomes = source.outcomes
        untrained: deque = deque()
        filler_rows = _FILLER_ROWS

        # One cycle's issue slots and functional units, packed into one
        # int: a field per limit (issue_width first, then one per unit
        # class) starts at ``half - limit`` and counts up, so a field
        # is exhausted exactly when its ``half`` bit is set, and
        # ``guard[fu]`` tests the issue width and unit *fu* at once.
        fu_caps = [0] * len(FunctionalUnit)
        fu_caps[FunctionalUnit.INT_ALU] = config.int_alus
        fu_caps[FunctionalUnit.LOAD_STORE] = config.load_store_units
        fu_caps[FunctionalUnit.FP_ADDER] = config.fp_adders
        fu_caps[FunctionalUnit.INT_MULT_DIV] = config.int_mult_divs
        fu_caps[FunctionalUnit.FP_MULT_DIV] = config.fp_mult_divs
        half = 1 << max([issue_width] + fu_caps).bit_length()
        field = half.bit_length()
        shifts = [field * (unit + 1) for unit in range(len(fu_caps))]
        fresh = (half - issue_width) + sum(
            (half - cap) << shift for cap, shift in zip(fu_caps, shifts))
        take = [1 + (1 << shift) for shift in shifts]
        guard = [half | (half << shift) for shift in shifts]
        fu_counts = [0] * len(FunctionalUnit)
        # Out-of-order issue: the packed state per cycle (absent =
        # ``fresh``), and the deferral count of cycles with any.  An
        # entry at or before the dispatch frontier can no longer be
        # read, so both are pruned as it advances.
        slots: dict = {}
        deferrals: dict = {}
        prune_at = _HEALTH_EVERY
        # In-order issue only ever adds to its latest issue cycle.
        io_cycle = -1
        io_state = fresh

        # Rings of the leave cycles of the last IFQ/RUU/LSQ-size
        # entrants: an instruction may enter once the one that many
        # places ahead of it has left.
        ifq_ring = [0] * ifq_size
        ifq_i = 0
        ruu_ring = [0] * ruu_size
        ruu_i = 0
        lsq_ring = [0] * lsq_size
        lsq_i = 0
        # Completion cycles of the last _HISTORY dispatches (0 for a
        # wrong-path filler: it is squashed before anything younger
        # dispatches).  Rows carry no distance beyond _HISTORY, so a
        # negative index needs no fix-up, and slots nothing was
        # dispatched into yet hold 0.
        history = [0] * _HISTORY
        hist_pos = 0
        last_store_done = 0

        fetch_at = 0        # earliest cycle the next fetch may happen
        fetch_cycle = -1    # cycle of the latest fetch ...
        fetch_left = 0      # ... and the fetch slots it has left
        dispatch_cycle = -1
        dispatch_left = 0
        commit_cycle = -1
        commit_left = 0
        pseq = 0

        # Accounting (the timing-independent tallies live in the source)
        ruu_occupancy_sum = 0
        lsq_occupancy_sum = 0
        ifq_occupancy_sum = 0
        squashed_total = 0
        fill_dispatch = fill_issue = 0
        act_dl1_filler = 0

        if max_cycles is None:
            max_cycles = 1000 * max(n_rows, 1) + 100_000
        next_health = _HEALTH_EVERY
        next_check = min(next_health, max_cycles)
        log = commit_log
        overrun = None      # commits before max_cycles, once past it

        for pos in range(start, n_rows):
            row = rows[pos]
            # ----------------------------------------------------- fetch
            f = fetch_at
            if ifq_ring[ifq_i] > f:
                f = ifq_ring[ifq_i]
            if f != fetch_cycle:
                fetch_cycle = f
                fetch_left = fetch_width
            fetch_left -= 1
            fetch_at = f if fetch_left else f + 1
            # -------------------------------------------------- dispatch
            d = f + decode_delay
            if ruu_ring[ruu_i] > d:
                d = ruu_ring[ruu_i]
            is_mem = row[5]
            if is_mem and lsq_ring[lsq_i] > d:
                d = lsq_ring[lsq_i]
            if d > dispatch_cycle:
                dispatch_cycle = d
                dispatch_left = decode_width - 1
                if d >= prune_at:
                    slots = {c: s for c, s in slots.items() if c > d}
                    deferrals = {c: n for c, n in deferrals.items()
                                 if c > d}
                    prune_at = d + _HEALTH_EVERY
            elif dispatch_left:
                d = dispatch_cycle
                dispatch_left -= 1
            else:
                d = dispatch_cycle = dispatch_cycle + 1
                dispatch_left = decode_width - 1
            ready = d + 1
            distances = row[2]
            if distances:
                for distance in distances:
                    if history[hist_pos - distance] > ready:
                        ready = history[hist_pos - distance]
            if conservative_loads and row[3] and last_store_done > ready:
                ready = last_store_done
            # ----------------------------------------------------- issue
            fu = row[1]
            if in_order:
                if ready > io_cycle:
                    io_cycle = ready
                    io_state = fresh
                elif io_state & guard[fu]:
                    io_cycle += 1
                    io_state = fresh
                io_state += take[fu]
                c = io_cycle
            else:
                c = ready
                state = slots.get(c, fresh)
                if state & guard[fu]:
                    while True:
                        if not state & half:
                            # Considered but its unit is busy: deferred.
                            n = deferrals.get(c, 0) + 1
                            if n == _MAX_DEFERRED:
                                slots[c] = state | half
                            else:
                                deferrals[c] = n
                        c += 1
                        state = slots.get(c, fresh)
                        if not state & guard[fu]:
                            break
                slots[c] = state + take[fu]
            fu_counts[fu] += 1
            done = c + row[0]
            history[hist_pos] = done
            hist_pos += 1
            if hist_pos == _HISTORY:
                hist_pos = 0
            if conservative_loads and row[4]:
                last_store_done = done
            # ---------------------------------------------------- commit
            k = done + 1
            if k > commit_cycle:
                commit_cycle = k
                commit_left = commit_width - 1
            elif commit_left:
                k = commit_cycle
                commit_left -= 1
            else:
                k = commit_cycle = commit_cycle + 1
                commit_left = commit_width - 1
            if k >= next_check:
                committed = pos - start if overrun is None else overrun
                next_health = _fire_health(
                    next_health, min(k, max_cycles), committed)
                if k >= max_cycles:
                    if f >= max_cycles:
                        source._pos = pos
                        raise _overrun(max_cycles, committed)
                    overrun = committed
                    log = None
                next_check = min(next_health, max_cycles)
            if log is not None:
                log.append((k, pseq))
            pseq += 1
            ifq_ring[ifq_i] = d
            ifq_i += 1
            if ifq_i == ifq_size:
                ifq_i = 0
            ruu_ring[ruu_i] = k
            ruu_i += 1
            if ruu_i == ruu_size:
                ruu_i = 0
            ifq_occupancy_sum += d - f
            ruu_occupancy_sum += k - d
            if is_mem:
                lsq_ring[lsq_i] = k
                lsq_i += 1
                if lsq_i == lsq_size:
                    lsq_i = 0
                lsq_occupancy_sum += k - d

            ctrl = row[6]
            if not ctrl:
                continue
            if ctrl & CTRL_LIVE:
                # Dispatch runs before fetch within a cycle, so a branch
                # that dispatched in this fetch cycle has trained.
                while untrained and untrained[0][0] <= f:
                    train(untrained.popleft()[1])
                branch = branch_records[pos]
                outcome = classify(branch)
                outcomes[outcome] += 1
                ctrl = row[9][outcome][6]
                untrained.append((d, branch))
            # The bit priority is the fetch group's break order: a
            # correctly predicted taken branch ends the group before any
            # I-miss stall counts.
            if not ctrl & CTRL_MISPREDICT:
                if ctrl & CTRL_REDIRECT:
                    fetch_at = f + 1 + redirect_penalty
                elif ctrl & CTRL_TAKEN:
                    fetch_at = f + 1
                elif ctrl & CTRL_STALL:
                    fetch_at = f + 1 + row[7]
                continue
            if ctrl & CTRL_TAKEN:
                fetch_at = f + 1
            elif ctrl & CTRL_STALL:
                fetch_at = f + 1 + row[7]

            # ------------------------------------------------ wrong path
            # Fillers carry no control bits and no dependencies (see
            # _FILLER_SLOTS), so they only occupy fetch, window and FU
            # resources and D-cache ports until the branch resolves at
            # ``done``; each one's stage cycles stop counting there.
            resolve = done
            fetched = dispatched = dispatched_mem = 0
            filler_store = False
            dispatching = issuing = True
            while True:
                f = fetch_at
                if ifq_ring[ifq_i] > f:
                    f = ifq_ring[ifq_i]
                if f >= resolve:
                    break
                if f >= max_cycles:
                    source._pos = pos + 1
                    committed = (pos + 1 - start if overrun is None
                                 else overrun)
                    _fire_health(next_health, max_cycles, committed)
                    raise _overrun(max_cycles, committed)
                if f != fetch_cycle:
                    fetch_cycle = f
                    fetch_left = fetch_width
                fetch_left -= 1
                fetch_at = f if fetch_left else f + 1
                filler = filler_rows[rows[(pos + 1 + fetched) % n_rows][8]]
                fetched += 1
                pseq += 1
                is_mem = filler[5]
                if is_mem:
                    act_dl1_filler += 1
                leave = resolve
                if dispatching:
                    d = f + decode_delay
                    if ruu_ring[ruu_i] > d:
                        d = ruu_ring[ruu_i]
                    if is_mem and lsq_ring[lsq_i] > d:
                        d = lsq_ring[lsq_i]
                    left = decode_width - 1
                    if d <= dispatch_cycle:
                        if dispatch_left:
                            d = dispatch_cycle
                            left = dispatch_left - 1
                        else:
                            d = dispatch_cycle + 1
                    dispatching = d < resolve
                if dispatching:
                    leave = d
                    dispatch_cycle = d
                    dispatch_left = left
                    dispatched += 1
                    history[hist_pos] = 0
                    hist_pos += 1
                    if hist_pos == _HISTORY:
                        hist_pos = 0
                    ruu_ring[ruu_i] = resolve
                    ruu_i += 1
                    if ruu_i == ruu_size:
                        ruu_i = 0
                    ruu_occupancy_sum += resolve - d
                    if is_mem:
                        dispatched_mem += 1
                        lsq_ring[lsq_i] = resolve
                        lsq_i += 1
                        if lsq_i == lsq_size:
                            lsq_i = 0
                        lsq_occupancy_sum += resolve - d
                    ready = d + 1
                    if (conservative_loads and filler[3]
                            and last_store_done > ready):
                        ready = last_store_done
                    fu = filler[1]
                    c = resolve
                    if in_order:
                        if issuing:
                            c = io_cycle
                            state = io_state
                            if ready > c:
                                c = ready
                                state = fresh
                            elif state & guard[fu]:
                                c += 1
                                state = fresh
                            issuing = c < resolve
                            if issuing:
                                io_cycle = c
                                io_state = state + take[fu]
                    else:
                        c = ready
                        while c < resolve:
                            state = slots.get(c, fresh)
                            if not state & guard[fu]:
                                slots[c] = state + take[fu]
                                break
                            if not state & half:
                                n = deferrals.get(c, 0) + 1
                                if n == _MAX_DEFERRED:
                                    slots[c] = state | half
                                else:
                                    deferrals[c] = n
                            c += 1
                    if c < resolve:
                        fill_issue += 1
                        fu_counts[fu] += 1
                    if conservative_loads and filler[4]:
                        filler_store = True
                        last_store_done = c + filler[0]
                ifq_ring[ifq_i] = leave
                ifq_i += 1
                if ifq_i == ifq_size:
                    ifq_i = 0
                ifq_occupancy_sum += leave - f
            # The branch resolves: everything fetched since is squashed.
            # Fetch resumes after the penalty, the squashed fillers step
            # back out of the RUU and LSQ rings (the entries they
            # overwrote had left before they entered, so before
            # anything younger can enter) and the last store is a
            # squashed one.  They stay in the dependency history.
            squashed_total += fetched
            fill_dispatch += dispatched
            if resolve + mispredict_penalty > fetch_at:
                fetch_at = resolve + mispredict_penalty
            ruu_i = (ruu_i - dispatched) % ruu_size
            lsq_i = (lsq_i - dispatched_mem) % lsq_size
            if filler_store:
                last_store_done = 0

        committed = n_rows - start if overrun is None else overrun
        # The fetch that finds the source exhausted ends the run once
        # the last commit is done.
        exhausted = fetch_at
        if ifq_ring[ifq_i] > exhausted:
            exhausted = ifq_ring[ifq_i]
        cycles = max(commit_cycle, exhausted) + 1
        source._pos = n_rows
        if cycles > max_cycles:
            _fire_health(next_health, max_cycles, committed)
            raise _overrun(max_cycles, committed)
        _fire_health(next_health, cycles, committed)
        while untrained:
            train(untrained.popleft()[1])

        activity = {
            "fetch": committed + squashed_total,
            "dispatch": committed + fill_dispatch,
            "issue": committed + fill_issue, "commit": committed,
            "bpred": source.act_bpred, "il1": committed + squashed_total,
            "dl1": source.act_dl1 + act_dl1_filler,
            "l2": source.act_l2,
            "int_alu": fu_counts[FunctionalUnit.INT_ALU],
            "load_store": fu_counts[FunctionalUnit.LOAD_STORE],
            "fp_adder": fu_counts[FunctionalUnit.FP_ADDER],
            "int_mult_div": fu_counts[FunctionalUnit.INT_MULT_DIV],
            "fp_mult_div": fu_counts[FunctionalUnit.FP_MULT_DIV],
        }
        result = SimulationResult(
            cycles=cycles,
            instructions=committed,
            avg_ruu_occupancy=ruu_occupancy_sum / cycles,
            avg_lsq_occupancy=lsq_occupancy_sum / cycles,
            avg_ifq_occupancy=ifq_occupancy_sum / cycles,
            activity=activity,
            branches=source.branches,
            taken_branches=source.taken_branches,
            fetch_redirections=source.redirections,
            branch_mispredictions=source.mispredictions,
            squashed_instructions=squashed_total,
        )
        record_simulation(result)
        return result


def _fire_health(next_health: int, until: int, committed: int) -> int:
    """Fire the health checkpoints due from cycle *next_health* through
    cycle *until*, each reporting *committed*; return the next one
    due."""
    while next_health <= until:
        _health_checkpoint(committed)
        next_health += _HEALTH_EVERY
    return next_health


def _overrun(max_cycles: int, committed: int) -> RuntimeError:
    return RuntimeError(f"pipeline did not drain within {max_cycles} "
                        f"cycles ({committed} committed)")


def simulate(config: MachineConfig,
             source: InstructionSource,
             max_cycles: Optional[int] = None) -> SimulationResult:
    """Convenience wrapper: build and run a pipeline."""
    return SuperscalarPipeline(config, source).run(max_cycles=max_cycles)
