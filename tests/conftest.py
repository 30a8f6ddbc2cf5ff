"""Shared fixtures: hand-built miniature programs and small scales.

The hand-built programs are fully deterministic and analytically
checkable, which lets tests assert exact profiling results; the
generated workloads cover the realistic path.
"""

from typing import List, NamedTuple, Optional, Sequence, Tuple

import pytest

from repro.config import MachineConfig, baseline_config
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.isa.instruction import MAX_SOURCES, StaticInstruction
from repro.isa.program import BasicBlock, Program
from repro.frontend.functional import run_program
from repro.frontend.trace import Trace
from repro.workloads.behaviors import (
    LoopBehavior,
    PatternBehavior,
    StridedStream,
)
from repro.workloads.generator import WorkloadConfig, generate_program


@pytest.fixture(autouse=True)
def _reset_health_state():
    """The degradation ladder, canary clock and active budget are
    process-level singletons; a breaker tripped by one test must never
    leak degraded behavior into the next."""
    yield
    from repro.health import reset_canary, reset_ladder
    from repro.health.budget import install_budget

    install_budget(None)
    reset_canary()
    reset_ladder()


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    """Chaos fires only where a test asks for it: a ``REPRO_CHAOS`` in
    the invoking shell must not inject faults into every test."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


class Row(NamedTuple):
    """One instruction of a trace as a tuple, for the reference loops
    and hand-built streams of the tests (``None``: no register or
    address)."""

    pc: int
    iclass: IClass
    bb_id: int = 0
    src_regs: Tuple[int, ...] = ()
    dst_reg: Optional[int] = None
    mem_addr: Optional[int] = None
    taken: bool = False
    target: int = 0

    @property
    def is_branch(self) -> bool:
        return self.iclass in BRANCH_CLASSES

    @property
    def is_load(self) -> bool:
        return self.iclass is IClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.iclass is IClass.STORE


def make_trace(name: str, rows: Sequence[Row]) -> Trace:
    """The :class:`Trace` of *rows*."""
    return Trace(
        name, [r.pc for r in rows], [int(r.iclass) for r in rows],
        [r.bb_id for r in rows],
        [tuple(r.src_regs) + (-1,) * (MAX_SOURCES - len(r.src_regs))
         for r in rows],
        [-1 if r.dst_reg is None else r.dst_reg for r in rows],
        [-1 if r.mem_addr is None else r.mem_addr for r in rows],
        [r.taken for r in rows], [r.target for r in rows])


def trace_rows(trace: Trace) -> List[Row]:
    """The rows of *trace*, in order."""
    return [Row(pc, IClass(iclass), bb_id,
                tuple(reg for reg in src if reg >= 0),
                None if dst < 0 else dst, None if mem < 0 else mem,
                taken, target)
            for pc, iclass, bb_id, src, dst, mem, taken, target in zip(
                trace.pc.tolist(), trace.iclass.tolist(),
                trace.bb_id.tolist(), trace.src_regs.tolist(),
                trace.dst_reg.tolist(), trace.mem_addr.tolist(),
                trace.taken.tolist(), trace.target.tolist())]


def make_tiny_program(trip_count: int = 4) -> Program:
    """Two-block program: a loop body (block 0) iterated *trip_count*
    times per visit to the exit block (block 1).

    Block 0: load r1 <- stream0; alu r2 <- r1; branch (loop backedge)
    Block 1: alu r3 <- r2;                     branch (always taken -> 0)
    """
    block0 = BasicBlock(
        bb_id=0,
        address=0x1000,
        instructions=[
            StaticInstruction(IClass.LOAD, src_regs=(4,), dst_reg=1,
                              mem_stream=0),
            StaticInstruction(IClass.INT_ALU, src_regs=(1,), dst_reg=2),
            StaticInstruction(IClass.INT_COND_BRANCH, src_regs=(2,)),
        ],
        taken_target=0,
        fallthrough=1,
        branch_behavior=0,
    )
    block1 = BasicBlock(
        bb_id=1,
        address=0x2000,
        instructions=[
            StaticInstruction(IClass.INT_ALU, src_regs=(2,), dst_reg=3),
            StaticInstruction(IClass.INT_COND_BRANCH, src_regs=(3,)),
        ],
        taken_target=0,
        fallthrough=0,
        branch_behavior=1,
    )
    return Program(
        name="tiny",
        blocks=[block0, block1],
        entry=0,
        branch_behaviors=[LoopBehavior(trip_count), PatternBehavior("T")],
        memory_streams=[StridedStream(base=0x10_0000, stride=8,
                                      length=4096)],
    )


@pytest.fixture
def tiny_program() -> Program:
    return make_tiny_program()


@pytest.fixture
def tiny_trace(tiny_program):
    return run_program(tiny_program, n_instructions=600)


@pytest.fixture
def config() -> MachineConfig:
    return baseline_config()


@pytest.fixture
def small_workload_config() -> WorkloadConfig:
    return WorkloadConfig(name="unit", seed=7, n_blocks=12,
                          mean_block_size=4, working_set_kb=32,
                          n_memory_streams=4)


@pytest.fixture
def small_program(small_workload_config) -> Program:
    return generate_program(small_workload_config)


@pytest.fixture
def small_trace(small_program):
    return run_program(small_program, n_instructions=3000)


def entries_digest(trace) -> str:
    """SHA-256 of a synthetic trace's entries in position order, as
    canonical JSON: ``[iclass, event bits, distances, taken,
    outcome]`` per position."""
    import hashlib
    import json

    rows = []
    for key in trace.keys:
        iclass, events, deps, taken, outcome = trace.distinct[key]
        rows.append([iclass.name, int(events), list(deps), bool(taken),
                     outcome.name if outcome is not None else None])
    payload = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="module")
def gzip_reference():
    """A warmed gzip reference trace shared by the baseline digests."""
    from repro.frontend.warming import run_program_with_warmup
    from repro.workloads.spec import build_benchmark

    _warm, trace = run_program_with_warmup(
        build_benchmark("gzip"), warmup=1_000, n_instructions=4_000)
    return trace


def positions(trace) -> list:
    """A synthetic trace's ``(iclass, events, deps, taken, outcome)``
    entry at every position, in order."""
    distinct = trace.distinct
    return [distinct[key] for key in trace.keys]
