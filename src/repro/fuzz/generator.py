"""Seeded random fuzz-case generation off the paper's benchmark grid.

Each :class:`FuzzCase` bundles everything one acceptance check needs:
a randomly drawn :class:`~repro.workloads.generator.WorkloadConfig`
(program structure, instruction mix, branch behaviour mixture, memory
behaviour), a machine-configuration override set, and the
trace/synthesis knobs.  Case generation is a pure function of
``(fuzz seed, case index)`` — the per-case RNG is seeded with the
string ``"fuzz:<seed>:<index>"``, which CPython hashes through SHA-512
(``random.seed`` version 2), so cases are identical across processes
and unaffected by ``PYTHONHASHSEED``.

The sweeps deliberately leave the SPEC-like grid of
:mod:`repro.workloads.spec`: degenerate single-block programs, one-hot
instruction mixes, branch mixtures that are all-loop or all-random,
mixes with zero memory mass, tiny register files and pathological
machine shapes (tiny windows, starved FU pools, in-order issue) are all
in range — that is where synthesis bugs hide.  The pipeline
differential (``tests/test_pipeline_equivalence.py``) draws from the
same tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict

from repro.config import MachineConfig, baseline_config
from repro.isa.iclass import IClass
from repro.isa.program import Program
from repro.workloads.generator import WorkloadConfig, generate_program

#: Block counts favouring the small CFGs that shrink well, with a tail
#: of larger ones exercising SFG growth.
_BLOCK_CHOICES = (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64)

#: Non-branch classes a fuzz mix may weight (branch classes are
#: implicit: every basic block ends in one).
_MIX_CLASSES = (
    IClass.LOAD, IClass.STORE, IClass.INT_ALU, IClass.INT_MULT,
    IClass.INT_DIV, IClass.FP_ALU, IClass.FP_MULT, IClass.FP_DIV,
    IClass.FP_SQRT,
)

_STREAM_KINDS = ("strided", "random", "chase", "hot")

_REGISTER_CHOICES = (4, 8, 12, 16, 24, 32, 48, 64)
_WORKING_SET_KB = (2, 4, 8, 16, 32, 64, 128, 256)
_CODE_FOOTPRINT_KB = (1, 2, 4, 8, 16, 32, 64)
#: Repeated entries weight the draw.
_INDIRECT_FRACTIONS = (0.0, 0.0, 0.05, 0.1, 0.2, 0.3)

#: Machine-shape ingredients, composable: each entry is applied with an
#: independent probability so single pathologies and combinations both
#: appear.  Values mirror the structurally distinct pipeline paths the
#: equivalence suite names (in-order, tiny window, FU starvation, wide).
_MACHINE_INGREDIENTS = (
    {"in_order_issue": True},
    {"conservative_loads": True, "enforce_anti_dependencies": True},
    {"ruu_size": 4, "lsq_size": 2, "ifq_size": 2, "fetch_speed": 1},
    {"ruu_size": 16, "lsq_size": 8},
    {"int_alus": 1, "load_store_units": 1, "fp_adders": 1,
     "int_mult_divs": 1, "fp_mult_divs": 1},
    {"decode_width": 8, "issue_width": 8, "commit_width": 8,
     "ruu_size": 128},
    {"decode_width": 1, "issue_width": 1, "commit_width": 1},
    {"branch_misprediction_penalty": 2},
    {"branch_misprediction_penalty": 30},
    {"fetch_redirect_penalty": 9},
    {"frontend_depth": 1},
    {"frontend_depth": 8},
)


@dataclass(frozen=True)
class FuzzCase:
    """One fully specified fuzz case (program + machine + knobs)."""

    case_id: str
    seed: int
    index: int
    workload: WorkloadConfig
    machine_overrides: Dict[str, object] = field(default_factory=dict)
    trace_instructions: int = 3000
    warmup: int = 0
    reduction_factor: float = 4.0
    synthesis_seed: int = 0
    order: int = 1

    def machine_config(self) -> MachineConfig:
        config = baseline_config()
        if self.machine_overrides:
            config = replace(config, **self.machine_overrides)
        return config

    def program(self) -> Program:
        """Generate this case's program (fresh behaviours each call)."""
        return generate_program(self.workload)


def _random_mix(rng: random.Random) -> Dict[IClass, float]:
    shape = rng.random()
    if shape < 0.10:
        # Degenerate one-hot mix (zero-probability classes everywhere
        # else); loads stay possible so memory paths are not starved.
        hot = rng.choice(_MIX_CLASSES)
        return {iclass: (1.0 if iclass is hot else 0.0)
                for iclass in _MIX_CLASSES}
    mix: Dict[IClass, float] = {}
    drop_memory = shape < 0.22  # pure-compute workload
    for iclass in _MIX_CLASSES:
        if drop_memory and iclass in (IClass.LOAD, IClass.STORE):
            mix[iclass] = 0.0
            continue
        # Exponential weights spread mixes across orders of magnitude;
        # a fifth of the entries are exactly zero.
        mix[iclass] = 0.0 if rng.random() < 0.2 else rng.expovariate(1.0)
    if sum(mix.values()) <= 0:
        mix[IClass.INT_ALU] = 1.0
    return mix


def _random_stream_kinds(rng: random.Random) -> Dict[str, float]:
    if rng.random() < 0.2:
        hot = rng.choice(_STREAM_KINDS)
        return {kind: (1.0 if kind == hot else 0.0)
                for kind in _STREAM_KINDS}
    kinds = {kind: (0.0 if rng.random() < 0.25 else rng.random())
             for kind in _STREAM_KINDS}
    if sum(kinds.values()) <= 0:
        kinds["strided"] = 1.0
    return kinds


def _random_machine_overrides(rng: random.Random) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    for ingredient in _MACHINE_INGREDIENTS:
        if rng.random() < 0.12:
            overrides.update(ingredient)
    return overrides


def case_rng(seed: int, index: int) -> random.Random:
    """The per-case RNG: deterministic, process-independent."""
    return random.Random(f"fuzz:{seed}:{index}")


def random_case(seed: int, index: int) -> FuzzCase:
    """Draw fuzz case *index* of the stream identified by *seed*."""
    rng = case_rng(seed, index)
    case_id = f"case{index:03d}"

    mix = _random_mix(rng)
    uses_memory = (mix.get(IClass.LOAD, 0.0) > 0
                   or mix.get(IClass.STORE, 0.0) > 0)
    n_blocks = rng.choice(_BLOCK_CHOICES)
    # Branch-behaviour mixture over the full simplex, extremes included.
    shape = rng.random()
    if shape < 0.15:
        loop_fraction, pattern_fraction = 1.0, 0.0
    elif shape < 0.30:
        loop_fraction, pattern_fraction = 0.0, 0.0
    else:
        loop_fraction = rng.random()
        pattern_fraction = rng.uniform(0.0, 1.0 - loop_fraction)
    workload = WorkloadConfig(
        name=f"fuzz-{seed}-{index}",
        seed=rng.getrandbits(32),
        n_blocks=n_blocks,
        mean_block_size=rng.randint(1, 12),
        instruction_mix=mix,
        n_registers=rng.choice(_REGISTER_CHOICES),
        working_set_kb=rng.choice(_WORKING_SET_KB),
        stream_kinds=_random_stream_kinds(rng),
        n_memory_streams=(rng.randint(1, 24) if uses_memory
                          else rng.choice((0, 0, 1, 4))),
        loop_fraction=loop_fraction,
        pattern_fraction=pattern_fraction,
        indirect_fraction=rng.choice(_INDIRECT_FRACTIONS),
        random_branch_bias=rng.uniform(0.05, 0.95),
        code_footprint_kb=rng.choice(_CODE_FOOTPRINT_KB),
        dependency_locality=rng.uniform(0.0, 0.95),
    )
    return FuzzCase(
        case_id=case_id,
        seed=seed,
        index=index,
        workload=workload,
        machine_overrides=_random_machine_overrides(rng),
        trace_instructions=rng.choice((1200, 2000, 3000, 4000)),
        warmup=rng.choice((0, 0, 0, 256)),
        reduction_factor=float(rng.choice((2, 3, 4, 6, 8))),
        synthesis_seed=rng.getrandbits(16),
        order=rng.choice((1, 1, 1, 2)),
    )


def generate_cases(seed: int, count: int) -> list:
    """The first *count* cases of stream *seed*."""
    return [random_case(seed, index) for index in range(count)]
