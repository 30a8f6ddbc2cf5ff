"""Every field of every benchmark's QUICK_SCALE windows, pinned.

Each window's fields hash as canonical little-endian int64 arrays:
``seq`` (the position), ``pc``, ``iclass`` (the IClass code),
``bb_id``, ``src_regs`` (four per instruction, padded with -1),
``dst_reg`` and ``mem_addr`` (-1 for none), ``taken`` (0 or 1) and
``target``.  The digests do not depend on how a trace stores its
instructions, so they hold the functional simulator to the same
traces whatever its internals: a moved draw, a misplaced address or
an off-by-one block boundary changes a digest here.

Regenerate (only when an *intentional* change to the traces ships)
with::

    PYTHONPATH=src python tests/test_trace_pin.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.common import QUICK_SCALE, prepare_benchmark
from repro.workloads.spec import benchmark_names

GOLDEN = Path(__file__).parent / "golden" / "trace_digests_quick.json"
_WIDTH = 4


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(
        values, dtype="<i8").tobytes()).hexdigest()[:16]


def canonical_fields(trace) -> dict:
    """The canonical int64 arrays of *trace*'s fields."""
    if hasattr(trace, "instructions"):
        # A trace held as per-instruction objects hashes the same.
        insts = trace.instructions
        src = np.full((len(insts), _WIDTH), -1, np.int64)
        for row, inst in enumerate(insts):
            src[row, :len(inst.src_regs)] = inst.src_regs
        return {
            "seq": [i.seq for i in insts], "pc": [i.pc for i in insts],
            "iclass": [int(i.iclass) for i in insts],
            "bb_id": [i.bb_id for i in insts], "src_regs": src,
            "dst_reg": [-1 if i.dst_reg is None else i.dst_reg
                        for i in insts],
            "mem_addr": [-1 if i.mem_addr is None else i.mem_addr
                         for i in insts],
            "taken": [int(i.taken) for i in insts],
            "target": [i.target for i in insts]}
    src = np.full((len(trace), _WIDTH), -1, np.int64)
    src[:, :trace.src_regs.shape[1]] = trace.src_regs
    fields = {field: getattr(trace, field)
              for field in ("pc", "iclass", "bb_id", "dst_reg",
                            "mem_addr", "taken", "target")}
    return dict(fields, seq=np.arange(len(trace)), src_regs=src)


def window_digests(trace) -> dict:
    digests = {field: _digest(values)
               for field, values in canonical_fields(trace).items()}
    digests["length"] = len(trace)
    return digests


def _measure(name) -> dict:
    warm, trace = prepare_benchmark(name, QUICK_SCALE)
    return {"warmup": window_digests(warm),
            "measured": window_digests(trace)}


@pytest.mark.parametrize("name", benchmark_names())
def test_quick_scale_windows_are_pinned(name):
    pinned = json.loads(GOLDEN.read_text())
    assert set(pinned) == set(benchmark_names())
    assert _measure(name) == pinned[name]


if __name__ == "__main__":  # pragma: no cover - regeneration aid
    GOLDEN.write_text(json.dumps(
        {name: _measure(name) for name in benchmark_names()},
        indent=1, sort_keys=True) + "\n")
