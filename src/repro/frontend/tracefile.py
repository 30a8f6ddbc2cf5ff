"""Saving and loading dynamic traces.

Profiling tools in the paper's ecosystem are either execution-driven or
"trace-driven tools operating on an execution trace that is stored on a
disk" (section 2.1.2).  This module provides the stored-trace path: a
compact binary format for :class:`~repro.frontend.trace.Trace` objects,
so expensive functional simulations can be captured once and replayed
into profiling, simulation or external tools.

Format (version 1): a JSON header line (name, count, version) followed
by fixed-width little-endian records, one per instruction:

    seq:u32  pc:u64  iclass:u8  bb:u32  n_src:u8  src[4]:u8
    has_dst:u8  dst:u8  has_mem:u8  mem:u64  taken:u8  target:u64

A trace's columns are written and read as one packed numpy record
array; ``seq`` is the record's position.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.isa.iclass import IClass
from repro.isa.instruction import MAX_SOURCES
from repro.frontend.trace import Trace

FORMAT_VERSION = 1
#: One record, laid out as ``struct.Struct("<IQBIB4sBBBQBQ")``.
_RECORD = np.dtype([
    ("seq", "<u4"), ("pc", "<u8"), ("iclass", "u1"), ("bb_id", "<u4"),
    ("n_src", "u1"), ("src", "u1", (MAX_SOURCES,)), ("has_dst", "u1"),
    ("dst", "u1"), ("has_mem", "u1"), ("mem", "<u8"), ("taken", "u1"),
    ("target", "<u8")])


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write *trace* to *path* in the binary trace format."""
    src, dst = trace.src_regs, trace.dst_reg
    if src.max(initial=-1) > 255 or dst.max(initial=-1) > 255:
        raise ValueError("the format holds registers 0..255 only")
    records = np.zeros(len(trace), _RECORD)
    records["seq"] = np.arange(len(trace))
    records["pc"] = trace.pc
    records["iclass"] = trace.iclass
    records["bb_id"] = trace.bb_id
    records["n_src"] = (src >= 0).sum(axis=1)
    records["src"] = np.maximum(src, 0)
    records["has_dst"] = dst >= 0
    records["dst"] = np.maximum(dst, 0)
    records["has_mem"] = trace.mem_addr >= 0
    records["mem"] = np.maximum(trace.mem_addr, 0)
    records["taken"] = trace.taken
    records["target"] = trace.target
    header = json.dumps({"version": FORMAT_VERSION, "name": trace.name,
                         "count": len(trace)})
    with open(path, "wb") as handle:
        handle.write(header.encode("utf-8") + b"\n")
        handle.write(records.tobytes())


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline().decode("utf-8"))
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format {header.get('version')!r}")
        count = header["count"]
        payload = handle.read()
    if len(payload) != count * _RECORD.itemsize:
        raise ValueError(
            f"truncated trace file: expected {count * _RECORD.itemsize} "
            f"payload bytes, found {len(payload)}")
    records = np.frombuffer(payload, _RECORD)
    n_src = records["n_src"]
    if count and n_src.max() > MAX_SOURCES:
        raise ValueError(
            f"record with {n_src.max()} sources exceeds the format's "
            f"limit of {MAX_SOURCES}")
    if count and records["iclass"].max() >= len(IClass):
        raise ValueError(
            f"unknown instruction class code {records['iclass'].max()}")
    src = records["src"].astype(np.int16)
    src[np.arange(MAX_SOURCES) >= n_src[:, None]] = -1
    return Trace(
        header["name"], records["pc"], records["iclass"], records["bb_id"],
        src, np.where(records["has_dst"] != 0,
                      records["dst"].astype(np.int16), -1),
        np.where(records["has_mem"] != 0,
                 records["mem"].astype(np.int64), -1),
        records["taken"] != 0, records["target"])
