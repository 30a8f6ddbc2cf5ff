"""Tests for the binary trace file format."""

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.frontend.functional import run_program
from repro.frontend.trace import FIELDS
from repro.frontend.tracefile import load_trace, save_trace
from repro.workloads.spec import build_benchmark

#: The version-1 record layout, as a struct.
_RECORD = struct.Struct("<IQBIB4sBBBQBQ")


def _one_record(n_src=1, iclass=5):
    """A one-instruction trace file payload."""
    header = json.dumps({"version": 1, "name": "x", "count": 1})
    return header.encode() + b"\n" + _RECORD.pack(
        0, 0x1000, iclass, 0, n_src, bytes([1, 2, 3, 4]), 1, 7, 0, 0, 0, 0)


class TestRoundTrip:
    def test_instructions_identical(self, small_trace, tmp_path):
        path = tmp_path / "trace.bin"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert loaded.name == small_trace.name
        assert len(loaded) == len(small_trace)
        for field in FIELDS:
            assert np.array_equal(getattr(loaded, field),
                                  getattr(small_trace, field)), field
            assert getattr(loaded, field).dtype == \
                getattr(small_trace, field).dtype, field

    @pytest.mark.parametrize("name, warmup, digest", [
        ("gzip", 1000, "bfd66c09ae5eefa4d4abe274edc58095"
                       "c43bb257fe8868a6fe35b6532f356146"),
        ("parser", 0, "c08ad826f06e8b27c82ae6e6e5539123"
                      "af66f121d84ff58b7aaf9e8baf11deff"),
    ])
    def test_file_bytes_are_pinned(self, name, warmup, digest, tmp_path):
        """Files written when traces were lists of per-instruction
        objects, packed one ``struct`` record at a time, had these
        digests; the record-array writer reproduces them byte for
        byte."""
        path = tmp_path / "trace.bin"
        save_trace(run_program(build_benchmark(name), 3000, warmup=warmup),
                   path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_record_layout_matches_the_struct(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(_one_record(n_src=2))
        trace = load_trace(path)
        assert trace.src_regs.tolist() == [[1, 2, -1, -1]]
        assert trace.dst_reg.tolist() == [7]
        assert trace.mem_addr.tolist() == [-1]
        save_trace(trace, path)
        assert path.read_bytes() == _one_record(n_src=2).replace(
            bytes([1, 2, 3, 4]), bytes([1, 2, 0, 0]))

    def test_too_many_sources_rejected(self, tmp_path):
        # A 4-byte source field cannot hold a fifth register; such a
        # record is corrupt, not a shorter instruction.
        path = tmp_path / "bad.bin"
        path.write_bytes(_one_record(n_src=5))
        with pytest.raises(ValueError):
            load_trace(path)

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(_one_record(iclass=12))
        with pytest.raises(ValueError):
            load_trace(path)

    def test_loaded_trace_profiles_identically(self, small_trace, config,
                                               tmp_path):
        from repro.core.profiler import profile_trace

        path = tmp_path / "trace.bin"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        original = profile_trace(small_trace, config, order=1)
        replayed = profile_trace(loaded, config, order=1)
        assert set(original.sfg.contexts) == set(replayed.sfg.contexts)
        assert original.sfg.transitions == replayed.sfg.transitions

    def test_truncated_file_rejected(self, small_trace, tmp_path):
        path = tmp_path / "trace.bin"
        save_trace(small_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ValueError):
            load_trace(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "trace.bin"
        path.write_bytes(b'{"version": 9, "name": "x", "count": 0}\n')
        with pytest.raises(ValueError):
            load_trace(path)

    def test_empty_trace(self, tmp_path):
        from repro.frontend.trace import Trace

        path = tmp_path / "empty.bin"
        save_trace(Trace("empty"), path)
        loaded = load_trace(path)
        assert len(loaded) == 0
        assert loaded.name == "empty"
