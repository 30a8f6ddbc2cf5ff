"""Tests for trace containers and interval utilities."""

import numpy as np
import pytest

from repro.frontend.trace import FIELDS, Trace, concat_traces, split_intervals
from repro.isa.iclass import IClass

from conftest import trace_rows


class TestTrace:
    def test_len_and_window(self, tiny_trace):
        assert len(tiny_trace) == 600
        window = tiny_trace.window(100, 250)
        assert len(window) == 150
        assert window.name == f"{tiny_trace.name}[100:250]"
        assert trace_rows(window) == trace_rows(tiny_trace)[100:250]

    def test_instruction_mix_sums_to_one(self, small_trace):
        mix = small_trace.instruction_mix()
        assert abs(sum(mix.values()) - 1.0) < 1e-9

    def test_columns_must_agree_in_length(self):
        with pytest.raises(ValueError):
            Trace("ragged", pc=[0, 8], iclass=[int(IClass.INT_ALU)])

    def test_branch_records_are_built_for_branches_only(self, tiny_trace):
        records = tiny_trace.branch_records()
        rows = trace_rows(tiny_trace)
        assert list(records) == [i for i, row in enumerate(rows)
                                 if row.is_branch]
        for position, record in records.items():
            row = rows[position]
            assert record == (row.pc, row.iclass, row.taken, row.target)
        assert tiny_trace.branch_records() is records


class TestSplitIntervals:
    def test_even_split(self, tiny_trace):
        pieces = split_intervals(tiny_trace, 100)
        assert len(pieces) == 6
        assert all(len(piece) == 100 for piece in pieces)

    def test_partial_tail_dropped(self, tiny_trace):
        pieces = split_intervals(tiny_trace, 250)
        assert len(pieces) == 2

    def test_interval_longer_than_trace(self, tiny_trace):
        assert split_intervals(tiny_trace, 10_000) == []

    def test_rejects_nonpositive(self, tiny_trace):
        with pytest.raises(ValueError):
            split_intervals(tiny_trace, 0)

    def test_pieces_cover_prefix(self, tiny_trace):
        pieces = split_intervals(tiny_trace, 200)
        flattened = [row for piece in pieces for row in trace_rows(piece)]
        assert flattened == trace_rows(tiny_trace)[:600]


class TestConcat:
    def test_concat_renumbers(self, tiny_trace):
        pieces = split_intervals(tiny_trace, 200)
        merged = concat_traces("merged", pieces)
        for field in FIELDS:
            assert np.array_equal(getattr(merged, field),
                                  getattr(tiny_trace, field))
        # Positions are the sequence numbers: the second piece's first
        # branch is numbered after the first piece's instructions.
        assert list(merged.branch_records()) == \
            list(tiny_trace.branch_records())
        assert merged.name == "merged"

    def test_concat_of_nothing_is_empty(self):
        assert len(concat_traces("none", [])) == 0
