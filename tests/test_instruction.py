"""Unit tests for static/dynamic instruction representations."""

import pytest

from repro.isa.iclass import IClass
from repro.isa.instruction import MAX_SOURCES, StaticInstruction

from conftest import Row, make_trace


class TestStaticInstruction:
    def test_basic_alu(self):
        inst = StaticInstruction(IClass.INT_ALU, src_regs=(1, 2), dst_reg=3)
        assert inst.produces_register
        assert not inst.is_branch
        assert not inst.is_load
        assert not inst.is_store

    def test_load_with_stream(self):
        inst = StaticInstruction(IClass.LOAD, src_regs=(1,), dst_reg=2,
                                 mem_stream=0)
        assert inst.is_load
        assert inst.mem_stream == 0

    def test_store_has_no_destination(self):
        with pytest.raises(ValueError):
            StaticInstruction(IClass.STORE, src_regs=(1, 2), dst_reg=3)

    def test_branch_has_no_destination(self):
        with pytest.raises(ValueError):
            StaticInstruction(IClass.INT_COND_BRANCH, src_regs=(1,),
                              dst_reg=2)

    def test_branch_flag(self):
        inst = StaticInstruction(IClass.INDIRECT_BRANCH, src_regs=(1,))
        assert inst.is_branch
        assert not inst.produces_register

    def test_source_count_is_capped(self):
        StaticInstruction(IClass.INT_ALU, src_regs=(1,) * MAX_SOURCES)
        with pytest.raises(ValueError):
            StaticInstruction(IClass.INT_ALU,
                              src_regs=(1,) * (MAX_SOURCES + 1))

    def test_frozen(self):
        inst = StaticInstruction(IClass.INT_ALU, src_regs=(), dst_reg=1)
        with pytest.raises(AttributeError):
            inst.dst_reg = 5


class TestDynamicInstruction:
    """An executed instruction is one position of a trace's columns."""

    def test_fields(self):
        trace = make_trace("one", [Row(0x1000, IClass.LOAD, 3, (1,), 2,
                                       0xCAFE)])
        assert trace.iclass[0] == IClass.LOAD
        assert trace.bb_id[0] == 3
        assert trace.src_regs[0].tolist() == [1, -1, -1, -1]
        assert trace.dst_reg[0] == 2
        assert trace.mem_addr[0] == 0xCAFE
        assert not trace.branch_records()

    def test_branch_outcome_fields(self):
        trace = make_trace("one", [Row(0x1000, IClass.INT_COND_BRANCH, 0,
                                       taken=True, target=0x2000)])
        assert trace.branch_records() == {
            0: (0x1000, IClass.INT_COND_BRANCH, True, 0x2000)}
        assert trace.dst_reg[0] == trace.mem_addr[0] == -1
