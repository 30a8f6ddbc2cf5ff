"""Tests for the statistical flow graph data structure."""

import pytest

from repro.isa.iclass import IClass
from repro.core.sfg import (
    MAX_DEPENDENCY_DISTANCE,
    ContextStats,
    StatisticalFlowGraph,
)


def _stats(size=3):
    iclasses = [IClass.LOAD] + [IClass.INT_ALU] * (size - 2) \
        + [IClass.INT_COND_BRANCH]
    return ContextStats(iclasses, n_src=[1] * size)


class TestContextStats:
    def test_shape(self):
        stats = _stats(4)
        assert stats.block_size == 4
        assert len(stats.il1) == 4
        assert len(stats.dep_hists) == 4
        assert stats.outcome_counts == [0, 0, 0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ContextStats([], [])

    def test_dependency_recording(self):
        stats = _stats()
        stats.record_dependency(1, 0, 5)
        stats.record_dependency(1, 0, 5)
        stats.record_dependency(1, 0, 9)
        assert stats.dep_hists[1][0] == {5: 2, 9: 1}

    def test_dependency_cap(self):
        stats = _stats()
        stats.record_dependency(0, 0, 10_000)
        assert stats.dep_hists[0][0] == {MAX_DEPENDENCY_DISTANCE: 1}


class TestGraph:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            StatisticalFlowGraph(order=-1)

    def test_context_creation_and_reuse(self):
        sfg = StatisticalFlowGraph(order=1)
        a = sfg.context_for((0,), 1, [IClass.INT_COND_BRANCH], [1])
        b = sfg.context_for((0,), 1, [IClass.INT_COND_BRANCH], [1])
        assert a is b
        assert sfg.num_nodes == 1

    def test_context_size_mismatch_rejected(self):
        sfg = StatisticalFlowGraph(order=0)
        sfg.context_for((), 1, [IClass.INT_COND_BRANCH], [1])
        with pytest.raises(ValueError):
            sfg.context_for((), 1,
                            [IClass.INT_ALU, IClass.INT_COND_BRANCH],
                            [1, 1])

    def test_transition_probabilities(self):
        sfg = StatisticalFlowGraph(order=1)
        for _ in range(3):
            sfg.record_transition((0,), 1)
        sfg.record_transition((0,), 2)
        assert sfg.transition_probability((0,), 1) == pytest.approx(0.75)
        assert sfg.transition_probability((0,), 2) == pytest.approx(0.25)
        assert sfg.transition_probability((9,), 1) == 0.0

    def test_validate_catches_mass_mismatch(self):
        sfg = StatisticalFlowGraph(order=0)
        stats = sfg.context_for((), 0, [IClass.INT_COND_BRANCH], [1])
        stats.occurrences = 2
        sfg.total_block_executions = 1
        with pytest.raises(AssertionError):
            sfg.validate()

    def test_validate_passes_for_profiled_graph(self, tiny_trace,
                                                config):
        from repro.core.profiler import profile_trace

        profile = profile_trace(tiny_trace, config, order=1)
        profile.sfg.validate()

    def test_validate_checks_arity(self):
        sfg = StatisticalFlowGraph(order=1)
        stats = ContextStats([IClass.INT_COND_BRANCH], [1])
        sfg.contexts[(1, 2, 3)] = stats  # wrong arity for order 1
        with pytest.raises(AssertionError):
            sfg.validate()


def test_one_dependency_distance_cap():
    """The profiler, the locality walk and the pipeline's history window
    share the one cap, and the window indexes with a mask."""
    from repro.core import profiler
    from repro.cpu import locality, pipeline

    assert profiler.MAX_DEPENDENCY_DISTANCE == MAX_DEPENDENCY_DISTANCE
    assert locality.MAX_DEPENDENCY_DISTANCE is MAX_DEPENDENCY_DISTANCE
    assert pipeline._HISTORY == MAX_DEPENDENCY_DISTANCE
    assert pipeline._HISTORY & (pipeline._HISTORY - 1) == 0
