"""The paper's Figure 2 worked example, reproduced exactly.

Figure 2 builds first- and second-order SFGs for the basic block
sequence ``AABAABCABC``.  This test constructs a dynamic trace with
precisely that block sequence and checks our graphs against the
figure's numbers:

* k=1 view — block occurrences A=5, B=3, C=2 and transition
  probabilities P[A|A]=40%, P[B|A]=60%, P[A|B]=1/3, P[C|B]=2/3,
  P[A|C]=100% (the figure's edge labels);
* k=2 view — the figure's pair states AA(2), AB(3), BA(1), BC(2),
  CA(1) with their transitions (e.g. state AA is always followed by B).
"""

import pytest

from repro.config import baseline_config
from repro.isa.iclass import IClass
from repro.frontend.trace import Trace
from repro.core.profiler import profile_trace
from repro.core.sfg import START_BLOCK

from conftest import Row, make_trace

#: Figure 2's example basic block sequence.
SEQUENCE = "AABAABCABC"
_BLOCK_ID = {"A": 0, "B": 1, "C": 2}
_ADDRESS = {0: 0x1000, 1: 0x2000, 2: 0x3000}


def _figure2_trace() -> Trace:
    """A dynamic trace whose block sequence is exactly AABAABCABC.

    Each block is two instructions (an ALU op and the terminating
    branch); branch taken/target fields are synthesized to match the
    successor in the sequence.
    """
    rows = []
    for position, letter in enumerate(SEQUENCE):
        block = _BLOCK_ID[letter]
        base = _ADDRESS[block]
        rows.append(Row(base, IClass.INT_ALU, block, src_regs=(1,),
                        dst_reg=2))
        successor = SEQUENCE[(position + 1) % len(SEQUENCE)]
        rows.append(Row(base + 8, IClass.INT_COND_BRANCH, block,
                        src_regs=(2,), taken=True,
                        target=_ADDRESS[_BLOCK_ID[successor]]))
    return make_trace("fig2", rows)


@pytest.fixture(scope="module")
def config():
    return baseline_config()


class TestFirstOrder:
    """The k=1 graph of Figure 2 (left)."""

    @pytest.fixture(scope="class")
    def sfg(self, config):
        return profile_trace(_figure2_trace(), config, order=0,
                             branch_mode="perfect",
                             perfect_caches=True).sfg

    def test_block_occurrences(self, sfg):
        # Figure 2 labels: A(5), B(3), C(2).
        occurrences = {key[-1]: stats.occurrences
                       for key, stats in sfg.contexts.items()}
        assert occurrences == {0: 5, 1: 3, 2: 2}

    def test_transition_probabilities(self, config):
        # Edge labels of the figure's k=1 graph.
        sfg = profile_trace(_figure2_trace(), config, order=1,
                            branch_mode="perfect",
                            perfect_caches=True).sfg
        assert sfg.transition_probability((0,), 0) == pytest.approx(0.4)
        assert sfg.transition_probability((0,), 1) == pytest.approx(0.6)
        assert sfg.transition_probability((1,), 0) == pytest.approx(1 / 3)
        assert sfg.transition_probability((1,), 2) == pytest.approx(2 / 3)
        assert sfg.transition_probability((2,), 0) == pytest.approx(1.0)


class TestSecondOrder:
    """The k=2 graph of Figure 2 (right): states are block pairs."""

    @pytest.fixture(scope="class")
    def sfg(self, config):
        return profile_trace(_figure2_trace(), config, order=1,
                             branch_mode="perfect",
                             perfect_caches=True).sfg

    def test_pair_occurrences(self, sfg):
        # Figure 2 labels: AA(2), AB(3), BA(1), BC(2), CA(1); the first
        # block of the trace additionally forms the start context.
        pairs = {key: stats.occurrences
                 for key, stats in sfg.contexts.items()}
        assert pairs.pop((START_BLOCK, 0)) == 1
        assert pairs == {(0, 0): 2, (0, 1): 3, (1, 0): 1,
                         (1, 2): 2, (2, 0): 1}

    def test_pair_transitions(self, config):
        # The figure's k=2 edges: AA -> AB with B(100%); AB splits
        # A(33%)/C(66%); BC -> CA with A(100%); CA -> AB; BA -> AA.
        sfg = profile_trace(_figure2_trace(), config, order=2,
                            branch_mode="perfect",
                            perfect_caches=True).sfg
        assert sfg.transition_probability((0, 0), 1) == pytest.approx(1.0)
        assert sfg.transition_probability((0, 1), 0) == \
            pytest.approx(1 / 3)
        assert sfg.transition_probability((0, 1), 2) == \
            pytest.approx(2 / 3)
        assert sfg.transition_probability((1, 2), 0) == pytest.approx(1.0)
        assert sfg.transition_probability((2, 0), 1) == pytest.approx(1.0)
        assert sfg.transition_probability((1, 0), 0) == pytest.approx(1.0)

    def test_table3_growth_pattern(self, config):
        # Node counts grow with k exactly as the example implies:
        # 3 blocks, 5+start pairs, ... (the Table 3 pattern in miniature).
        trace = _figure2_trace()
        counts = [
            profile_trace(trace, config, order=k, branch_mode="perfect",
                          perfect_caches=True).num_nodes
            for k in (0, 1, 2)
        ]
        assert counts[0] == 3
        assert counts[1] == 6      # 5 pairs + the start context
        assert counts[0] < counts[1] < counts[2]
