"""Tests for SFG analysis utilities."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.analysis import (
    hottest_contexts,
    reduced_connectivity,
    transition_entropy,
)
from repro.core.profiler import profile_trace
from repro.core.reduction import reduce_flow_graph


@pytest.fixture
def profile(small_trace, config):
    return profile_trace(small_trace, config, order=1,
                         branch_mode="perfect", perfect_caches=True)


class TestEntropy:
    def test_deterministic_flow_has_zero_entropy(self, tiny_trace,
                                                 config):
        # The tiny loop at order 2 is almost fully determined; at order
        # 1 the loop branch adds uncertainty.
        low = profile_trace(tiny_trace, config, order=2,
                            branch_mode="perfect", perfect_caches=True)
        high = profile_trace(tiny_trace, config, order=0,
                             branch_mode="perfect", perfect_caches=True)
        assert transition_entropy(low.sfg) <= \
            transition_entropy(high.sfg) + 1e-9

    def test_entropy_nonnegative(self, profile):
        assert transition_entropy(profile.sfg) >= 0.0

    def test_empty_graph(self):
        from repro.core.sfg import StatisticalFlowGraph

        assert transition_entropy(StatisticalFlowGraph(1)) == 0.0


class TestReducedConnectivity:
    def test_unreduced_graph_is_connected(self, profile):
        reduced = reduce_flow_graph(profile.sfg, 1)
        stats = reduced_connectivity(profile.sfg, reduced)
        assert stats["largest_component_fraction"] == 1.0
        assert stats["components"] == 1

    def test_mass_dominates_even_when_fragmented(self, profile):
        # The paper: after reduction "the interconnection is still
        # strong enough" — the hot mass stays in one component.
        reduced = reduce_flow_graph(profile.sfg, 8)
        stats = reduced_connectivity(profile.sfg, reduced)
        assert stats["largest_component_mass"] > 0.5

    def test_empty_reduction(self, profile):
        reduced = reduce_flow_graph(profile.sfg, 10**9)
        stats = reduced_connectivity(profile.sfg, reduced)
        assert stats["components"] == 0


class TestHottestContexts:
    def test_ordering_and_shares(self, profile):
        ranked = hottest_contexts(profile.sfg, top=5)
        occurrences = [count for _, count, _ in ranked]
        assert occurrences == sorted(occurrences, reverse=True)
        for _, count, share in ranked:
            assert share == pytest.approx(
                count / profile.sfg.total_block_executions)


BLOCKED_IMPORT = """
import sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, Blocker())
import repro
from repro.config import baseline_config
from repro.core import profile_trace, reduce_flow_graph
from repro.core.analysis import reduced_connectivity
from repro.experiments.common import QUICK_SCALE, prepare_benchmark

_, trace = prepare_benchmark("gzip", QUICK_SCALE)
profile = profile_trace(trace, baseline_config(), order=1,
                        branch_mode="perfect", perfect_caches=True)
stats = reduced_connectivity(profile.sfg,
                             reduce_flow_graph(profile.sfg, 8))
assert "networkx" not in sys.modules
assert stats["components"] >= 1, stats
print("ok")
"""


def test_imports_and_runs_without_networkx():
    """The package needs nothing beyond numpy: with networkx blocked,
    ``import repro`` and the connectivity analysis still work."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", BLOCKED_IMPORT],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
