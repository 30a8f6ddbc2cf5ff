"""Analysis utilities for statistical flow graphs.

The paper asserts qualitative properties of the SFG — that it stays
"both simpler and smaller" than SMART's fully-qualified graphs, and
that after reduction "the interconnection is still strong enough" for
accurate prediction.  These helpers quantify such properties:
transition entropy (how much control flow is actually conditioned by
history) and connectivity of reduced graphs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.core.reduction import ReducedFlowGraph
from repro.core.sfg import StatisticalFlowGraph


def transition_entropy(sfg: StatisticalFlowGraph) -> float:
    """Occurrence-weighted mean entropy (bits) of the next-block
    distributions.

    Zero means control flow is fully determined by the history (every
    history has a single successor); high values mean the order-k
    history leaves successor choice mostly random — the regime where
    higher k (or any k at all) pays off least.
    """
    weighted = 0.0
    total = 0
    for history, counts in sfg.transitions.items():
        mass = sum(counts.values())
        entropy = 0.0
        for count in counts.values():
            p = count / mass
            entropy -= p * math.log2(p)
        weighted += mass * entropy
        total += mass
    return weighted / total if total else 0.0


def reduced_connectivity(sfg: StatisticalFlowGraph,
                         reduced: ReducedFlowGraph) -> Dict[str, float]:
    """Quantify the paper's "interconnection is still strong enough"
    claim for a reduced graph.

    Returns the fraction of surviving nodes in the largest weakly
    connected component, the number of components, and the fraction of
    the surviving occurrence mass that the largest component holds.
    """
    nodes: List[Tuple[int, ...]] = [
        context for context in sfg.contexts
        if context in reduced.occurrences]
    if not nodes:
        return {"largest_component_fraction": 0.0, "components": 0,
                "largest_component_mass": 0.0}
    # Union-find over the surviving contexts: a context links to every
    # surviving successor its history's transitions reach (direction
    # does not matter for weak connectivity).
    index = {context: i for i, context in enumerate(nodes)}
    parent = list(range(len(nodes)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, context in enumerate(nodes):
        history = context[1:] if sfg.order > 0 else ()
        for block in sfg.transitions.get(history, ()):
            j = index.get(history + (block,))
            if j is not None:
                parent[root(j)] = root(i)
    # Components in order of their first context, so ties for the
    # largest resolve to the earliest one.
    components: Dict[int, List[Tuple[int, ...]]] = {}
    for i, context in enumerate(nodes):
        components.setdefault(root(i), []).append(context)
    largest = max(components.values(), key=len)
    total_mass = sum(reduced.occurrences.values())
    largest_mass = sum(reduced.occurrences[c] for c in largest)
    return {
        "largest_component_fraction": len(largest) / len(nodes),
        "components": len(components),
        "largest_component_mass": (largest_mass / total_mass
                                   if total_mass else 0.0),
    }


def hottest_contexts(sfg: StatisticalFlowGraph, top: int = 10):
    """The *top* contexts by occurrence, with their share of all block
    executions (inspection aid used by the CLI and examples)."""
    ranked = sorted(sfg.contexts.items(),
                    key=lambda item: -item[1].occurrences)[:top]
    total = max(1, sfg.total_block_executions)
    return [(context, stats.occurrences, stats.occurrences / total)
            for context, stats in ranked]
