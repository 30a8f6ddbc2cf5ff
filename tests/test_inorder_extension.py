"""Tests for the in-order / anti-dependency extension (paper §2.1.1
future work)."""

from dataclasses import replace

import pytest

from repro.config import baseline_config
from repro.isa.iclass import IClass
from repro.branch.unit import BranchOutcome
from repro.core.profiler import profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.cpu.pipeline import simulate
from repro.cpu.source import (
    ExecutionDrivenSource,
    FetchSlot,
    PreannotatedSource,
)


def _alu(**kwargs):
    return FetchSlot(IClass.INT_ALU, exec_latency=1, **kwargs)


class TestInOrderIssue:
    def test_in_order_never_faster(self, small_trace, config):
        in_order = replace(config, in_order_issue=True)
        ooo = simulate(config, ExecutionDrivenSource(small_trace, config))
        ino = simulate(in_order,
                       ExecutionDrivenSource(small_trace, in_order))
        assert ino.ipc <= ooo.ipc + 1e-9
        assert ino.instructions == ooo.instructions

    def test_stall_blocks_younger_independents(self):
        # A long-latency head instruction: in-order stalls everything,
        # out-of-order lets independents pass.
        slots = [FetchSlot(IClass.INT_DIV, exec_latency=20,
                           dep_distances=(1,)) for _ in range(20)]
        slots += [_alu() for _ in range(200)]
        config = baseline_config()
        in_order = replace(config, in_order_issue=True)
        ooo = simulate(config, PreannotatedSource(list(slots)))
        ino = simulate(in_order, PreannotatedSource(list(slots)))
        assert ino.cycles >= ooo.cycles

    def test_in_order_commits_everything(self):
        config = replace(baseline_config(), in_order_issue=True)
        result = simulate(config,
                          PreannotatedSource([_alu() for _ in range(300)]))
        assert result.instructions == 300


class TestAntiDependencyProfiling:
    def test_waw_distances_recorded(self, tiny_trace, config):
        profile = profile_trace(tiny_trace, config, order=1)
        stats = profile.sfg.contexts[(0, 0)]
        # Block 0 repeats every 3 instructions: each load's destination
        # r1 was last written 3 instructions earlier (previous load).
        assert set(stats.waw_hists[0]) == {3}

    def test_war_distances_recorded(self, tiny_trace, config):
        profile = profile_trace(tiny_trace, config, order=1)
        stats = profile.sfg.contexts[(0, 0)]
        # The load writes r1, which the alu read 2 instructions before
        # (previous iteration's alu).
        assert set(stats.war_hists[0]) == {2}

    def test_store_slots_have_no_anti_deps(self, small_trace, config):
        profile = profile_trace(small_trace, config, order=1)
        for stats in profile.sfg.contexts.values():
            for slot, iclass in enumerate(stats.iclasses):
                if iclass is IClass.STORE:
                    assert stats.waw_hists[slot] == {}
                    assert stats.war_hists[slot] == {}


class TestAntiDependencySynthesis:
    def test_anti_deps_add_distances(self, small_trace, config):
        profile = profile_trace(small_trace, config, order=1)
        without = generate_synthetic_trace(profile, 4, seed=0)
        with_anti = generate_synthetic_trace(
            profile, 4, seed=0, include_anti_dependencies=True)
        n_without = sum(len(entry[2]) * count
                        for entry, count in without.counted)
        n_with = sum(len(entry[2]) * count
                     for entry, count in with_anti.counted)
        assert n_with > n_without

    def test_eds_source_adds_anti_deps(self, tiny_trace, config):
        anti_config = replace(config, enforce_anti_dependencies=True)
        plain = ExecutionDrivenSource(tiny_trace, config)
        anti = ExecutionDrivenSource(tiny_trace, anti_config)
        n_plain = n_anti = 0
        while True:
            a, b = plain.fetch(), anti.fetch()
            if a is None:
                break
            n_plain += len(a.dep_distances)
            n_anti += len(b.dep_distances)
        assert n_anti > n_plain

    def test_anti_deps_slow_the_machine(self, small_trace, config):
        anti_config = replace(config, enforce_anti_dependencies=True)
        plain = simulate(config,
                         ExecutionDrivenSource(small_trace, config))
        anti = simulate(anti_config,
                        ExecutionDrivenSource(small_trace, anti_config))
        assert anti.ipc <= plain.ipc + 1e-9
