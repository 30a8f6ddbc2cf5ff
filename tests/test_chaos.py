"""Chaos-injection harness: spec grammar, deterministic fire decisions,
site behaviours and the environment plan."""

import os

import pytest

from repro.errors import (
    ChaosSpecError,
    InjectedFaultError,
    InjectedIOError,
)
from repro.faults import (
    SITES,
    WORKER_KILL_EXIT_CODE,
    ChaosPlan,
    ChaosSite,
    active_sites,
    plan_from_env,
)
from repro.faults.chaos import _SITE_KEYS


class TestSpecParsing:
    def test_single_site_defaults(self):
        plan = ChaosPlan.parse("worker-kill")
        assert plan.seed == 0
        site = plan.sites["worker-kill"]
        assert site.rate == 1.0 and site.attempts == 0
        assert site.match == "" and site.delay == 0.25

    def test_full_grammar(self):
        plan = ChaosPlan.parse(
            "seed=5;worker-kill:rate=0.5,match=gzip,attempts=3;"
            "slow-call:delay=0.01")
        assert plan.seed == 5
        kill = plan.sites["worker-kill"]
        assert kill.rate == 0.5 and kill.match == "gzip"
        assert kill.attempts == 3
        assert plan.sites["slow-call"].delay == 0.01

    def test_roundtrip_omits_defaults(self):
        spec = "seed=5;artifact-corrupt:rate=0.4;worker-kill:match=a"
        plan = ChaosPlan.parse(spec)
        assert ChaosPlan.parse(plan.to_spec()) == plan
        assert "rate=1" not in plan.to_spec()

    @pytest.mark.parametrize("spec", [
        "", "  ", "bogus-site", "worker-kill:rate=2",
        "worker-kill:rate=-0.1", "worker-kill:bogus=1",
        "worker-kill;worker-kill", "seed=x;worker-kill",
        "worker-kill:attempts=-1", "slow-call:delay=-1",
        "worker-kill:match=a,b",
    ])
    def test_rejected_specs(self, spec):
        with pytest.raises(ChaosSpecError):
            ChaosPlan.parse(spec)

    def test_chaos_spec_error_is_value_error(self):
        with pytest.raises(ValueError):
            ChaosPlan.parse("bogus-site")

    def test_every_known_site_parses(self):
        for name in SITES:
            assert name in ChaosPlan.parse(name).sites

    def test_active_sites(self):
        plan = ChaosPlan.parse("worker-kill;io-error")
        assert active_sites(plan) == ("io-error", "worker-kill")
        assert active_sites(None) == ()

    def test_site_keys_cover_dataclass(self):
        fields = set(ChaosSite.__dataclass_fields__) - {"name"}
        assert fields == set(_SITE_KEYS)


class TestFireDecisions:
    def test_rate_one_always_fires(self):
        plan = ChaosPlan.parse("task-fail")
        assert all(plan.fires("task-fail", f"t{i}") for i in range(20))

    def test_rate_zero_never_fires(self):
        plan = ChaosPlan.parse("task-fail:rate=0")
        assert not any(plan.fires("task-fail", f"t{i}")
                       for i in range(20))

    def test_inactive_site_never_fires(self):
        plan = ChaosPlan.parse("task-fail")
        assert not plan.fires("worker-kill", "t")

    def test_fractional_rate_deterministic_and_plausible(self):
        plan = ChaosPlan.parse("seed=3;task-fail:rate=0.5")
        fired = [plan.fires("task-fail", f"t{i}") for i in range(200)]
        again = [plan.fires("task-fail", f"t{i}") for i in range(200)]
        assert fired == again
        assert 50 < sum(fired) < 150

    def test_seed_changes_decisions(self):
        a = ChaosPlan.parse("seed=1;task-fail:rate=0.5")
        b = ChaosPlan.parse("seed=2;task-fail:rate=0.5")
        assert [a.fires("task-fail", f"t{i}") for i in range(64)] != \
               [b.fires("task-fail", f"t{i}") for i in range(64)]

    def test_decisions_order_independent(self):
        plan = ChaosPlan.parse("seed=9;task-fail:rate=0.5")
        tokens = [f"t{i}" for i in range(64)]
        forward = {t: plan.fires("task-fail", t) for t in tokens}
        backward = {t: plan.fires("task-fail", t)
                    for t in reversed(tokens)}
        assert forward == backward

    def test_match_gates_on_token_substring(self):
        plan = ChaosPlan.parse("task-fail:match=gzip")
        assert plan.fires("task-fail", "sweep/gzip/p0")
        assert not plan.fires("task-fail", "sweep/twolf/p0")

    def test_attempts_gates_first_n_dispatches(self):
        plan = ChaosPlan.parse("task-fail:attempts=2")
        assert plan.fires("task-fail", "t", attempt=1)
        assert plan.fires("task-fail", "t", attempt=2)
        assert not plan.fires("task-fail", "t", attempt=3)


class TestSiteBehaviours:
    def test_inject_task_fail(self):
        plan = ChaosPlan.parse("task-fail:match=gzip")
        with pytest.raises(InjectedFaultError):
            plan.inject("u1", "gzip", 1)
        plan.inject("u1", "twolf", 1)  # no-op: match filters it out

    def test_inject_slow_call_sleeps_then_returns(self):
        plan = ChaosPlan.parse("slow-call:delay=0")
        plan.inject("u1", "gzip", 1)

    def test_maybe_io_error(self):
        plan = ChaosPlan.parse("io-error:match=cache_get")
        with pytest.raises(InjectedIOError) as err:
            plan.maybe_io_error("cache_get", "deadbeef")
        assert isinstance(err.value, OSError)
        plan.maybe_io_error("cache_put", "deadbeef")  # filtered

    def test_maybe_corrupt_artifact(self, tmp_path):
        path = tmp_path / "artifact.json"
        payload = b"x" * 100
        path.write_bytes(payload)
        ChaosPlan.parse("artifact-corrupt").maybe_corrupt_artifact(path)
        garbled = path.read_bytes()
        assert garbled != payload and len(garbled) < len(payload)

    def test_corrupt_no_fire_leaves_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_bytes(b"x" * 100)
        plan = ChaosPlan.parse("artifact-corrupt:match=other")
        plan.maybe_corrupt_artifact(path)
        assert path.read_bytes() == b"x" * 100

    def test_worker_kill_exit_code_is_distinctive(self):
        assert WORKER_KILL_EXIT_CODE == 87


class TestEnvArbitration:
    def test_no_env_means_no_plan(self):
        assert plan_from_env({}) is None

    def test_malformed_chaos_spec_raises(self):
        with pytest.raises(ChaosSpecError):
            plan_from_env({"REPRO_CHAOS": "bogus-site"})

    def test_module_level_io_error_helper(self, monkeypatch):
        from repro import faults

        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        faults.maybe_io_error("save_profile", "p.json")  # no-op
        monkeypatch.setenv("REPRO_CHAOS", "io-error:match=save_profile")
        with pytest.raises(InjectedIOError):
            faults.maybe_io_error("save_profile", "p.json")
