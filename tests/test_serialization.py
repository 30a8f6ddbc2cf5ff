"""Tests for profile serialization (save/load round-trips) and
artifact integrity (atomic writes, checksums, validation)."""

import json
import os

import pytest

from repro.config import baseline_config, simplescalar_default_config
from repro.errors import ArtifactCorruptError
from repro.core.profiler import profile_trace
from repro.core.serialization import (
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)
from repro.core.synthesis import generate_synthetic_trace
from repro.runner.checkpoint import payload_checksum


@pytest.fixture
def profile(small_trace, config):
    return profile_trace(small_trace, config, order=1)


class TestRoundTrip:
    def test_metadata_preserved(self, profile):
        clone = profile_from_dict(profile_to_dict(profile))
        assert clone.name == profile.name
        assert clone.order == profile.order
        assert clone.branch_mode == profile.branch_mode
        assert clone.trace_instructions == profile.trace_instructions
        assert clone.config == profile.config

    def test_graph_preserved(self, profile):
        clone = profile_from_dict(profile_to_dict(profile))
        assert set(clone.sfg.contexts) == set(profile.sfg.contexts)
        assert clone.sfg.transitions == profile.sfg.transitions
        assert clone.sfg.total_block_executions == \
            profile.sfg.total_block_executions
        for key, stats in profile.sfg.contexts.items():
            other = clone.sfg.contexts[key]
            assert other.occurrences == stats.occurrences
            assert other.iclasses == stats.iclasses
            assert other.dep_hists == stats.dep_hists
            assert other.waw_hists == stats.waw_hists
            assert other.il1 == stats.il1
            assert other.outcome_counts == stats.outcome_counts

    def test_clone_validates(self, profile):
        clone = profile_from_dict(profile_to_dict(profile))
        clone.sfg.validate()

    def test_synthesis_identical_from_clone(self, profile):
        clone = profile_from_dict(profile_to_dict(profile))
        original = generate_synthetic_trace(profile, 4, seed=9)
        regenerated = generate_synthetic_trace(clone, 4, seed=9)
        assert list(original.keys) == list(regenerated.keys)
        assert original.distinct == regenerated.distinct

    def test_json_compatible(self, profile):
        json.dumps(profile_to_dict(profile))  # must not raise

    def test_file_round_trip(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        clone = load_profile(path)
        assert clone.num_nodes == profile.num_nodes

    @pytest.mark.parametrize("config", [
        baseline_config(), simplescalar_default_config(),
        baseline_config().with_cache_scale(0.25).with_width(4)
        .with_predictor_scale(0.3)])
    def test_config_dict_matches_asdict(self, config):
        from dataclasses import asdict

        from repro.core.serialization import config_to_dict

        data = config_to_dict(config)
        assert data == asdict(config)
        assert json.dumps(data) == json.dumps(asdict(config))

    def test_config_round_trip_non_default(self, small_trace):
        config = simplescalar_default_config()
        profile = profile_trace(small_trace, config, order=0)
        clone = profile_from_dict(profile_to_dict(profile))
        assert clone.config == config

    def test_unknown_format_rejected(self, profile):
        data = profile_to_dict(profile)
        data["format"] = 99
        with pytest.raises(ValueError):
            profile_from_dict(data)


class TestArtifactIntegrity:
    """save_profile is atomic and checksummed; load_profile turns every
    corruption mode into a structured ArtifactCorruptError instead of a
    bare JSONDecodeError/KeyError."""

    def test_save_is_atomic_and_checksummed(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        assert not list(tmp_path.glob("*.tmp"))
        data = json.loads(path.read_text())
        assert "checksum" in data
        assert load_profile(path).num_nodes == profile.num_nodes

    def test_failed_save_keeps_previous_file_and_no_tmp(
            self, profile, tmp_path, monkeypatch):
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        previous = path.read_bytes()
        # Byte-identical to the document the format has always had:
        # the payload plus its checksum, compact JSON.
        document = profile_to_dict(profile)
        document["checksum"] = payload_checksum(document)
        assert previous == json.dumps(document).encode()

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            save_profile(profile, path)
        assert list(tmp_path.glob("*.tmp")) == []
        assert path.read_bytes() == previous

    def test_truncated_file_detected(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(ArtifactCorruptError, match="JSON"):
            load_profile(path)

    def test_tampered_payload_detected(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        data = json.loads(path.read_text())
        data["trace_instructions"] += 1  # checksum left stale
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactCorruptError, match="integrity"):
            load_profile(path)

    def test_empty_file_detected(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("")
        with pytest.raises(ArtifactCorruptError):
            load_profile(path)

    def test_missing_file_detected(self, tmp_path):
        with pytest.raises(ArtifactCorruptError, match="cannot read"):
            load_profile(tmp_path / "nope.json")

    def test_corrupt_error_is_a_value_error(self):
        # Back-compat: callers catching ValueError keep working.
        assert issubclass(ArtifactCorruptError, ValueError)


class TestInputValidation:
    """profile_from_dict no longer trusts its input."""

    def test_missing_keys_named(self, profile):
        data = profile_to_dict(profile)
        del data["contexts"]
        del data["config"]
        with pytest.raises(ArtifactCorruptError) as excinfo:
            profile_from_dict(data)
        assert "contexts" in str(excinfo.value)
        assert "config" in str(excinfo.value)

    def test_non_dict_rejected(self):
        with pytest.raises(ArtifactCorruptError, match="JSON object"):
            profile_from_dict([1, 2, 3])

    @pytest.mark.parametrize("order", ["1", -1, 1.5, None, True])
    def test_bad_order_rejected(self, profile, order):
        data = profile_to_dict(profile)
        data["order"] = order
        with pytest.raises(ArtifactCorruptError, match="order"):
            profile_from_dict(data)

    def test_order_zero_still_accepted(self, small_trace, config):
        # Order 0 is a legal SFG (no control-flow history).
        profile = profile_trace(small_trace, config, order=0)
        clone = profile_from_dict(profile_to_dict(profile))
        assert clone.order == 0

    def test_bad_branch_mode_rejected(self, profile):
        data = profile_to_dict(profile)
        data["branch_mode"] = "psychic"
        with pytest.raises(ArtifactCorruptError, match="branch_mode"):
            profile_from_dict(data)

    def test_history_length_mismatch_rejected(self, profile):
        # Claiming order 2 over order-1 transition histories must fail
        # up front, not corrupt the reconstructed graph.
        data = profile_to_dict(profile)
        data["order"] = 2
        with pytest.raises(ArtifactCorruptError, match="history"):
            profile_from_dict(data)

    def test_malformed_context_payload_rejected(self, profile):
        data = profile_to_dict(profile)
        data["contexts"][0][1] = {"not": "a context"}
        with pytest.raises(ArtifactCorruptError, match="malformed"):
            profile_from_dict(data)
