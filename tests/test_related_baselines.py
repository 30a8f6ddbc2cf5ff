"""Tests for the related-work workload models (independent and
size-correlated)."""

import pytest

from conftest import entries_digest, positions
from repro.config import baseline_config
from repro.isa.iclass import BRANCH_CLASSES, PRODUCING_CLASSES
from repro.branch.unit import BranchOutcome
from repro.baselines.related import (
    IndependentModel,
    SizeCorrelatedModel,
    _Distribution,
    run_model,
)


class TestDistribution:
    def test_sampling_respects_weights(self):
        import random

        dist = _Distribution({1: 90, 10: 10})
        rng = random.Random(0)
        samples = [dist.sample(rng) for _ in range(1000)]
        assert 0.8 < samples.count(1) / len(samples) < 0.97

    def test_empty_distribution(self):
        import random

        dist = _Distribution({})
        assert not dist
        with pytest.raises(ValueError):
            dist.sample(random.Random(0))


@pytest.fixture
def independent(small_trace, config):
    return IndependentModel(small_trace, config)


@pytest.fixture
def size_correlated(small_trace, config):
    return SizeCorrelatedModel(small_trace, config)


class TestIndependentModel:
    def test_generates_requested_length(self, independent, config):
        trace = independent.generate(800, seed=0)
        assert len(trace) == 800

    def test_deterministic(self, independent):
        a = independent.generate(400, seed=3)
        b = independent.generate(400, seed=3)
        assert positions(a) == positions(b)

    def test_branches_end_blocks(self, independent):
        trace = independent.generate(600, seed=1)
        for iclass, _events, _deps, _taken, outcome in trace.distinct:
            if iclass in BRANCH_CLASSES:
                assert outcome in BranchOutcome

    def test_dependencies_valid(self, independent):
        trace = independent.generate(600, seed=1)
        entries = positions(trace)
        for index, entry in enumerate(entries):
            for distance in entry[2]:
                target = index - distance
                if target >= 0:
                    assert entries[target][0] in PRODUCING_CLASSES

    def test_simulates(self, independent, config):
        result, power = run_model(independent, config, length=600)
        assert result.instructions == 600
        assert power.total > 0


class TestSizeCorrelatedModel:
    def test_block_structure_preserved(self, size_correlated):
        trace = size_correlated.generate(600, seed=0)
        # Branches appear only at block-final slots by construction:
        # walking the trace, each sampled block ends with one branch.
        count = 0
        sizes = set(size_correlated.globals.block_sizes)
        for entry in positions(trace):
            count += 1
            if entry[0] in BRANCH_CLASSES:
                assert count in sizes
                count = 0

    def test_size_distribution_tracks_reference(self, size_correlated,
                                                small_trace):
        trace = size_correlated.generate(2500, seed=0)
        sizes = []
        count = 0
        for entry in positions(trace):
            count += 1
            if entry[0] in BRANCH_CLASSES:
                sizes.append(count)
                count = 0
        generated_mean = sum(sizes) / len(sizes)
        reference = size_correlated.globals.block_sizes
        reference_mean = (sum(s * c for s, c in reference.items())
                          / sum(reference.values()))
        assert abs(generated_mean - reference_mean) < 1.5

    def test_deterministic(self, size_correlated):
        a = size_correlated.generate(400, seed=2)
        b = size_correlated.generate(400, seed=2)
        assert positions(a) == positions(b)

    def test_simulates(self, size_correlated, config):
        result, power = run_model(size_correlated, config, length=600)
        assert result.instructions == 600


#: ``entries_digest`` of a 2,000-instruction trace of the warmed gzip
#: reference, per model and seed: pins both models' draw order.
MODEL_DIGESTS = {
    (IndependentModel, 0):
        "906b3152c3e04a9a8501a92208a3712f8abc97a35057d29d3b30723166b4705d",
    (IndependentModel, 1):
        "403f56638a00f9ff11e4f5fc634a7826725a5c19264c6c10062b18db6eb7da22",
    (SizeCorrelatedModel, 0):
        "5196abb24a4ee6c937ef679be199da525c31c6337ad44df017e1956b3de4453b",
    (SizeCorrelatedModel, 1):
        "e7cbc59154bc9a789339d7e498664fc65e8711b88c539b58835b2e62d63b9c29",
}


@pytest.mark.parametrize(
    "model_class, seed", sorted(MODEL_DIGESTS, key=lambda k: (
        k[0].__name__, k[1])),
    ids=lambda value: getattr(value, "__name__", str(value)))
def test_model_draws_pinned(gzip_reference, model_class, seed):
    model = model_class(gzip_reference, baseline_config())
    trace = model.generate(2000, seed=seed)
    assert entries_digest(trace) == MODEL_DIGESTS[(model_class, seed)]
