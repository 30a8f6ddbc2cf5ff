"""Columnar batch synthesis and its pipeline source.

Three contracts, mirroring the three layers of the columnar subsystem:

1. **statistical equivalence** — the columnar generator walks the same
   context sequence as the scalar generator (same ``random.Random``
   stream), so structure (instruction classes, length) is identical,
   and its independent numpy draws must converge to the profile within
   the same acceptance tolerances as the scalar draws;
2. **cycle exactness** — given the *same* trace,
   :class:`~repro.cpu.source.ColumnarSource` produces a byte-identical
   :class:`~repro.cpu.results.SimulationResult` (every field, the full
   activity dict) to :class:`~repro.cpu.source.PreannotatedSource` fed
   the trace as slots — the columnar rows change representation, never
   semantics (``tests/test_pipeline_equivalence.py`` also checks them
   against the reference loop on every configuration variant);
3. **end-to-end agreement** — seed-averaged IPC through the vector
   path tracks the scalar path on the Table 1 machine within the noise
   of the two (statistically equivalent, draw-independent) streams.
"""

import numpy as np
import pytest

from repro.core.columnar import (
    ColumnarTrace,
    columnar_tables_cached,
    columnar_tables_for,
    generate_columnar_trace,
)
from repro.core.profiler import profile_trace
from repro.core.synthesis import (
    generate_synthetic_trace,
    generate_synthetic_trace_columnar,
)
from repro.cpu.pipeline import SuperscalarPipeline, simulate
from repro.cpu.source import ColumnarSource, PreannotatedSource
from repro.fuzz.acceptance import ToleranceConfig, acceptance_report


@pytest.fixture
def profile(small_trace, config):
    return profile_trace(small_trace, config, order=1)


# ---------------------------------------------------------------------
# layer 1: the columnar generator
# ---------------------------------------------------------------------


class TestColumnarSynthesis:
    def test_same_context_multiset_as_scalar(self, profile):
        """Both walks drain every context's full reduced budget, so
        the trace length and per-class instruction counts are exactly
        identical — only the visit order and per-instruction draws
        differ between the streams."""
        scalar = generate_synthetic_trace(profile, 3.0, seed=5)
        columnar = generate_columnar_trace(profile, 3.0, seed=5)
        assert len(columnar.iclass) == len(scalar.instructions)
        scalar_classes = np.bincount(
            [int(inst.iclass) for inst in scalar.instructions],
            minlength=16)
        columnar_classes = np.bincount(columnar.iclass, minlength=16)
        assert scalar_classes.tolist() == columnar_classes.tolist()

    def test_draws_pass_scalar_acceptance(self, profile):
        """The columnar stream must satisfy the same statistical
        acceptance against the profile as the scalar stream."""
        tolerances = ToleranceConfig()
        scalar = generate_synthetic_trace(profile, 2.0, seed=0)
        report = acceptance_report(profile, scalar, tolerances)
        assert report.passed, f"scalar baseline: {report.summary()}"
        columnar = generate_columnar_trace(profile, 2.0, seed=0)
        report = acceptance_report(profile,
                                   columnar.to_synthetic_trace(),
                                   tolerances)
        assert report.passed, f"columnar: {report.summary()}"

    def test_deterministic_per_seed(self, profile):
        a = generate_columnar_trace(profile, 4.0, seed=3)
        b = generate_columnar_trace(profile, 4.0, seed=3)
        for name in ("iclass", "dep_off", "dep_val", "il1", "dl1",
                     "taken", "outcome"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        c = generate_columnar_trace(profile, 4.0, seed=4)
        assert not np.array_equal(a.dep_val, c.dep_val)

    def test_summary_matches_materialized_trace(self, profile):
        columnar = generate_columnar_trace(profile, 4.0, seed=1)
        materialized = columnar.to_synthetic_trace()
        assert columnar.summary() == materialized.summary()

    def test_public_wrapper_is_the_columnar_generator(self, profile):
        trace = generate_synthetic_trace_columnar(profile, 4.0, seed=2)
        assert isinstance(trace, ColumnarTrace)
        twin = generate_columnar_trace(profile, 4.0, seed=2)
        assert np.array_equal(trace.iclass, twin.iclass)
        assert np.array_equal(trace.dep_val, twin.dep_val)

    def test_dependency_distances_within_bounds(self, profile):
        columnar = generate_columnar_trace(profile, 2.0, seed=0)
        if len(columnar.dep_val):
            assert columnar.dep_val.min() >= 1
        # CSR offsets partition the dependency column.
        assert columnar.dep_off[0] == 0
        assert columnar.dep_off[-1] == len(columnar.dep_val)
        assert (np.diff(columnar.dep_off) >= 0).all()


class TestColumnarTablesCache:
    def test_tables_cached_per_sfg(self, profile):
        assert not columnar_tables_cached(profile.sfg)
        first = columnar_tables_for(profile.sfg)
        assert columnar_tables_cached(profile.sfg)
        assert columnar_tables_for(profile.sfg) is first


# ---------------------------------------------------------------------
# layer 2: the pipeline source
# ---------------------------------------------------------------------


def _result_fields(result):
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "avg_ruu_occupancy": result.avg_ruu_occupancy,
        "avg_lsq_occupancy": result.avg_lsq_occupancy,
        "avg_ifq_occupancy": result.avg_ifq_occupancy,
        "activity": result.activity,
        "branches": result.branches,
        "taken_branches": result.taken_branches,
        "fetch_redirections": result.fetch_redirections,
        "branch_mispredictions": result.branch_mispredictions,
        "squashed_instructions": result.squashed_instructions,
    }


class TestColumnarSourceCycleExact:
    @pytest.mark.parametrize("seed", range(4))
    def test_identical_to_generic_loop(self, profile, config, seed):
        columnar = generate_columnar_trace(profile, 3.0, seed=seed)
        slots = columnar.to_synthetic_trace().to_fetch_slots(config)
        generic = simulate(config, PreannotatedSource(slots))
        fast = simulate(config, ColumnarSource(columnar, config))
        assert _result_fields(fast) == _result_fields(generic)

    def test_identical_commit_log(self, profile, config):
        columnar = generate_columnar_trace(profile, 4.0, seed=9)
        slots = columnar.to_synthetic_trace().to_fetch_slots(config)
        log_generic, log_fast = [], []
        SuperscalarPipeline(config, PreannotatedSource(slots)).run(
            commit_log=log_generic)
        SuperscalarPipeline(
            config, ColumnarSource(columnar, config)).run(
            commit_log=log_fast)
        assert log_fast == log_generic


# ---------------------------------------------------------------------
# layer 3: end-to-end agreement (Table 1 machine)
# ---------------------------------------------------------------------


class TestEndToEndAgreement:
    #: Scalar and columnar draws are independent streams, so per-seed
    #: IPC differs; seed-averaged IPC agrees within this relative
    #: epsilon on the small generated workload (documented alongside
    #: the measured per-seed spread in docs/performance.md).
    EPSILON = 0.15

    def test_seed_averaged_ipc_agrees(self, profile, config):
        from repro.core.framework import (simulate_columnar_trace,
                                          simulate_synthetic_trace)

        seeds = range(6)
        scalar_ipc = []
        vector_ipc = []
        for seed in seeds:
            scalar = generate_synthetic_trace(profile, 3.0, seed=seed)
            columnar = generate_columnar_trace(profile, 3.0, seed=seed)
            scalar_ipc.append(
                simulate_synthetic_trace(scalar, config)[0].ipc)
            vector_ipc.append(
                simulate_columnar_trace(columnar, config)[0].ipc)
        scalar_mean = sum(scalar_ipc) / len(scalar_ipc)
        vector_mean = sum(vector_ipc) / len(vector_ipc)
        assert abs(vector_mean - scalar_mean) / scalar_mean \
            < self.EPSILON, (scalar_ipc, vector_ipc)

    def test_run_statistical_simulation_vector_flag(self, small_trace,
                                                    config):
        from repro.core.framework import run_statistical_simulation

        scalar = run_statistical_simulation(small_trace, config,
                                            reduction_factor=3.0)
        vector = run_statistical_simulation(small_trace, config,
                                            reduction_factor=3.0,
                                            vector=True)
        assert len(vector.synthetic_trace) == len(scalar.synthetic_trace)
        assert vector.ipc > 0
        assert vector.epc > 0
        assert abs(vector.ipc - scalar.ipc) / scalar.ipc < 0.5
