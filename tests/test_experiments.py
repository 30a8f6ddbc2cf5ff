"""Wiring tests for every experiment module at a miniature scale.

These do not assert the paper's quantitative shapes (the benchmark
harness does, at a realistic scale); they check that each experiment
runs end to end, returns well-formed rows and formats them.
"""

from dataclasses import replace

import pytest

from repro.experiments.common import (
    DEFAULT_SCALE,
    QUICK_SCALE,
    ExperimentScale,
    bench_scale,
    format_table,
    geometric_spread,
    prepare_benchmark,
    prepare_suite,
)

TINY = ExperimentScale(warmup=2000, reference=4000, reduction_factor=4.0,
                       seeds=(0,), benchmarks=("gzip", "twolf"))


class TestCommon:
    def test_prepare_benchmark(self):
        warm, trace = prepare_benchmark("gzip", TINY)
        # Warmup extends to the next block boundary.
        assert TINY.warmup <= len(warm) < TINY.warmup + 50
        assert len(trace) == TINY.reference

    def test_prepare_suite(self):
        suite = prepare_suite(TINY)
        assert set(suite) == {"gzip", "twolf"}

    def test_with_benchmarks(self):
        narrowed = DEFAULT_SCALE.with_benchmarks(["vpr"])
        assert narrowed.benchmarks == ("vpr",)

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == QUICK_SCALE
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert bench_scale() == DEFAULT_SCALE

    def test_format_table(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("x", "y")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_geometric_spread(self):
        assert geometric_spread([1.0, 2.0, 4.0]) == 4.0
        with pytest.raises(ValueError):
            geometric_spread([0.0, 1.0])


class TestExperimentModules:
    def test_table1(self):
        from repro.experiments import table1_baseline

        rows = table1_baseline.run(TINY)
        assert {row["benchmark"] for row in rows} == set(TINY.benchmarks)
        assert all(row["ipc"] > 0 for row in rows)
        assert table1_baseline.format_rows(rows)

    def test_fig3(self):
        from repro.experiments import fig3_branch_profiling

        rows = fig3_branch_profiling.run(TINY)
        for row in rows:
            for key in ("execution_driven", "immediate_update",
                        "delayed_update"):
                assert row[key] >= 0
        assert fig3_branch_profiling.format_rows(rows)

    def test_fig4_and_table3(self):
        from repro.experiments import fig4_sfg_order, table3_sfg_size

        rows = fig4_sfg_order.run(TINY, orders=(0, 1))
        averages = fig4_sfg_order.average_errors(rows)
        assert set(averages) == {0, 1}
        assert fig4_sfg_order.format_rows(rows)

        size_rows = table3_sfg_size.run(TINY, orders=(0, 1, 2))
        for row in size_rows:
            assert row["nodes"][0] <= row["nodes"][2]
        assert table3_sfg_size.format_rows(size_rows)

    def test_fig5(self):
        from repro.experiments import fig5_delayed_update

        rows = fig5_delayed_update.run(TINY)
        for row in rows:
            assert row["immediate_error"] >= 0
            assert row["delayed_error"] >= 0
        assert fig5_delayed_update.format_rows(rows)

    def test_fig6(self):
        from repro.experiments import fig6_absolute

        rows = fig6_absolute.run(TINY)
        averages = fig6_absolute.average_errors(rows)
        assert set(averages) == {"ipc", "epc", "edp"}
        assert fig6_absolute.format_rows(rows)

    def test_sec41(self):
        from repro.experiments import sec41_convergence

        rows = sec41_convergence.run("gzip", TINY, factors=(8.0, 2.0),
                                     num_seeds=4)
        assert rows[0]["synthetic_length"] < rows[1]["synthetic_length"]
        assert sec41_convergence.format_rows(rows)

    def test_fig7(self):
        from repro.experiments import fig7_hls

        rows = fig7_hls.run(TINY)
        averages = fig7_hls.average_errors(rows)
        assert averages["hls"] >= 0 and averages["smart"] >= 0
        assert fig7_hls.format_rows(rows)

    def test_fig8(self):
        from repro.experiments import fig8_phases

        rows = fig8_phases.run(TINY)
        averages = fig8_phases.average_errors(rows)
        assert set(averages) == {"whole", "per_sample", "simpoint"}
        assert fig8_phases.format_rows(rows)

    def test_table4(self):
        from repro.experiments import table4_relative

        rows = table4_relative.run(
            TINY, sweeps=("window",), points={"window": (32, 128)})
        assert rows
        for row in rows:
            assert row["sweep"] == "window"
            assert row["relative_error"] >= 0
        assert table4_relative.format_rows(rows)

    def test_sec46(self):
        from repro.experiments import sec46_design_space

        outcome = sec46_design_space.run(
            "gzip", TINY, ruu_sizes=(16, 64), lsq_sizes=(8,),
            widths=(4,))
        assert outcome["grid_points"] == 2
        assert outcome["candidates_verified"] >= 1
        assert sec46_design_space.format_rows([outcome])

    def test_ablation_workload_models(self):
        from repro.experiments import ablation_workload_models

        rows = ablation_workload_models.run(TINY)
        averages = ablation_workload_models.average_errors(rows)
        assert set(averages) == set(ablation_workload_models.MODELS)
        assert ablation_workload_models.format_rows(rows)

    def test_ablation_fifo_size(self):
        from repro.experiments import ablation_fifo_size

        rows = ablation_fifo_size.run(TINY, fifo_sizes=(1, 32))
        gaps = ablation_fifo_size.average_gaps(rows)
        assert set(gaps) == {1, 32}
        assert ablation_fifo_size.format_rows(rows)

    def test_ablation_reduction(self):
        from repro.experiments import ablation_reduction

        rows = ablation_reduction.run("gzip", TINY, factors=(2.0, 8.0))
        assert rows[0]["nodes_kept"] >= rows[1]["nodes_kept"]
        assert ablation_reduction.format_rows(rows)

    def test_extension_inorder(self):
        from repro.experiments import extension_inorder

        rows = extension_inorder.run(TINY)
        averages = extension_inorder.average_errors(rows)
        assert set(averages) == {"raw_only", "with_anti"}
        for row in rows:
            assert row["inorder_ipc"] <= row["ooo_ipc"] + 1e-9
        assert extension_inorder.format_rows(rows)

    def test_speedup(self):
        from repro.experiments import speedup

        rows = speedup.run(TINY)
        for row in rows:
            assert row["eds_seconds"] > 0
            assert row["ss_seconds"] > 0
            assert row["synthetic_instructions"] > 0
        assert speedup.format_rows(rows)


class TestTable4SharedTraces:
    """Sweeps that reuse one profile synthesize each seed's trace once
    and simulate it at every point; the numbers must equal a per-point
    statistical simulation exactly."""

    SCALE = replace(TINY, seeds=(0, 1))
    POINTS = {"window": (16, 64, 128), "width": (2, 8),
              "cache": (0.5, 2.0)}

    @staticmethod
    def _per_point(name, sweep, scale, definitions):
        from repro.core.framework import (
            run_execution_driven,
            run_statistical_simulation,
        )
        from repro.core.profiler import profile_trace
        from repro.experiments.table4_relative import collect_metrics

        sweep_points, builder, _label, _reprofile, _metrics = \
            definitions[sweep]
        warm, trace = prepare_benchmark(name, scale)
        profile = profile_trace(trace, builder(sweep_points[0]), order=1,
                                branch_mode="delayed", warmup_trace=warm)
        rows = []
        for point in sweep_points:
            config = builder(point)
            eds = collect_metrics(*run_execution_driven(
                trace, config, warmup_trace=warm))
            samples = []
            for seed in scale.seeds:
                report = run_statistical_simulation(
                    trace, config, profile=profile,
                    reduction_factor=scale.reduction_factor, seed=seed)
                samples.append(collect_metrics(report.result,
                                               report.power))
            ss = {key: sum(s[key] for s in samples) / len(samples)
                  for key in samples[0]}
            rows.append([eds, ss])
        return rows

    @staticmethod
    def _count_synthesis(monkeypatch):
        from repro.experiments import table4_relative

        calls = []
        original = table4_relative.generate_synthetic_trace

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return original(*args, **kwargs)

        monkeypatch.setattr(table4_relative, "generate_synthetic_trace",
                            counting)
        return calls

    @pytest.mark.parametrize("sweep", ["window", "width"])
    def test_shared_profile_sweep_is_bit_exact(self, sweep, monkeypatch):
        from repro.experiments import table4_relative

        definitions = table4_relative._sweep_definitions(self.POINTS)
        calls = self._count_synthesis(monkeypatch)
        for name in self.SCALE.benchmarks:
            measured = table4_relative._measure_sweep_benchmark(
                name, sweep, self.SCALE, definitions)
            assert measured == self._per_point(name, sweep, self.SCALE,
                                               definitions)
        assert len(calls) == \
            len(self.SCALE.seeds) * len(self.SCALE.benchmarks)

    def test_reprofiled_sweep_synthesizes_per_point(self, monkeypatch):
        from repro.experiments import table4_relative

        definitions = table4_relative._sweep_definitions(self.POINTS)
        calls = self._count_synthesis(monkeypatch)
        for name in self.SCALE.benchmarks:
            table4_relative._measure_sweep_benchmark(
                name, "cache", self.SCALE, definitions)
        assert len(calls) == (len(self.POINTS["cache"])
                              * len(self.SCALE.seeds)
                              * len(self.SCALE.benchmarks))
