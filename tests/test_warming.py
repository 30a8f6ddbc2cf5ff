"""Tests for functional warming of locality structures."""

from repro.branch.unit import BranchPredictorUnit
from repro.frontend.warming import (
    run_program_with_warmup,
    warm_locality_structures,
)


class TestWarmLocalityStructures:
    def test_none_warmup_builds_fresh(self, config):
        hierarchy, predictor = warm_locality_structures(None, config)
        assert hierarchy.il1.accesses == 0
        fresh = BranchPredictorUnit(config.predictor)
        for table in ("meta", "bimodal", "histories", "pht", "btb_sets"):
            assert getattr(predictor, table) == getattr(fresh, table)

    def test_warming_fills_caches(self, small_trace, config):
        hierarchy, predictor = warm_locality_structures(small_trace,
                                                        config)
        assert hierarchy.il1.occupancy() > 0
        assert hierarchy.dl1.occupancy() > 0

    def test_statistics_reset_after_warming(self, small_trace, config):
        hierarchy, _ = warm_locality_structures(small_trace, config)
        assert hierarchy.il1.accesses == 0
        assert hierarchy.l2_data_accesses == 0

    def test_warm_cache_hits_on_rerun(self, tiny_trace, config):
        hierarchy, _ = warm_locality_structures(tiny_trace, config)
        misses_before = hierarchy.il1.misses
        for inst in tiny_trace.instructions[:100]:
            hierarchy.access_instruction(inst.pc)
        # Re-fetching the warmed working set produces no new misses.
        assert hierarchy.il1.misses == misses_before

    def test_predictor_trained(self, tiny_trace, config):
        _, predictor = warm_locality_structures(tiny_trace, config)
        # The tiny loop's always-taken exit branch is in the BTB.
        branch = next(i for i in tiny_trace if i.is_branch and i.taken)
        ways = predictor.btb_sets[(branch.pc >> 3)
                                  % len(predictor.btb_sets)]
        assert branch.pc in [tag for tag, _ in ways]

    def test_existing_structures_reused(self, tiny_trace, config):
        from repro.cache.hierarchy import CacheHierarchy

        mine = CacheHierarchy(config)
        hierarchy, _ = warm_locality_structures(tiny_trace, config,
                                                hierarchy=mine)
        assert hierarchy is mine


class TestRunProgramWithWarmup:
    def test_windows_sized(self, tiny_program):
        warm, measured = run_program_with_warmup(tiny_program, warmup=100,
                                                 n_instructions=200)
        # Warmup extends to the next block boundary.
        assert 100 <= len(warm) < 100 + 10
        assert warm.instructions[-1].is_branch
        assert len(measured) == 200
        assert measured.instructions[0].pc == \
            tiny_program.blocks[measured.instructions[0].bb_id].address

    def test_measured_renumbered(self, tiny_program):
        _, measured = run_program_with_warmup(tiny_program, warmup=77,
                                              n_instructions=50)
        assert [inst.seq for inst in measured] == list(range(50))
