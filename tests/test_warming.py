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
        for pc in tiny_trace.pc[:100].tolist():
            hierarchy.access_instruction(pc)
        # Re-fetching the warmed working set produces no new misses.
        assert hierarchy.il1.misses == misses_before

    def test_predictor_trained(self, tiny_trace, config):
        _, predictor = warm_locality_structures(tiny_trace, config)
        # The tiny loop's always-taken exit branch is in the BTB.
        pc = next(pc for pc, _iclass, taken, _target
                  in tiny_trace.branch_records().values() if taken)
        ways = predictor.btb_sets[(pc >> 3) % len(predictor.btb_sets)]
        assert pc in [tag for tag, _ in ways]

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
        assert len(warm) - 1 in warm.branch_records()
        assert len(measured) == 200
        assert measured.pc[0] == \
            tiny_program.blocks[measured.bb_id[0]].address

    def test_measured_renumbered(self, tiny_program):
        _, measured = run_program_with_warmup(tiny_program, warmup=77,
                                              n_instructions=50)
        # Positions restart at zero, on a whole block.
        first_block = tiny_program.blocks[int(measured.bb_id[0])]
        assert min(measured.branch_records()) == first_block.size - 1
