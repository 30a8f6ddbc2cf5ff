"""Branch prediction substrate.

Implements the paper's Table 2 predictor (8K-entry hybrid of a bimodal
table and a two-level local predictor with history XOR PC indexing, and
a 512-entry 4-way BTB) as one flat unit, plus the branch *profiling*
machinery of section 2.1.3: classification of every dynamic branch into
correct / fetch-redirection / misprediction, under either immediate
update or the paper's delayed-update FIFO.

:mod:`repro.branch.predictors` and :mod:`repro.branch.btb` hold the
same predictor as composed component classes; they have no production
caller and serve as the reference the flat unit is tested against.
"""

from repro.branch.unit import BranchOutcome, BranchPredictorUnit, BranchRecord
from repro.branch.profiler import (
    profile_branches_delayed,
    profile_branches_immediate,
    mispredictions_per_kilo_instruction,
)

__all__ = [
    "BranchOutcome",
    "BranchRecord",
    "BranchPredictorUnit",
    "profile_branches_immediate",
    "profile_branches_delayed",
    "mispredictions_per_kilo_instruction",
]
