"""The memory hierarchy of the Table 2 machine.

Separate L1 instruction and data caches back a unified L2; instruction
and data TLBs translate in parallel.  The hierarchy distinguishes L2
misses caused by instruction fetches from those caused by data accesses,
because the paper's statistical profile records them separately
(section 2.1.2, footnote 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineConfig
from repro.cache.cache import SetAssociativeCache
from repro.cache.tlb import TranslationLookasideBuffer


@dataclass(frozen=True)
class InstructionAccessResult:
    """Locality events for one instruction fetch."""

    il1_miss: bool
    l2_miss: bool
    itlb_miss: bool


@dataclass(frozen=True)
class DataAccessResult:
    """Locality events for one data access."""

    dl1_miss: bool
    l2_miss: bool
    dtlb_miss: bool


class CacheHierarchy:
    """L1I + L1D + unified L2 + I/D TLBs, with latency assignment.

    The latency helpers implement the synthetic-trace simulator's rules
    (paper section 2.3): a load's latency is set by the deepest level it
    misses in; an I-cache miss stalls the fetch engine for the
    corresponding fill latency.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.il1 = SetAssociativeCache(config.il1)
        self.dl1 = SetAssociativeCache(config.dl1)
        self.l2 = SetAssociativeCache(config.l2)
        self.itlb = TranslationLookasideBuffer(config.itlb)
        self.dtlb = TranslationLookasideBuffer(config.dtlb)
        self.l2_instruction_accesses = 0
        self.l2_instruction_misses = 0
        self.l2_data_accesses = 0
        self.l2_data_misses = 0

    # ----------------------------------------------------------- access
    def access_instruction(self, pc: int) -> InstructionAccessResult:
        """Fetch the instruction at *pc* through IL1 -> unified L2."""
        itlb_miss = not self.itlb.access(pc)
        il1_miss = not self.il1.access(pc)
        l2_miss = False
        if il1_miss:
            self.l2_instruction_accesses += 1
            l2_miss = not self.l2.access(pc)
            if l2_miss:
                self.l2_instruction_misses += 1
        return InstructionAccessResult(il1_miss, l2_miss, itlb_miss)

    def access_data(self, address: int, is_store: bool = False
                    ) -> DataAccessResult:
        """Access data at *address* through DL1 -> unified L2.

        Stores exercise the hierarchy (write-allocate) but the paper's
        synthetic traces only annotate loads; the *is_store* flag exists
        so callers can separate statistics.
        """
        dtlb_miss = not self.dtlb.access(address)
        dl1_miss = not self.dl1.access(address)
        l2_miss = False
        if dl1_miss:
            self.l2_data_accesses += 1
            l2_miss = not self.l2.access(address)
            if l2_miss:
                self.l2_data_misses += 1
        return DataAccessResult(dl1_miss, l2_miss, dtlb_miss)

    # ------------------------------------------------------- statistics
    def miss_rates(self) -> dict:
        """The six miss rates of the paper's statistical profile."""
        def rate(misses: int, accesses: int) -> float:
            return misses / accesses if accesses else 0.0

        return {
            "il1": self.il1.miss_rate,
            "l2_instruction": rate(self.l2_instruction_misses,
                                   self.l2_instruction_accesses),
            "dl1": self.dl1.miss_rate,
            "l2_data": rate(self.l2_data_misses, self.l2_data_accesses),
            "itlb": self.itlb.miss_rate,
            "dtlb": self.dtlb.miss_rate,
        }


def latency_signature(config: MachineConfig) -> tuple:
    """Every field of *config* that :func:`load_latency` and
    :func:`fetch_stall` read: two configs with equal signatures price
    every locality event alike."""
    return (config.dl1.hit_latency, config.l2.hit_latency,
            config.memory_latency, config.dtlb.miss_latency,
            config.itlb.miss_latency)


def load_latency(config: MachineConfig, dl1_miss, l2_miss,
                 dtlb_miss) -> int:
    """Latency in cycles of a load with the given locality events (any
    truth values): the deepest level it misses in, plus the D-TLB
    penalty."""
    if l2_miss:
        latency = config.memory_latency
    elif dl1_miss:
        latency = config.l2.hit_latency
    else:
        latency = config.dl1.hit_latency
    if dtlb_miss:
        latency += config.dtlb.miss_latency
    return latency


def fetch_stall(config: MachineConfig, il1_miss, l2_miss,
                itlb_miss) -> int:
    """Fetch-engine stall cycles of an instruction fetch with the given
    locality events (0 when everything hits)."""
    stall = 0
    if l2_miss:
        stall = config.memory_latency
    elif il1_miss:
        stall = config.l2.hit_latency
    if itlb_miss:
        stall += config.itlb.miss_latency
    return stall
