"""The memory hierarchy of the Table 2 machine.

Separate L1 instruction and data caches back a unified L2; instruction
and data TLBs translate in parallel.  The hierarchy distinguishes L2
misses caused by instruction fetches from those caused by data accesses,
because the paper's statistical profile records them separately
(section 2.1.2, footnote 1).

Two ways in.  :meth:`CacheHierarchy.access_instruction` and
:meth:`CacheHierarchy.access_data` take one access each, through the
:class:`~repro.cache.cache.SetAssociativeCache` and
:class:`~repro.cache.tlb.TranslationLookasideBuffer` methods; they are
the reference.  :meth:`CacheHierarchy.walk` takes a whole trace's
columns in program order: one straight-line loop over the same sets,
last lines and pages, holding every counter in a local and writing it
back once at the end, and optionally recording each instruction's
event bits (``EV_*``).  Warming, the execution-driven locality walk and
the related-work baselines use it; ``tests/test_cache_walk.py`` holds
it to the per-access methods.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.config import MachineConfig
from repro.cache.cache import SetAssociativeCache
from repro.cache.tlb import TranslationLookasideBuffer
from repro.isa.iclass import IClass

#: Event bits of one instruction: the paper's six locality events
#: (the data-side ones recorded for loads only, as the profile does).
EV_IL1 = 1
EV_L2I = 2
EV_ITLB = 4
EV_DL1 = 8
EV_L2D = 16
EV_DTLB = 32
#: All six.
EV_LOCALITY = 63
#: A load whose latency comes from the data hierarchy: every load with
#: an address, and every load under perfect caches.  A load without an
#: address keeps its class's base latency.
EV_DATA = 64


class InstructionAccessResult(NamedTuple):
    """Locality events for one instruction fetch."""

    il1_miss: bool
    l2_miss: bool
    itlb_miss: bool


class DataAccessResult(NamedTuple):
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

    # ------------------------------------------------------------- walk
    def walk(self, trace, events: Optional[bytearray] = None) -> None:
        """Run *trace* (a :class:`~repro.frontend.trace.Trace`, read
        from its ``pc``, ``mem_addr`` and ``iclass`` columns) through
        the hierarchy in program order: each fetch as
        :meth:`access_instruction`, then each load or store as
        :meth:`access_data`, with the same final state and counters.

        With *events*, append one byte per instruction: its fetch bits
        (``EV_IL1``, ``EV_L2I``, ``EV_ITLB``) and, for a load with an
        address, ``EV_DATA`` and its data bits.  The per-structure
        logic is written out inline, one block per structure: the line
        (page) it saw last is a hit that moves nothing; a resident
        line moves to the MRU end unless already there; a missing one
        evicts the LRU way of a full set.  The unified L2 has one last
        line for both sides.  Every geometry is valid by construction
        (:class:`~repro.config.CacheConfig`,
        :class:`~repro.config.TLBConfig`).
        """
        il1, dl1, l2, itlb, dtlb = (self.il1, self.dl1, self.l2,
                                    self.itlb, self.dtlb)
        il1_sets, il1_n, il1_shift, il1_ways, il1_last = (
            il1._sets, il1._num_sets, il1._line_shift,
            il1.config.associativity, il1.last_line)
        dl1_sets, dl1_n, dl1_shift, dl1_ways, dl1_last = (
            dl1._sets, dl1._num_sets, dl1._line_shift,
            dl1.config.associativity, dl1.last_line)
        l2_sets, l2_n, l2_shift, l2_ways, l2_last = (
            l2._sets, l2._num_sets, l2._line_shift,
            l2.config.associativity, l2.last_line)
        itlb_sets, itlb_n, itlb_shift, itlb_ways, itlb_last = (
            itlb._sets, itlb._num_sets, itlb._page_shift,
            itlb.config.associativity, itlb.last_page)
        dtlb_sets, dtlb_n, dtlb_shift, dtlb_ways, dtlb_last = (
            dtlb._sets, dtlb._num_sets, dtlb._page_shift,
            dtlb.config.associativity, dtlb.last_page)
        il1_misses = itlb_misses = dl1_misses = dtlb_misses = 0
        l2i_accesses = l2i_misses = l2d_accesses = l2d_misses = 0
        data = 0
        record = None if events is None else events.append

        # Iterating memoryviews makes each int as the loop reaches it.
        for pc, address, is_load in zip(
                memoryview(trace.pc), memoryview(trace.mem_addr),
                memoryview(trace.iclass == IClass.LOAD)):
            e = 0
            # I-TLB.
            page = pc >> itlb_shift
            if page != itlb_last:
                itlb_last = page
                ways = itlb_sets[page % itlb_n]
                if page in ways:
                    if ways[-1] != page:
                        ways.remove(page)
                        ways.append(page)
                else:
                    itlb_misses += 1
                    e = EV_ITLB
                    if len(ways) == itlb_ways:
                        del ways[0]
                    ways.append(page)
            # IL1, and the unified L2 behind it.
            line = pc >> il1_shift
            if line != il1_last:
                il1_last = line
                ways = il1_sets[line % il1_n]
                if line in ways:
                    if ways[-1] != line:
                        ways.remove(line)
                        ways.append(line)
                else:
                    il1_misses += 1
                    e += EV_IL1
                    if len(ways) == il1_ways:
                        del ways[0]
                    ways.append(line)
                    l2i_accesses += 1
                    line = pc >> l2_shift
                    if line != l2_last:
                        l2_last = line
                        ways = l2_sets[line % l2_n]
                        if line in ways:
                            if ways[-1] != line:
                                ways.remove(line)
                                ways.append(line)
                        else:
                            l2i_misses += 1
                            e += EV_L2I
                            if len(ways) == l2_ways:
                                del ways[0]
                            ways.append(line)
            if address >= 0:
                data += 1
                d = EV_DATA
                # D-TLB.
                page = address >> dtlb_shift
                if page != dtlb_last:
                    dtlb_last = page
                    ways = dtlb_sets[page % dtlb_n]
                    if page in ways:
                        if ways[-1] != page:
                            ways.remove(page)
                            ways.append(page)
                    else:
                        dtlb_misses += 1
                        d += EV_DTLB
                        if len(ways) == dtlb_ways:
                            del ways[0]
                        ways.append(page)
                # DL1, and the unified L2 behind it.
                line = address >> dl1_shift
                if line != dl1_last:
                    dl1_last = line
                    ways = dl1_sets[line % dl1_n]
                    if line in ways:
                        if ways[-1] != line:
                            ways.remove(line)
                            ways.append(line)
                    else:
                        dl1_misses += 1
                        d += EV_DL1
                        if len(ways) == dl1_ways:
                            del ways[0]
                        ways.append(line)
                        l2d_accesses += 1
                        line = address >> l2_shift
                        if line != l2_last:
                            l2_last = line
                            ways = l2_sets[line % l2_n]
                            if line in ways:
                                if ways[-1] != line:
                                    ways.remove(line)
                                    ways.append(line)
                            else:
                                l2d_misses += 1
                                d += EV_L2D
                                if len(ways) == l2_ways:
                                    del ways[0]
                                ways.append(line)
                if is_load:
                    e += d
            if record is not None:
                record(e)

        fetches = len(trace)
        il1.last_line, dl1.last_line, l2.last_line = (il1_last, dl1_last,
                                                      l2_last)
        itlb.last_page, dtlb.last_page = itlb_last, dtlb_last
        il1.accesses += fetches
        il1.misses += il1_misses
        itlb.accesses += fetches
        itlb.misses += itlb_misses
        dl1.accesses += data
        dl1.misses += dl1_misses
        dtlb.accesses += data
        dtlb.misses += dtlb_misses
        l2.accesses += l2i_accesses + l2d_accesses
        l2.misses += l2i_misses + l2d_misses
        self.l2_instruction_accesses += l2i_accesses
        self.l2_instruction_misses += l2i_misses
        self.l2_data_accesses += l2d_accesses
        self.l2_data_misses += l2d_misses

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
