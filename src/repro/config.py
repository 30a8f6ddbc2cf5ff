"""Machine configurations (the paper's Table 2 and its sweeps).

Every simulator component (branch predictors, caches, the out-of-order
core and the power model) is constructed from a :class:`MachineConfig`,
so a design-space sweep is just a sequence of configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


def _power_of_two(value: int) -> bool:
    return value > 0 and not value & (value - 1)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int
    hit_latency: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("cache size and line size must be positive")
        if not _power_of_two(self.line_bytes):
            raise ValueError(
                f"{self.name}: line size must be a power of two")
        if self.associativity < 1:
            raise ValueError(f"{self.name}: associativity must be >= 1")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                f"{self.name}: size must be a multiple of line*assoc"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    def scaled(self, factor: float) -> "CacheConfig":
        """Return a config with the capacity scaled by *factor* (the
        paper's cache sweep scales sizes by 1/4x..4x)."""
        new_size = int(self.size_bytes * factor)
        line_assoc = self.line_bytes * self.associativity
        new_size = max(line_assoc, (new_size // line_assoc) * line_assoc)
        return replace(self, size_bytes=new_size)


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of a translation lookaside buffer."""

    name: str
    entries: int
    associativity: int
    page_bytes: int = 4096
    miss_latency: int = 30

    def __post_init__(self) -> None:
        if not _power_of_two(self.page_bytes):
            raise ValueError(
                f"{self.name}: page size must be a power of two")
        if self.associativity < 1:
            raise ValueError(f"{self.name}: associativity must be >= 1")
        if self.entries < 1:
            raise ValueError(f"{self.name}: entries must be >= 1")
        if self.entries % self.associativity:
            raise ValueError(
                f"{self.name}: entries must be a multiple of associativity")

    @property
    def num_sets(self) -> int:
        return self.entries // self.associativity


@dataclass(frozen=True)
class BranchPredictorConfig:
    """The Table 2 hybrid predictor: a meta table chooses between a
    bimodal table and a two-level local predictor whose local history is
    XOR-ed with the branch PC; plus a set-associative BTB.

    ``ras_entries`` records Table 2's 64-entry return address stack.
    No model reads it (the synthetic ISA has no call/return pairs), but
    it stays part of the config and so of every config hash."""

    meta_entries: int = 8192
    bimodal_entries: int = 8192
    local_history_entries: int = 8192
    local_pht_entries: int = 8192
    local_history_bits: int = 13
    btb_entries: int = 512
    btb_associativity: int = 4
    ras_entries: int = 64

    def scaled(self, factor: float) -> "BranchPredictorConfig":
        """Scale all table sizes by *factor* (the paper's branch
        predictor sweep uses base/4 .. base*4).  The BTB keeps its
        associativity: its size rounds down to whole sets, at least
        one."""
        ways = self.btb_associativity
        btb_sets = max(1, int(self.btb_entries * factor) // ways)
        return replace(
            self,
            meta_entries=max(4, int(self.meta_entries * factor)),
            bimodal_entries=max(4, int(self.bimodal_entries * factor)),
            local_history_entries=max(4, int(self.local_history_entries * factor)),
            local_pht_entries=max(4, int(self.local_pht_entries * factor)),
            btb_entries=btb_sets * ways,
        )


@dataclass(frozen=True)
class MachineConfig:
    """Full machine description (paper Table 2 defaults).

    ``fetch_speed`` multiplies the decode width to give the raw fetch
    bandwidth, as in sim-outorder (Table 2: "8 decode width (fetch
    speed = 2)").
    """

    # Front end.  ``frontend_depth`` is the number of pipeline stages an
    # instruction spends between fetch and dispatch (on top of IFQ
    # residency); together with the IFQ it sets the distance over which
    # branch predictor updates are delayed (section 2.1.3).  Depth 0
    # times exactly like depth 1: fetch is the last stage of a cycle,
    # so dispatch is always at least the cycle after fetch.
    ifq_size: int = 32
    fetch_speed: int = 2
    decode_width: int = 8
    frontend_depth: int = 4
    # Out-of-order core
    ruu_size: int = 128
    lsq_size: int = 32
    issue_width: int = 8
    commit_width: int = 8
    # Functional units (paper Table 2)
    int_alus: int = 8
    load_store_units: int = 4
    fp_adders: int = 2
    int_mult_divs: int = 2
    fp_mult_divs: int = 2
    # Execution model extensions (paper section 2.1.1: "this approach
    # could be extended to also include WAW and WAR dependencies to
    # account for a limited number of physical registers or in-order
    # execution").
    in_order_issue: bool = False
    enforce_anti_dependencies: bool = False
    # Conservative memory disambiguation: a load may not issue before
    # the most recent earlier store has executed (no speculative
    # store-bypass).  Applies identically to execution-driven and
    # synthetic-trace simulation.
    conservative_loads: bool = False
    # Penalties / latencies
    branch_misprediction_penalty: int = 14
    fetch_redirect_penalty: int = 3
    memory_latency: int = 150
    # Locality structures
    il1: CacheConfig = field(default_factory=lambda: CacheConfig(
        "il1", 8 * 1024, 2, 32, 1))
    dl1: CacheConfig = field(default_factory=lambda: CacheConfig(
        "dl1", 16 * 1024, 4, 32, 2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "ul2", 1024 * 1024, 4, 64, 20))
    itlb: TLBConfig = field(default_factory=lambda: TLBConfig(
        "itlb", 32, 8))
    dtlb: TLBConfig = field(default_factory=lambda: TLBConfig(
        "dtlb", 32, 8))
    predictor: BranchPredictorConfig = field(
        default_factory=BranchPredictorConfig)
    # Power model (paper: 0.18um, 1.2 GHz, cc3 clock gating)
    clock_ghz: float = 1.2

    def __post_init__(self) -> None:
        if self.lsq_size > self.ruu_size:
            raise ValueError("LSQ may not be larger than the RUU (paper "
                             "section 4.6 constraint)")
        for name in ("ifq_size", "decode_width", "issue_width",
                     "commit_width", "ruu_size", "lsq_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("frontend_depth", "branch_misprediction_penalty",
                     "fetch_redirect_penalty"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # A load completes no earlier than the cycle after it issues.
        for name, latency in (("dl1.hit_latency", self.dl1.hit_latency),
                              ("l2.hit_latency", self.l2.hit_latency),
                              ("memory_latency", self.memory_latency)):
            if latency < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def fetch_width(self) -> int:
        return self.decode_width * self.fetch_speed

    def with_window(self, ruu_size: int, lsq_size: int) -> "MachineConfig":
        return replace(self, ruu_size=ruu_size, lsq_size=lsq_size)

    def with_width(self, width: int) -> "MachineConfig":
        """Set decode = issue = commit width (paper's width sweep)."""
        return replace(self, decode_width=width, issue_width=width,
                       commit_width=width)

    def with_ifq(self, ifq_size: int) -> "MachineConfig":
        return replace(self, ifq_size=ifq_size)

    def with_predictor_scale(self, factor: float) -> "MachineConfig":
        return replace(self, predictor=self.predictor.scaled(factor))

    def with_cache_scale(self, factor: float) -> "MachineConfig":
        """Scale all cache capacities by *factor*."""
        return replace(self, il1=self.il1.scaled(factor),
                       dl1=self.dl1.scaled(factor),
                       l2=self.l2.scaled(factor))

    def functional_unit_counts(self) -> Dict[str, int]:
        return {
            "int_alu": self.int_alus,
            "load_store": self.load_store_units,
            "fp_adder": self.fp_adders,
            "int_mult_div": self.int_mult_divs,
            "fp_mult_div": self.fp_mult_divs,
        }


def baseline_config() -> MachineConfig:
    """The paper's Table 2 baseline configuration."""
    return MachineConfig()


def simplescalar_default_config() -> MachineConfig:
    """SimpleScalar's out-of-the-box configuration, used by the paper for
    the HLS comparison (section 4.3): 4-wide, 16-entry RUU, 8-entry LSQ,
    smaller bimodal-style predictor."""
    return MachineConfig(
        ifq_size=4,
        fetch_speed=1,
        decode_width=4,
        issue_width=4,
        commit_width=4,
        ruu_size=16,
        lsq_size=8,
        int_alus=4,
        load_store_units=2,
        fp_adders=4,
        int_mult_divs=1,
        fp_mult_divs=1,
        branch_misprediction_penalty=3,
        predictor=BranchPredictorConfig(
            meta_entries=1024, bimodal_entries=2048,
            local_history_entries=1024, local_pht_entries=1024,
            local_history_bits=10, btb_entries=512, btb_associativity=4,
            ras_entries=8,
        ),
    )
