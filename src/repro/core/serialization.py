"""Saving and loading statistical profiles.

A statistical profile is the methodology's reusable artifact: measure
once, then explore many design points (the paper's Figure 1 separates
profiling from synthesis for exactly this reason).  This module
round-trips :class:`~repro.core.profiler.StatisticalProfile` objects
through plain JSON so profiles can be archived, shared and re-used
across sessions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    MachineConfig,
    TLBConfig,
)
from repro.errors import ArtifactCorruptError, ProfileValidationError
from repro.faults import maybe_io_error
from repro.isa.iclass import IClass
from repro.core.profiler import BRANCH_MODES, StatisticalProfile
from repro.core.sfg import ContextStats, StatisticalFlowGraph

FORMAT_VERSION = 1

_SUB_CONFIGS = (CacheConfig, TLBConfig, BranchPredictorConfig)

#: Keys every serialized profile must carry (beyond the optional
#: integrity checksum added at save time).
REQUIRED_KEYS = (
    "format", "name", "order", "branch_mode", "perfect_caches",
    "trace_instructions", "config", "total_block_executions",
    "transitions", "contexts",
)


def config_to_dict(config: MachineConfig) -> Dict:
    """Serialize a machine configuration to a JSON-compatible dict.

    The canonical encoding of this dict is also what the design-space
    subsystem (:mod:`repro.dse`) hashes to content-address results, so
    the field set must round-trip exactly through
    :func:`config_from_dict`.  Every field is a scalar or one of the
    flat sub-configs, so a shallow copy per level gives what
    :func:`dataclasses.asdict` would, without its deep copies.
    """
    return {name: dict(vars(value)) if isinstance(value, _SUB_CONFIGS)
            else value for name, value in vars(config).items()}


def config_from_dict(data: Dict) -> MachineConfig:
    """Inverse of :func:`config_to_dict`."""
    data = dict(data)
    for key, cls in (("il1", CacheConfig), ("dl1", CacheConfig),
                     ("l2", CacheConfig), ("itlb", TLBConfig),
                     ("dtlb", TLBConfig),
                     ("predictor", BranchPredictorConfig)):
        data[key] = cls(**data[key])
    return MachineConfig(**data)


# Former private names, kept as aliases for existing internal callers.
_config_to_dict = config_to_dict
_config_from_dict = config_from_dict


def _histogram_to_list(histogram: Dict[int, int]) -> List[List[int]]:
    return [[key, count] for key, count in sorted(histogram.items())]


def _histogram_from_list(pairs: List[List[int]]) -> Dict[int, int]:
    return {int(key): int(count) for key, count in pairs}


def _context_to_dict(stats: ContextStats) -> Dict:
    return {
        "occurrences": stats.occurrences,
        "iclasses": [int(iclass) for iclass in stats.iclasses],
        "n_src": stats.n_src,
        "dep_hists": [[_histogram_to_list(hist) for hist in operands]
                      for operands in stats.dep_hists],
        "waw_hists": [_histogram_to_list(h) for h in stats.waw_hists],
        "war_hists": [_histogram_to_list(h) for h in stats.war_hists],
        "il1": stats.il1, "l2i": stats.l2i, "itlb": stats.itlb,
        "dl1": stats.dl1, "l2d": stats.l2d, "dtlb": stats.dtlb,
        "taken": stats.taken,
        "outcome_counts": stats.outcome_counts,
    }


def _context_from_dict(data: Dict) -> ContextStats:
    stats = ContextStats([IClass(i) for i in data["iclasses"]],
                         data["n_src"])
    stats.occurrences = data["occurrences"]
    stats.dep_hists = [[_histogram_from_list(hist) for hist in operands]
                       for operands in data["dep_hists"]]
    stats.waw_hists = [_histogram_from_list(h) for h in data["waw_hists"]]
    stats.war_hists = [_histogram_from_list(h) for h in data["war_hists"]]
    stats.il1 = list(data["il1"])
    stats.l2i = list(data["l2i"])
    stats.itlb = list(data["itlb"])
    stats.dl1 = list(data["dl1"])
    stats.l2d = list(data["l2d"])
    stats.dtlb = list(data["dtlb"])
    stats.taken = data["taken"]
    stats.outcome_counts = list(data["outcome_counts"])
    return stats


def profile_to_dict(profile: StatisticalProfile) -> Dict:
    """Serialize *profile* to a JSON-compatible dictionary."""
    sfg = profile.sfg
    return {
        "format": FORMAT_VERSION,
        "name": profile.name,
        "order": profile.order,
        "branch_mode": profile.branch_mode,
        "perfect_caches": profile.perfect_caches,
        "trace_instructions": profile.trace_instructions,
        "config": _config_to_dict(profile.config),
        "total_block_executions": sfg.total_block_executions,
        "transitions": [
            [list(history), {str(block): count
                             for block, count in counts.items()}]
            for history, counts in sfg.transitions.items()
        ],
        "contexts": [
            [list(context), _context_to_dict(stats)]
            for context, stats in sfg.contexts.items()
        ],
    }


def _validate_profile_dict(data: Dict) -> None:
    """Structural validation of an untrusted profile dictionary.

    Raises :class:`ArtifactCorruptError` (a :class:`ValueError`
    subclass) with a message naming exactly what is wrong, instead of
    letting a bad artifact surface as a ``KeyError`` deep inside graph
    reconstruction.
    """
    if not isinstance(data, dict):
        raise ArtifactCorruptError(
            f"profile must be a JSON object, got {type(data).__name__}")
    missing = [key for key in REQUIRED_KEYS if key not in data]
    if missing:
        raise ArtifactCorruptError(
            f"profile is missing required keys: {', '.join(missing)}")
    if data["format"] != FORMAT_VERSION:
        raise ArtifactCorruptError(
            f"unsupported profile format {data['format']!r}; "
            f"expected {FORMAT_VERSION}"
        )
    order = data["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ArtifactCorruptError(
            f"profile order must be a non-negative integer, "
            f"got {order!r}")
    if data["branch_mode"] not in BRANCH_MODES:
        raise ArtifactCorruptError(
            f"profile branch_mode must be one of {BRANCH_MODES}, "
            f"got {data['branch_mode']!r}")
    for history, _counts in data["transitions"]:
        if len(history) != order:
            raise ArtifactCorruptError(
                f"transition history {history!r} has length "
                f"{len(history)}; an order-{order} profile requires "
                f"{order}")
    for context, _stats in data["contexts"]:
        if len(context) != order + 1:
            raise ArtifactCorruptError(
                f"context {context!r} has length {len(context)}; an "
                f"order-{order} profile requires {order + 1}")


def _payload_checksum(data: Dict) -> str:
    from repro.runner.checkpoint import payload_checksum

    return payload_checksum(data)


def profile_from_dict(data: Dict) -> StatisticalProfile:
    """Reconstruct a profile from :func:`profile_to_dict` output.

    The input is untrusted (it usually comes off disk): structure,
    order, branch mode and — when present — the embedded ``checksum``
    are all verified, and any inconsistency raises
    :class:`ArtifactCorruptError`.
    """
    if isinstance(data, dict) and "checksum" in data:
        data = dict(data)
        stored = data.pop("checksum")
        actual = _payload_checksum(data)
        if stored != actual:
            raise ArtifactCorruptError(
                f"profile failed its integrity check (stored "
                f"{str(stored)[:12]}..., computed {actual[:12]}...)")
    _validate_profile_dict(data)
    try:
        sfg = StatisticalFlowGraph(order=data["order"])
        sfg.total_block_executions = data["total_block_executions"]
        for history, counts in data["transitions"]:
            sfg.transitions[tuple(history)] = {
                int(block): count for block, count in counts.items()
            }
        for context, stats in data["contexts"]:
            sfg.contexts[tuple(context)] = _context_from_dict(stats)
        return StatisticalProfile(
            name=data["name"],
            order=data["order"],
            sfg=sfg,
            trace_instructions=data["trace_instructions"],
            branch_mode=data["branch_mode"],
            perfect_caches=data["perfect_caches"],
            config=_config_from_dict(data["config"]),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ArtifactCorruptError(
            f"profile payload is malformed: {exc!r}") from exc


def validate_profile_invariants(profile: StatisticalProfile) -> None:
    """Check the statistical invariants of a (typically just-loaded)
    profile, raising :class:`ProfileValidationError` naming the first
    violation.

    A structurally valid JSON document can still describe an
    impossible profile — negative histogram mass, transition counts
    whose per-history probabilities cannot sum to 1, more cache misses
    than block visits.  Synthesis would only trip over these deep
    inside sampler-table construction (or worse, silently draw from a
    nonsense distribution), so the artifact boundary rejects them with
    a message naming the offending context instead.
    """
    sfg = profile.sfg

    def bad(message: str) -> ProfileValidationError:
        return ProfileValidationError(
            f"profile {profile.name!r}: {message}")

    total = 0
    for context, stats in sfg.contexts.items():
        where = f"context {context}"
        if stats.occurrences < 0:
            raise bad(f"{where} has negative occurrences "
                      f"({stats.occurrences})")
        total += stats.occurrences
        for slot in range(stats.block_size):
            for name, counter in (("il1", stats.il1), ("l2i", stats.l2i),
                                  ("itlb", stats.itlb),
                                  ("dl1", stats.dl1), ("l2d", stats.l2d),
                                  ("dtlb", stats.dtlb)):
                if not 0 <= counter[slot] <= stats.occurrences:
                    raise bad(
                        f"{where} slot {slot}: {name} miss count "
                        f"{counter[slot]} outside [0, occurrences="
                        f"{stats.occurrences}]")
            named_hists = [
                (f"dep_hists[operand={operand}]", hist)
                for operand, hist in enumerate(stats.dep_hists[slot])
            ]
            named_hists.append(("waw_hists", stats.waw_hists[slot]))
            named_hists.append(("war_hists", stats.war_hists[slot]))
            for statistic, hist in named_hists:
                for distance, count in hist.items():
                    if distance < 0:
                        raise bad(
                            f"{where} slot {slot}: statistic "
                            f"{statistic} histogram entry has negative "
                            f"distance {distance} (count {count})")
                    if count < 0:
                        raise bad(
                            f"{where} slot {slot}: statistic "
                            f"{statistic} histogram entry for distance "
                            f"{distance} has negative count {count}")
        if not 0 <= stats.taken <= stats.occurrences:
            raise bad(f"{where}: taken count {stats.taken} outside "
                      f"[0, occurrences={stats.occurrences}]")
        if any(count < 0 for count in stats.outcome_counts):
            raise bad(f"{where}: negative branch outcome count "
                      f"{stats.outcome_counts}")
        if sum(stats.outcome_counts) > stats.occurrences:
            raise bad(f"{where}: branch outcome counts "
                      f"{stats.outcome_counts} sum past occurrences "
                      f"{stats.occurrences}")
    if total != sfg.total_block_executions:
        raise bad(f"context occurrences sum to {total}, not the "
                  f"recorded total_block_executions "
                  f"{sfg.total_block_executions}")
    for history, counts in sfg.transitions.items():
        edge_total = 0
        for block, count in counts.items():
            if count < 0:
                raise bad(f"transition {history} -> {block} has a "
                          f"negative count ({count})")
            edge_total += count
        if counts and edge_total <= 0:
            # All-zero counts: P[block | history] cannot sum to 1.
            raise bad(f"history {history}: transition counts sum to "
                      f"{edge_total}; edge probabilities cannot "
                      f"normalize")


def save_profile(profile: StatisticalProfile,
                 path: Union[str, Path]) -> None:
    """Write *profile* to *path* as JSON, atomically.

    The document embeds a SHA-256 ``checksum`` over the payload and
    is written with :func:`~repro.runner.checkpoint.write_json_atomic`
    — an interrupted save can never leave a partial profile where a
    complete one is expected, and any later truncation or corruption
    is detected at load time.
    """
    from repro.runner.checkpoint import write_json_atomic

    # io-error chaos site: a failed save raises a retryable
    # InjectedIOError before any bytes land, like a full disk would.
    maybe_io_error("save_profile", str(path))
    write_json_atomic(path, profile_to_dict(profile))


def load_profile(path: Union[str, Path]) -> StatisticalProfile:
    """Load a profile previously written by :func:`save_profile`.

    Raises :class:`ArtifactCorruptError` when the file is unreadable,
    truncated (invalid JSON), fails its checksum, or is structurally
    invalid — never a bare ``JSONDecodeError`` — and its
    :class:`ProfileValidationError` subclass when the decoded profile
    violates a statistical invariant
    (:func:`validate_profile_invariants`).
    """
    path = Path(path)
    try:
        # io-error chaos site: injected inside the try so it flows
        # through exactly the path a real read failure takes.
        maybe_io_error("load_profile", str(path))
        text = path.read_text()
    except OSError as exc:
        raise ArtifactCorruptError(
            f"cannot read profile {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactCorruptError(
            f"profile {path} is not valid JSON (truncated write?): "
            f"{exc}") from exc
    profile = profile_from_dict(data)
    validate_profile_invariants(profile)
    return profile
