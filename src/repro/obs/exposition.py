"""OpenMetrics text exposition + cross-process snapshot aggregation.

Renders a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` document
in the OpenMetrics text format (the strict dialect of the Prometheus
exposition format: ``# TYPE`` before samples, counters suffixed
``_total``, summaries with ``quantile`` labels, a single terminating
``# EOF``), merges snapshots from many fleet processes into one, and
aggregates a run directory's ``metrics-<pid>.json`` files
(:mod:`repro.obs.telemetry`) so ``repro trace --openmetrics`` sees
the whole fleet, not just one process.

:func:`validate_openmetrics` is the line-grammar check CI runs against
everything we expose — a renderer bug fails the build, not a scrape.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.metrics import TimingHistogram

#: Prefix on every exposed metric name (namespacing per OpenMetrics
#: conventions).
NAME_PREFIX = "repro_"

#: Summary quantiles exposed for each timing histogram:
#: (quantile label, snapshot payload key).
QUANTILES: Tuple[Tuple[str, str], ...] = (
    ("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_SAMPLE_LINE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>[0-9.eE+-]+))?\Z")
_LABEL = re.compile(
    r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"\Z')
_TYPE_LINE = re.compile(
    r"# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(?P<type>counter|gauge|summary|histogram|info|unknown)\Z")


def sanitize_name(name: str) -> str:
    """``dse.cache_hits`` -> ``repro_dse_cache_hits``."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return NAME_PREFIX + cleaned


def _format_value(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_openmetrics(snapshot: Dict[str, Any]) -> str:
    """A registry snapshot as OpenMetrics text (ends with ``# EOF``)."""
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = sanitize_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = sanitize_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, payload in sorted(snapshot.get("histograms", {}).items()):
        metric = sanitize_name(name)
        lines.append(f"# TYPE {metric} summary")
        for label, key in QUANTILES:
            quantile = payload.get(key)
            if quantile is not None:
                lines.append(f'{metric}{{quantile="{label}"}} '
                             f"{_format_value(quantile)}")
        lines.append(f"{metric}_count "
                     f"{_format_value(payload.get('count', 0))}")
        lines.append(f"{metric}_sum "
                     f"{_format_value(payload.get('total', 0.0))}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def validate_openmetrics(text: str) -> List[str]:
    """Strict line-grammar check; returns problems (empty == valid)."""
    problems: List[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        problems.append("exposition must end with a newline")
    if not lines or lines[-1] != "# EOF":
        problems.append("missing terminating # EOF line")
    typed: Dict[str, str] = {}
    seen_samples: List[Tuple[str, str]] = []
    for lineno, line in enumerate(lines, 1):
        if line == "# EOF":
            if lineno != len(lines):
                problems.append(f"line {lineno}: # EOF before end of text")
            continue
        if line.startswith("# TYPE "):
            match = _TYPE_LINE.match(line)
            if not match:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name = match.group("name")
            if name in typed:
                problems.append(
                    f"line {lineno}: duplicate TYPE for {name}")
            typed[name] = match.group("type")
            continue
        if line.startswith("#"):
            if not (line.startswith("# HELP ")
                    or line.startswith("# UNIT ")):
                problems.append(f"line {lineno}: unknown comment form")
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = match.group("name")
        labels = match.group("labels")
        if labels:
            for label in labels.split(","):
                if not _LABEL.match(label):
                    problems.append(
                        f"line {lineno}: malformed label {label!r}")
        try:
            float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {lineno}: non-numeric value "
                f"{match.group('value')!r}")
        family = _family_name(name, typed)
        if family is None:
            problems.append(
                f"line {lineno}: sample {name} precedes its TYPE")
        elif typed[family] == "counter" and not name.endswith("_total"):
            problems.append(
                f"line {lineno}: counter sample {name} "
                f"must end with _total")
        seen_samples.append((name, labels or ""))
    duplicates = {sample for sample in seen_samples
                  if seen_samples.count(sample) > 1}
    for name, labels in sorted(duplicates):
        problems.append(f"duplicate sample {name}{{{labels}}}")
    return problems


def _family_name(sample: str, typed: Dict[str, str]) -> Optional[str]:
    if sample in typed:
        return sample
    for suffix in ("_total", "_count", "_sum", "_bucket", "_created"):
        if sample.endswith(suffix) and sample[: -len(suffix)] in typed:
            return sample[: -len(suffix)]
    return None


# -- cross-process aggregation -----------------------------------------


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]
                    ) -> Dict[str, Any]:
    """Fold many per-process snapshots into one fleet-wide document.

    Counters and histogram observations sum; gauges are last-write-wins
    in iteration order (pass snapshots oldest-first).  The derived
    ``phases`` view is rebuilt from the merged ``phase.*`` histograms.
    """
    from repro.obs.metrics import PHASE_PREFIX, SNAPSHOT_SCHEMA

    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, TimingHistogram] = {}
    run = None
    processes = 0
    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            continue
        processes += 1
        run = run or snapshot.get("run")
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = float(value)
        for name, payload in snapshot.get("histograms", {}).items():
            merged = histograms.setdefault(name, TimingHistogram())
            merged.merge(TimingHistogram.from_payload(payload))
    rendered = {name: hist.to_payload()
                for name, hist in sorted(histograms.items())}
    return {
        "schema": SNAPSHOT_SCHEMA,
        "run": run or "aggregate",
        "processes": processes,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": rendered,
        "phases": {name[len(PHASE_PREFIX):]: payload
                   for name, payload in rendered.items()
                   if name.startswith(PHASE_PREFIX)},
    }


def aggregate_run_dir(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """Merge every ``metrics-*.json`` under *run_dir* (plus a bare
    ``metrics.json`` if present), oldest snapshot first."""
    import json

    run_dir = Path(run_dir)
    paths = sorted(run_dir.rglob("metrics-*.json"))
    top = run_dir / "metrics.json"
    if top.exists():
        paths.append(top)
    snapshots = []
    for path in sorted(paths, key=_mtime):
        try:
            snapshots.append(json.loads(path.read_text()))
        except (OSError, ValueError):
            continue
    return merge_snapshots(snapshots)


def _mtime(path: Path) -> float:
    try:
        return path.stat().st_mtime
    except OSError:
        return 0.0
