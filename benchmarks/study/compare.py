#!/usr/bin/env python3
"""Compare two sets of study-benchmark runs.

    python3 benchmarks/study/compare.py PARENT.jsonl CHANGE.jsonl \\
        [--claim METRIC@WORKLOAD]

Both files hold run records written by ``run.py --record``; traced
records are skipped.  One row per workload and end-to-end metric gives
each side's median, IQR and run count and a verdict:

* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: either side's IQR, as a share of its median, is wider
  than the bound;
* ``improved``: every run of the change beats every run of the parent
  and the medians differ by more than the parent's IQR (this also
  overrides ``unresolved``);
* ``unchanged``: none of the above.

The accuracy metrics (``run.ACCURACY``) are deterministic for a seed,
so they use bound 0: any move is reported.  Run both sides at the same
seeds.  ``--claim`` applies the gain rule to one pair: at least 10
pairs (run i of each file), the change wins at least 9 in 10 of them,
and the medians differ by more than the parent's IQR.  The exit status
is 1 when any row is worse or the claim is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import ACCURACY, BENCHMARK  # noqa: E402


def load_runs(path: Path) -> List[dict]:
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [record for record in records if not record.get("trace")]


def metric_specs() -> List[Tuple[str, str, str, float]]:
    """``(name, unit, better, bound)`` for every compared metric."""
    bench = json.loads(BENCHMARK.read_text())
    specs = [(m["name"], m["unit"], m["better"], m["bound"])
             for m in bench["end_to_end"]]
    specs += [(name, unit, better, 0.0)
              for name, (unit, better) in ACCURACY.items()]
    return specs


def values_of(runs: Sequence[dict], workload: str, name: str,
              group: str) -> List[float]:
    out = []
    for record in runs:
        metrics = record["workloads"].get(workload, {}).get(group, {})
        if name in metrics:
            out.append(metrics[name]["value"])
    return out


def iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    # A zero median (failed_frac) compares absolutely.
    base = abs(p_med) or 1.0
    worse_by = sign * (c_med - p_med) / base
    spread = max(iqr(parent) / (abs(p_med) or 1.0),
                 iqr(change) / (abs(c_med) or 1.0))
    separated = all(sign * c < sign * p for c in change for p in parent)
    if separated and sign * (p_med - c_med) > iqr(parent):
        return "improved"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "unchanged"


def claim_met(parent: Sequence[float], change: Sequence[float],
              better: str) -> Tuple[bool, str]:
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * c < sign * p for p, c in pairs)
    gap = sign * (statistics.median(parent) - statistics.median(change))
    met = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > iqr(parent)
    return met, (f"wins {wins}/{len(pairs)} pairs, median gain {gap:.6g} "
                 f"vs parent IQR {iqr(parent):.6g}")


def compare(parent_runs: List[dict], change_runs: List[dict]
            ) -> List[Dict[str, object]]:
    workloads = [w for w in parent_runs[0]["workloads"]
                 if any(w in r["workloads"] for r in change_runs)]
    rows = []
    for workload in workloads:
        for name, unit, better, bound in metric_specs():
            group = "accuracy" if name in ACCURACY else "metrics"
            parent = values_of(parent_runs, workload, name, group)
            change = values_of(change_runs, workload, name, group)
            if not parent or not change:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "better": better, "bound": bound,
                "parent": parent, "change": change,
                "verdict": verdict(parent, change, better, bound)})
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':<14} {'metric':<19} {'unit':<9} "
             f"{'parent med':>12} {'IQR':>10} {'n':>3} "
             f"{'change med':>12} {'IQR':>10} {'n':>3} {'bound':>6}  verdict"]
    for row in rows:
        parent, change = row["parent"], row["change"]
        lines.append(
            f"{row['workload']:<14} {row['metric']:<19} {row['unit']:<9} "
            f"{statistics.median(parent):>12.6g} {iqr(parent):>10.4g} "
            f"{len(parent):>3} {statistics.median(change):>12.6g} "
            f"{iqr(change):>10.4g} {len(change):>3} {row['bound']:>6.2f}  "
            f"{row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    if not parent_runs or not change_runs:
        print("error: no untraced run records on one side", file=sys.stderr)
        return 2
    seeds = (sorted(r["seed"] for r in parent_runs),
             sorted(r["seed"] for r in change_runs))
    if seeds[0] != seeds[1]:
        print(f"warning: seeds differ {seeds[0]} vs {seeds[1]}; accuracy "
              f"metrics will not match", file=sys.stderr)
    rows = compare(parent_runs, change_runs)
    print(render(rows))
    failed = any(row["verdict"] == "worse" for row in rows)
    if args.claim:
        metric, _, workload = args.claim.partition("@")
        matching = [row for row in rows if row["metric"] == metric
                    and row["workload"] == workload]
        if not matching:
            print(f"claim {args.claim}: no such metric and workload")
            return 2
        row = matching[0]
        met, detail = claim_met(row["parent"], row["change"], row["better"])
        print(f"claim {args.claim}: {'met' if met else 'NOT met'} ({detail})")
        failed = failed or not met
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
