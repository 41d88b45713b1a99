"""Compare two result sets, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory holding one ``<workload>.jsonl`` file per
workload, each line the result line `run.py` printed for one run.  Line i of
the parent and line i of the change form pair i, so make the runs in
alternating order (parent first for even i, change first for odd i) and with
the same ``--seconds`` and seeds on both sides, e.g.

    python3 perfbench/run.py --workload sweep-deep --seed 7 --seconds 25 \\
        --trace 0 | tail -n 1 >> ../results/parent/sweep-deep.jsonl

Verdicts, by the rule of the benchmark's README:

* ``improved``: the change wins at least 9/10 of at least 10 pairs (ties
  count for neither side), its median is better than the parent's by more
  than the parent's interquartile spread, and no more operations failed;
* ``regressed``: the same with the sides swapped;
* ``unresolved``: anything else.

For an end-to-end metric the bound check is also given: ``ok`` when the
change's median is no worse than the parent's by more than the metric's
bound, ``worse`` when it is, and ``unresolved`` when the parent's own spread
is wider than the bound, unless every change run beats every parent run.
There is no combined score.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    pairs: int
    parent_median: float
    change_median: float
    parent_iqr: float
    wins: int
    losses: int
    verdict: str
    bound_check: str


def load_set(directory: str) -> dict[str, list[dict]]:
    runs = {}
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".jsonl"):
            with open(os.path.join(directory, entry)) as fh:
                runs[entry[: -len(".jsonl")]] = [json.loads(line) for line in fh if line.strip()]
    return runs


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare_metric(parent: list[float], change: list[float], lower_is_better: bool,
                   bound: float | None, more_failures: bool) -> tuple:
    """Pairs, medians, parent spread, wins, losses, verdict and bound check
    for one metric on one workload."""
    n = min(len(parent), len(change))
    sign = 1.0 if lower_is_better else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    apart = abs(c_med - p_med) > spread
    verdict = "unresolved"
    if n >= MIN_PAIRS and apart:
        if wins >= WIN_SHARE * n and sign * (p_med - c_med) > 0 and not more_failures:
            verdict = "improved"
        elif losses >= WIN_SHARE * n and sign * (c_med - p_med) > 0:
            verdict = "regressed"
    bound_check = "-"
    if bound is not None:
        worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else float("inf")
        all_better = max(sign * c for c in change) < min(sign * p for p in parent)
        if spread / abs(p_med) > bound and not all_better:
            bound_check = "unresolved"
        else:
            bound_check = "ok" if worse_by <= bound else "worse"
    return n, p_med, c_med, spread, wins, losses, verdict, bound_check


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> list[Row]:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload in sorted(w for w in set(parent) & set(change) if parent[w] and change[w]):
        p_runs, c_runs = parent[workload], change[workload]
        more_failures = sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        metrics = sorted(set(p_runs[0]["metrics"]) & set(c_runs[0]["metrics"]) & set(declared))
        for name in metrics:
            m = declared[name]
            result = compare_metric(
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                m["better"] == "lower",
                m.get("bound"),
                more_failures,
            )
            rows.append(Row(workload, name, *result))
    return rows


def format_rows(rows: list[Row]) -> str:
    header = f"{'workload':<18} {'metric':<48} {'pairs':>5} {'parent':>12} {'change':>12} " \
             f"{'parent IQR':>11} {'wins':>4} {'loss':>4}  verdict     bound"
    lines = [header]
    for r in rows:
        lines.append(f"{r.workload:<18} {r.metric:<48} {r.pairs:>5} {r.parent_median:>12.6g} "
                     f"{r.change_median:>12.6g} {r.parent_iqr:>11.4g} {r.wins:>4} {r.losses:>4}  "
                     f"{r.verdict:<11} {r.bound_check}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result sets")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    rows = compare(load_set(args.parent), load_set(args.change), spec)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
