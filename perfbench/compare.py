"""Judge sets of benchmark runs against the bounds in ``BENCHMARK.json``.

A set is the result lines of one workload's runs, one seed each.  For
every end-to-end metric :func:`judge` reports the set's median and its
spread (quartile distance over median, from ``statistics.quantiles``).
Given a baseline set as well, it also reports how far the median moved
in the metric's worse direction.  A set passes when every spread except
``setup_s``'s is within the metric's bound and, with a baseline, no median
got worse by more than the bound.

Run ``sweep.py`` to produce the sets; then::

    python3 perfbench/compare.py CANDIDATE.jsonl [BASELINE.jsonl]

prints one row per workload and metric and exits 1 if a check fails.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from common import benchmark_spec


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else float("inf")


def worsening(candidate: float, baseline: float, better: str) -> float:
    """Share by which ``candidate`` is worse than ``baseline`` (<0: better)."""
    change = (candidate - baseline) / baseline
    return change if better == "lower" else -change


def judge(runs: list[dict],
          baseline: list[dict] | None = None) -> list[dict]:
    """One row per end-to-end metric; each row says whether it passes."""
    rows = []
    for entry in benchmark_spec()["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        values = [run["metrics"][name]["value"] for run in runs]
        row = {"metric": name, "bound": bound,
               "median": statistics.median(values),
               "spread": spread(values), "ok": True, "why": []}
        if name != "setup_s" and row["spread"] > bound:
            row["ok"] = False
            row["why"].append(f"spread {row['spread']:.3f} > {bound}")
        if not all(run["correct"] for run in runs):
            row["ok"] = False
            row["why"].append("a run failed its output check")
        if baseline is not None:
            before = statistics.median(
                run["metrics"][name]["value"] for run in baseline)
            row["worse_by"] = worsening(row["median"], before,
                                        entry["better"])
            if row["worse_by"] > bound:
                row["ok"] = False
                row["why"].append(f"median worse by {row['worse_by']:.3f} "
                                  f"> {bound}")
        rows.append(row)
    return rows


def load(path: Path) -> dict[str, list[dict]]:
    """Result lines of a JSONL file written by ``sweep.py``, by workload."""
    sets: dict[str, list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            sets.setdefault(record["workload"], []).append(record["result"])
    return sets


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    candidate = load(Path(argv[0]))
    baseline = load(Path(argv[1])) if len(argv) == 2 else {}
    failed = False
    for workload, runs in candidate.items():
        for row in judge(runs, baseline.get(workload)):
            worse = (f" worse_by={row['worse_by']:+.3f}"
                     if "worse_by" in row else "")
            print(f"{workload:8s} {row['metric']:14s} n={len(runs):2d} "
                  f"median={row['median']:.6g} spread={row['spread']:.3f} "
                  f"bound={row['bound']}{worse} "
                  f"{'ok' if row['ok'] else 'FAIL ' + '; '.join(row['why'])}")
            failed |= not row["ok"]
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
