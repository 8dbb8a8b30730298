"""Compare two ledgers written by ``run.py`` (all-workloads mode).

    python3 bench/compare.py OLD.json NEW.json

One row per (workload, end-to-end metric): both medians, both min-max
ranges over repetitions, the relative change (positive = worse) and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``regressed``  NEW's median is worse than OLD's by more than the bound;
* ``unresolved`` it is not, but the repetitions of either side spread
  (quartile distance over median) wider than the bound, so "no change"
  cannot be told from noise - unless every NEW repetition beats every
  OLD one;
* ``ok``         otherwise.

``failed_share`` must stay 0.  Counts that repeat exactly for a seed
are listed as ``same`` / ``changed`` when both ledgers used one seed.
Exit status is non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List

from metrics import EXACT_COUNTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(metric: Dict[str, Any]) -> float:
    values = metric["values"]
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / metric["value"]


def worse_by(old: Dict[str, Any], new: Dict[str, Any], better: str) -> float:
    """Relative change of the median, signed so positive is worse."""
    change = (new["value"] - old["value"]) / old["value"]
    return change if better == "lower" else -change


def verdict(
    old: Dict[str, Any], new: Dict[str, Any], better: str, bound: float
) -> str:
    if worse_by(old, new, better) > bound:
        return "regressed"
    every_new_better = (
        new["max"] < old["min"]
        if better == "lower"
        else new["min"] > old["max"]
    )
    if max(spread(old), spread(new)) > bound and not every_new_better:
        return "unresolved"
    return "ok"


def compare(old: Dict[str, Any], new: Dict[str, Any]) -> List[List[str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    rows = []
    for name, before in old["workloads"].items():
        after = new["workloads"].get(name)
        if after is None:
            rows.append([name, "-", "", "", "", "", "", "regressed"])
            continue
        for spec in end_to_end:
            a = before["end_to_end"][spec["name"]]
            b = after["end_to_end"][spec["name"]]
            rows.append(
                [
                    name,
                    spec["name"],
                    "%.4f" % a["value"],
                    "%.4f..%.4f" % (a["min"], a["max"]),
                    "%.4f" % b["value"],
                    "%.4f..%.4f" % (b["min"], b["max"]),
                    "%+.1f%%" % (worse_by(a, b, spec["better"]) * 100.0),
                    verdict(a, b, spec["better"], spec["bound"]),
                ]
            )
        rows.append(
            [
                name,
                "failed_share",
                "%d/%d" % (before["failed"], before["attempted"]),
                "",
                "%d/%d" % (after["failed"], after["attempted"]),
                "",
                "",
                "regressed" if after["failed"] else "ok",
            ]
        )
        if old["seed"] != new["seed"]:
            continue
        for count in EXACT_COUNTS:
            a = before["per_layer"][count]["value"]
            b = after["per_layer"][count]["value"]
            rows.append(
                [
                    name, count, "%g" % a, "", "%g" % b, "", "",
                    "same" if a == b else "changed",
                ]
            )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path) as handle:
            ledgers.append(json.load(handle))
    rows = compare(*ledgers)
    header = [
        "workload", "metric", "old", "old min..max", "new", "new min..max",
        "worse by", "verdict",
    ]
    widths = [
        max(len(row[i]) for row in [header] + rows)
        for i in range(len(header))
    ]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
