#!/usr/bin/env python3
"""Compare two spine result files, row by row.

    python benchmarks/spine/compare.py BASE.json NEW.json

One row per (workload, metric): base, new, the ratio new/base, the
metric's bound from ``BENCHMARK.json`` and a verdict — ``ok``,
``regressed`` (worse than base by more than the bound) or
``unresolved`` (the spread between a run's own quartiles is wider than
the bound, so the run cannot tell).  Per-layer metrics have no bound:
counts are reported as ``same`` or ``differs``, times with their ratio
only.  Runs whose seed, scanner backend or ``cpu_count`` differ are not
compared.  Exit code 1 when any row regressed, 2 when the files cannot
be compared.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: what must match before two runs are comparable
SAME_SETTING = ("seed", "scanner", "cpu_count", "traced", "smoke")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _spread(entry: dict) -> float:
    """Distance between a timing's own quartiles as a share of its median."""
    if "n" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(base: dict, new: dict, better: str, bound: float | None) -> str:
    if bound is None:
        if base["unit"] in ("count", "B"):
            return "same" if base["value"] == new["value"] else "differs"
        return "-"
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    if not base["value"]:
        return "ok" if new["value"] == base["value"] else "regressed"
    worse = (new["value"] - base["value"]) / abs(base["value"])
    if better == "higher":
        worse = -worse
    return "regressed" if worse > bound else "ok"


def compare(base: dict, new: dict, spec: dict) -> tuple[list[tuple], int]:
    """Rows ``(workload, metric, base, new, ratio, bound, verdict)`` and
    the number of regressed rows."""
    defined = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for name, base_result in base["workloads"].items():
        new_result = new["workloads"].get(name)
        if new_result is None:
            continue
        for metric, old in base_result["metrics"].items():
            entry = new_result["metrics"].get(metric)
            if entry is None or metric not in defined:
                continue
            ratio = entry["value"] / old["value"] if old["value"] else float("nan")
            bound = defined[metric].get("bound")
            rows.append(
                (name, metric, old["value"], entry["value"], ratio, bound,
                 verdict(old, entry, defined[metric]["better"], bound))
            )
    return rows, sum(row[-1] == "regressed" for row in rows)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = _load(argv[0]), _load(argv[1])
    for key in SAME_SETTING:
        if base["meta"].get(key) != new["meta"].get(key):
            print(
                f"compare: not comparable, {key} differs: "
                f"{base['meta'].get(key)!r} vs {new['meta'].get(key)!r}",
                file=sys.stderr,
            )
            return 2
    rows, regressed = compare(base, new, _load(os.path.join(ROOT, "BENCHMARK.json")))
    print(f"base {argv[0]} ({base['meta']['commit']})  "
          f"new {argv[1]} ({new['meta']['commit']})  ratio = new/base")
    print(f"{'workload':<18}{'metric':<42}{'base':>14}{'new':>14}"
          f"{'ratio':>9}{'bound':>8}  verdict")
    for name, metric, old, value, ratio, bound, word in rows:
        shown = "" if bound is None else f"{bound:g}"
        print(f"{name:<18}{metric:<42}{old:>14.6g}{value:>14.6g}"
              f"{ratio:>9.4f}{shown:>8}  {word}")
    unresolved = sum(row[-1] == "unresolved" for row in rows)
    print(f"{len(rows)} rows, {regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
