"""Compare two sets of benchmark runs, or check one set for steadiness.

    python3 bench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds run records appended by ``bench/run.py --out FILE``; only
untraced runs are read.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.

With one file, a metric is ``steady`` when its spread is below a third of
its bound.  With two, the verdict is ``better`` when every run of the change
beats every base run, ``unresolved`` when either side's spread is wider
than the bound, ``worse`` when the change's median is worse than the base
median by more than the bound, and ``agree`` otherwise.  The exit code is 1
when any verdict is ``worse``, ``unresolved`` or not ``steady``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> dict:
    """workload -> metric -> list of values, from untraced run records."""
    by_workload = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            metrics = by_workload.setdefault(record["workload"], {})
            for name, metric in record["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return by_workload


def summary(values) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def verdict(base, change, bound: float, better: str) -> str:
    lower = better == "lower"
    if (max(change) < min(base)) if lower else (min(change) > max(base)):
        return "better"
    b, c = summary(base), summary(change)
    if b["spread"] > bound or c["spread"] > bound:
        return "unresolved"
    worsening = (c["median"] - b["median"]) / b["median"]
    if not lower:
        worsening = -worsening
    return "worse" if worsening > bound else "agree"


def _fmt(s: dict) -> str:
    return (f"n={s['n']:<3d} median={s['median']:<12.6g} "
            f"q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} spread={s['spread']:.4f}")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sides = [load_runs(path) for path in argv]
    failing = 0
    for workload in sorted(set().union(*sides)):
        print(f"[{workload}]")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [side.get(workload, {}).get(name) for side in sides]
            if not all(values):
                print(f"  {name:12s} missing")
                failing += 1
                continue
            if len(sides) == 1:
                s = summary(values[0])
                state = "steady" if s["spread"] < bound / 3 else "NOT steady"
                failing += state != "steady"
                print(f"  {name:12s} {_fmt(s)}  bound={bound}  {state}")
                continue
            v = verdict(values[0], values[1], bound, metric["better"])
            failing += v in ("worse", "unresolved")
            print(f"  {name:12s} base   {_fmt(summary(values[0]))}")
            print(f"  {'':12s} change {_fmt(summary(values[1]))}  "
                  f"bound={bound}  {v}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
