"""Self-test of the benchmark.

    python3 bench/selftest.py

For every workload it checks that two traced runs on one seed report
identical counts, that a second seed passes every output check, and, on
``sweep``, that the self times of the branch-map, oracle, criterion and
driver layers add up to the traced wall time within the tracing overhead.
Runs are short (one pass each); the exit code is 0 only if all checks hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "out", "selftest.jsonl")
SWEEP_LAYERS = ("cyclotomic.branchmap.self_s", "mto1.oracle.self_s",
                "mto1.criterion.self_s", "search.driver.self_s")


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--out", OUT],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    problems = []
    for workload in ("sweep", "large-q", "wrapped"):
        first, second = run(workload, 1, 1), run(workload, 1, 1)
        counts = {k: v["value"] for k, v in first["metrics"].items()
                  if v["unit"] == "count"}
        again = {k: v["value"] for k, v in second["metrics"].items()
                 if v["unit"] == "count"}
        if counts != again:
            problems.append(f"{workload}: counts differ between runs on one "
                            f"seed: {counts} vs {again}")
        other = run(workload, 2, 0)
        if not other["correct"] or other["failed"]:
            problems.append(f"{workload}: seed 2 failed its output checks")
        if workload == "sweep":
            m = {k: v["value"] for k, v in first["metrics"].items()}
            attributed = sum(m[k] for k in SWEEP_LAYERS)
            gap = abs(m["trace.wall_s"] - attributed)
            if gap > max(m["trace.overhead_s"], 0.0):
                problems.append(
                    f"sweep: layer self times sum to {attributed:.4f}s, traced "
                    f"wall {m['trace.wall_s']:.4f}s, gap {gap:.4f}s exceeds the "
                    f"tracing overhead {m['trace.overhead_s']:.4f}s")
        print(f"{workload}: {len(counts)} counts repeat: {counts == again}; "
              f"seed 2 correct: {other['correct']}")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
