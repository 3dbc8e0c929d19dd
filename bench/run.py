"""Benchmark of the cyclomap library and CLI.

    python3 bench/run.py --workload {sweep,large-q,wrapped,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
One process drives one operation at a time (a closed loop with one client):
sweeps run with ``jobs=1`` and CLI commands run one after another.

A pass runs every operation of the workload once.  With ``--trace 0`` the
run repeats whole passes for about ``--seconds`` (at least two) and prints
the end-to-end metrics, taken at each operation's fastest run; a job's
latency is the sum of those fastest runs over its operations.  Passes and
set-up probes take turns on the CPUs the process may use.  With
``--trace 1`` each operation of a pass runs once untraced and once traced,
in alternating order, and the run prints the per-layer metrics of the
traced runs plus the tracing overhead.  Every
output is checked in both modes.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a run
record with the environment and the samples is appended to ``--out``.
The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_ROUNDS = 9
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
MAX_ERRORS_KEPT = 20


def _import_package():
    """Import cyclomap from this checkout's src/, or exit 2."""
    sys.path.insert(0, SRC)
    try:
        import cyclomap
    except ImportError as exc:
        print(f"error: cannot import cyclomap from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(cyclomap.__file__).startswith(SRC + os.sep):
        print(f"error: cyclomap was imported from {cyclomap.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# Run record: what ran, where, and how loaded the machine was.
# ---------------------------------------------------------------------------

def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over src/cyclomap/*.py, which names the code when git cannot."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cyclomap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def reference_loop_s() -> float:
    """Best of three timings of a fixed pure-Python loop.

    On a shared virtual machine a neighbour can slow this process without
    raising the load average; the loop's time, taken at the start and the
    end of a run, shows such drift between runs.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


def _environment() -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "reference_loop_s_start": reference_loop_s(),
    }


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten samples above its rank;
    the maximum when there are too few samples for any."""
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            return p
    return 100


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

class Outcome:
    """Counts checked operations and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, op, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"{op.label}: {'; '.join(errors)}")


def _timed(workload, op, traced, outcome, tracer):
    clock = time.perf_counter
    if traced and tracer is not None:
        tracer.install()
    start = clock()
    try:
        errors, record = workload.run_op(op, traced)
    except Exception as exc:  # a crash fails this operation, not the run
        errors, record = [f"raised {type(exc).__name__}: {exc}"], None
    finally:
        elapsed = clock() - start
        if traced and tracer is not None:
            tracer.uninstall()
    outcome.add(op, errors)
    return elapsed, record


class CpuRotation:
    """Moves this process, and the children it starts next, to the next of
    the CPUs it may run on.

    On a shared virtual machine each virtual CPU is slowed by neighbours on
    its own, often for seconds while another runs at full speed, so the
    passes and set-up probes of a run take turns on every CPU.
    """

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.turn = 0

    def next(self):
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.turn += 1


def measure_untraced(workload, seconds: float, outcome: Outcome,
                     rotation: CpuRotation):
    """Whole passes until the next would overrun ``seconds`` (at least two),
    each on the next CPU."""
    ops = workload.ops
    start = time.perf_counter()
    if workload.in_process:
        for op in ops:  # warm-up pass: checked, not timed
            _timed(workload, op, False, outcome, None)
    walls, latencies = [], []
    while True:
        rotation.next()
        pass_start = time.perf_counter()
        latencies.append([_timed(workload, op, False, outcome, None)[0]
                          for op in ops])
        walls.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if len(walls) >= 2 and elapsed + statistics.median(walls) > seconds:
            return walls, latencies


def measure_traced(workload, seconds: float, outcome: Outcome):
    """Passes of (untraced, traced) pairs per operation, order alternating."""
    from tracer import Tracer, merge_aggregates

    tracer = Tracer() if workload.in_process else None
    ops = workload.ops
    start = time.perf_counter()
    passes = []
    while True:
        if tracer is not None:
            tracer.clear()
        untraced = traced = 0.0
        records, first_span = [], []
        for i, op in enumerate(ops):
            if tracer is not None:
                first_span.append(len(tracer.span_start))
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                elapsed, record = _timed(workload, op, is_traced, outcome, tracer)
                if is_traced:
                    traced += elapsed
                    if record is not None:
                        records.append((i, record))
                else:
                    untraced += elapsed
        if tracer is not None:
            aggregate = tracer.aggregate()
        else:
            aggregate = merge_aggregates(rec for _, rec in records)
            aggregate["import_s"] = sum(rec["import_s"] for _, rec in records)
        passes.append({"untraced_s": untraced, "traced_s": traced,
                       "aggregate": aggregate})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["traced_s"] + p["untraced_s"]
                                       for p in passes) > seconds:
            break
    # the spans of the last pass, by operation; parents index that op's rows
    if tracer is not None:
        bounds = first_span + [len(tracer.span_start)]
        span_rows = ((i, row) for i in range(len(ops))
                     for row in tracer.span_rows(bounds[i], bounds[i + 1]))
    else:
        span_rows = ((i, row) for i, rec in records for row in rec["span_rows"])
    return passes, span_rows


def measure_setup(workload_name: str, seed: int,
                  rotation: CpuRotation) -> list[float]:
    """Set-up seconds of fresh interpreters, each importing and preparing.

    Each round starts one interpreter on each CPU and keeps the fastest, so
    a round reads the same whichever CPU a neighbour is slowing.
    """
    rounds = []
    for _ in range(SETUP_ROUNDS):
        times = []
        for _ in range(max(1, len(rotation.cpus))):
            rotation.next()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--setup-probe", "--workload", workload_name,
                 "--seed", str(seed)],
                capture_output=True, text=True, cwd=ROOT, timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"set-up probe failed: {proc.stderr.strip()[-300:]}")
            times.append(float(proc.stdout.split()[-1]))
        rounds.append(min(times))
    return rounds


def alloc_peaks_mb(field_ids) -> dict[str, float]:
    """tracemalloc peak of a cold build of each field, in a fresh interpreter."""
    peaks = {}
    for field_id in sorted(set(field_ids)):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "launch.py"), "--alloc",
             field_id],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"alloc probe failed: {proc.stderr.strip()[-300:]}")
        peaks[field_id] = int(proc.stdout.split()[-1]) / 2**20
    return peaks


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def _job_sums(ops, latencies) -> list[float]:
    """Per job, the sum of its operations' latencies."""
    sums = {}
    for op, latency in zip(ops, latencies):
        sums[op.job] = sums.get(op.job, 0.0) + latency
    return list(sums.values())


def end_to_end_metrics(workload, setup_samples, walls, pass_latencies):
    """Best-of-passes statistics of an untraced run.

    On a shared virtual machine another tenant can only add time, in spells
    from milliseconds to minutes, and a short operation often runs between
    them where a long one cannot.  So each operation is taken at its fastest
    over the passes, and a job's latency and the pass time are sums of those
    fastest runs.
    """
    ops = workload.ops
    best = [min(lat[i] for lat in pass_latencies) for i in range(len(ops))]
    jobs = _job_sums(ops, best)
    items_per_pass = sum(op.items for op in ops)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tail_p = tail_percentile(len(jobs))
    wall = sum(best)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (items_per_pass / wall, "1/s"),
        "op_p50_ms": (percentile(jobs, 50) * 1e3, "ms"),
        "op_tail_ms": (percentile(jobs, tail_p) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    samples = {"passes": len(walls), "ops_per_pass": len(ops),
               "jobs_per_pass": len(jobs), "tail_percentile": tail_p,
               "items_per_pass": items_per_pass,
               "setup_rounds_s": setup_samples, "pass_walls_s": walls,
               "pass_job_latencies_s": [_job_sums(ops, lat)
                                        for lat in pass_latencies],
               "best_job_latencies_s": jobs}
    return metrics, samples


def per_layer_metrics(workload, passes, alloc_mb):
    def med(fn):  # a value of one pass, so counts stay whole numbers
        return statistics.median_low(fn(p["aggregate"]) for p in passes)

    def calls(layer):
        return med(lambda a: a["calls"].get(layer, 0))

    def self_s(layer):
        return med(lambda a: a["self_s"].get(layer, 0.0))

    def counter(key):
        return med(lambda a: a["counters"].get(key, 0))

    crit_calls = calls("mto1.criterion")
    applicable = counter("mto1.criterion.applicable")
    metrics = {
        "gf.make_field.calls": (calls("gf.make_field"), "count"),
        "gf.make_field.self_s": (self_s("gf.make_field"), "s"),
        "gf.make_field.alloc_mb": (alloc_mb, "MB"),
        "cyclotomic.branchmap.calls": (calls("cyclotomic.branchmap"), "count"),
        "cyclotomic.branchmap.self_s": (self_s("cyclotomic.branchmap"), "s"),
        "mto1.oracle.calls": (calls("mto1.oracle"), "count"),
        "mto1.oracle.points": (counter("mto1.oracle.points"), "count"),
        "mto1.oracle.self_s": (self_s("mto1.oracle"), "s"),
        "mto1.criterion.calls": (crit_calls, "count"),
        "mto1.criterion.applicable": (applicable, "count"),
        "mto1.criterion.skipped": (counter("mto1.criterion.skipped"), "count"),
        "mto1.criterion.applicable_ratio": (
            applicable / crit_calls if crit_calls else 0.0, "ratio"),
        "mto1.criterion.self_s": (self_s("mto1.criterion"), "s"),
        "mto1.exceptional.calls": (calls("mto1.exceptional"), "count"),
        "mto1.exceptional.self_s": (self_s("mto1.exceptional"), "s"),
        "unitary.reduce.calls": (calls("unitary.reduce"), "count"),
        "unitary.reduce.self_s": (self_s("unitary.reduce"), "s"),
        "unitary.criterion.calls": (calls("unitary.criterion"), "count"),
        "unitary.criterion.self_s": (self_s("unitary.criterion"), "s"),
        "unitary.family.calls": (calls("unitary.family"), "count"),
        "unitary.family.self_s": (self_s("unitary.family"), "s"),
        "search.driver.self_s": (self_s("search.driver"), "s"),
        "search.maps": (calls("cyclotomic.branchmap"), "count"),
        "search.cases": (counter("search.cases"), "count"),
        "notation.parse.self_s": (self_s("notation.parse"), "s"),
        "cli.import_s": (med(lambda a: a.get("import_s", 0.0)), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.wall_s": (statistics.median_low(p["traced_s"] for p in passes), "s"),
        "trace.overhead_s": (statistics.median_low(
            p["traced_s"] - p["untraced_s"] for p in passes), "s"),
    }
    samples = {"passes": len(passes), "ops": len(passes) * len(workload.ops),
               "spans_per_pass": med(lambda a: a["spans"])}
    return metrics, samples


def _alloc_mb(workload, passes) -> float:
    """Cold field-build allocation per pass: each CLI process builds its
    fields from nothing; an in-process workload builds each field once."""
    if workload.in_process:
        fields = workload.fields
    else:
        fields = passes[-1]["aggregate"]["fields"]
    peaks = alloc_peaks_mb(fields)
    return sum(peaks[f] for f in fields)


def _write_spans(path: str, span_rows):
    """One row per span: the operation's index in the pass, the layer, start
    and end in perf_counter seconds of the process that ran it, and the
    parent's row number among that operation's rows (-1 for none)."""
    with open(path, "w") as fh:
        fh.write("op\tlayer\tstart_s\tend_s\tparent\n")
        for op_index, (layer, start, end, parent) in span_rows:
            fh.write(f"{op_index}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\n")


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "large-q", "wrapped", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out",
                                                      "results.jsonl"),
                        help="JSON-lines file the run record is appended to")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in turn, each in its own process, and sum up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("sweep", "large-q", "wrapped"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", args.out],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    start = time.perf_counter()
    _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.setup(args.seed)
        print(time.perf_counter() - start)
        return 0

    env = _environment()
    env["seed"] = args.seed
    rotation = CpuRotation()
    if not args.trace:
        setup_samples = measure_setup(args.workload, args.seed, rotation)
    workload.setup(args.seed)
    outcome = Outcome()
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        passes, span_rows = measure_traced(workload, args.seconds, outcome)
        metrics, samples = per_layer_metrics(workload, passes,
                                             _alloc_mb(workload, passes))
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")
        _write_spans(spans_path, span_rows)
    else:
        walls, latencies = measure_untraced(workload, args.seconds, outcome,
                                            rotation)
        metrics, samples = end_to_end_metrics(workload, setup_samples, walls,
                                              latencies)
    env["loadavg_end"] = list(os.getloadavg())
    env["reference_loop_s_end"] = reference_loop_s()
    correct = outcome.failed == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {env['commit']}  source {env['source_sha256']}  "
          f"python {env['python']}  nproc {env['nproc']}")
    print(f"load average: start {env['loadavg_start'][0]:.2f}  "
          f"end {env['loadavg_end'][0]:.2f}   reference loop: start "
          f"{env['reference_loop_s_start']:.4f}s  end {env['reference_loop_s_end']:.4f}s")
    print("samples: " + "  ".join(f"{k} {v}" for k, v in samples.items()
                                  if not isinstance(v, list)))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(f"  {'error_rate':34s} {outcome.failed / outcome.attempted:14.6f} ratio"
          f"  ({outcome.failed} of {outcome.attempted} operations)")
    for error in outcome.errors:
        print(f"FAILED {error}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "samples": samples,
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "errors": outcome.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
