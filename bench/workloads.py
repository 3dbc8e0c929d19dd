"""The benchmark's three workloads: inputs made from a seed, and checks.

Each workload builds a fixed list of operations in ``setup(seed)``; one
pass runs every operation once.  ``run_op(op, traced)`` runs one operation
and returns the list of its failed checks (empty when the output is right)
and, for CLI commands run traced, the child's trace record.  Operations are
grouped into jobs: in ``sweep`` and ``wrapped`` a job is a fixed mix of
specs or instances, each of them one operation; in ``large-q`` a job is one
command.

- ``sweep``: ``differential_verify`` over fields with q <= 29, in the shapes
  of the acceptance sweeps, so per-map work dominates.
- ``large-q``: ``cyclomap`` CLI processes on fields of 2^14 to 2^20
  elements, so cold field construction and the oracle's per-point loop
  dominate.
- ``wrapped``: maps on GF(q^2) decided on the unit circle, the only path
  through ``unitary``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys

from tracer import TRACE_MARK

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 1
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference", "large-q.json")


class Op:
    """One timed operation of a pass: what it runs, how many items it
    checks, and the job it belongs to."""

    __slots__ = ("label", "items", "payload", "job")

    def __init__(self, label: str, items: int, payload, job: int):
        self.label = label
        self.items = items
        self.payload = payload
        self.job = job


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _field_q(field_id: str) -> int:
    p, _, n = field_id.partition("^")
    return int(p) ** int(n or 1)


# A job runs this mix of specs, one operation per spec.  Exhaustive windows:
# (criterion, field, ell, a window width, r range); each window's position in
# the constant range comes from the seed.  Seeded samples: (criterion, field,
# ell, samples).  Specs of different shapes differ in cost by up to 3x, so a
# job's latency, not a spec's, is what repeats across seeds.
SWEEP_WINDOWS = (
    ("2to1", "17", 4, 1, (1, 3)),
    ("2to1", "13", 3, 1, (1, 6)),
    ("l3", "13", 3, 1, (1, 4)),
)
SWEEP_SAMPLES = (
    ("l2", "17", 2, 80),
    ("l2", "5^2", 2, 80),
    ("l2", "29", 2, 80),
    ("l3", "19", 3, 60),
    ("l3", "5^2", 3, 60),
    ("equal-d", "13", 3, 50),
    ("equal-d", "13", 4, 50),
    ("equal-d", "17", 4, 50),
    ("equal-d", "5^2", 6, 50),
)
SWEEP_JOBS = 40


class Sweep:
    name = "sweep"
    in_process = True

    def setup(self, seed: int):
        from cyclomap import search
        from cyclomap.notation import field_from_id

        self.search = search
        rng = random.Random(seed)
        self.ops = []
        for job in range(SWEEP_JOBS):
            for criterion, field_id, ell, width, r_range in SWEEP_WINDOWS:
                q = _field_q(field_id)
                maps = (width * (r_range[1] - r_range[0] + 1)) ** ell
                ms = 1 if criterion == "2to1" else q - 1
                a_lo = rng.randrange(q - 1 - width + 1)
                spec = search.SweepSpec(
                    criterion=criterion, field_id=field_id, ell=ell,
                    r_range=r_range, a_exp_range=(a_lo, a_lo + width - 1),
                    cap=50_000_000,
                )
                self.ops.append(Op(f"job{job}/{criterion}/{field_id}/l{ell}/exhaustive",
                                   maps, (spec, maps * ms), job))
            for criterion, field_id, ell, samples in SWEEP_SAMPLES:
                q = _field_q(field_id)
                spec = search.SweepSpec(
                    criterion=criterion, field_id=field_id, ell=ell,
                    r_range=(1, q - 1), mode="random", samples=samples,
                    seed=rng.randrange(1 << 32),
                )
                self.ops.append(Op(f"job{job}/{criterion}/{field_id}/l{ell}/random",
                                   samples, (spec, samples), job))
        self.fields = sorted({op.payload[0].field_id for op in self.ops})
        for field_id in self.fields:
            field_from_id(field_id)

    def run_op(self, op: Op, traced: bool):
        spec, cases = op.payload
        report = self.search.differential_verify(spec)
        errors = []
        if report.mismatches:
            errors.append(f"{len(report.mismatches)} mismatches")
        # every case of these shapes is decidable, so all are applicable
        if report.total_cases != cases or report.applicable_cases != cases:
            errors.append(
                f"cases {report.total_cases}/{report.applicable_cases}, "
                f"expected {cases}/{cases}"
            )
        return errors, None


# ---------------------------------------------------------------------------
# wrapped
# ---------------------------------------------------------------------------

# A job checks this mix, one operation per instance: named-family instances,
# then random wrapped maps per q.  Instance costs differ by up to 2x within
# one q, so a job's latency, not an instance's, is what repeats across seeds.
WRAPPED_JOB_FAMILIES = (("CBU", 6), ("CB0", 6), ("CTA", 6), ("CTAB", 6),
                        ("CTKUV", 6))
WRAPPED_JOB_RANDOM = ((7, 25), (9, 16), (32, 5), (64, 1))
WRAPPED_JOBS = 3


def _family_params(name: str, rng: random.Random, unitary):
    """One draw of parameters for a named family, or None if none exist."""
    from cyclomap.cyclotomic import unit_circle

    def coprime_r(q):
        while True:
            r = 1 + rng.randrange(q * q - 1)
            if math.gcd(r, q - 1) == 1:
                return r

    if name in ("CBU", "CB0"):
        q = rng.choice((5, 7, 9, 11, 13))
        F = unitary.ext_field_for(q)
        unit = unit_circle(F, q)
        return q, {"q": q, "r": coprime_r(q), "u": rng.randrange((q + 1) // 2),
                   "a": unit.element(rng.randrange(q + 1))}
    if name in ("CTA", "CTAB"):
        q = rng.choice((7, 11))
        F = unitary.ext_field_for(q)
        params = {"q": q, "r": coprime_r(q), "u": 1 + rng.randrange((q + 1) // 2 - 1),
                  "v": rng.randrange(2)}
        if name == "CTA":
            four = F.from_int(4)
            choices = [a for a in range(1, F.q) if F.pow(a, q + 1) == four]
            params["a"] = rng.choice(choices)
            return q, params
        minus1 = F.neg(1)
        a = rng.choice([a for a in range(1, F.q) if F.pow(a, q - 1) == minus1])
        target = F.sub(1, F.mul(a, a))
        bs = [b for b in range(1, F.q) if F.pow(b, q + 1) == target]
        if not bs:
            return None
        params.update(a=a, b=rng.choice(bs))
        return q, params
    q = rng.choice((5, 11))  # CTKUV needs q = 2 (mod 3)
    F = unitary.ext_field_for(q)
    unit = unit_circle(F, q)
    t3 = (q + 1) // 3
    k = 1 + rng.randrange(2)
    shell = F.sub(1, F.pow(unit.element(t3), k))
    return q, {"q": q, "r": coprime_r(q), "u": 1 + rng.randrange(t3 - 1),
               "v": rng.randrange(2), "k": k,
               "a": F.mul(shell, unit.element(rng.randrange(q + 1)))}


class Wrapped:
    name = "wrapped"
    in_process = True

    def setup(self, seed: int):
        from cyclomap import unitary

        self.unitary = unitary
        rng = random.Random(seed)
        self.ops = []
        for job in range(WRAPPED_JOBS):
            for check in self._family_checks(rng) + self._random_checks(rng):
                label = check[1] if check[0] == "family" else "random"
                self.ops.append(Op(f"job{job}/{label}/q{check[2]}", 1, check, job))
        qs = sorted({op.payload[2] for op in self.ops})
        self.fields = [unitary.ext_field_for(q).id_str() for q in qs]

    def _family_checks(self, rng):
        from cyclomap.errors import (
            ConstraintViolated,
            HypothesisViolated,
            RootOnUnitCircle,
        )

        checks = []
        for name, count in WRAPPED_JOB_FAMILIES:
            fn_name = f"family_{name.lower()}"
            found = 0
            while found < count:
                drawn = _family_params(name, rng, self.unitary)
                if drawn is None:
                    continue
                q, params = drawn
                try:
                    getattr(self.unitary, fn_name)(**params)
                except (ConstraintViolated, HypothesisViolated, RootOnUnitCircle):
                    continue
                found += 1
                checks.append(("family", fn_name, q, params))
        return checks

    def _random_checks(self, rng):
        from cyclomap.cyclotomic import Polynomial, unit_circle
        from cyclomap.errors import ConstraintViolated, RootOnUnitCircle

        unitary = self.unitary
        checks = []
        for q, count in WRAPPED_JOB_RANDOM:
            F = unitary.ext_field_for(q)
            unit = unit_circle(F, q)
            found = 0
            while found < count:
                # full degree q, so instances of one q cost about the same
                h = Polynomial(F, [rng.randrange(F.q) for _ in range(q + 1)])
                r = 1 + rng.randrange(F.q - 1)
                if h.is_zero() or math.gcd(r, q - 1) != 1:
                    continue
                try:
                    wm = unitary.make_wrapped(q, r, h, field=F, unit=unit)
                except (ConstraintViolated, RootOnUnitCircle):
                    continue
                found += 1
                checks.append(("random", wm, q))
        return checks

    def run_op(self, op: Op, traced: bool):
        error = self._check(op.payload)
        return ([error] if error else []), None

    def _check(self, check):
        unitary = self.unitary
        if check[0] == "family":
            _, fn_name, q, params = check
            result = getattr(unitary, fn_name)(**params)
            oracle = unitary.classify_wrapped(result.wrapped).valid_ms
            window = {m for m in oracle if m <= q + 1}
            if set(result.predicted_ms) != window:
                return (f"{fn_name} q={q}: predicted {sorted(result.predicted_ms)}, "
                        f"oracle {sorted(window)}")
            return None
        _, wm, q = check
        oracle = unitary.classify_wrapped(wm).valid_ms
        wrong = [m for m in range(1, q + 2)
                 if unitary.criterion_wrapped(wm, m).holds != (m in oracle)]
        if wrong:
            return f"q={q} r={wm.r}: criterion_wrapped disagrees with the oracle at m={wrong}"
        return None


# ---------------------------------------------------------------------------
# large-q
# ---------------------------------------------------------------------------

# cyc-classify slots: (field, ell, branch multiplicities, domain).  Branch
# images are drawn pairwise disjoint, so equal multiplicities d give a
# d-to-1 map, whose exceptional sets the command lists, and mixed ones give
# no valid m; every seed then has the same histogram shape and cost.
# 2^17 - 1 and 2^19 - 1 are prime, so no index in 2..5 divides them.
LARGE_Q_MAPS = (
    ("2^16", 3, (1, 5, 5), "fqstar"),
    ("2^16", 5, (3, 3, 3, 3, 3), "fq"),
    ("2^18", 3, (3, 3, 3), "fqstar"),
    ("2^20", 3, (1, 5, 5), "fqstar"),
    ("2^20", 5, (3, 3, 3, 3, 3), "fqstar"),
    ("1048573", 2, (2, 2), "fq"),
    ("1048573", 4, (1, 3, 1, 3), "fqstar"),
)
LARGE_Q_FIELD_INFO = ("2^20", "3^10", "5^7")
LARGE_Q_POLY_FIELD = "2^14"


def _coprime_multiple(rng, d: int, s: int, N: int) -> int:
    """An exponent r < N with gcd(r, s) == d exactly."""
    while True:
        r = d * (1 + rng.randrange((N - 1) // d))
        if math.gcd(r, s) == d:
            return r


def expected_histogram(N: int, ell: int, log_scales, rs, include_zero: bool):
    """Preimage-count histogram of a branch map, from residue classes alone.

    Branch i sends its coset onto the exponents e = off_i (mod ell*d_i),
    hitting each d_i times, with off_i = i*r_i + log a_i and d_i =
    gcd(r_i, N/ell).  The fiber at e therefore depends only on e mod
    L = ell*lcm(d_i), and each residue stands for N/L exponents.
    """
    s = N // ell
    ds = [math.gcd(r, s) for r in rs]
    offs = [(i * r + la) % N for i, (r, la) in enumerate(zip(rs, log_scales))]
    L = ell * math.lcm(*ds)
    hist = {}
    for e in range(L):
        c = sum(d for d, off in zip(ds, offs) if (e - off) % (ell * d) == 0)
        if c:
            hist[c] = hist.get(c, 0) + N // L
    if include_zero:
        hist[1] = hist.get(1, 0) + 1
    return hist


def _branch_map_input(rng, q: int, ell: int, ds):
    """(log scales, exponents) of a map whose branch images are disjoint."""
    N = q - 1
    s = N // ell
    rs = [_coprime_multiple(rng, d, s, N) for d in ds]
    mods = [ell * d for d in ds]
    targets = []
    for n in mods:  # image i is the class targets[i] mod ell*d_i
        while True:
            t = rng.randrange(n)
            if all((t - u) % math.gcd(n, m) for u, m in zip(targets, mods)):
                targets.append(t)
                break
    return [((t - i * r) % n) + n * rng.randrange(N // n)
            for i, (t, r, n) in enumerate(zip(targets, rs, mods))], rs


def large_q_commands(seed: int):
    """The CLI commands of one pass and, for cyc-classify, what they must print."""
    rng = random.Random(seed)
    cmds = []
    for field_id in LARGE_Q_FIELD_INFO:
        cmds.append((["--json", "field-info", "--field", field_id], None))
    for field_id, ell, ds, domain in LARGE_Q_MAPS:
        q = _field_q(field_id)
        las, rs = _branch_map_input(rng, q, ell, ds)
        branches = ",".join(f"g^{la}:{r}" for la, r in zip(las, rs))
        hist = expected_histogram(q - 1, ell, las, rs, domain == "fq")
        argv = ["--json", "cyc-classify", "--field", field_id, "--ell", str(ell),
                "--domain", domain, "--branches", branches]
        cmds.append((argv, {str(m): c for m, c in sorted(hist.items())}))
    q = _field_q(LARGE_Q_POLY_FIELD)
    terms = sorted(rng.sample(range(1, 64), 3), reverse=True)
    poly = "+".join(f"g^{rng.randrange(q - 1)}*x^{e}" for e in terms)
    cmds.append((["--json", "classify", "--field", LARGE_Q_POLY_FIELD,
                  "--poly", poly], None))
    return cmds


def _domain_size(payload) -> int:
    q = _field_q(payload["field"])
    return q if payload.get("domain") == "fq" else q - 1


def check_cli_output(argv, stdout: str, expected_hist) -> list[str]:
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    command = argv[1]
    if command == "field-info":
        p, n, q = payload["p"], payload["n"], payload["q"]
        errors = []
        if p ** n != q or payload["field"] != argv[3]:
            errors.append(f"field {payload['field']} is p={p} n={n} q={q}")
        modulus = payload["modulus"]
        if len(modulus) != n + 1 or modulus[-1] != 1:
            errors.append(f"modulus {modulus} is not monic of degree {n}")
        if len(payload["generator_coeffs"]) != n:
            errors.append("generator has the wrong number of coefficients")
        return errors
    size = _domain_size(payload)
    hist = {int(m): c for m, c in payload["histogram"].items()}
    valid = payload["valid_m"]
    errors = []
    if sum(m * c for m, c in hist.items()) != size:
        errors.append("histogram does not sum to the domain size")
    if valid != sorted(m for m, c in hist.items() if c == size // m):
        errors.append(f"valid_m {valid} disagrees with the histogram")
    exceptional = payload["exceptional"]
    if sorted(int(m) for m in exceptional) != valid:
        errors.append("exceptional sets are not keyed by valid_m")
    for m in valid:
        if len(exceptional.get(str(m), ())) != size % m:
            errors.append(f"|exceptional[{m}]| != {size} mod {m}")
    if expected_hist is not None and payload["histogram"] != expected_hist:
        errors.append(f"histogram {payload['histogram']} != {expected_hist}")
    return errors


def command_key(argv) -> str:
    return " ".join(argv)


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


class LargeQ:
    name = "large-q"
    in_process = False

    def setup(self, seed: int):
        import cyclomap  # noqa: F401  (set-up is the package import)

        self.ops = [Op(argv[1], 1, (argv, hist), job)
                    for job, (argv, hist) in enumerate(large_q_commands(seed))]
        self.reference = None
        if seed == DEFAULT_SEED and os.path.exists(REFERENCE_PATH):
            with open(REFERENCE_PATH) as fh:
                self.reference = json.load(fh)["stdout_sha256"]

    def run_op(self, op: Op, traced: bool):
        argv, hist = op.payload
        cmd = [sys.executable, os.path.join(BENCH_DIR, "launch.py")]
        if traced:
            cmd.append("--trace")
        proc = subprocess.run([*cmd, "--", *argv], capture_output=True,
                              text=True, cwd=ROOT, timeout=170)
        record = None
        stderr = proc.stderr
        if traced and TRACE_MARK in stderr:
            stderr, _, line = stderr.rpartition(TRACE_MARK)
            record = json.loads(line)
        errors = []
        if proc.returncode != 0:
            errors.append(f"exit {proc.returncode}: {stderr.strip()[-200:]}")
        if stderr.strip():
            errors.append(f"unexpected stderr: {stderr.strip()[-200:]}")
        errors += check_cli_output(argv, proc.stdout, hist)
        if self.reference is not None:
            want = self.reference.get(command_key(argv))
            if want != stdout_digest(proc.stdout):
                errors.append("stdout differs from the recorded reference")
        if traced and record is None:
            errors.append("traced command wrote no trace record")
        return errors, record


WORKLOADS = {w.name: w for w in (Sweep, LargeQ, Wrapped)}
