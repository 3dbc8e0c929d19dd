"""Differential verification sweeps and enumeration of branch maps.

Every closed-form criterion is held to zero mismatches against the
brute-force classification over exhaustive or seeded-random parameter
sweeps.  Random draws use a SplitMix-style 64-bit stream: sample j draws
from SplitMix64(seed + j), so partitioned parallel runs reproduce the
serial stream exactly and reports merge associatively.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field
from itertools import product

from .cyclotomic import BranchMap, CosetDecomposition, multiplicative_group
from .errors import CapExceeded, HypothesisError
from .gf import Field
# A sweep calls its criterion through this module's binding of the
# function's name (criterion_l2, ...), so a wrapper installed on that
# binding, as bench/tracer.py does, sees every call.
from .mto1 import (
    CRITERIA,
    branch_map_valid_ms,
    criterion_2to1_any_l,
    criterion_equal_d,
    criterion_l2,
    criterion_l3,
)
from .notation import field_from_id

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The standard 64-bit SplitMix stream; fully determined by its seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        return self.next_u64() % n


def sample_rng(seed: int, index: int) -> SplitMix64:
    """Generator for the index-th sample; independent of chunking."""
    return SplitMix64((seed + index) & _MASK64)


@dataclass(frozen=True)
class SweepSpec:
    """Parameter sweep for one criterion over one field and index."""

    criterion: str
    field_id: str
    ell: int
    r_range: tuple[int, int]
    a_exp_range: tuple[int, int] | None = None
    m_range: tuple[int, int] | None = None
    mode: str = "exhaustive"
    samples: int = 10_000
    seed: int = 0
    cap: int = 10_000_000

    def normalized(self, field: Field) -> "SweepSpec":
        from dataclasses import replace

        entry = CRITERIA.get(self.criterion)
        if entry is None or not entry.sweep:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        a_rng = self.a_exp_range or (0, field.q - 2)
        if self.m_range is not None:
            m_rng = self.m_range
        elif entry.fixed_m is not None:
            m_rng = (entry.fixed_m, entry.fixed_m)
        else:
            m_rng = (1, field.q - 1)
        return replace(self, a_exp_range=a_rng, m_range=m_rng)


@dataclass
class MismatchReport:
    """Outcome of one sweep; empty mismatch list means criterion == oracle."""

    criterion: str
    field_id: str
    ell: int
    mode: str
    seed: int
    ranges: dict
    total_cases: int = 0
    applicable_cases: int = 0
    mismatches: list = dc_field(default_factory=list)
    elapsed: float = 0.0

    def merge(self, other: "MismatchReport") -> "MismatchReport":
        if (self.criterion, self.field_id, self.ell) != (
            other.criterion, other.field_id, other.ell,
        ):
            raise ValueError("cannot merge reports of different sweeps")
        merged = MismatchReport(
            self.criterion, self.field_id, self.ell, self.mode, self.seed,
            self.ranges,
            self.total_cases + other.total_cases,
            self.applicable_cases + other.applicable_cases,
            sorted(self.mismatches + other.mismatches, key=lambda m: m["index"]),
            self.elapsed + other.elapsed,
        )
        return merged

    def to_json_dict(self, include_runtime: bool = False) -> dict:
        out = {
            "criterion": self.criterion,
            "field": self.field_id,
            "ell": self.ell,
            "mode": self.mode,
            "seed": self.seed,
            "ranges": self.ranges,
            "total_cases": self.total_cases,
            "applicable_cases": self.applicable_cases,
            "mismatch_count": len(self.mismatches),
            "mismatches": self.mismatches,
        }
        if include_runtime:
            out["elapsed_seconds"] = self.elapsed
        return out

    def to_json(self, include_runtime: bool = False) -> str:
        # runtime is excluded by default so identical sweeps emit identical bytes
        return json.dumps(self.to_json_dict(include_runtime), indent=2)


def _exhaustive_tuples(spec: SweepSpec):
    """(a_exps, rs) tuples in lexicographic order."""
    a_lo, a_hi = spec.a_exp_range
    r_lo, r_hi = spec.r_range
    ell = spec.ell
    return product(
        product(range(a_lo, a_hi + 1), repeat=ell),
        product(range(r_lo, r_hi + 1), repeat=ell),
    )


def _count_exhaustive(spec: SweepSpec) -> int:
    a_lo, a_hi = spec.a_exp_range
    r_lo, r_hi = spec.r_range
    return ((a_hi - a_lo + 1) * (r_hi - r_lo + 1)) ** spec.ell


def _random_tuple(spec: SweepSpec, field: Field, index: int, gcd_buckets=None):
    """Draw (a_exps, rs, m) for one sample; equal-gcd draws use buckets."""
    rng = sample_rng(spec.seed, index)
    N = field.q - 1
    a_exps = tuple(rng.randrange(N) for _ in range(spec.ell))
    if gcd_buckets is None:
        rs = tuple(1 + rng.randrange(N) for _ in range(spec.ell))
    else:
        r0 = 1 + rng.randrange(N)
        d = math.gcd(r0, N // spec.ell)
        bucket = gcd_buckets[d]
        rs = (r0,) + tuple(
            bucket[rng.randrange(len(bucket))] for _ in range(spec.ell - 1)
        )
    m_lo, m_hi = spec.m_range
    m = m_lo + rng.randrange(m_hi - m_lo + 1)
    return a_exps, rs, m


def differential_verify(spec: SweepSpec, *, criterion_fn=None, jobs: int = 1,
                        registry=None) -> MismatchReport:
    """Compare a criterion against the oracle over the swept space."""
    import time

    start = time.perf_counter()
    field = field_from_id(spec.field_id, registry)
    spec = spec.normalized(field)
    n_maps = (
        _count_exhaustive(spec) if spec.mode == "exhaustive" else spec.samples
    )
    projected_points = n_maps * (field.q - 1)
    if projected_points > spec.cap:
        raise CapExceeded(
            f"projected {projected_points} map-point evaluations exceed cap {spec.cap}"
        )
    if criterion_fn is not None and jobs > 1:
        raise ValueError("criterion_fn injection requires jobs=1")
    # more workers than maps or CPUs only adds process start-up
    workers = min(jobs, n_maps, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = (n_maps + workers - 1) // workers
        bounds = [
            (lo, min(lo + chunk, n_maps)) for lo in range(0, n_maps, chunk)
        ]
        with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
            parts = list(
                pool.map(_run_chunk, [(spec, lo, hi) for lo, hi in bounds])
            )
        report = parts[0]
        for part in parts[1:]:
            report = report.merge(part)
    else:
        report = _run_chunk((spec, 0, n_maps), criterion_fn=criterion_fn)
    report.elapsed = time.perf_counter() - start
    return report


def _run_chunk(args, criterion_fn=None) -> MismatchReport:
    spec, lo, hi = args
    field = field_from_id(spec.field_id)
    entry = CRITERIA[spec.criterion]
    fn = criterion_fn
    if fn is None:
        fn = globals()[entry.fn.__name__]
        if not entry.takes_m:
            fn = lambda bm, m, decide=fn: decide(bm)
    decomp = CosetDecomposition(multiplicative_group(field), spec.ell)
    m_lo, m_hi = spec.m_range
    report = MismatchReport(
        criterion=spec.criterion,
        field_id=spec.field_id,
        ell=spec.ell,
        mode=spec.mode,
        seed=spec.seed,
        ranges={
            "a_exp": list(spec.a_exp_range),
            "r": list(spec.r_range),
            "m": list(spec.m_range),
            "samples": spec.samples if spec.mode == "random" else None,
        },
    )
    gcd_buckets = None
    if spec.mode == "random" and entry.equal_gcds:
        s = (field.q - 1) // spec.ell
        gcd_buckets = {}
        for r in range(1, field.q):
            gcd_buckets.setdefault(math.gcd(r, s), []).append(r)

    def run_case(index, a_exps, rs, ms):
        bm = BranchMap(
            decomp, [(field.exp_at(e), r) for e, r in zip(a_exps, rs)]
        )
        oracle = branch_map_valid_ms(bm)
        for m in ms:
            report.total_cases += 1
            try:
                verdict = fn(bm, m)
            except HypothesisError:
                continue
            if not verdict.applicable:
                continue
            report.applicable_cases += 1
            if verdict.holds != (m in oracle):
                report.mismatches.append(
                    {
                        "index": index,
                        "a_exps": list(a_exps),
                        "r": list(rs),
                        "m": m,
                        "criterion": verdict.holds,
                        "oracle": m in oracle,
                    }
                )

    if spec.mode == "exhaustive":
        from itertools import islice

        ms = range(m_lo, m_hi + 1)
        window = islice(_exhaustive_tuples(spec), lo, hi)
        for index, (a_exps, rs) in enumerate(window, start=lo):
            run_case(index, a_exps, rs, ms)
    elif spec.mode == "random":
        for index in range(lo, hi):
            a_exps, rs, m = _random_tuple(spec, field, index, gcd_buckets)
            run_case(index, a_exps, rs, (m,))
    else:
        raise ValueError(f"unknown sweep mode {spec.mode!r}")
    return report


def enumerate_mto1(field: Field, ell: int, m: int, a_exp_range=None,
                   r_range=None, limit: int | None = None):
    """Lexicographic stream of branch maps whose oracle report admits m.

    Every yielded map is re-verified by a second, element-level preimage
    count before it leaves the generator.
    """
    if m < 1:
        raise ValueError(f"m={m} must be at least 1")
    decomp = CosetDecomposition(multiplicative_group(field), ell)
    a_lo, a_hi = a_exp_range or (0, field.q - 2)
    r_lo, r_hi = r_range or (1, field.q - 1)
    found = 0
    for a_exps in product(range(a_lo, a_hi + 1), repeat=ell):
        for rs in product(range(r_lo, r_hi + 1), repeat=ell):
            if limit is not None and found >= limit:
                return
            bm = BranchMap(
                decomp, [(field.exp_at(e), r) for e, r in zip(a_exps, rs)]
            )
            if m not in branch_map_valid_ms(bm):
                continue
            fibers = {}
            for x in decomp.ctx:
                y = bm.eval(x)
                fibers[y] = fibers.get(y, 0) + 1
            k = decomp.ctx.order // m
            if sum(1 for c in fibers.values() if c == m) != k:
                raise AssertionError("re-verification failed; oracle inconsistent")
            found += 1
            yield bm
