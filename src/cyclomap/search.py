"""Differential verification sweeps and enumeration of branch maps.

Every closed-form criterion is held to zero mismatches against the
brute-force classification over exhaustive or seeded-random parameter
sweeps.  Random draws use a SplitMix-style 64-bit stream: sample j draws
from SplitMix64(seed + j), so partitioned parallel runs reproduce the
serial stream exactly and reports merge associatively.  `SplitMix64` and
`sample_rng` define that stream; a sweep computes it in blocks of up to
`_BLOCK` samples, one word of every sample of a block mixed at once as
128-bit lanes of a single int (`_splitmix_columns`).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from array import array
from dataclasses import dataclass, field as dc_field, replace
from itertools import islice, product

from .cyclotomic import BranchMap, CosetDecomposition, multiplicative_group
from .errors import CapExceeded, HypothesisError, _check_cap
from .gf import Field
# A sweep calls its criterion through this module's binding of the
# function's name (criterion_l2, ...), so a wrapper installed on that
# binding, as bench/tracer.py does, sees every case the criterion decides.
from .mto1 import (
    CRITERIA,
    branch_map_valid_ms,
    classify_callable,
    criterion_2to1_any_l,
    criterion_equal_d,
    criterion_l2,
    criterion_l3,
)
from .notation import field_from_id

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# samples per packed block: each lane constant of a block is 16 KB
_BLOCK = 1024


class SplitMix64:
    """The standard 64-bit SplitMix stream; fully determined by its seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        return self.next_u64() % n


def sample_rng(seed: int, index: int) -> SplitMix64:
    """Generator for the index-th sample; independent of chunking."""
    return SplitMix64((seed + index) & _MASK64)


def _pack(values) -> int:
    """values, each below 2^64, as one int: value i in bits 128i..128i+63."""
    lanes = array("Q", bytes(16 * len(values)))
    lanes[::2] = array("Q", values)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


def _splitmix_columns(start: int, n: int, words: int) -> list:
    """Words 1..words of sample_rng(start, i) for i < n, one array per word.

    Word t of sample_rng(start, i) is the SplitMix mix of the state
    start + i + t*gamma.  One int holds the n states of word t as 128-bit
    lanes, and each xor-shift or multiply step acts on every lane at once.
    A lane's product by a 64-bit constant stays below 2^128, and the lane
    mask after each step keeps the 64 bits a lane owns, clearing what a
    right shift pulls down from the lane above.  The last step's
    pulled-down bits land in a lane's high half, which unpacking drops.
    """
    ones = _pack([1] * n)
    ramp = _pack(range(n))
    low = ones * _MASK64
    columns = []
    for t in range(1, words + 1):
        z = (((start + t * _GAMMA) & _MASK64) * ones + ramp) & low
        z = (((z ^ (z >> 30)) & low) * _MIX1) & low
        z = (((z ^ (z >> 27)) & low) * _MIX2) & low
        lanes = array("Q", (z ^ (z >> 31)).to_bytes(16 * n, "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        columns.append(lanes[::2])
    return columns


@dataclass(frozen=True)
class SweepSpec:
    """Parameter sweep for one criterion over one field and index.

    r_range, a_exp_range and m_range are inclusive (lo, hi) windows.  Either
    end of any window may be None, and a_exp_range and m_range may be None
    as a whole; `normalized` fills what is missing.
    """

    criterion: str
    field_id: str
    ell: int
    r_range: tuple[int | None, int | None]
    a_exp_range: tuple[int | None, int | None] | None = None
    m_range: tuple[int | None, int | None] | None = None
    mode: str = "exhaustive"
    samples: int = 10_000
    seed: int = 0
    cap: int = 10_000_000

    def normalized(self, field: Field) -> "SweepSpec":
        """Every window filled: r (1, q−1), a (0, q−2) and m (1, q−1) by default.

        A criterion that decides one fixed m sweeps (fixed_m, fixed_m) when
        no m end is given.  Raises ValueError on an unknown criterion or
        mode, on an empty window and on a random sweep of fewer than one
        sample.
        """
        entry = CRITERIA.get(self.criterion)
        if entry is None or not entry.sweep:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if self.mode == "random" and self.samples < 1:
            raise ValueError(f"samples={self.samples} must be at least 1")
        q = field.q
        m_default = (1, q - 1)
        if entry.fixed_m is not None and self.m_range in (None, (None, None)):
            m_default = (entry.fixed_m, entry.fixed_m)
        return replace(
            self,
            r_range=_fill("r", self.r_range, (1, q - 1)),
            a_exp_range=_fill("a", self.a_exp_range, (0, q - 2)),
            m_range=_fill("m", self.m_range, m_default),
        )


def _fill(name: str, window, default: tuple[int, int]) -> tuple[int, int]:
    """window with each missing end taken from default; ValueError if empty."""
    lo, hi = window or (None, None)
    lo = default[0] if lo is None else lo
    hi = default[1] if hi is None else hi
    if lo > hi:
        raise ValueError(f"the {name} window {lo}..{hi} is empty")
    return lo, hi


def _span(window: tuple[int, int]) -> range:
    return range(window[0], window[1] + 1)


def _lattice(ell: int, a_window: range, r_window: range):
    """Every (a_exps, rs) over two windows, in lexicographic order.

    Lazy in the a tuples: `product` of the two tuple streams would first
    store all len(window)**ell tuples of each.
    """
    return ((a_exps, rs) for a_exps in product(a_window, repeat=ell)
            for rs in product(r_window, repeat=ell))


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


def _map_count(spec: SweepSpec) -> int:
    """How many maps `_cases` yields for a normalized spec."""
    if spec.mode == "random":
        return spec.samples
    return (len(_span(spec.a_exp_range)) * len(_span(spec.r_range))) ** spec.ell


def _cases(spec: SweepSpec, field: Field, lo: int, hi: int):
    """(index, a_exps, rs, ms) for maps lo..hi−1 of a normalized spec.

    Exhaustive sweeps walk the windows' lexicographic product and try every
    m of the m window on each map.  Random sweep j draws, from
    sample_rng(seed, j) and uniformly inside the windows, a_exps, then r0,
    then the other r, then one m; a criterion that needs equal gcds draws
    the other r from the r window's exponents whose gcd with (q−1)/ell is r0's.
    The draws are made a block of samples at a time: `_splitmix_columns`
    gives each of a sample's 2*ell + 1 words as a column over the block,
    one comprehension takes each column into its window, and zip turns the
    columns back into samples, bit for bit sample_rng's.
    """
    a_window, r_window, m_window = map(
        _span, (spec.a_exp_range, spec.r_range, spec.m_range)
    )
    if spec.mode == "exhaustive":
        maps = islice(_lattice(spec.ell, a_window, r_window), lo, hi)
        for index, (a_exps, rs) in enumerate(maps, start=lo):
            yield index, a_exps, rs, m_window
        return
    ell = spec.ell
    s = (field.q - 1) // ell
    pool_of = None  # the equal-gcd bucket each r0 draws its other r from
    if CRITERIA[spec.criterion].equal_gcds:
        buckets = {}
        for r in r_window:
            buckets.setdefault(math.gcd(r, s), []).append(r)
        pool_of = {r: buckets[math.gcd(r, s)] for r in r_window}
    n_a, n_r, n_m = len(a_window), len(r_window), len(m_window)
    for start in range(lo, hi, _BLOCK):
        n = min(_BLOCK, hi - start)
        # a sample takes ell words for a_exps, ell for rs and 1 for m
        words = _splitmix_columns(spec.seed + start, n, 2 * ell + 1)
        a_cols = [[a_window[w % n_a] for w in col] for col in words[:ell]]
        r0s = [r_window[w % n_r] for w in words[ell]]
        if pool_of is None:
            r_cols = [[r_window[w % n_r] for w in col]
                      for col in words[ell + 1:-1]]
        else:
            pools = [pool_of[r0] for r0 in r0s]
            r_cols = [[pool[w % len(pool)] for pool, w in zip(pools, col)]
                      for col in words[ell + 1:-1]]
        ms = [(m_window[w % n_m],) for w in words[-1]]
        # r0s leads the zip: with ell = 1 there is no other r column
        yield from zip(range(start, start + n), zip(*a_cols),
                       zip(r0s, *r_cols), ms)


def differential_verify(spec: SweepSpec, *, criterion_fn=None, jobs: int = 1,
                        registry=None) -> MismatchReport:
    """Compare a criterion against the oracle over the swept space."""
    start = time.perf_counter()
    field = field_from_id(spec.field_id, registry)
    spec = spec.normalized(field)
    n_maps = _map_count(spec)
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
    fn = criterion_fn or entry.with_m(globals()[entry.fn.__name__])
    decomp = CosetDecomposition(multiplicative_group(field), spec.ell)
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
    cases = applicable = 0
    for index, a_exps, rs, ms in _cases(spec, field, lo, hi):
        bm = BranchMap(decomp, log_scales=a_exps, exponents=rs)
        oracle = branch_map_valid_ms(bm)
        for m in ms:
            cases += 1
            try:
                verdict = fn(bm, m)
            except HypothesisError:
                continue
            if not verdict.applicable:
                continue
            applicable += 1
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
    report.total_cases, report.applicable_cases = cases, applicable
    return report


def enumerate_mto1(field: Field, ell: int, m: int, a_exp_range=None,
                   r_range=None, limit: int | None = None):
    """Lexicographic stream of branch maps whose oracle report admits m.

    The windows are filled and checked as `SweepSpec.normalized` fills its
    a and r windows.  Every yielded map is re-verified by a second,
    element-level preimage count (`classify_callable` on `bm.eval`) before
    it leaves the generator.
    """
    if m < 1:
        raise ValueError(f"m={m} must be at least 1")
    if m > field.q - 1:
        raise ValueError(f"m={m} exceeds the group order {field.q - 1}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit={limit} must be at least 0")
    _check_cap(field.q - 1, "points to count")  # per map; before _lattice stores a window
    a_window = _span(_fill("a", a_exp_range, (0, field.q - 2)))
    r_window = _span(_fill("r", r_range, (1, field.q - 1)))
    decomp = CosetDecomposition(multiplicative_group(field), ell)
    found = 0
    for a_exps, rs in _lattice(ell, a_window, r_window):
        if limit is not None and found >= limit:
            return
        bm = BranchMap(decomp, log_scales=a_exps, exponents=rs)
        if m not in branch_map_valid_ms(bm):
            continue
        if m not in classify_callable(bm.eval, decomp.ctx).valid_ms:
            raise AssertionError("re-verification failed; oracle inconsistent")
        found += 1
        yield bm
