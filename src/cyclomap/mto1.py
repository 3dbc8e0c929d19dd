"""Many-to-one classification: brute-force oracle and closed-form criteria.

A mapping f on a finite set A of size k*m + r (0 <= r < m) is m-to-1 when
exactly k image points have exactly m preimages; the r leftover domain
points form the exceptional set.  `classify_pairs`, `classify_callable`,
`classify_polynomial` and `branch_map_valid_ms` count preimages directly
(the oracle).  A branch map's points are counted in one place,
`_fiber_sizes`, into a table of fiber sizes by image exponent, summed from
packed per-step counts in lanes sized from the group order, one block per
image coset above one-byte lanes, for every group of at most 2^22 points.
`branch_map_valid_ms`, the oracle of every sweep, and `_counted_report`,
the counting report, both read that table; every report is filled from
one fiber-size histogram.
`classify_branch_map` is exact from residue classes in O(L), L = index *
lcm of the branch multiplicities, and counts no point; it is
differentially tested against the counting report, which
`classify_wrapped` keeps using.  The `criterion_*` functions decide the
same question from branch data alone and are differentially verified
against the oracle.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from typing import Callable, NamedTuple

from .cyclotomic import BranchMap, CosetDecomposition, Polynomial, multiplicative_group
from .errors import (
    DomainElementOutsideField,
    HypothesisViolated,
    UnequalGcds,
    UnsupportedContext,
    WrongIndex,
    _check_cap,
    _MAX_RESIDUES,
)
from .gf import make_field, split_prime_power

class Mto1Report:
    """Multiplicity histogram, admissible m values, and exceptional sets.

    Built from the sizes of a fiber table (image -> number of preimages),
    or with `from_histogram` from fiber size -> number of images.
    exceptional_fn(m) lists the domain elements whose fiber size differs
    from m, 0 first and then by ascending log; it is called only for a
    valid m whose exceptional set can be nonempty.
    """

    __slots__ = ("domain_size", "histogram", "valid_ms", "_exceptional_fn")

    def __init__(self, fiber_sizes, exceptional_fn):
        self._fill(Counter(fiber_sizes), exceptional_fn)

    @classmethod
    def from_histogram(cls, histogram: dict, exceptional_fn) -> "Mto1Report":
        """A report from fiber size -> number of images with that size."""
        report = cls.__new__(cls)
        report._fill(histogram, exceptional_fn)
        return report

    def _fill(self, histogram, exceptional_fn):
        self.histogram = dict(histogram)
        self.domain_size = size = sum(m * c for m, c in self.histogram.items())
        self.valid_ms = _valid_ms(size, self.histogram)
        self._exceptional_fn = exceptional_fn

    def exceptional_of(self, m: int) -> tuple[int, ...]:
        """Domain elements whose fiber size differs from m, by ascending log."""
        if m not in self.valid_ms:
            raise ValueError(f"m={m} is not an admissible multiplicity")
        if self.domain_size % m == 0:
            return ()  # |exceptional| == domain_size mod m for a valid m
        return self._exceptional_fn(m)

    def check_consistency(self):
        """Histogram identities implied by the definition, for tests; raises
        AssertionError when one fails, also under python -O."""
        total = sum(mult * count for mult, count in self.histogram.items())
        if total != self.domain_size:
            raise AssertionError(f"histogram covers {total} of {self.domain_size} points")
        for m in range(1, self.domain_size + 1):
            expected = self.histogram.get(m, 0) == self.domain_size // m
            if (m in self.valid_ms) != expected:
                raise AssertionError(f"valid m and histogram disagree at m={m}")
        for m in self.valid_ms:
            if len(self.exceptional_of(m)) != self.domain_size % m:
                raise AssertionError(f"exceptional set of m={m} has the wrong size")

    def __repr__(self):
        return (
            f"Mto1Report(size={self.domain_size}, valid={sorted(self.valid_ms)})"
        )


def _valid_ms(size: int, histogram) -> frozenset[int]:
    """m is valid when exactly size // m images have m preimages."""
    return frozenset(m for m, c in histogram.items() if c == size // m)


def classify_pairs(pairs, order_key=None) -> Mto1Report:
    """Oracle classification of explicit (element, image) pairs."""
    pairs = tuple(pairs)
    fibers = Counter(img for _, img in pairs)

    def exceptional(m: int) -> tuple[int, ...]:
        return tuple(sorted((x for x, img in pairs if fibers[img] != m),
                            key=order_key))

    return Mto1Report(fibers.values(), exceptional)


def classify_callable(fn: Callable[[int], int], domain, order_key=None) -> Mto1Report:
    return classify_pairs(((x, fn(x)) for x in domain), order_key)


# lane width in bits -> the array typecode of that width
_LANE_CODES = {8 * array(c).itemsize: c for c in "LIHB"}


def _little(lanes: array) -> array:
    """lanes between host and little-endian byte order, the order packed
    ints hold them in: a byteswap on big-endian hosts, its own inverse."""
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


class _StepStore(dict):
    """(N, ell) -> (lane width in bits, steps) for a group of order N at
    index ell; a lane is the narrowest array item that holds N, the largest
    fiber.  steps[j] is 0 until `walk` packs the step ell*j mod N, taken by
    a coset whose exponent is j (mod s).  `lanes` counts the lanes held,
    never more than `_MAX_RESIDUES`."""

    lanes = 0

    def __missing__(self, key: tuple[int, int]) -> tuple[int, list[int]]:
        N, ell = key
        _check_cap(N, "points to count")
        self[key] = entry = (min(w for w in _LANE_CODES if N >> w == 0), [0] * (N // ell))
        return entry

    def walk(self, N: int, ell: int, j: int) -> int:
        """The step's counts from its s points, in one block of `_fiber_sizes`:
        lane (t*j mod s) * gap counts the t < s there, gap = ell in the one
        block of a byte table and 1 in a wider one.  Every table is emptied
        first if the store would pass `_MAX_RESIDUES` lanes."""
        width, steps = self[N, ell]
        s = N // ell
        gap = ell if width == 8 else 1
        if self.lanes + s * gap > _MAX_RESIDUES:
            for _, held in self.values():
                held[:] = [0] * len(held)
            self.lanes = 0
        counts = array(_LANE_CODES[width], [0]) * (s * gap)
        for t in range(s):
            counts[t * j % s * gap] += 1
        steps[j] = packed = int.from_bytes(_little(counts), "little")
        self.lanes += s * gap
        return packed


_STEPS = _StepStore()


def _fiber_sizes(bm: BranchMap) -> bytes | array:
    """sizes[e] = how many group points bm sends to exponent e, for e < N;
    the only code that counts a branch map's points.

    Coset i sends its s points to start + t*ell*r_i (mod N), t < s, with
    start = i*r_i + log a_i: into the exponents start + ell*u of one image
    coset.  Each coset adds its step's packed counts (`_StepStore`) into a
    block, shifted by its start there; each block folds its lanes past its
    end back once, and no lane carries, as no fiber exceeds N.  A byte
    table (N <= 255) is one block of N lanes by exponent.  A wider one has
    one block of s lanes per image coset, so a map moves O(N) lanes for any
    ell, and is copied into an array by exponent.  A group of more than
    `_MAX_RESIDUES` points is refused.
    """
    decomp = bm.decomp
    N, ell, s = decomp.ctx.order, decomp.index, decomp.coset_size
    width, steps = _STEPS[N, ell]
    i = 0
    # starts as eval_exp takes them, not from bm._offsets, which the criteria read
    if width == 8:
        total = 0
        for r, la in zip(bm.exponents, bm.log_scales):
            total += (steps[r % s] or _STEPS.walk(N, ell, r % s)) << 8 * ((i * r + la) % N)
            i += 1
        return ((total & ((1 << 8 * N) - 1)) + (total >> 8 * N)).to_bytes(N, "little")
    blocks = [0] * ell  # block c, lane u: exponent c + ell*u
    for r, la in zip(bm.exponents, bm.log_scales):
        u, c = divmod((i * r + la) % N, ell)
        blocks[c] += (steps[r % s] or _STEPS.walk(N, ell, r % s)) << width * u
        i += 1
    fold = width * s
    mask = (1 << fold) - 1
    table = b"".join([((b & mask) + (b >> fold)).to_bytes(fold // 8, "little") for b in blocks])
    lanes = _little(array(_LANE_CODES[width], table))
    sizes = lanes[:]
    if s < ell:  # copy along the shorter side
        for u in range(s):
            sizes[u * ell:(u + 1) * ell] = lanes[u::s]
    else:
        for c in range(ell):
            sizes[c::ell] = lanes[c * s:(c + 1) * s]
    return sizes


def branch_map_valid_ms(bm: BranchMap) -> frozenset[int]:
    """Admissible m set over the group from `_fiber_sizes`, which counts
    every point; the oracle of every sweep."""
    N = bm.decomp.ctx.order
    sizes = _fiber_sizes(bm)
    count = sizes.count
    return frozenset([m for m in set(sizes) if m and count(m) == N // m])


def _zero_extended(report: Mto1Report, ctx) -> Mto1Report:
    """report with 0 -> 0 added, a fiber of its own as branch constants are
    nonzero; only a map on F_q* extends so (UnsupportedContext otherwise)."""
    if not ctx.is_full:
        raise UnsupportedContext("0 -> 0 extends a branch map on the full group F_q* only")
    histogram = dict(report.histogram)
    histogram[1] = histogram.get(1, 0) + 1
    star = report._exceptional_fn
    return Mto1Report.from_histogram(histogram, lambda m: (() if m == 1 else (0,)) + star(m))


def classify_branch_map(bm: BranchMap, include_zero: bool = False) -> Mto1Report:
    """Exact classification of a branch map over its group (or group + 0).

    Branch i sends its coset onto the exponents e = off_i (mod ell*d_i),
    off_i = i*r_i + log a_i, and hits each of them d_i times.  So the fiber
    size at e depends only on e mod L, L = ell*lcm(d_i), which divides the
    group order N, and each residue mod L stands for N/L exponents: the
    report takes O(L) steps and counts no point.  It raises CapExceeded
    when L exceeds `_MAX_RESIDUES`.

    include_zero extends the map by 0 -> 0 (`_zero_extended`).
    """
    ctx = bm.decomp.ctx
    N, ell = ctx.order, bm.decomp.index
    ds, offsets = bm.multiplicities, bm._offsets
    L = ell * math.lcm(*ds)
    _check_cap(L, "residue classes (ell * lcm of the multiplicities) to classify")
    sizes = [0] * L  # fiber size at the exponents of each residue mod L
    for d, off in zip(ds, offsets):
        step = ell * d
        for e in range(off % step, L, step):
            sizes[e] += d
    weight = N // L
    histogram = {c: n * weight for c, n in Counter(sizes).items() if c}

    def exceptional(m: int) -> tuple[int, ...]:
        # k = i + t*ell has the image residue off_i + t*ell*r_i mod L, of
        # period L/gcd(ell*r_i, L) = L/(ell*d_i) in t, since lcm(d) divides
        # the coset size.  One period is walked, and each t whose residue
        # has a fiber size other than m stands for every t' = t mod period.
        ks = []
        for i, (r, d, off) in enumerate(zip(bm.exponents, ds, offsets)):
            period = L // (ell * d)
            step = ell * r
            for t in range(period):
                if sizes[(off + t * step) % L] != m:
                    ks.extend(range(i + t * ell, N, period * ell))
        ks.sort()
        return tuple(map(ctx.element, ks))

    report = Mto1Report.from_histogram(histogram, exceptional)
    return _zero_extended(report, ctx) if include_zero else report


def _counted_report(bm: BranchMap) -> Mto1Report:
    """`classify_branch_map` from `_fiber_sizes`, which counts every point, for
    the paths that compare against brute force; CapExceeded past `_MAX_RESIDUES`."""
    ctx = bm.decomp.ctx
    sizes = _fiber_sizes(bm)

    def exceptional(m: int) -> tuple[int, ...]:
        images = map(bm.eval_exp, range(ctx.order))
        return tuple([ctx.element(k) for k, e in enumerate(images) if sizes[e] != m])

    return Mto1Report(filter(None, sizes), exceptional)


def classify_polynomial(poly: Polynomial, domain: str | tuple = "fqstar") -> Mto1Report:
    """Oracle classification of a polynomial over F_q, F_q*, or an explicit
    set (an element listed twice is counted once)."""
    F = poly.field
    if domain in ("fq", "fqstar"):
        dom = range(0 if domain == "fq" else 1, F.q)
        _check_cap(F.q - dom.start, "points to count")
    else:
        dom = tuple(dict.fromkeys(domain))
        for x in dom:
            if not F.contains(x):
                raise DomainElementOutsideField(f"{x} is not in {F!r}")
    F._load_tables()  # evaluates at every domain point

    def order_key(x):
        return -1 if x == 0 else F.dlog(x)

    return classify_callable(poly.eval, dom, order_key)


# ---------------------------------------------------------------------------
# Verdicts.
# ---------------------------------------------------------------------------

class CriterionVerdict(NamedTuple):
    applicable: bool
    holds: bool | None
    witness: str


def _yes(witness: str) -> CriterionVerdict:
    return CriterionVerdict(True, True, witness)


def _no(witness: str) -> CriterionVerdict:
    return CriterionVerdict(True, False, witness)


def _na(witness: str) -> CriterionVerdict:
    return CriterionVerdict(False, None, witness)


# ---------------------------------------------------------------------------
# Lifting from the unit group to the whole field.
# ---------------------------------------------------------------------------

def lift_to_full_field(fn, field, m: int) -> CriterionVerdict:
    """m-to-1 on F_q from m-to-1 on F_q*, for maps whose only root is 0.

    fn: BranchMap over all of F_q* or Polynomial over field (else
    UnsupportedContext), or callable on codes, evaluated once per point of
    F_q.  Raises DomainElementOutsideField at the first image that is not a
    code of field, then HypothesisViolated when some nonzero root exists or
    f(0) != 0.
    """
    if isinstance(fn, BranchMap):
        if not fn.decomp.ctx.is_full or fn.decomp.ctx.field.q != field.q:
            raise UnsupportedContext(
                f"lifting to GF({field.q}) needs a branch map on all of GF({field.q})*")
        zero_image = 0  # branch constants are nonzero, so no root but 0
        star_valid = branch_map_valid_ms(fn)
    elif isinstance(fn, Polynomial) and fn.field is not field:
        raise UnsupportedContext(f"lifting to GF({field.q}) needs a polynomial over that field")
    else:
        evaluate = fn.eval if isinstance(fn, Polynomial) else fn
        _check_cap(field.q, "points to count")
        field._load_tables()  # evaluates at every point

        def image(x):
            y = evaluate(x)
            if not field.contains(y):
                raise DomainElementOutsideField(f"image {y} of {x} is not in {field!r}")
            return y

        zero_image = image(0)
        pairs = []
        for x in range(1, field.q):
            y = image(x)
            if y == 0:
                raise HypothesisViolated(
                    f"nonzero root {x}: the map must vanish only at 0"
                )
            pairs.append((x, y))
        star_valid = classify_pairs(pairs).valid_ms
    if zero_image != 0:
        raise HypothesisViolated("the map must fix 0")
    if not 1 <= m <= field.q:
        return _na("m-out-of-range")
    on_star = m in star_valid
    if m == 1:
        return _yes("bijective-star") if on_star else _no("not-1to1-on-star")
    if field.q % m == 0:
        return _no("m-divides-q")
    return _yes("star+m-not-dividing-q") if on_star else _no("not-mto1-on-star")


# ---------------------------------------------------------------------------
# Closed-form criteria.  Each mirrors one characterization exactly; the
# differential harness holds them to zero mismatches against the oracle.
# ---------------------------------------------------------------------------

def criterion_l2(bm: BranchMap, m: int) -> CriterionVerdict:
    """Two branches: m-to-1 on the group iff one of two clauses holds."""
    if bm.decomp.index != 2:
        raise WrongIndex("criterion_l2 needs exactly 2 branches")
    N = bm.decomp.ctx.order
    if not 1 <= m <= N:
        return _na("m-out-of-range")
    d0, d1 = bm.multiplicities
    off = bm._offsets
    s = bm.decomp.coset_size
    if m == d0 == d1:
        if off[0] % (2 * m) != off[1] % (2 * m):
            return _yes("equal-multiplicities, disjoint images")
        return _no("equal-multiplicities but images coincide")
    if m == d0 + d1:
        d = min(d0, d1)
        if m % d:
            return _no("min multiplicity does not divide m")
        if off[0] % (2 * d) != off[1] % (2 * d):
            return _no("small image not contained in large image")
        if (s // (m - d)) * (m - 2 * d) >= m:
            return _no("size-bound s(m-2d)/(m-d) < m fails")
        return _yes("containment clause")
    return _no("m is neither the common multiplicity nor their sum")


# The labelings (i, j, k) of three branches, in itertools.permutations order.
_ORDERINGS_3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
# criterion_l3's two common answers: a sweep asks it for every m of a map,
# and most m end at one of these.
_NOT_A_SUM = _no("m is not a sum of branch multiplicities (nor 2s)")
_NO_CLAUSE = _no("no clause satisfied")


def criterion_l3(bm: BranchMap, m: int) -> CriterionVerdict:
    """Three branches: m-to-1 on the group iff a clause of the paper holds."""
    if bm.decomp.index != 3:
        raise WrongIndex("criterion_l3 needs exactly 3 branches")
    N = bm.decomp.ctx.order
    if not 1 <= m <= N:
        return _na("m-out-of-range")
    if m not in bm.m_candidates:
        return _NOT_A_SUM
    d = bm.multiplicities
    off = bm._offsets
    s = bm.decomp.coset_size
    total = d[0] + d[1] + d[2]
    for i, j, k in _ORDERINGS_3:
        di, dj, dk = d[i], d[j], d[k]
        if not di <= dj <= dk:  # the clauses name branches by ascending multiplicity
            continue
        if m == di == dj == dk:
            n1 = 3 * m
            if len({off[0] % n1, off[1] % n1, off[2] % n1}) == 3:
                return _yes("clause 1: equal multiplicities, distinct images")
        # di = dj is the paper's di | dj with its bound (s/dj)(dj - di) < m,
        # which fails for di < dj: dj, dk | s force s >= 2*dk, and dj >= 2*di.
        if m == dk == 2 * di and di == dj:
            n2 = 3 * di
            oi, oj, ok = off[i] % n2, off[j] % n2, off[k] % n2
            if oi == oj != ok:
                return _yes("clause 2: pair merges into the heavy branch's level")
        if m == di + dj and dj == dk and dj % di == 0:
            n3 = 3 * di
            if off[i] % n3 == off[j] % n3 == off[k] % n3:
                n3b = 3 * dj
                if off[j] % n3b != off[k] % n3b and (s // dj) * (dj - 2 * di) < m:
                    return _yes("clause 3: light branch inside both heavy images")
        # Clause 5 decides the paper's clause 4 (all d = s, one pair merged): the
        # labelling (k, i, j) or (j, i, k) makes the merged pair clause 5's (j, k).
        if m == 2 * s and dj == dk == s:
            n5 = 3 * s
            if off[j] % n5 == off[k] % n5:
                n5b = 3 * d[i]
                if off[i] % n5b != off[j] % n5b:
                    return _yes("clause 5: two full-size branches merged")
        if m == total and dk % di == 0 and dk % dj == 0:
            if (
                off[i] % (3 * di) == off[k] % (3 * di)
                and off[j] % (3 * dj) == off[k] % (3 * dj)
                and (s // dk) * (2 * dk - di - dj) < m
            ):
                return _yes("clause 6: all three images nested")
    return _NO_CLAUSE


def _def_mto1_on_values(values, m: int) -> bool:
    """Definition-style m-to-1 for a finite list of values."""
    n = len(values)
    if not 1 <= m <= n:
        return False
    return list(Counter(values).values()).count(m) == n // m


def criterion_2to1_any_l(bm: BranchMap, m: int = 2) -> CriterionVerdict:
    """2-to-1 on the group for any number of branches."""
    if m != 2:
        return _na("m-out-of-range")
    ell = bm.decomp.index
    N = bm.decomp.ctx.order
    d = bm.multiplicities
    off = bm._offsets
    if N < 2:
        return _na("group too small for m=2")
    if ell == N:
        vals = [off[i] % ell for i in range(ell)]
        if _def_mto1_on_values(vals, 2):
            return _yes("singleton cosets: residues 2-to-1")
        return _no("singleton cosets: residues not 2-to-1")
    ones = [i for i in range(ell) if d[i] == 1]
    twos = [i for i in range(ell) if d[i] == 2]
    if len(ones) + len(twos) != ell:
        return _no("a branch has multiplicity > 2")
    if len(twos) == 0:
        if len(ones) % 2:
            return _no("odd count of bijective branches")
        if _def_mto1_on_values([off[i] % ell for i in ones], 2):
            return _yes("all branches bijective, images pair up")
        return _no("bijective-branch images do not pair up")
    if len(ones) == 0:
        if _def_mto1_on_values([off[i] % (2 * ell) for i in twos], 1):
            return _yes("all branches 2-to-1 with disjoint images")
        return _no("two 2-to-1 branch images collide")
    # mixed: bijective and 2-to-1 branches must not meet, then both clauses
    one_res = {off[i] % ell for i in ones}
    two_res = {off[t] % ell for t in twos}
    if one_res & two_res:
        return _no("a bijective image meets a 2-to-1 image")
    if len(ones) % 2:
        return _no("odd count of bijective branches (mixed case)")
    if not _def_mto1_on_values([off[i] % ell for i in ones], 2):
        return _no("bijective-branch images do not pair up (mixed case)")
    if not _def_mto1_on_values([off[t] % (2 * ell) for t in twos], 1):
        return _no("two 2-to-1 branch images collide (mixed case)")
    return _yes("mixed clause")


def criterion_equal_d(bm: BranchMap, m: int) -> CriterionVerdict:
    """m-to-1 when every branch has the same multiplicity d."""
    d_set = set(bm.multiplicities)
    if len(d_set) != 1:
        raise UnequalGcds("branch multiplicities are not all equal")
    d = d_set.pop()
    ell = bm.decomp.index
    N = bm.decomp.ctx.order
    s = bm.decomp.coset_size
    if not 1 <= m <= N:
        return _na("m-out-of-range")
    if m % d:
        return _no("common multiplicity does not divide m")
    m1 = m // d
    n = ell * d
    if not _def_mto1_on_values([bm._offsets[i] % n for i in range(ell)], m1):
        return _no("image residues are not (m/d)-to-1 over the branches")
    if s * (ell % m1) >= m:
        return _no("size-bound s(l mod (m/d)) < m fails")
    return _yes("equal-multiplicity clause")


# ---------------------------------------------------------------------------
# Specialized corollary criteria (fixed m or constants realized by
# polynomial values); each is checked against its parent criterion and the
# oracle in the test suite.
# ---------------------------------------------------------------------------

def cor32(bm: BranchMap, m: int = 2) -> CriterionVerdict:
    """2-to-1 with two branches."""
    if m != 2:
        return _na("m-out-of-range")
    if bm.decomp.index != 2:
        raise WrongIndex("cor32 needs 2 branches")
    d0, d1 = bm.multiplicities
    off = bm._offsets
    if d0 == d1 == 2 and off[0] % 4 != off[1] % 4:
        return _yes("both branches 2-to-1, images disjoint")
    if d0 == d1 == 1 and off[0] % 2 == off[1] % 2:
        return _yes("both branches bijective, images equal")
    return _no("neither 2-to-1 clause holds")


def cor33(bm: BranchMap, m: int = 3) -> CriterionVerdict:
    """3-to-1 with two branches (group order + 1 >= 13)."""
    if m != 3:
        return _na("m-out-of-range")
    if bm.decomp.index != 2:
        raise WrongIndex("cor33 needs 2 branches")
    if bm.decomp.ctx.order + 1 < 13:
        return _na("needs q >= 13")
    d0, d1 = bm.multiplicities
    off = bm._offsets
    if d0 == d1 == 3 and off[0] % 6 != off[1] % 6:
        return _yes("both branches 3-to-1, images disjoint")
    return _no("3-to-1 clause fails")


def cor42(bm: BranchMap, m: int = 2) -> CriterionVerdict:
    """2-to-1 with three branches (group order + 1 >= 7)."""
    if m != 2:
        return _na("m-out-of-range")
    if bm.decomp.index != 3:
        raise WrongIndex("cor42 needs 3 branches")
    if bm.decomp.ctx.order + 1 < 7:
        return _na("needs q >= 7")
    d = bm.multiplicities
    off = bm._offsets
    if d[0] == d[1] == d[2] == 2:
        if len({off[0] % 6, off[1] % 6, off[2] % 6}) == 3:
            return _yes("all branches 2-to-1, distinct images")
        return _no("images collide")
    for i, j, k in _ORDERINGS_3:
        if d[i] == d[j] == 1 and d[k] == 2:
            if off[i] % 3 == off[j] % 3 != off[k] % 3:
                return _yes("two bijective branches merge, 2-to-1 branch apart")
    return _no("no 2-to-1 clause holds")


def cor43(bm: BranchMap, m: int = 3) -> CriterionVerdict:
    """3-to-1 with three branches (group order + 1 >= 19)."""
    if m != 3:
        return _na("m-out-of-range")
    if bm.decomp.index != 3:
        raise WrongIndex("cor43 needs 3 branches")
    if bm.decomp.ctx.order + 1 < 19:
        return _na("needs q >= 19")
    d = bm.multiplicities
    off = bm._offsets
    if d[0] == d[1] == d[2] == 3:
        if len({off[0] % 9, off[1] % 9, off[2] % 9}) == 3:
            return _yes("all branches 3-to-1, distinct images")
    if off[0] % 3 == off[1] % 3 == off[2] % 3:
        if d[0] == d[1] == d[2] == 1:
            return _yes("all branches bijective, all images equal")
        for i, j, k in _ORDERINGS_3:
            if d[i] == 1 and d[j] == d[k] == 2:
                if off[j] % 6 != off[k] % 6:
                    return _yes("one bijective + two separated 2-to-1 branches")
    return _no("no 3-to-1 clause holds")


def cor53_branch_map(field, ell: int, a0: int, a1: int, r0: int, r1: int) -> BranchMap:
    """Map with branches (a0, r0), then (a1, r1) on every other coset."""
    decomp = CosetDecomposition(multiplicative_group(field), ell)
    return BranchMap(decomp, [(a0, r0)] + [(a1, r1)] * (ell - 1))


def cor53(field, ell: int, a0: int, a1: int, r0: int, r1: int, m: int) -> CriterionVerdict:
    """Repeated-branch map: m-to-1 iff gcd(r1, ell*d) == m."""
    if ell < 3:
        return _na("needs at least 3 branches")
    if (field.q - 1) % ell:
        raise WrongIndex(f"{ell} does not divide q-1")
    s = (field.q - 1) // ell
    d0, d1 = math.gcd(r0, s), math.gcd(r1, s)
    if d0 != d1:
        raise HypothesisViolated("gcd(r0, s) must equal gcd(r1, s)")
    d = d0
    if field.pow(a0, s // d) != field.pow(a1, s // d):
        raise HypothesisViolated("a0^(s/d) must equal a1^(s/d)")
    if not 1 <= m <= field.q - 1:
        return _na("m-out-of-range")
    if math.gcd(r1, ell * d) == m:
        return _yes("gcd(r1, l*d) == m")
    return _no("gcd(r1, l*d) != m")


def cor54(bm: BranchMap, m: int | None = None) -> CriterionVerdict:
    """d-to-1 (d the common multiplicity, the default m) iff residues all distinct."""
    d_set = set(bm.multiplicities)
    if len(d_set) != 1:
        raise UnequalGcds("branch multiplicities are not all equal")
    d = d_set.pop()
    if m is not None and m != d:
        return _na("m-out-of-range")
    ell = bm.decomp.index
    n = ell * d
    vals = [bm._offsets[i] % n for i in range(ell)]
    if len(set(vals)) == ell:
        return _yes(f"residues injective: map is {d}-to-1")
    return _no("residue collision: not d-to-1")


def cor55(bm: BranchMap, m: int) -> CriterionVerdict:
    """All branches bijective on their coset: m-to-1 iff residues m-to-1."""
    if set(bm.multiplicities) != {1}:
        raise HypothesisViolated("every gcd(r_i, s) must be 1")
    ell = bm.decomp.index
    s = bm.decomp.coset_size
    N = bm.decomp.ctx.order
    if not 1 <= m <= N:
        return _na("m-out-of-range")
    if not _def_mto1_on_values([bm._offsets[i] % ell for i in range(ell)], m):
        return _no("residues not m-to-1 over the branches")
    if s * (ell % m) >= m:
        return _no("size-bound fails")
    return _yes("bijective-branch clause")


def _cor56_order(q: int, n: int, ell: int) -> int:
    """q^n, after checking that GF(q^n) exists, l >= 1 and q^n = 1 (mod l^2)."""
    split_prime_power(q)
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if ell < 1:
        raise HypothesisViolated("needs l >= 1")
    qn = q ** n
    if (qn - 1) % (ell * ell):
        raise HypothesisViolated("needs q^n = 1 (mod l^2)")
    return qn


def cor56_branch_map(q: int, n: int, ell: int) -> BranchMap:
    """The interpolation map with scales l*w^(i(l-1)) and exponents q^i."""
    qn = _cor56_order(q, n, ell)
    p, e = split_prime_power(q)
    field = make_field(p, e * n)
    decomp = CosetDecomposition(multiplicative_group(field), ell)
    s = decomp.coset_size
    omega_exp = s  # generator**s is a primitive ell-th root of unity
    scales = [
        field.mul(field.from_int(ell), field.exp_at((i * (ell - 1) * omega_exp) % (qn - 1)))
        for i in range(ell)
    ]
    return BranchMap(decomp, [(scales[i], q ** i) for i in range(ell)])


def cor56(q: int, n: int, ell: int, m: int) -> CriterionVerdict:
    """Frobenius-exponent map: m-to-1 iff (x*q^x mod l) is m-to-1 on [l]."""
    qn = _cor56_order(q, n, ell)
    if not 1 <= m < qn:
        return _na("m-out-of-range")
    s = (qn - 1) // ell
    vals = [(i * pow(q, i, ell)) % ell for i in range(ell)]
    if not _def_mto1_on_values(vals, m):
        return _no("(x q^x) mod l not m-to-1")
    if s * (ell % m) >= m:
        return _no("size-bound fails")
    return _yes("frobenius-exponent clause")


def cor61_branch_map(field, g0: Polynomial, g1: Polynomial, r0: int, r1: int) -> BranchMap:
    """Branch constants realized as g_i(+-1)^(2 d_i)."""
    s = (field.q - 1) // 2
    d0, d1 = math.gcd(r0, s), math.gcd(r1, s)
    one = 1
    minus_one = field.neg(1)
    a0 = field.pow(g0.eval(one), 2 * d0)
    a1 = field.pow(g1.eval(minus_one), 2 * d1)
    decomp = CosetDecomposition(multiplicative_group(field), 2)
    return BranchMap(decomp, [(a0, r0), (a1, r1)])


def cor61(field, g0: Polynomial, g1: Polynomial, r0: int, r1: int, m: int) -> CriterionVerdict:
    """Log-free two-branch criterion with even-power constants."""
    if field.p == 2:
        raise HypothesisViolated("needs odd q")
    if g0.eval(1) == 0 or g1.eval(field.neg(1)) == 0:
        raise HypothesisViolated("g0(1) * g1(-1) must be nonzero")
    s = (field.q - 1) // 2
    d0, d1 = math.gcd(r0, s), math.gcd(r1, s)
    return _parity_clauses(d0, d1, r1, s, m, field.q - 1)


def cor62(q: int, n: int, h0: Polynomial, h1: Polynomial, r0: int, r1: int,
          m: int) -> CriterionVerdict:
    """Log-free two-branch criterion over GF(q^n) with base-field constants."""
    field = h0.field
    qn = q ** n
    if field.q != qn:
        raise HypothesisViolated("polynomials must live in GF(q^n)")
    if field.p == 2:
        raise HypothesisViolated("needs odd q")
    s = (qn - 1) // 2
    d0, d1 = math.gcd(r0, s), math.gcd(r1, s)
    d = min(d0, d1)
    if ((qn - 1) // (q - 1)) % (2 * d):
        raise HypothesisViolated("needs 2d | (q^n - 1)/(q - 1)")
    v0 = h0.eval(1)
    v1 = h1.eval(field.neg(1))
    for v in (v0, v1):
        if v == 0 or not field.in_subfield(v, q):
            raise HypothesisViolated("h_i(+-1) must be a nonzero base-field value")
    return _parity_clauses(d0, d1, r1, s, m, qn - 1)


def cor62_branch_map(q: int, n: int, h0: Polynomial, h1: Polynomial,
                     r0: int, r1: int) -> BranchMap:
    field = h0.field
    a0 = h0.eval(1)
    a1 = h1.eval(field.neg(1))
    decomp = CosetDecomposition(multiplicative_group(field), 2)
    return BranchMap(decomp, [(a0, r0), (a1, r1)])


def _parity_clauses(d0: int, d1: int, r1: int, s: int, m: int, order: int) -> CriterionVerdict:
    # The realized constants have log == 0 mod 2*d_i, so the image conditions
    # reduce to divisibility of r1 by 2m resp. 2d.  (The weaker odd/even form
    # is equivalent only when s is odd and silently fails otherwise, e.g.
    # r0 = r1 = 2 over a 13-element field.)
    if not 1 <= m <= order:
        return _na("m-out-of-range")
    if m == d0 == d1 and r1 % (2 * m):
        return _yes("equal multiplicities, second exponent splits the levels")
    if m == d0 + d1:
        d = min(d0, d1)
        if m % d == 0 and r1 % (2 * d) == 0 and (s // (m - d)) * (m - 2 * d) < m:
            return _yes("containment clause")
    return _no("no realized-constant clause holds")


class Criterion(NamedTuple):
    """How the CLI and the sweeps call one closed-form criterion."""

    fn: Callable[..., CriterionVerdict]  # called as fn(*args, m)
    fixed_m: int | None = None  # the one m that fn decides, and its m's default
    sweep: bool = False  # `verify` may hold it against the oracle
    equal_gcds: bool = False  # random sweeps draw exponents with equal gcds


# Name -> criterion, in the order `crit --theorem` and `verify --criterion`
# list them.
CRITERIA = {
    "l2": Criterion(criterion_l2, sweep=True),
    "l3": Criterion(criterion_l3, sweep=True),
    "2to1": Criterion(criterion_2to1_any_l, fixed_m=2, sweep=True),
    "equal-d": Criterion(criterion_equal_d, sweep=True, equal_gcds=True),
    "lift": Criterion(lift_to_full_field),
    "cor32": Criterion(cor32, fixed_m=2),
    "cor33": Criterion(cor33, fixed_m=3),
    "cor42": Criterion(cor42, fixed_m=2),
    "cor43": Criterion(cor43, fixed_m=3),
    "cor53": Criterion(cor53),
    "cor54": Criterion(cor54),  # m defaults to the common multiplicity
    "cor55": Criterion(cor55),
    "cor56": Criterion(cor56),
    "cor61": Criterion(cor61),
    "cor62": Criterion(cor62),
}


def specialized_criterion(variant: str, *args, **kwargs) -> CriterionVerdict:
    """Call one of the corollaries cor32 ... cor62, named in any case, as
    CRITERIA[name].fn(*args, **kwargs).  A fixed-m corollary (cor32, cor33,
    cor42, cor43) answers m-out-of-range at any m but its own."""
    name = variant.lower()
    if not name.startswith("cor") or name not in CRITERIA:
        raise ValueError(f"unknown criterion variant {variant!r}")
    return CRITERIA[name].fn(*args, **kwargs)
