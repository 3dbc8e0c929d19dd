"""Maps x^r * h(x^(q-1)) on GF(q^2) analyzed through the unit circle.

f(x) = x^r h(x^(q-1)) on GF(q^2)* corresponds to g(x) = x^r h(x)^(q-1) on
the norm-one subgroup U of order q+1.  When g acts as a monomial on each
coset of a subgroup of U the branch criteria apply verbatim with the unit
generator's logs.  x^r h(x^s), s = (q-1)/l, is the index-l branch map
(h(zeta^i), r), zeta = g^s: `criterion_equal_d` decides its subgroup
reduction, and the oracle classifies f as that map at l = q+1.  That one
map, built by `_xrh_branch_map`, fixes g too: with zeta0 = g^(q-1) and
off_j = j*r + log h(zeta0^j), g(zeta0^j) = zeta0^(off_j).  So g is itself
a branch map on U with one point per coset, its logs read off f's offsets:
the oracle counts it like any other branch map, and its branches are
inferred from those logs without a field operation.  Named
binomial/trinomial families with closed-form predictions live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .cyclotomic import (
    BranchMap,
    CosetDecomposition,
    GroupContext,
    Polynomial,
    multiplicative_group,
    subgroup_of_order,
    unit_circle,
)
from .errors import (
    ConstraintViolated,
    GcdHypothesis,
    HypothesisViolated,
    IndexNotDividingOrder,
    RootOnUnitCircle,
    _check_cap,
)
from .gf import Field, make_field, split_prime_power
from .mto1 import (
    CriterionVerdict,
    _counted_report,
    criterion_equal_d,
    criterion_l2,
    _na,
    _no,
    _yes,
)


def ext_field_for(q: int) -> Field:
    """GF(q^2) for a prime power q, via the deterministic defaults."""
    p, e = split_prime_power(q)
    return make_field(p, 2 * e)


def check_unit_index(q: int, ell: int):
    """IndexNotDividingOrder unless ell is a coset index of the unit circle."""
    if ell < 1 or (q + 1) % ell:
        raise IndexNotDividingOrder(f"{ell} does not divide {q + 1}")


@dataclass(frozen=True)
class WrappedMap:
    """f(x) = x^r * h(x^(q-1)) on GF(q^2), h root-free on the unit circle."""

    base_q: int
    field: Field
    r: int
    h: Polynomial
    unit: GroupContext

    def eval(self, x: int) -> int:
        if x == 0:
            return 0
        F = self.field
        y = F.pow(x, self.base_q - 1)
        return F.mul(F.pow(x, self.r), self.h.eval(y))


def make_wrapped(q: int, r: int, h: Polynomial, *, field: Field | None = None,
                 unit: GroupContext | None = None) -> WrappedMap:
    """Validate and build a wrapped map; h must not vanish on the unit circle,
    and field and unit, when given, must be h's field and its order-(q+1) subgroup."""
    F = field if field is not None else h.field
    if F.q != q * q or h.field is not F:
        raise ConstraintViolated(f"h must live in GF({q}^2)")
    if h.is_zero():
        raise ConstraintViolated("h must be nonzero")
    _check_cap(q + 1, "unit-circle points")
    u = unit if unit is not None else unit_circle(F, q)
    if u.field is not F or u.order != q + 1:
        raise ConstraintViolated(f"unit must be the order-{q + 1} subgroup of GF({q}^2)")
    for x in u:
        if h.eval(x) == 0:
            raise RootOnUnitCircle(f"h vanishes at unit-circle point {x}", point=x)
    return WrappedMap(base_q=q, field=F, r=r, h=h, unit=u)


def eval_wrapped(wm: WrappedMap, x: int) -> int:
    return wm.eval(x)


def reduce_to_unit(wm: WrappedMap) -> BranchMap:
    """g read from f's index-(q+1) branch map: g(zeta0^j) = zeta0^(off_j)."""
    return _unit_mapping(wm.unit, _xrh_branch_map(wm.field, wm.r, wm.h, wm.base_q + 1))


def _unit_mapping(unit: GroupContext, f_map: BranchMap) -> BranchMap:
    """g as the circle's branch map with one point per coset and exponent 0."""
    # zeta0 = g^index and the generator is zeta0^e, so g(generator^k) =
    # zeta0^(off_(e*k)) = generator^(off_(e*k) * e^-1)
    n, e, e_inv = unit.order, unit._gen_log // unit.index, unit._log_factor
    logs = [f_map.image_residue(e * k % n, n) * e_inv for k in range(n)]
    return BranchMap(CosetDecomposition(unit, n), log_scales=logs, exponents=[0] * n)


def infer_monomial_branches(g: BranchMap, ell: int) -> BranchMap | None:
    """Recover scales/exponents with g = scale_i * x^(e_i) on each coset, or None.

    With logs[k] = g.eval_exp(k), on coset i logs[k] = log scale_i + k*e_i
    (mod N): ell*e_i is logs[i + ell] - logs[i], the scale's log is fixed
    from logs[i], and every coset point is then checked.  The map is built
    from these logs.
    """
    ctx = g.decomp.ctx
    N = ctx.order
    if ell < 1 or N % ell:
        raise IndexNotDividingOrder(f"{ell} does not divide {N}")
    t = N // ell
    logs = [g.eval_exp(k) for k in range(N)]
    lam_logs, exponents = [], []
    for i in range(ell):
        ratio = (logs[(ell + i) % N] - logs[i]) % N
        if ratio % ell:
            return None
        e_i = (ratio // ell) % t
        lam_log = (logs[i] - i * e_i) % N
        for k in range(i, N, ell):
            if logs[k] != (lam_log + k * e_i) % N:
                return None
        lam_logs.append(lam_log)
        exponents.append(e_i)
    return BranchMap(CosetDecomposition(ctx, ell), log_scales=lam_logs, exponents=exponents)


# ---------------------------------------------------------------------------
# Criteria for wrapped maps.
# ---------------------------------------------------------------------------

def classify_wrapped(wm: WrappedMap):
    """Oracle classification of f over GF(q^2)*, as a cyclotomic map.

    x = g^k has x^(q-1) = zeta0^(k mod q+1) with zeta0 = g^(q-1), so f is
    the index-(q+1) branch map of GF(q^2)* with branches (h(zeta0^i), r)
    and is classified as one, by counting its points.
    """
    return _counted_report(_xrh_branch_map(wm.field, wm.r, wm.h, wm.base_q + 1))


def classify_unit_mapping(g: BranchMap):
    """Oracle classification of g on the unit circle, by counting its points."""
    return _counted_report(g)


def _wrap_bound_ok(q: int, m: int) -> bool:
    return (q - 1) * ((q + 1) % m) < m


def criterion_wrapped(wm: WrappedMap, m: int, ell: int | None = None) -> CriterionVerdict:
    """m-to-1 of f over GF(q^2)* decided on the unit circle.

    Both paths read f's index-(q+1) branch map, built at most once per call.
    With a coset index and monomial branches of g(zeta0^j) = zeta0^(off_j),
    the two-branch or equal-multiplicity criterion runs with unit-circle logs,
    conjoined with the wrapping bound.  Otherwise it is `criterion_equal_d` on
    f's map as in `criterion_xrh`, with d = 1 and the wrapping bound as size bound.
    """
    q = wm.base_q
    if math.gcd(wm.r, q - 1) != 1:
        raise GcdHypothesis("needs gcd(r, q-1) = 1")
    if not 1 <= m <= q + 1:
        return _na("m-out-of-range")
    wrap_ok = _wrap_bound_ok(q, m)
    f_map = None
    if ell is not None:
        check_unit_index(q, ell)
        f_map = _xrh_branch_map(wm.field, wm.r, wm.h, q + 1)
        bm = infer_monomial_branches(_unit_mapping(wm.unit, f_map), ell)
        if bm is not None:
            inner = None
            if ell == 2:
                inner = criterion_l2(bm, m)
                path = "two-branch"
            elif len(set(bm.multiplicities)) == 1:
                inner = criterion_equal_d(bm, m)
                path = "equal-multiplicity"
            if inner is not None:  # both answer every 1 <= m <= q+1
                if not wrap_ok:
                    return _no(f"unit {path}: wrapping bound fails")
                return CriterionVerdict(True, inner.holds, f"unit {path}: {inner.witness}")
    if not wrap_ok:
        return _no("unit oracle: wrapping bound fails")
    if criterion_equal_d(f_map or _xrh_branch_map(wm.field, wm.r, wm.h, q + 1), m).holds:
        return _yes("unit oracle: g is m-to-1 and wrapping bound holds")
    return _no("unit oracle: g is not m-to-1")


def _xrh_branch_map(field: Field, r: int, h: Polynomial, ell: int) -> BranchMap:
    """x^r h(x^s), s = (q-1)/ell, as the index-ell branch map of F_q*: x = g^k
    has x^s = zeta^(k mod ell) with zeta = g^s, so branch i is (h(zeta^i), r).

    Where the field's tables exist, h is evaluated in exponents: term e at
    zeta^i is exp[(log c_e + s*i*e) mod (q-1)], one `Field.sum` adds the
    terms, and the map takes log h(zeta^i) from the table as branch i's
    log; no branch constant is formed and no discrete log is taken.
    """
    N = field.q - 1
    if ell < 1 or N % ell:
        raise IndexNotDividingOrder(f"{ell} does not divide {N}")
    decomp = CosetDecomposition(multiplicative_group(field), ell)
    tables = field._tables()
    if tables is None:
        branches = []
        for zeta_i in subgroup_of_order(field, ell):
            val = h.eval(zeta_i)
            if val == 0:
                raise RootOnUnitCircle("h vanishes on the subgroup", point=zeta_i)
            branches.append((val, r))
        return BranchMap(decomp, branches)
    exp, log = tables
    s = N // ell
    terms = [(log[h.coeffs[e]], s * e) for e in h._support]
    logs = []
    for i in range(ell):
        val = field.sum([exp[(lc + i * se) % N] for lc, se in terms])
        if val == 0:
            raise RootOnUnitCircle("h vanishes on the subgroup", point=exp[s * i % N])
        logs.append(log[val])
    return BranchMap(decomp, log_scales=logs, exponents=[r] * ell)


def criterion_xrh(field: Field, r: int, h: Polynomial, ell: int, m: int) -> CriterionVerdict:
    """General power-times-subgroup-polynomial criterion on any F_q*.

    f(x) = x^r h(x^s) with s = (q-1)/ell is m-to-1 on F_q* iff d = gcd(r, s)
    divides m, x^(r/d) h(x)^(s/d) is (m/d)-to-1 on the order-ell subgroup,
    and s*(ell mod (m/d)) < m: `criterion_equal_d` on f's index-ell branch
    map, as the reduced map's log at zeta^i is (s/d)(i*r + log h(zeta^i)).
    """
    bm = _xrh_branch_map(field, r, h, ell)
    if not 1 <= m <= field.q - 1:
        return _na("m-out-of-range")
    if criterion_equal_d(bm, m).holds:
        return _yes("reduced subgroup map is (m/d)-to-1 within the size bound")
    return _no("reduction clause fails")


def xrh_valid_ms(field: Field, r: int, h: Polynomial, ell: int) -> frozenset[int]:
    """All m for which `criterion_xrh` holds; they lie among d, 2d, ..., ell*d."""
    bm = _xrh_branch_map(field, r, h, ell)
    d = bm.multiplicities[0]
    return frozenset(m for m in range(d, ell * d + 1, d) if criterion_equal_d(bm, m).holds)


# ---------------------------------------------------------------------------
# Named families.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    family_id: str
    params: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class FamilyResult:
    family_id: str
    wrapped: WrappedMap
    predicted_ms: frozenset[int]
    details: dict


def _require(cond: bool, name: str):
    if not cond:
        raise ConstraintViolated(name)


def _family_env(q: int):
    _check_cap(q + 1, "unit-circle points")  # before h, with up to q+1 dense coefficients
    F = ext_field_for(q)
    unit = unit_circle(F, q)
    return F, unit


def family_cbu(q: int, r: int, u: int, a: int) -> FamilyResult:
    """Binomial with unit-circle constant at the half-turn offset."""
    F, unit = _family_env(q)
    _require(q % 2 == 1, "q must be odd")
    t = (q + 1) // 2
    _require(0 <= u < t, "need 0 <= u < t")
    _require(math.gcd(r, q - 1) == 1, "need gcd(r, q-1) = 1")
    _require(unit.contains(a), "a must lie on the unit circle")
    e = (q + 1) // math.gcd(q + 1, u + t)
    if F.pow(F.neg(a), e) == 1:
        raise RootOnUnitCircle("h = 1 + a*y^(u+t) vanishes on the unit circle")
    h = Polynomial.from_terms(F, {0: 1, u + t: a})
    wm = make_wrapped(q, r, h, field=F, unit=unit)
    d1 = math.gcd(r - u, t)
    if (r - u - t) % (2 * d1):
        predicted, clause = {d1}, "offset-exponent gcd, half-turn separated"
    else:
        predicted, clause = {2 * d1}, "offset-exponent gcd doubled, half-turn merged"
    return FamilyResult("CBU", wm, frozenset(predicted), {"d": d1, "clause": clause})


def family_cb0(q: int, r: int, u: int, a: int) -> FamilyResult:
    """Binomial whose reduction is a single monomial on the unit circle."""
    F, unit = _family_env(q)
    _require(q % 2 == 1, "q must be odd")
    t = (q + 1) // 2
    _require(0 <= u < t, "need 0 <= u < t")
    _require(math.gcd(r, q - 1) == 1, "need gcd(r, q-1) = 1")
    _require(unit.contains(a), "a must lie on the unit circle")
    e = (q + 1) // math.gcd(q + 1, u) if u else 1
    if F.pow(F.neg(a), e) == 1:
        raise RootOnUnitCircle("h = 1 + a*y^u vanishes on the unit circle")
    h = Polynomial.from_terms(F, {0: 1, u: a} if u else {0: F.add(1, a)})
    wm = make_wrapped(q, r, h, field=F, unit=unit)
    m = math.gcd(r - u, q + 1)
    return FamilyResult("CB0", wm, frozenset({m}), {"m": m})


def family_ctab(q: int, r: int, u: int, v: int, a: int, b: int) -> FamilyResult:
    """Trinomial with a^(q-1) = -1 and norm(b) = 1 - a^2."""
    F, unit = _family_env(q)
    _require(q % 2 == 1, "q must be odd")
    t = (q + 1) // 2
    _require(0 < u < t, "need 0 < u < t")
    _require(v in (0, 1), "need v in {0, 1}")
    _require(math.gcd(r, q - 1) == 1, "need gcd(r, q-1) = 1")
    _require(a != 0 and F.pow(a, q - 1) == F.neg(1), "need a^(q-1) = -1")
    one_minus_a2 = F.sub(1, F.mul(a, a))
    _require(b != 0 and F.pow(b, q + 1) == one_minus_a2, "need b^(q+1) = 1 - a^2")
    h = Polynomial.from_terms(F, {0: 1, t: a, u + v * t: b})
    wm = make_wrapped(q, r, h, field=F, unit=unit)  # raises if h has unit roots
    ratio = F.div(F.sub(1, a), F.add(1, a))
    if v:
        ratio = F.neg(ratio)
    w = unit.dlog(ratio)
    d1 = math.gcd(r - u, t)
    if (r - u - w) % (2 * d1):
        predicted = {d1}
    else:
        predicted = {2 * d1}
    return FamilyResult("CTAB", wm, frozenset(predicted), {"w": w, "d": d1})


def family_cta(q: int, r: int, u: int, v: int, a: int) -> FamilyResult:
    """Trinomial with a^(q+1) = 4."""
    F, unit = _family_env(q)
    _require(q % 2 == 1, "q must be odd")
    t = (q + 1) // 2
    _require(0 < u < t, "need 0 < u < t")
    _require(v in (0, 1), "need v in {0, 1}")
    _require(math.gcd(r, q - 1) == 1, "need gcd(r, q-1) = 1")
    four = F.from_int(4)
    _require(a != 0 and F.pow(a, q + 1) == four, "need a^(q+1) = 4")
    h = Polynomial.from_terms(F, {0: 1, t: F.neg(1), u + v * t: a})
    wm = make_wrapped(q, r, h, field=F, unit=unit)
    lam = F.mul(F.from_int(2), F.inv(a))
    if v:
        lam = F.neg(lam)
    W = unit.dlog(lam)
    d1 = math.gcd(r - u, t)
    d2 = math.gcd(r - 2 * u, t)
    d = min(d1, d2)
    predicted = set()
    details = {"W": W, "d1": d1, "d2": d2}
    if d1 == d2:
        m = d1
        if _wrap_bound_ok(q, m) and (r - u - W) % (2 * m):
            predicted.add(m)
    m = d1 + d2
    if (
        m <= q + 1
        and _wrap_bound_ok(q, m)
        and m % d == 0
        and (r - u - W) % (2 * d) == 0
        and (t // (m - d)) * (m - 2 * d) < m
    ):
        predicted.add(m)
    return FamilyResult("CTA", wm, frozenset(predicted), details)


def family_ctkuv(q: int, r: int, u: int, v: int, k: int, a: int) -> FamilyResult:
    """Trinomial over a third-of-the-circle decomposition."""
    F, unit = _family_env(q)
    _require(q % 3 == 2 and q >= 5, "need q = 2 (mod 3), q >= 5")
    t = (q + 1) // 3
    _require(0 < u < t, "need 0 < u < t")
    _require(v in (0, 1), "need v in {0, 1}")
    _require(k in (1, 2), "need k in {1, 2}")
    _require(math.gcd(r, q - 1) == 1, "need gcd(r, q-1) = 1")
    eps = unit.element(t)
    one_minus_ek = F.sub(1, F.pow(eps, k))
    _require(a != 0, "a must be nonzero")
    ratio = F.div(one_minus_ek, a)
    _require(unit.contains(ratio), "(1 - eps^k)/a must lie on the unit circle")
    d1 = math.gcd(r - u, t)
    d2 = math.gcd(r - 2 * u, t)
    if d1 != d2:
        raise HypothesisViolated(
            "gcd(r-u, t) and gcd(r-2u, t) differ; no prediction in this regime"
        )
    d = d1
    h = Polynomial.from_terms(F, {0: 1, k * t: F.neg(1), u + v * t: a})
    wm = make_wrapped(q, r, h, field=F, unit=unit)
    inv_a = F.inv(a)
    z1 = unit.dlog(F.mul(inv_a, F.mul(one_minus_ek, F.pow(eps, v))))
    z2 = unit.dlog(
        F.mul(inv_a, F.mul(F.sub(1, F.pow(eps, -k)), F.pow(eps, -v)))
    )
    n3 = 3 * d
    hits = [(i * (r - u) - z) % n3 == 0 for i, z in ((1, z1), (2, z2))]
    predicted = set()
    if all(hits):
        predicted.add(3 * d)
    elif not any(hits) and (r - u - (z2 - z1)) % n3:
        predicted.add(d)
    return FamilyResult(
        "CTKUV", wm, frozenset(predicted), {"z1": z1, "z2": z2, "d": d}
    )


def family_b1(q: int, ell: int, r: int, v: int, a: int) -> FamilyResult:
    """Binomial constant on index-ell cosets of the unit circle."""
    F, unit = _family_env(q)
    _require(ell >= 1 and (q + 1) % ell == 0, "need ell | q+1")
    t = (q + 1) // ell
    _require(0 <= v < ell, "need 0 <= v < ell")
    _require(a != 0, "a must be nonzero")
    h = Polynomial.from_terms(F, {0: 1, v * t: a} if v else {0: F.add(1, a)})
    wm = make_wrapped(q, r, h, field=F, unit=unit)
    return FamilyResult("B1", wm, xrh_valid_ms(F, r, h, q + 1), {})


def family_b2(q: int, ell: int, r: int, u: int, v: int, a: int) -> FamilyResult:
    """Binomial with unit-circle constant and free coset offset."""
    F, unit = _family_env(q)
    _require(ell >= 1 and (q + 1) % ell == 0, "need ell | q+1")
    t = (q + 1) // ell
    _require(0 <= u < t and 0 <= v < ell, "need 0 <= u < t, 0 <= v < ell")
    _require(unit.contains(a), "a must lie on the unit circle")
    e = u + v * t
    h = Polynomial.from_terms(F, {0: 1, e: a} if e else {0: F.add(1, a)})
    wm = make_wrapped(q, r, h, field=F, unit=unit)
    return FamilyResult("B2", wm, xrh_valid_ms(F, r, h, q + 1), {})


def family_b3(q: int, ell: int, r: int, v: int, a: int) -> FamilyResult:
    """Binomial on the half-step exponent; needs 2*ell | q+1."""
    F, unit = _family_env(q)
    _require(ell >= 1 and (q + 1) % (2 * ell) == 0, "need 2*ell | q+1")
    _require(0 <= v < ell, "need 0 <= v < ell")
    _require(a != 0, "a must be nonzero")
    e = (1 + 2 * v) * (q + 1) // (2 * ell)
    h = Polynomial.from_terms(F, {0: 1, e: a})
    wm = make_wrapped(q, r, h, field=F, unit=unit)
    return FamilyResult("B3", wm, xrh_valid_ms(F, r, h, q + 1), {})


def family_t4(q: int, r: int, a: int) -> FamilyResult:
    """Trinomial on sixth-of-the-circle exponents."""
    F, unit = _family_env(q)
    _require((q + 1) % 6 == 0, "need 6 | q+1")
    _require(a != 0, "a must be nonzero")
    t6 = (q + 1) // 6
    h = Polynomial.from_terms(F, {0: 1, t6: a, 5 * t6: F.neg(F.inv(a))})
    wm = make_wrapped(q, r, h, field=F, unit=unit)
    return FamilyResult("T4", wm, xrh_valid_ms(F, r, h, q + 1), {})


def family_t5(q: int, r: int, a: int) -> FamilyResult:
    """Mirror of the sixth-of-the-circle trinomial."""
    F, unit = _family_env(q)
    _require((q + 1) % 6 == 0, "need 6 | q+1")
    _require(a != 0, "a must be nonzero")
    t6 = (q + 1) // 6
    h = Polynomial.from_terms(F, {0: 1, 5 * t6: a, t6: F.neg(F.inv(a))})
    wm = make_wrapped(q, r, h, field=F, unit=unit)
    return FamilyResult("T5", wm, xrh_valid_ms(F, r, h, q + 1), {})


# The named families; family_<id> (lower case) constructs each one.
_FAMILY_IDS = ("CBU", "CB0", "CTAB", "CTA", "CTKUV", "B1", "B2", "B3", "T4", "T5")
# `e` in a family's constants is the unit-circle step (q+1)/k, k given here:
# a third of the circle for CTKUV, a half for the other families that use it.
FAMILY_TURNS = {"CTKUV": 3, "CBU": 2, "CB0": 2, "CTAB": 2, "CTA": 2}


def family_function(family_id: str):
    """The constructor of a named family; the name is matched in any case.

    It is looked up in this module's bindings at call time, so a wrapper
    installed on `family_<id>` sees the call.
    """
    name = family_id.upper()
    if name not in _FAMILY_IDS:
        raise ValueError(f"unknown family {family_id!r}")
    return globals()[f"family_{name.lower()}"]


def family_construct(spec: FamilySpec) -> FamilyResult:
    return family_function(spec.family_id)(**spec.params)
