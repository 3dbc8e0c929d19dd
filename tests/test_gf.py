import math
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclomap import gf, make_field, residue_progression_relation, solve_diophantine
from cyclomap.cyclotomic import Polynomial, multiplicative_group
from cyclomap.errors import (
    CapExceeded,
    DivisibilityViolation,
    DivisionByZero,
    NotPrime,
    NotPrimitive,
    ReducibleModulus,
    ZeroArgument,
)
from cyclomap.gf import (
    Field,
    ProgressionKind,
    _default_modulus,
    _is_irreducible,
    _unit_group_factors,
    _x_is_primitive,
    divisors,
    is_prime,
    prime_factors,
    split_prime_power,
)
from cyclomap.search import SplitMix64


def test_default_fields_match_known_choices():
    assert make_field(13).generator == 2  # least primitive root
    assert make_field(17).generator == 3
    f4 = make_field(2, 2)
    assert f4.modulus == (1, 1, 1)  # only irreducible quadratic over F_2
    assert f4.generator == 2  # class of x


def test_construction_rejects_bad_input():
    with pytest.raises(NotPrime):
        make_field(12)
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(NotPrimitive):
        make_field(13, generator=12)  # order 2
    with pytest.raises(NotPrimitive):
        make_field(13, generator=3)  # order 3


def test_generator_must_be_a_nonzero_field_element():
    # [2, 1] over GF(13) was kept as code 15, and 31 over GF(5^2) as code
    # 31: neither is a field element, and the generator's dlog raised IndexError
    for p, n, gen in ((13, 1, [2, 1]), (5, 2, 31), (5, 2, -1), (5, 2, 25), (5, 2, [1, 1, 1]),
                      (13, 1, 0), (13, 1, [0])):
        with pytest.raises(NotPrimitive, match=r"^generator -?\d+ is not a nonzero field element$"):
            make_field(p, n, generator=gen)
    assert make_field(13, generator=15).generator == 2  # an int is reduced mod p


def test_arith_examples(f13):
    assert f13.pow(2, 6) == 12
    assert f13.inv(2) == 7
    f4 = make_field(2, 2)
    x = 2
    assert f4.mul(x, x) == 3  # x^2 = x + 1 under x^2 + x + 1


@pytest.mark.parametrize("p,n", [(13, 1), (17, 1), (2, 2), (3, 2), (5, 2), (2, 6)])
def test_field_axioms_random_triples(p, n):
    F = make_field(p, n)
    rng = SplitMix64(20240902)
    for _ in range(10_000):
        a = rng.randrange(F.q)
        b = rng.randrange(F.q)
        c = rng.randrange(F.q)
        assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("p,n", [(13, 1), (2, 6), (5, 2)])
def test_dlog_roundtrip_full(p, n):
    F = make_field(p, n)
    for x in range(1, F.q):
        assert F.exp_at(F.dlog(x)) == x
    with pytest.raises(ZeroArgument):
        F.dlog(0)


def test_dlog_examples(f13):
    assert f13.dlog(1) == 0
    assert f13.dlog(12) == 6
    assert f13.dlog(4) == 2


def test_pow_zero_and_negative(f13):
    assert f13.pow(5, 0) == 1
    assert f13.pow(0, 3) == 0
    assert f13.pow(0, 0) == 1
    assert f13.pow(2, -1) == 7
    with pytest.raises(DivisionByZero):
        f13.inv(0)
    with pytest.raises(DivisionByZero):
        f13.pow(0, -1)


def test_bsgs_path_matches_table():
    tabled = make_field(3, 4)
    raw = make_field(3, 4, log_threshold=0)
    assert not raw.has_log_table
    for x in (1, 2, 5, 17, 80, 43):
        assert raw.dlog(x) == tabled.dlog(x)
        assert raw.mul(x, 7) == tabled.mul(x, 7)
        assert raw.pow(x, 29) == tabled.pow(x, 29)


def _reference_prime_factors(m):
    """Distinct prime divisors of m by trial division up to sqrt(m)."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def _reference_default_modulus(p, n):
    """The modulus search without pre-filters: every c0 != 0 in lex order."""
    q = p ** n
    factors = _reference_prime_factors(q - 1)
    for cs in product(range(p), repeat=n):
        f = list(cs) + [1]
        if cs[0] and _is_irreducible(f, p, n) and _x_is_primitive(f, p, q, factors):
            return tuple(f)
    return None


def test_default_modulus_matches_unfiltered_search():
    fields = [(p, n) for p in range(2, 56) if is_prime(p)
              for n in range(2, 12) if p ** n <= 5 ** 5]
    assert len(fields) == 37
    for p, n in fields:
        assert _default_modulus(p, n) == _reference_default_modulus(p, n), (p, n)


def test_default_modulus_of_larger_test_fields_is_pinned():
    # the fields of this file beyond the unfiltered search above
    assert _default_modulus(2, 13) == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)
    assert _default_modulus(2, 40) == (1, *[0] * 34, 1, 1, 1, 0, 0, 1)
    assert _default_modulus(1000003, 2) == (2, 4, 1)


def test_default_modulus_large_prime_quadratic_is_fast():
    # Each candidate costs a distinct-degree test, nothing linear in p.
    start = time.perf_counter()
    F = make_field(1000003, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"make_field(1000003, 2) took {elapsed:.2f}s"
    f = list(F.modulus)
    assert f[-1] == 1 and _is_irreducible(f, F.p, 2)
    assert _x_is_primitive(f, F.p, F.q, prime_factors(F.q - 1))
    assert F.generator == F.p and not F.has_log_table


def _non_x_generator(p, n):
    """A primitive element code other than x, found in the default field."""
    F = make_field(p, n)
    k = next(k for k in range(2, F.q - 1) if math.gcd(k, F.q - 1) == 1)
    return F.exp_at(k)


@pytest.mark.parametrize("p,n,non_x", [
    (31, 1, False), (2, 9, False), (3, 5, False), (2, 9, True), (3, 5, True),
])
def test_tables_built_at_construction_match_raw_powers(p, n, non_x):
    base = make_field(p, n)
    gen = _non_x_generator(p, n) if non_x else None
    F = Field(p, n, base.modulus, gen)  # uncached, so its tables are its own
    assert (F.generator == p) is (n > 1 and not non_x)
    rng = SplitMix64(p * 100 + n)
    for k in [0, 1, F.q - 2] + [rng.randrange(F.q - 1) for _ in range(200)]:
        x = F._pow_raw(F.generator, k)
        assert F.exp_at(k) == x
        assert F.dlog(x) == k


def test_field_above_threshold_never_builds_tables():
    F = make_field(2, 10, log_threshold=512)
    assert not F.has_log_table
    assert F.mul(F.exp_at(700), F.generator) == F.exp_at(701)
    assert F.dlog(F.exp_at(700)) == 700
    assert F._log is None and F._exp is None


def test_scalar_operations_build_tables_only_on_small_fields():
    # GF(2^13) uses tables, but only a walk over the field builds them
    base = make_field(2, 13)
    F = Field(2, 13, base.modulus)  # uncached, so no tables yet
    x = F.exp_at(1000)
    assert F.dlog(x) == 1000 and F.dlog(F.inv(x)) == F.q - 1 - 1000
    assert F.mul(x, F.generator) == F.exp_at(1001) and F.pow(x, 3) == F.exp_at(3000)
    assert F.has_log_table and F._log is None
    F._load_tables()
    assert F._log is not None and F.exp_at(1000) == x and F.dlog(x) == 1000


@pytest.mark.parametrize("p,n,threshold", [(2, 12, None), (2, 12, 1 << 10), (3, 8, None)])
def test_only_fields_of_at_most_4096_elements_build_tables_when_made(p, n, threshold, monkeypatch):
    # GF(2^12) has 4096 elements, the largest order whose tables come with
    # the field; GF(3^8) has 6561, so scalar operations leave it untabled
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    kw = {} if threshold is None else {"log_threshold": threshold}
    F = make_field(p, n, **kw)
    made = Field(p, n, F.modulus, **kw)  # uncached
    tabled = F.has_log_table and F.q <= 4096
    assert (F._log is not None) is tabled and (made._log is not None) is tabled
    twin = make_field(p, n, log_threshold=0)
    rng = SplitMix64(F.q)
    for _ in range(100):
        a, b = rng.randrange(F.q), 1 + rng.randrange(F.q - 1)
        xs = [rng.randrange(F.q) for _ in range(rng.randrange(8))]
        e, k = rng.randrange(2 * F.q) - F.q, rng.randrange(F.q - 1)
        results = [(G.add(a, b), G.sum(xs), G.neg(a), G.sub(a, b), G.mul(a, b), G.inv(b),
                    G.div(a, b), G.pow(b, e), G.exp_at(k), G.dlog(b)) for G in (F, twin)]
        assert results[0] == results[1], (a, b, xs, e, k)
    assert (F._log is not None) is tabled and twin._log is None
    assert len(set(multiplicative_group(F))) == F.q - 1  # a walk
    assert (F._log is not None) is F.has_log_table


@pytest.mark.parametrize("p,n", [(5, 1), (13, 1), (3, 4), (2, 6), (5, 3), (7, 2), (2, 10)])
def test_pohlig_hellman_matches_tables_on_every_element(p, n):
    tabled = make_field(p, n)
    raw = make_field(p, n, log_threshold=0)
    for x in range(1, tabled.q):
        assert raw.dlog(x) == tabled.dlog(x), x


def test_pohlig_hellman_at_degree_40_keeps_small_baby_tables():
    F = make_field(2, 40)
    order = F.q - 1
    rng = SplitMix64(40)
    for k in [0, 1, order - 1, order // 3] + [rng.randrange(order) for _ in range(5)]:
        assert F.dlog(F.exp_at(k)) == k
    assert F._log is None
    # one baby table per prime factor of q - 1, none near sqrt(q - 1) = 2^20
    assert set(F._bsgs_baby) <= set(prime_factors(order))
    assert max(len(baby) for _, baby, _ in F._bsgs_baby.values()) <= math.isqrt(61681) + 1


def test_coeffs_roundtrip():
    F = make_field(3, 2)
    for code in range(F.q):
        assert F.from_coeffs(F.coeffs(code)) == code


def test_subfield_membership():
    F = make_field(2, 6)  # GF(64) contains GF(8)
    members = [x for x in range(F.q) if F.in_subfield(x, 8)]
    assert len(members) == 8


# -- integer lemmas ----------------------------------------------------------

def test_diophantine_examples():
    sol = solve_diophantine(4, 6, 2)
    assert sol is not None and 4 * sol.x0 + 6 * sol.y0 == 2 and sol.d == 2
    assert solve_diophantine(4, 6, 3) is None
    sol = solve_diophantine(1, 0, 5)
    assert sol.x0 == 5 and sol.y0 == 0 and sol.d == 1
    with pytest.raises(ValueError):
        solve_diophantine(0, 0, 1)


@settings(max_examples=300)
@given(
    st.integers(-200, 200), st.integers(-200, 200), st.integers(-500, 500)
)
def test_diophantine_general_solution(a, b, c):
    if a == 0 and b == 0:
        return
    sol = solve_diophantine(a, b, c)
    d = math.gcd(a, b)
    if c % d:
        assert sol is None
        return
    assert sol.d == d
    for k in range(-2, 3):
        x = sol.x0 + k * sol.stride
        y = sol.y0 - k * (a // d)
        assert a * x + b * y == c


def test_progression_examples():
    rel = residue_progression_relation(4, 6, 2, 12)
    assert rel.kind is ProgressionKind.OVERLAP
    assert rel.elements() == {8}
    rel = residue_progression_relation(2, 4, 2, 12)
    assert rel.kind is ProgressionKind.CONTAINED
    rel = residue_progression_relation(4, 6, 3, 12)
    assert rel.kind is ProgressionKind.DISJOINT
    with pytest.raises(DivisibilityViolation):
        residue_progression_relation(5, 6, 0, 12)


def test_progression_matches_enumeration_all_small():
    for n in range(1, 61):
        for a in divisors(n):
            for b in divisors(n):
                A = {(a * x) % n for x in range(n)}
                for c in range(n):
                    B = {(b * y + c) % n for y in range(n)}
                    rel = residue_progression_relation(a, b, c, n)
                    inter = A & B
                    if rel.kind is ProgressionKind.DISJOINT:
                        assert not inter
                    else:
                        assert rel.elements() == inter
                        if rel.kind is ProgressionKind.CONTAINED:
                            assert B <= A
                        else:
                            assert inter and not (B <= A)


def test_prime_helpers():
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(33)
    assert prime_factors(63) == (3, 7)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)


# -- table-backed addition: Zech logarithms --------------------------------------

_ODD_EXTENSIONS = [(p, n) for p in (3, 5, 7, 11, 13) for n in range(2, 6) if p ** n <= 243]


def _tabled_and_digit_twins(p, n):
    """GF(p^n) with its tables built, and the same field that never builds them."""
    tabled = make_field(p, n)
    tabled._load_tables()
    digits = make_field(p, n, log_threshold=0)
    assert tabled._zech is not None and digits._log is None
    return tabled, digits


@pytest.mark.parametrize("p,n", _ODD_EXTENSIONS)
def test_zech_addition_matches_digit_arithmetic_on_all_pairs(p, n):
    F, D = _tabled_and_digit_twins(p, n)
    for a in range(F.q):
        assert F.neg(a) == D.neg(a), a
        assert F.add(a, D.neg(a)) == 0
        for b in range(F.q):
            assert F.add(a, b) == D.add(a, b), (a, b)
            assert F.sub(a, b) == D.sub(a, b), (a, b)
    assert D._log is None


@pytest.mark.parametrize("p,n", [(3, 7), (5, 5), (7, 4), (13, 3)])
def test_zech_addition_matches_digit_arithmetic_on_seeded_pairs(p, n):
    F, D = _tabled_and_digit_twins(p, n)
    rng = SplitMix64(p ** n)
    for i in range(20_000):
        a = rng.randrange(F.q) if i % 10 else 0
        b = (D.neg(a), 0, rng.randrange(F.q))[i % 3] if i % 7 else rng.randrange(F.q)
        assert F.add(a, b) == D.add(a, b), (a, b)
        assert F.sub(a, b) == D.sub(a, b), (a, b)
        assert F.neg(b) == D.neg(b), b


@pytest.mark.parametrize("p,n", _ODD_EXTENSIONS + [(2, 6), (13, 1)])
def test_log_domain_eval_matches_untabled_eval(p, n):
    F, D = make_field(p, n), make_field(p, n, log_threshold=0)
    F._load_tables()
    rng = SplitMix64(100 * p + n)
    for _ in range(30):
        degree = rng.randrange(F.q)
        coeffs = [rng.randrange(F.q) if rng.randrange(3) else 0 for _ in range(degree + 1)]
        for x in (0, 1, rng.randrange(F.q)):
            assert Polynomial(F, coeffs).eval(x) == Polynomial(D, coeffs).eval(x), (coeffs, x)
    assert D._log is None


@pytest.mark.parametrize("p,n,threshold", [
    (13, 1, None), (2, 6, None), (3, 4, None), (7, 2, None), (3, 4, 0), (2, 6, 0)])
def test_sum_is_a_left_fold_of_add(p, n, threshold):
    # threshold 0 never builds tables: an odd extension field adds by digits,
    # so the fold reference D.add stays digit arithmetic for the tabled F too
    F = make_field(p, n) if threshold is None else make_field(p, n, log_threshold=threshold)
    if threshold is None:
        F._load_tables()
    D = make_field(p, n, log_threshold=0)
    rng = SplitMix64(1000 * p + n)
    assert F.sum([]) == F.sum(iter(())) == 0
    for _ in range(300):
        pool = [rng.randrange(F.q) for _ in range(1 + rng.randrange(4))]
        pool += [0, F.neg(pool[0])]  # zeros, and partial sums that cancel
        xs = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(12))]
        acc = 0
        for x in xs:
            acc = D.add(acc, x)
        assert F.sum(xs) == F.sum(iter(xs)) == acc, xs
    assert (F._log is None) == (threshold == 0) and D._log is None


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (13, 1)])
def test_raw_pow_and_exp_at_reduce_any_exponent(p, n):
    F, raw = make_field(p, n), make_field(p, n, log_threshold=0)
    order = F.q - 1
    for e in (-3 * order - 2, -order - 1, -order, -2, -1, 0, order + 5, 4 * order + 1):
        assert raw.exp_at(e) == F.exp_at(e), e
        for a in range(1, F.q):
            assert raw.pow(a, e) == F.pow(a, e), (a, e)
    for a in range(1, F.q):
        assert raw.inv(a) == F.inv(a) and raw.neg(a) == F.neg(a), a
    assert raw._log is None and F._log is not None


# -- bounded primality -------------------------------------------------------------

# Field orders of the goldens, the acceptance suite and the benchmark workloads
_PINNED_ORDERS = (5, 7, 9, 11, 13, 16, 17, 19, 25, 29, 32, 49, 64, 81, 121, 169, 1024,
                  2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18, 2 ** 20, 3 ** 10, 5 ** 7, 1048573)


def test_prime_factors_of_pinned_field_orders_are_unchanged():
    test_fields = [(p, n) for p in range(2, 56) if is_prime(p)
                   for n in range(1, 12) if p ** n <= 5 ** 5]
    for q in _PINNED_ORDERS + tuple(p ** n for p, n in test_fields):
        p, n = split_prime_power(q)
        for m in (q, q - 1, p - 1):
            assert prime_factors(m) == _reference_prime_factors(m), m
        assert _unit_group_factors(p, n) == _reference_prime_factors(q - 1), q


def test_unit_group_factors_split_an_even_degree():
    # trial division leaves p^2 - 1 = (p - 1)(p + 1) with two large
    # cofactors at p = 10^18 + 3; p - 1 and p + 1 apart it finishes
    p = 10 ** 18 + 3
    with pytest.raises(CapExceeded):
        prime_factors(p * p - 1)
    factors = _unit_group_factors(p, 2)
    rest = p * p - 1
    for f in factors:
        assert is_prime(f)
        while rest % f == 0:
            rest //= f
    assert rest == 1 and list(factors) == sorted(factors)
    assert make_field(p, 2).q == p * p


def test_is_prime_matches_trial_division():
    assert [m for m in range(-3, 20_000) if is_prime(m)] == [
        m for m in range(2, 20_000) if _reference_prime_factors(m) == (m,)]
    rng = SplitMix64(89)
    for m in [rng.randrange(1 << 36) for _ in range(300)]:
        assert prime_factors(m) == _reference_prime_factors(m), m


def test_is_prime_on_large_inputs():
    # strong pseudoprimes to the first 4, 9 and 13 prime bases, then primes
    for m in (3215031751, 3825123056546413051):
        assert not is_prime(m) and prime_factors(m) == _reference_prime_factors(m)
    psi13 = 3317044064679887385961981  # composite: no proof may admit it
    try:
        assert not is_prime(psi13)
    except CapExceeded:
        pass
    for m in (2 ** 61 - 1, 10 ** 18 + 3, 2 ** 89 - 1, 2 ** 127 - 1):
        assert is_prime(m), m
        assert prime_factors(m) == (m,)
    assert not is_prime(2 ** 67 - 1)  # 193707721 * 761838257287
    assert prime_factors(2 ** 127 - 2) == (
        2, 3, 7, 19, 43, 73, 127, 337, 5419, 92737, 649657, 77158673929)


def test_unprovable_inputs_raise_cap_exceeded():
    # two primes near 2^40 or both above 2^27: beyond trial division, and
    # not a prime to prove
    for m in (1099511627791 * 1099511627803, 2 ** 67 - 1):
        with pytest.raises(CapExceeded):
            prime_factors(m)
    # 2^107 - 1 is prime, but trial division leaves too much of 2^107 - 2
    with pytest.raises(CapExceeded):
        is_prime(2 ** 107 - 1)
