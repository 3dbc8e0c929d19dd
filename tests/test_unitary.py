import math
from collections import Counter

import pytest

from cyclomap import (
    Polynomial,
    classify_unit_mapping,
    classify_wrapped,
    criterion_wrapped,
    criterion_xrh,
    eval_wrapped,
    infer_monomial_branches,
    make_field,
    make_wrapped,
    reduce_to_unit,
    unit_circle,
    xrh_valid_ms,
)
from cyclomap import BranchMap, CosetDecomposition, Field, GroupContext, mto1, unitary
from cyclomap import multiplicative_group, subgroup_of_order
from cyclomap.errors import (
    ConstraintViolated,
    GcdHypothesis,
    HypothesisViolated,
    IndexNotDividingOrder,
    RootOnUnitCircle,
)
from cyclomap.gf import divisors
from cyclomap.search import SplitMix64, sample_rng
from cyclomap.unitary import (
    FamilySpec,
    WrappedMap,
    ext_field_for,
    family_b1,
    family_b2,
    family_b3,
    family_cb0,
    family_cbu,
    family_construct,
    family_cta,
    family_ctab,
    family_ctkuv,
    family_t4,
    family_t5,
)


def _random_rootfree(q, seed, count):
    """Yield (r, h) with gcd(r, q-1) = 1 and h root-free on the unit circle."""
    F = ext_field_for(q)
    unit = unit_circle(F, q)
    done = 0
    idx = 0
    while done < count:
        rng = sample_rng(seed, idx)
        idx += 1
        deg = 1 + rng.randrange(q)
        h = Polynomial(F, [rng.randrange(F.q) for _ in range(deg + 1)])
        if h.is_zero():
            continue
        r = 1 + rng.randrange(F.q - 1)
        if math.gcd(r, q - 1) != 1:
            continue
        if any(h.eval(x) == 0 for x in unit):
            continue
        done += 1
        yield F, unit, r, h


# -- construction ----------------------------------------------------------------

def test_make_wrapped_validates_roots():
    F = ext_field_for(5)
    unit = unit_circle(F, 5)
    zeta = unit.generator
    h = Polynomial.from_terms(F, {1: 1, 0: F.neg(zeta)})  # x - zeta
    with pytest.raises(RootOnUnitCircle):
        make_wrapped(5, 1, h, field=F, unit=unit)
    ok = make_wrapped(5, 1, Polynomial(F, (1,)), field=F, unit=unit)  # h = 1
    assert eval_wrapped(ok, 0) == 0
    with pytest.raises(ConstraintViolated):
        make_wrapped(7, 1, Polynomial(F, (1,)), field=F)


def test_make_wrapped_refuses_another_field_or_group():
    # an order-4 subgroup of GF(25) was taken for the circle, and
    # criterion_wrapped answered on its 4 points; the circle of GF(49)
    # ended in an IndexError
    F = ext_field_for(5)
    one = Polynomial(F, (1,))
    for unit in (subgroup_of_order(F, 4), unit_circle(ext_field_for(7), 7),
                 multiplicative_group(make_field(7))):
        with pytest.raises(ConstraintViolated):
            make_wrapped(5, 1, one, field=F, unit=unit)
    # h over another GF(25) was evaluated at this one's element codes
    other = make_field(5, 2, modulus=[2, 0, 1])
    with pytest.raises(ConstraintViolated):
        make_wrapped(5, 1, one, field=other)


def test_eval_wrapped_is_power_times_h():
    for F, unit, r, h in _random_rootfree(5, 999, 5):
        wm = make_wrapped(5, r, h, field=F, unit=unit)
        for x in range(F.q):
            y = F.pow(x, 4) if x else 0
            expected = 0 if x == 0 else F.mul(F.pow(x, r), h.eval(y))
            assert eval_wrapped(wm, x) == expected


def test_reduce_to_unit_pointwise():
    # g recounted point by point, on unit circles with other generators and
    # with r <= 0 and r >= q^2 - 1, where the table is read from f's offsets
    for q, gen_exps in ((5, (1, 5)), (7, (1, 3, 5)), (8, (1, 2, 4))):
        F = ext_field_for(q)
        hs = [h for _, _, _, h in _random_rootfree(q, 3 * q, 2)]
        if q == 5:
            hs.append(Polynomial.from_terms(F, {0: 1, 1: F.from_int(2)}))  # 1 + 2x
        for ge in gen_exps:
            unit = unit_circle(F, q, generator=F.exp_at((q - 1) * ge))
            for h in hs:
                for r in (1, 3, 0, -1, -q, q * q - 1, q * q + 2):
                    g = reduce_to_unit(make_wrapped(q, r, h, field=F, unit=unit))
                    for x in unit:
                        assert g.eval(x) == F.mul(F.pow(x, r), F.pow(h.eval(x), q - 1)), (q, ge, r)
                        assert unit.contains(g.eval(x))  # g maps the circle into itself


def _assert_report_is_the_count(report, images, dlog) -> int:
    """report against a recount of images (point -> image), exceptional sets
    by ascending dlog; returns how many valid m leave a nonempty one."""
    fibers = Counter(images.values())
    hist = Counter(fibers.values())
    size = len(images)
    report.check_consistency()
    assert report.histogram == dict(hist)
    assert report.valid_ms == {m for m in range(1, size + 1) if hist[m] == size // m}
    for m in report.valid_ms:
        expected = sorted((x for x, y in images.items() if fibers[y] != m), key=dlog)
        assert list(report.exceptional_of(m)) == expected
    return sum(1 for m in report.valid_ms if size % m)


def _check_against_recount(wm) -> int:
    """classify_wrapped against an element-level recount through eval_wrapped."""
    images = {x: eval_wrapped(wm, x) for x in range(1, wm.field.q)}
    return _assert_report_is_the_count(classify_wrapped(wm), images, wm.field.dlog)


def test_classify_wrapped_matches_direct_evaluation():
    for q in (5, 8):
        for F, unit, r, h in _random_rootfree(q, 4242, 10):
            _check_against_recount(make_wrapped(q, r, h, field=F, unit=unit))


@pytest.mark.parametrize("q", [16, 17])
def test_classify_wrapped_matches_direct_evaluation_at_the_byte_limit(q):
    # q^2 - 1 = 255 is the largest group whose fiber table has one-byte
    # lanes; 288 has two-byte lanes.  Random h leave no valid m here, so maps
    # with y*h(y) = c + y^k + y^-k on the circle (k = 1 for q = 16, 2 for
    # q = 17) add valid m with a nonempty exceptional set: x^(q-1) sends
    # q-1 points to each y, and y^k + y^-k pairs y with 1/y and, for
    # q = 17, with -y and -1/y, leaving y = 1 (and -1) apart.
    for F, unit, r, h in _random_rootfree(q, 4243, 6):
        _check_against_recount(make_wrapped(q, r, h, field=F, unit=unit))
    F = ext_field_for(q)
    unit = unit_circle(F, q)
    uneven = 0
    for c in range(2, 10):
        terms = {16: c, 0: 1, 15: 1} if q == 16 else {17: c, 1: 1, 15: 1}
        h = Polynomial.from_terms(F, terms)
        if all(h.eval(x) for x in unit):
            uneven += _check_against_recount(make_wrapped(q, q - 1, h, field=F, unit=unit))
    assert uneven >= 5


def test_classify_wrapped_exceptional_sets_small_q():
    # every h = 1 + c1*x + c2*x^2 that is root-free on the circle, every r
    for q in (3, 4):
        F = ext_field_for(q)
        unit = unit_circle(F, q)
        uneven = 0
        for c1 in range(F.q):
            for c2 in range(F.q):
                h = Polynomial(F, (1, c1, c2))
                if any(h.eval(x) == 0 for x in unit):
                    continue
                for r in range(1, F.q):
                    wm = make_wrapped(q, r, h, field=F, unit=unit)
                    uneven += _check_against_recount(wm)
        assert uneven  # some valid m does not divide q^2 - 1


def test_classify_wrapped_names_the_root():
    F = ext_field_for(5)
    unit = unit_circle(F, 5)
    h = Polynomial.from_terms(F, {1: 1, 0: F.neg(unit.element(2))})  # x - zeta^2
    wm = WrappedMap(base_q=5, field=F, r=1, h=h, unit=unit)  # unchecked
    for call in (classify_wrapped, reduce_to_unit):
        with pytest.raises(RootOnUnitCircle) as exc:
            call(wm)
        assert exc.value.point == unit.element(2) == 16


def _check_g_against_recount(wm) -> int:
    """classify_unit_mapping(reduce_to_unit(wm)) against x^r h(x)^(q-1)
    recounted at every point of U."""
    F, unit = wm.field, wm.unit
    images = {x: F.mul(F.pow(x, wm.r), F.pow(wm.h.eval(x), wm.base_q - 1)) for x in unit}
    return _assert_report_is_the_count(classify_unit_mapping(reduce_to_unit(wm)), images,
                                       unit.dlog)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 251, 256])
def test_classify_unit_mapping_matches_a_pointwise_recount(q):
    # g's fiber table is packed bytes up to N = q+1 = 252, two-byte lanes at 257.
    # h = 1 makes g = x^r, which has a valid m.  With 2^a the largest power
    # of 2 dividing N and k = 2^a, x*h(x) = c + x^k + x^-k on U (c outside
    # GF(q)) makes g = (c + t)^(q-1), one-to-one in t = x^k + x^-k in GF(q):
    # 2k-to-1 but for the k points with x^k = 1, when N/k > 1 is odd.
    F = ext_field_for(q)
    unit = unit_circle(F, q)
    N = q + 1
    k = N & -N
    maps = [(r, Polynomial(F, (1,))) for r in (1, 2, 3, N, -4)]
    maps += [(r, h) for _, _, r, h in _random_rootfree(q, 5 * q, 2)]
    if k < N:
        maps += [(q - 1, Polynomial.from_terms(F, {q: F.exp_at(j), k - 1: 1, q - k: 1}))
                 for j in (1, 2, 3)]
    if q <= 8:  # every h = 1 + c*x root-free on the circle, every r mod N
        for c in range(F.q):
            h = Polynomial(F, (1, c))
            if all(h.eval(x) for x in unit):
                maps += [(r, h) for r in range(N)]
    uneven = sum(_check_g_against_recount(make_wrapped(q, r, h, field=F, unit=unit))
                 for r, h in maps)
    assert uneven or q == 3
    g = reduce_to_unit(make_wrapped(q, 1, Polynomial(F, (1,)), field=F, unit=unit))
    assert isinstance(mto1._fiber_sizes(g), bytes) == (N <= 255)


# -- branch inference ---------------------------------------------------------------

def test_infer_monomial_branches_binomial():
    # h = 1 + a*x^(u+t) reduces to scales (1/a, -1/a) and exponent r-u
    q = 13
    F = ext_field_for(q)
    unit = unit_circle(F, q)
    t = (q + 1) // 2
    a = unit.element(2)
    u, r = 1, 3  # gcd(q+1, u+t) = 2 and (-a)^7 = -1, so h is root-free
    h = Polynomial.from_terms(F, {0: 1, u + t: a})
    wm = make_wrapped(q, r, h, field=F, unit=unit)
    bm = infer_monomial_branches(reduce_to_unit(wm), 2)
    assert bm is not None
    inv_a = F.inv(a)
    assert bm.scales == (inv_a, F.neg(inv_a))
    for i in range(2):
        assert (bm.exponents[i] - (r - u)) % t == 0


def test_infer_power_map_any_index():
    q = 5
    F = ext_field_for(q)
    unit = unit_circle(F, q)
    wm = make_wrapped(q, 3, Polynomial(F, (1,)), field=F, unit=unit)
    g = reduce_to_unit(wm)
    for ell in (1, 2, 3, 6):
        bm = infer_monomial_branches(g, ell)
        assert bm is not None
        # the (scale, exponent) pair is only unique up to (s*z^-ti, e+t);
        # the evaluated map and the base branch are canonical
        assert bm.scales[0] == 1
        t = (q + 1) // ell
        assert all((e - 3) % t == 0 for e in bm.exponents)
        for x in unit:
            assert bm.eval(x) == g.eval(x)


def test_infer_rejects_non_monomial_table():
    q = 5
    F = ext_field_for(q)
    unit = unit_circle(F, q)
    logs = list(range(q + 1))  # identity map
    # break A_0: points 1, z^2, z^4 now map to 1, z^2, z^2 — the ratio
    # g(z^2*x)/g(x) is inconsistent across the coset
    logs[4] = 2
    g = BranchMap(CosetDecomposition(unit, q + 1), log_scales=logs, exponents=[0] * (q + 1))
    assert infer_monomial_branches(g, 2) is None
    # identity itself is monomial for every index
    ident = BranchMap(CosetDecomposition(unit, q + 1), log_scales=range(q + 1),
                      exponents=[0] * (q + 1))
    assert infer_monomial_branches(ident, 2) is not None


def test_infer_recovers_any_branch_map(small_branch_maps):
    # the inference reads g.eval_exp, so it applies to any branch map: at the
    # map's own index it recovers it, at any other index it gives None or a
    # map with the same image exponent at every point
    found = Counter()
    for dec, las, rs in small_branch_maps:
        bm = BranchMap(dec, log_scales=las, exponents=rs)
        N = dec.ctx.order
        images = list(map(bm.eval_exp, range(N)))
        for ell in divisors(N):
            inferred = infer_monomial_branches(bm, ell)
            if inferred is None:
                assert ell != dec.index, (dec, las, rs)
                found["none"] += 1
            else:
                assert list(map(inferred.eval_exp, range(N))) == images, (dec, las, rs, ell)
                found["own" if ell == dec.index else "other"] += 1
    assert found["own"] == len(small_branch_maps)
    assert found["other"] and found["none"]


def test_infer_from_f_offsets_makes_no_field_call(monkeypatch):
    # g's logs are read off f's offsets and its branch map is built from
    # them: no discrete log, no exponentiation, no membership test
    calls = Counter()

    def counted(mp, cls, name):
        method = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        mp.setattr(cls, name, wrapper)

    inferred = 0
    for q in (5, 7, 8):
        F = ext_field_for(q)
        unit = unit_circle(F, q)
        maps = [(3, Polynomial(F, (1,)))]
        maps += [(r, h) for _, _, r, h in _random_rootfree(q, 7 * q, 3)]
        for r, h in maps:
            f_map = unitary._xrh_branch_map(F, r, h, q + 1)
            g = reduce_to_unit(make_wrapped(q, r, h, field=F, unit=unit))
            with monkeypatch.context() as mp:
                counted(mp, Field, "dlog")
                counted(mp, Field, "exp_at")
                counted(mp, GroupContext, "contains")
                bms = [infer_monomial_branches(unitary._unit_mapping(unit, f_map), ell)
                       for ell in divisors(q + 1)]
            assert not calls, (q, r, calls)
            for bm in filter(None, bms):
                inferred += 1
                assert all(bm.eval(x) == g.eval(x) for x in unit)
    assert inferred >= 20


def test_round_trip_branch_form_equals_g():
    rng = SplitMix64(6060)
    q = 11
    F = ext_field_for(q)
    unit = unit_circle(F, q)
    t = (q + 1) // 2
    hits = 0
    for j in range(q + 1):
        a = unit.element(j)
        for u in range(t):
            h = Polynomial.from_terms(F, {0: 1, u + t: a})
            try:
                wm = make_wrapped(q, 3, h, field=F, unit=unit)
            except RootOnUnitCircle:
                continue
            g = reduce_to_unit(wm)
            bm = infer_monomial_branches(g, 2)
            assert bm is not None
            for x in unit:
                assert bm.eval(x) == g.eval(x)
            hits += 1
    assert hits > 10


# -- criteria -----------------------------------------------------------------------

def test_criterion_wrapped_needs_coprime_r():
    F = ext_field_for(5)
    unit = unit_circle(F, 5)
    wm = make_wrapped(5, 2, Polynomial(F, (1,)), field=F, unit=unit)
    with pytest.raises(GcdHypothesis):
        criterion_wrapped(wm, 2)


def test_criterion_wrapped_oracle_equivalence_small():
    # zero mismatches against the full-plane oracle; the criterion only
    # touches the q+1 unit-circle points
    for q in (5, 7):
        for F, unit, r, h in _random_rootfree(q, 7 * q, 40):
            wm = make_wrapped(q, r, h, field=F, unit=unit)
            oracle = classify_wrapped(wm).valid_ms
            for m in range(1, q + 2):
                assert criterion_wrapped(wm, m).holds == (m in oracle)


def test_criterion_wrapped_unit_paths_agree_with_oracle_path():
    # monomial-branch path (two-branch and equal-multiplicity) vs oracle path,
    # on both generators of U_6 and with r <= 0 and r >= q^2 - 1
    q = 5
    F = ext_field_for(q)
    t = (q + 1) // 2
    for ge in (1, 5):
        unit = unit_circle(F, q, generator=F.exp_at((q - 1) * ge))
        for j in range(q + 1):
            a = unit.element(j)
            for u in range(t):
                for r in (1, 3, 5, 7, -1, -3, 25, 27):
                    if math.gcd(r, q - 1) != 1:
                        continue
                    h = Polynomial.from_terms(F, {0: 1, u + t: a})
                    try:
                        wm = make_wrapped(q, r, h, field=F, unit=unit)
                    except RootOnUnitCircle:
                        continue
                    for m in range(1, q + 2):
                        via_l2 = criterion_wrapped(wm, m, ell=2)
                        via_oracle = criterion_wrapped(wm, m)
                        via_equal = criterion_wrapped(wm, m, ell=q + 1)
                        assert via_l2.holds == via_oracle.holds == via_equal.holds


def test_unit_circle_paths_evaluate_h_once_per_point(monkeypatch):
    # f's index-(q+1) branch map is the only evaluation of h on the circle:
    # criterion_wrapped builds it at most once per call, and not at all when
    # no path reads it.  Building it adds h's terms at each subgroup point
    # with one Field.sum, so the sums count the points evaluated
    evals = []
    real = Field.sum
    monkeypatch.setattr(Field, "sum", lambda self, xs: evals.append(1) or real(self, xs))

    def count(call, *args):
        evals.clear()
        call(*args)
        return len(evals)

    q = 7
    F = ext_field_for(q)
    for ge in (1, 3):
        unit = unit_circle(F, q, generator=F.exp_at((q - 1) * ge))
        for _, _, r, h in _random_rootfree(q, 17, 3):
            wm = make_wrapped(q, r, h, field=F, unit=unit)
            assert count(classify_wrapped, wm) == q + 1
            assert count(reduce_to_unit, wm) == q + 1
            for m in range(1, q + 2):
                built = q + 1 if unitary._wrap_bound_ok(q, m) else 0
                assert count(criterion_wrapped, wm, m) == built
                for ell in (1, 2, 4, 8):
                    assert count(criterion_wrapped, wm, m, ell) == q + 1
                evals.clear()
                with pytest.raises(IndexNotDividingOrder, match=f"^3 does not divide {q + 1}$"):
                    criterion_wrapped(wm, m, 3)
                assert evals == []


def _element_branch_map(F, r, h, ell):
    """f's index-ell map from h's values as field elements, one log each."""
    return BranchMap(CosetDecomposition(multiplicative_group(F), ell),
                     [(h.eval(z), r) for z in subgroup_of_order(F, ell)])


def _first_root(F, h, ell):
    return next((z for z in subgroup_of_order(F, ell) if h.eval(z) == 0), None)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 16, 32])
def test_xrh_branch_map_matches_the_element_construction(q):
    # the table path reads h's logs in exponents; its twin field with
    # log_threshold=0 (same modulus and generator, so the same logs) has
    # no tables and takes the element path
    F = ext_field_for(q)
    D = make_field(F.p, F.n, log_threshold=0)
    rng = SplitMix64(q)
    for ell in (e for e in divisors(F.q - 1) if e <= 64):
        for j in range(4):
            r = rng.randrange(2 * F.q) - F.q // 2
            degree = (0, 1, 1 + rng.randrange(12), 1 + rng.randrange(12))[j]
            coeffs = [rng.randrange(F.q) if rng.randrange(3) else 0 for _ in range(degree)]
            coeffs.append(1 + rng.randrange(F.q - 1))
            built = []
            for G in (F, D) if ell <= 8 else (F,):
                h = Polynomial(G, coeffs)
                root = _first_root(G, h, ell)
                if root is not None:
                    with pytest.raises(RootOnUnitCircle, match="^h vanishes on the subgroup$") as exc:
                        unitary._xrh_branch_map(G, r, h, ell)
                    assert exc.value.point == root
                    continue
                got = unitary._xrh_branch_map(G, r, h, ell)
                want = _element_branch_map(G, r, h, ell)
                assert (got.exponents, got.log_scales) == (want.exponents, want.log_scales)
                assert got.exponents == (r,) * ell
                built.append(got.log_scales)
            assert len(set(built)) <= 1  # both paths read the same logs
        # h with two roots on the subgroup reports the first, in subgroup order
        if ell >= 2:
            a = rng.randrange(ell - 1)
            b = a + 1 + rng.randrange(ell - 1 - a)
            for G in (F, D) if ell <= 8 else (F,):
                zs = list(subgroup_of_order(G, ell))
                h = (Polynomial.from_terms(G, {1: 1, 0: G.neg(zs[b])})
                     * Polynomial.from_terms(G, {1: 1, 0: G.neg(zs[a])}))
                with pytest.raises(RootOnUnitCircle, match="^h vanishes on the subgroup$") as exc:
                    unitary._xrh_branch_map(G, 1, h, ell)
                assert exc.value.point == zs[a] == _first_root(G, h, ell)
    assert D._log is None


def test_permutation_monomial(f13):
    F = ext_field_for(13)
    unit = unit_circle(F, 13)
    wm = make_wrapped(13, 5, Polynomial(F, (1,)), field=F, unit=unit)
    assert math.gcd(5, 168) == 1
    v = criterion_wrapped(wm, 1)
    assert v.holds


def test_criterion_xrh_on_base_field(f13):
    # f = x^r * h(x^s) over F_13 itself, index 3 (subgroup of cube roots)
    h = Polynomial.from_terms(f13, {0: 1, 1: 2})
    for r in range(1, 13):
        valid = xrh_valid_ms(f13, r, h, 3)
        # direct oracle over F_13*
        s = 4
        fibers = {}
        for x in range(1, 13):
            y = f13.mul(f13.pow(x, r), h.eval(f13.pow(x, s)))
            fibers[y] = fibers.get(y, 0) + 1
        from collections import Counter

        hist = Counter(fibers.values())
        direct = {m for m in range(1, 13) if hist.get(m, 0) == 12 // m}
        assert valid == direct, r
        for m in range(1, 13):
            assert criterion_xrh(f13, r, h, 3, m).holds == (m in direct)


def _direct_valid_ms(F, r, h, s):
    """Valid m of x^r h(x^s) on F_q*, by counting preimages point by point."""
    h_at = {}
    fibers = Counter()
    for x in range(1, F.q):
        y = F.pow(x, s)
        if y not in h_at:
            h_at[y] = h.eval(y)
        fibers[F.mul(F.pow(x, r), h_at[y])] += 1
    hist = Counter(fibers.values())
    return {m for m in range(1, F.q) if hist.get(m, 0) == (F.q - 1) // m}


@pytest.mark.parametrize("p, n", [(13, 1), (17, 1), (5, 2), (2, 6), (3, 4)])
def test_xrh_reduction_matches_a_direct_count(p, n):
    # every index and every r in 1..q-1, so d = gcd(r, s) > 1 is covered;
    # criterion_xrh rebuilds the branch map per call, so on GF(2^6) and
    # GF(3^4) its sweep over every m runs for r <= 4 only
    F = make_field(p, n)
    N = F.q - 1
    for ell in (e for e in range(1, N + 1) if N % e == 0):
        s = N // ell
        for j in range(2):
            rng = sample_rng(31 * F.q + ell, j)
            h = Polynomial(F, [1 + rng.randrange(N), rng.randrange(F.q), rng.randrange(F.q)])
            if any(h.eval(F.exp_at(s * i)) == 0 for i in range(ell)):
                continue
            for r in range(1, F.q):
                direct = _direct_valid_ms(F, r, h, s)
                assert xrh_valid_ms(F, r, h, ell) == direct, (ell, j, r)
                if F.q > 25 and r > 4:
                    continue
                for m in range(F.q + 1):
                    v = criterion_xrh(F, r, h, ell, m)
                    assert v.applicable == (1 <= m <= N)
                    assert v.holds == ((m in direct) if v.applicable else None)
        # a root on the subgroup
        zeta = F.exp_at(s * (ell // 2))
        h = Polynomial.from_terms(F, {1: 1, 0: F.neg(zeta)})
        for call in (lambda: xrh_valid_ms(F, 1, h, ell), lambda: criterion_xrh(F, 1, h, ell, 1)):
            with pytest.raises(RootOnUnitCircle, match="^h vanishes on the subgroup$") as exc:
                call()
            assert exc.value.point == zeta
    with pytest.raises(IndexNotDividingOrder, match=f"^{N + 1} does not divide {N}$"):
        xrh_valid_ms(F, 1, Polynomial(F, (1,)), N + 1)


def test_criterion_wrapped_with_another_unit_generator():
    # the fallback does not depend on which generator the unit circle has,
    # and names the wrapping bound when that is what fails
    for q in (4, 7, 9):
        F = ext_field_for(q)
        unit = unit_circle(F, q, generator=F.exp_at((q - 1) * 3))
        for _, _, r, h in _random_rootfree(q, 11 * q, 25):
            wm = make_wrapped(q, r, h, field=F, unit=unit)
            oracle = classify_wrapped(wm).valid_ms
            for m in range(1, q + 2):
                v = criterion_wrapped(wm, m)
                assert v.holds == (m in oracle), (q, r, m)
                if not unitary._wrap_bound_ok(q, m):
                    assert v.witness == "unit oracle: wrapping bound fails"
                elif v.holds:
                    assert v.witness == "unit oracle: g is m-to-1 and wrapping bound holds"
                else:
                    assert v.witness == "unit oracle: g is not m-to-1"


def test_reductions_and_families_make_no_point_count(monkeypatch, f13):
    # xrh_valid_ms, criterion_xrh, criterion_wrapped's fallback and the
    # B/T families decide from branch data; none classifies explicit pairs
    calls = []
    real = mto1.classify_pairs
    monkeypatch.setattr(mto1, "classify_pairs", lambda *a, **k: calls.append(1) or real(*a, **k))
    q = 5
    for fam, kwargs in (
        (family_b1, dict(ell=2, r=3, v=0, a=1)),
        (family_b2, dict(ell=3, r=5, u=0, v=0, a=1)),
        (family_b3, dict(ell=1, r=1, v=0, a=2)),
        (family_t4, dict(r=5, a=1)),
        (family_t5, dict(r=5, a=1)),
    ):
        res = fam(q=q, **kwargs)
        assert res.predicted_ms == classify_wrapped(res.wrapped).valid_ms
    h = Polynomial.from_terms(f13, {0: 1, 1: 2})
    xrh_valid_ms(f13, 4, h, 3)
    for m in range(14):
        criterion_xrh(f13, 4, h, 3, m)
    for F, unit, r, h in _random_rootfree(q, 5, 3):
        wm = make_wrapped(q, r, h, field=F, unit=unit)
        for m in range(q + 3):
            criterion_wrapped(wm, m)
    assert calls == []


# -- families ------------------------------------------------------------------------

def test_family_validation_errors():
    with pytest.raises(ConstraintViolated):
        family_cbu(q=8, r=1, u=0, a=1)  # q must be odd
    F = ext_field_for(5)
    with pytest.raises(ConstraintViolated):
        family_cbu(q=5, r=2, u=0, a=1)  # gcd(r, q-1) != 1
    with pytest.raises(ConstraintViolated):
        family_cbu(q=5, r=1, u=9, a=1)  # u >= t
    with pytest.raises(ConstraintViolated):
        family_cbu(q=5, r=1, u=0, a=2)  # 2 not on the unit circle
    unit = unit_circle(F, 5)
    minus1 = F.neg(1)
    with pytest.raises(RootOnUnitCircle):
        family_cbu(q=5, r=1, u=0, a=minus1)  # h = 1 - x^t vanishes on the circle
    with pytest.raises(ConstraintViolated):
        family_ctkuv(q=7, r=1, u=1, v=0, k=1, a=1)  # 7 != 2 (mod 3)


def test_family_ctkuv_gcd_mismatch_not_applicable():
    q = 11
    F = ext_field_for(q)
    unit = unit_circle(F, q)
    t = (q + 1) // 3  # 4
    eps = unit.element(t)
    a = F.sub(1, eps)  # ratio = 1 in U
    # r = 7, u = 1: gcd(6, 4) = 2 != gcd(5, 4) = 1
    with pytest.raises(HypothesisViolated):
        family_ctkuv(q=q, r=7, u=1, v=0, k=1, a=a)


def test_family_cbu_cb0_exhaustive_small():
    for q in (5, 7):
        F = ext_field_for(q)
        unit = unit_circle(F, q)
        t = (q + 1) // 2
        checked = 0
        for fam in (family_cbu, family_cb0):
            for r in range(1, q * q):
                if math.gcd(r, q - 1) != 1:
                    continue
                for u in range(t):
                    for j in range(q + 1):
                        try:
                            res = fam(q=q, r=r, u=u, a=unit.element(j))
                        except (RootOnUnitCircle, ConstraintViolated):
                            continue
                        oracle = {
                            m
                            for m in classify_wrapped(res.wrapped).valid_ms
                            if m <= q + 1
                        }
                        assert res.predicted_ms == oracle, (fam.__name__, q, r, u, j)
                        checked += 1
        assert checked > 100


def test_family_trinomials_sampled():
    q = 7
    F = ext_field_for(q)
    minus1 = F.neg(1)
    four = F.from_int(4)
    a_cta = [a for a in range(1, F.q) if F.pow(a, q + 1) == four]
    a_ctab = [a for a in range(1, F.q) if F.pow(a, q - 1) == minus1]
    t = (q + 1) // 2
    checked = 0
    for r in (1, 5, 11, 25):
        for u in range(1, t):
            for v in (0, 1):
                for a in a_cta[:4]:
                    try:
                        res = family_cta(q=q, r=r, u=u, v=v, a=a)
                    except (RootOnUnitCircle, ConstraintViolated):
                        continue
                    oracle = {
                        m for m in classify_wrapped(res.wrapped).valid_ms if m <= q + 1
                    }
                    assert res.predicted_ms == oracle
                    checked += 1
                for a in a_ctab[:3]:
                    target = F.sub(1, F.mul(a, a))
                    bs = [b for b in range(1, F.q) if F.pow(b, q + 1) == target]
                    for b in bs[:3]:
                        try:
                            res = family_ctab(q=q, r=r, u=u, v=v, a=a, b=b)
                        except (RootOnUnitCircle, ConstraintViolated):
                            continue
                        oracle = {
                            m
                            for m in classify_wrapped(res.wrapped).valid_ms
                            if m <= q + 1
                        }
                        assert res.predicted_ms == oracle
                        checked += 1
    assert checked > 50


def test_family_ctkuv_q32_instance():
    q = 32
    F = ext_field_for(q)
    unit = unit_circle(F, q)
    zeta = unit.generator
    eps = unit.element(11)
    a = F.mul(F.inv(zeta), F.add(1, eps))
    res = family_ctkuv(q=q, r=6, u=2, v=0, k=1, a=a)
    assert res.predicted_ms == {3}
    assert res.details["z1"] == 1
    assert res.details["z2"] == (1 - 11) % 33
    assert 3 in classify_wrapped(res.wrapped).valid_ms


def test_family_b_shapes_predict_full_oracle():
    q = 5
    checked = 0
    for fam, kwargs_list in (
        (family_b1, [dict(ell=2, r=r, v=v, a=a) for r in (1, 2, 3, 8) for v in (0, 1) for a in (1, 3, 7)]),
        (family_b2, [dict(ell=3, r=r, u=u, v=0, a=a) for r in (1, 5) for u in (0, 1) for a in (1,)]),
        (family_b3, [dict(ell=1, r=r, v=0, a=a) for r in (1, 4) for a in (2, 5)]),
        (family_t4, [dict(r=r, a=a) for r in (1, 5, 7) for a in (2, 3, 9)]),
        (family_t5, [dict(r=r, a=a) for r in (1, 5) for a in (2, 3)]),
    ):
        for kwargs in kwargs_list:
            try:
                res = fam(q=q, **kwargs)
            except (RootOnUnitCircle, ConstraintViolated):
                continue
            oracle = classify_wrapped(res.wrapped).valid_ms
            assert res.predicted_ms == oracle, (fam.__name__, kwargs)
            checked += 1
    assert checked > 20


def test_family_b2_unit_constant_required():
    with pytest.raises(ConstraintViolated):
        family_b2(q=5, ell=2, r=1, u=0, v=0, a=2)  # 2 not on the circle


def test_family_construct_dispatch():
    F = ext_field_for(5)
    unit = unit_circle(F, 5)
    res = family_construct(FamilySpec("cbu", {"q": 5, "r": 1, "u": 1, "a": unit.element(2)}))
    assert res.family_id == "CBU"
    with pytest.raises(ValueError):
        family_construct(FamilySpec("nope", {}))
    # the ten ids resolve to this module's family_<id> bindings, nothing else
    for fid in ("CBU", "CB0", "CTAB", "CTA", "CTKUV", "B1", "B2", "B3", "T4", "T5"):
        fn = unitary.family_function(fid.lower())
        assert fn is getattr(unitary, f"family_{fid.lower()}")
        assert unitary.family_function(fid) is fn
    for name in ("construct", "function", "", "t6"):
        with pytest.raises(ValueError, match="unknown family"):
            unitary.family_function(name)


def test_family_predictions_are_generator_independent():
    # the CTKUV instance re-run with three different unit generators
    q = 32
    F = ext_field_for(q)
    base = unit_circle(F, q)
    outcomes = set()
    for j in (1, 2, 5):
        unit = unit_circle(F, q, generator=base.element(j))
        zeta = unit.generator
        eps = unit.element(11)
        a = F.mul(F.inv(zeta), F.add(1, eps))
        res = family_ctkuv(q=q, r=6, u=2, v=0, k=1, a=a)
        outcomes.add(frozenset(res.predicted_ms))
        assert 3 in classify_wrapped(res.wrapped).valid_ms
    assert outcomes == {frozenset({3})}
