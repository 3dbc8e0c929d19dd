import pytest

from cyclomap import (
    BranchMap,
    Field,
    GroupContext,
    Polynomial,
    RelationKind,
    classify_branch_map,
    classify_polynomial,
    decompose,
    make_field,
    multiplicative_group,
    parse_polynomial,
    subgroup_of_order,
    unit_circle,
)
from cyclomap.errors import (
    CapExceeded,
    ConstraintViolated,
    IndexNotDividingOrder,
    NotInGroup,
    UnsupportedContext,
)
from cyclomap.gf import divisors
from cyclomap.search import SplitMix64


def _random_branch_map(field, ell, rng):
    dec = decompose(multiplicative_group(field), ell)
    branches = [
        (field.exp_at(rng.randrange(field.q - 1)), 1 + rng.randrange(field.q - 1))
        for _ in range(ell)
    ]
    return BranchMap(dec, branches)


# -- decompositions -----------------------------------------------------------

def test_coset_examples(f13):
    dec = decompose(multiplicative_group(f13), 2)
    assert frozenset(dec.coset(0)) == {1, 4, 3, 12, 9, 10}
    assert frozenset(dec.coset(1)) == {2, 8, 6, 11, 5, 7}
    assert dec.ctx.dlog(12) % 2 == 0
    assert dec.ctx.dlog(1) % 2 == 0
    assert dec.ctx.dlog(2) % 2 == 1
    with pytest.raises(NotInGroup):
        dec.ctx.dlog(0)


def test_trivial_decomposition(f13):
    dec = decompose(multiplicative_group(f13), 1)
    assert frozenset(dec.coset(0)) == set(range(1, 13))


def test_subgroup_decomposition_f64(f64):
    # norm-one subgroup of order 9 over the degree-3 subfield
    sub = subgroup_of_order(f64, 9)
    dec = decompose(sub, 3)
    cosets = dec.cosets()
    assert len(cosets) == 3 and all(len(c) == 3 for c in cosets)
    union = set().union(*cosets)
    assert union == set(sub) and len(union) == 9


@pytest.mark.parametrize("p,n", [(13, 1), (17, 1), (5, 2), (2, 6)])
def test_partition_invariant(p, n):
    F = make_field(p, n)
    ctx = multiplicative_group(F)
    for ell in divisors(F.q - 1):
        dec = decompose(ctx, ell)
        cosets = dec.cosets()
        assert all(len(c) == dec.coset_size for c in cosets)
        assert len(set().union(*cosets)) == F.q - 1
        for i, cs in enumerate(cosets):
            assert all(ctx.dlog(x) % ell == i for x in cs)


def test_index_must_divide(f13):
    with pytest.raises(IndexNotDividingOrder):
        decompose(multiplicative_group(f13), 5)


@pytest.mark.parametrize("p,n", [(13, 1), (5, 2), (2, 6)])
def test_group_context_every_order_and_generator(p, n):
    F = make_field(p, n)
    for order in divisors(F.q - 1):
        default = subgroup_of_order(F, order)
        assert default.generator == F.exp_at((F.q - 1) // order)
        gens = [x for x in range(1, F.q)
                if F.pow(x, order) == 1
                and all(F.pow(x, k) != 1 for k in range(1, order))]
        assert default.generator in gens
        for gen in gens:
            ctx = subgroup_of_order(F, order, generator=gen)
            for k in range(order):
                x = ctx.element(k)
                assert x == F.pow(gen, k)
                assert ctx.dlog(x) == k
            members = [x for x in range(F.q) if ctx.contains(x)]
            assert members == [x for x in range(F.q)
                               if x != 0 and F.pow(x, order) == 1]
            outside = [0, F.q] + [x for x in range(1, F.q) if x not in members][:5]
            dec = decompose(ctx, 1)
            bm = BranchMap(dec, [(1, 1)])
            for x in outside:
                for call in (ctx.dlog, bm.eval):
                    with pytest.raises(NotInGroup):
                        call(x)


@pytest.mark.parametrize("p,n", [(19, 1), (2, 6)])
def test_group_context_rejects_bad_generators(p, n):
    from cyclomap.errors import NotPrimitive

    F = make_field(p, n)
    index = (F.q - 1) // 9
    # zero, not a code, the field's generator, order 3 (inside), order 2 or 7 (outside)
    for gen in (0, F.q, F.generator, F.exp_at(3 * index), F.exp_at(9)):
        with pytest.raises(NotPrimitive):
            subgroup_of_order(F, 9, generator=gen)
    with pytest.raises(NotPrimitive):
        subgroup_of_order(F, F.q - 1, generator=F.exp_at(3))  # 3 divides q-1
    with pytest.raises(IndexNotDividingOrder):
        subgroup_of_order(F, 5)


def test_multiplicative_group_needs_no_log_above_the_table_limit():
    F = make_field(2, 21, log_threshold=1 << 10)
    ctx = multiplicative_group(F)
    assert ctx.is_full and F._bsgs_baby is None and F._log is None
    assert ctx.element(5) == F.pow(F.generator, 5)


def test_subgroup_generator_order_checked(f64):
    from cyclomap.errors import NotPrimitive

    with pytest.raises(NotPrimitive):
        subgroup_of_order(f64, 9, generator=f64.exp_at(21))  # order 3, not 9
    ok = subgroup_of_order(f64, 9, generator=f64.exp_at(14))  # 2*7: order 9
    assert ok.order == 9 and ok.dlog(ok.generator) == 1


# -- branch maps -------------------------------------------------------------

def test_eval_map_examples(f13):
    dec = decompose(multiplicative_group(f13), 2)
    bm = BranchMap(dec, [(1, 2), (12, 4)])
    assert bm.eval(2) == 10  # 2 in C_1, -(2^4) mod 13
    assert bm.eval(1) == 1
    ident = BranchMap(dec, [(1, 1), (1, 1)])
    assert all(ident.eval(x) == x for x in range(1, 13))
    with pytest.raises(NotInGroup):
        bm.eval(0)


def test_branch_constants_validated(f13):
    dec = decompose(multiplicative_group(f13), 2)
    with pytest.raises(NotInGroup):
        BranchMap(dec, [(0, 1), (1, 1)])


def test_log_form_matches_element_form(small_branch_maps):
    for dec, las, rs in small_branch_maps:
        ctx = dec.ctx
        by_log = BranchMap(dec, log_scales=las, exponents=rs)
        by_element = BranchMap(dec, [(ctx.element(la), r) for la, r in zip(las, rs)])
        assert by_log.log_scales == by_element.log_scales == tuple(
            la % ctx.order for la in las
        )
        assert by_log.exponents == by_element.exponents == rs
        assert by_log.multiplicities == by_element.multiplicities
        assert by_log._offsets == by_element._offsets
        assert by_log.branches == by_element.branches
        assert by_log.scales == by_element.scales
        assert all(by_log.eval(x) == by_element.eval(x) for x in ctx)


def test_log_form_is_checked(f13):
    dec = decompose(multiplicative_group(f13), 2)
    with pytest.raises(ValueError, match="expected 2 branches, got 1 logs and 2 exponents"):
        BranchMap(dec, log_scales=(0,), exponents=(1, 2))
    with pytest.raises(ValueError, match="expected 2 branches, got 3"):
        BranchMap(dec, [(1, 1)] * 3)
    with pytest.raises(TypeError):
        BranchMap(dec, log_scales=(0, 1))
    with pytest.raises(TypeError):
        BranchMap(dec, [(1, 1), (1, 1)], exponents=(1, 1))


def test_image_residue_known_values(f13):
    dec = decompose(multiplicative_group(f13), 2)
    bm = BranchMap(dec, [(1, 2), (12, 4)])
    assert bm.image_residue(1, 4) == 2
    assert bm.image_residue(0, 4) == 0
    bm2 = BranchMap(dec, [(2, 1), (12, 5)])
    assert bm2.image_residue(0, 2) == bm2.image_residue(1, 2) == 1
    any_r = BranchMap(dec, [(1, 7), (2, 1)])
    assert any_r.image_residue(0, 5) == 0  # scale 1 on branch 0


def _images(bm):
    """Each branch's image, by evaluating the map on its coset."""
    return [{bm.eval(x) for x in bm.decomp.coset(i)} for i in range(bm.decomp.index)]


def test_branch_image_closed_form_matches_brute_force(f13, f17):
    rng = SplitMix64(5)
    for F in (f13, f17):
        ctx = multiplicative_group(F)
        for ell in divisors(F.q - 1):
            for _ in range(10):
                bm = _random_branch_map(F, ell, rng)
                for i, brute in enumerate(_images(bm)):
                    assert bm.relation(i, i).intersection_elements == brute
                    assert len(brute) == bm.decomp.coset_size // bm.multiplicities[i]
                    counts = {}
                    for x in bm.decomp.coset(i):
                        counts[bm.eval(x)] = counts.get(bm.eval(x), 0) + 1
                    assert set(counts.values()) == {bm.multiplicities[i]}
                    target = ctx.dlog(next(iter(brute))) % ell
                    assert target == bm.image_residue(i, ell)


def test_branch_image_examples(f13):
    dec = decompose(multiplicative_group(f13), 2)
    bm = BranchMap(dec, [(1, 2), (4, 6)])
    assert bm.relation(0, 0).intersection_elements == {1, 3, 9} and bm.multiplicities[0] == 2
    assert bm.relation(1, 1).intersection_elements == {9} and bm.multiplicities[1] == 6
    assert bm.image_residue(1, 2) == 0
    ident = BranchMap(dec, [(1, 1), (1, 1)])
    assert ident.relation(1, 1).intersection_elements == frozenset(dec.coset(1))


def test_relation_trichotomy_exhaustive_small():
    # every pair on every map of a small exhaustive space: predicted
    # intersection equals the enumerated one and exactly one kind holds
    F = make_field(13)
    dec = decompose(multiplicative_group(F), 2)
    for e0 in range(12):
        for e1 in range(12):
            for r0 in range(1, 7):
                for r1 in range(1, 7):
                    bm = BranchMap(dec, [(F.exp_at(e0), r0), (F.exp_at(e1), r1)])
                    images = _images(bm)
                    _check_relation(bm, images, 0, 1)
                    _check_relation(bm, images, 1, 0)
                    _check_relation(bm, images, 0, 0)


def _check_relation(bm, images, i, j):
    rel = bm.relation(i, j)
    img_i, img_j = images[i], images[j]
    inter = img_i & img_j
    assert rel.intersection_elements == inter
    if rel.kind is RelationKind.DISJOINT:
        assert not inter
    elif rel.kind is RelationKind.EQUAL:
        assert img_i == img_j
    elif rel.kind is RelationKind.FIRST_IN_SECOND:
        assert img_i < img_j
    elif rel.kind is RelationKind.SECOND_IN_FIRST:
        assert img_j < img_i
    else:
        assert inter and not (img_i <= img_j) and not (img_j <= img_i)


def test_relation_random_many_indices():
    rng = SplitMix64(77)
    for p, n in ((13, 1), (17, 1), (5, 2), (2, 6)):
        F = make_field(p, n)
        for ell in divisors(F.q - 1):
            if ell < 2:
                continue
            for _ in range(8):
                bm = _random_branch_map(F, ell, rng)
                images = _images(bm)
                for i in range(ell):
                    for j in range(ell):
                        _check_relation(bm, images, i, j)


def test_relation_examples(f13):
    dec = decompose(multiplicative_group(f13), 2)
    contained = BranchMap(dec, [(1, 2), (4, 6)]).relation(1, 0)
    assert contained.kind is RelationKind.FIRST_IN_SECOND
    assert contained.intersection_elements == {9}
    ident = BranchMap(dec, [(1, 1), (1, 1)])
    assert ident.relation(0, 1).kind is RelationKind.DISJOINT
    disjoint = BranchMap(dec, [(1, 2), (12, 4)]).relation(0, 1)
    assert disjoint.kind is RelationKind.DISJOINT


# -- expansion ----------------------------------------------------------------

def test_expand_known_display_forms(f13):
    dec = decompose(multiplicative_group(f13), 2)
    poly = BranchMap(dec, [(1, 2), (12, 4)]).expand(scaled=False)
    assert poly == parse_polynomial("x^10+x^8-x^4+x^2", f13)
    dec3 = decompose(multiplicative_group(f13), 3)
    poly = BranchMap(dec3, [(1, 2), (2, 2), (8, 2)]).expand(scaled=False)
    assert poly == parse_polynomial("x^10+4*x^6-2*x^2", f13)
    poly = BranchMap(dec3, [(1, 1), (4, 1), (3, 2)]).expand(scaled=False)
    assert poly == parse_polynomial("x^10-4*x^6-2*x^5+3*x^2+5*x", f13)


def test_expand_scaled_f17_forms(f17):
    # index-4 display forms carry the 1/4 factor
    dec = decompose(multiplicative_group(f17), 4)
    neg = f17.neg
    bm = BranchMap(dec, [(neg(6), 1), (4, 1), (neg(3), 1), (neg(2), 1)])
    assert bm.expand(scaled=True) == parse_polynomial("6*x^13-7*x^9+x^5-6*x", f17)
    bm = BranchMap(dec, [(neg(6), 2), (neg(8), 2), (neg(3), 2), (1, 2)])
    assert bm.expand(scaled=True) == parse_polynomial("4*x^14+8*x^10+3*x^6-4*x^2", f17)
    bm = BranchMap(dec, [(8, 2), (2, 3), (neg(8), 2), (4, 3)])
    assert bm.expand(scaled=True) == parse_polynomial(
        "2*x^15+4*x^14+7*x^11-2*x^7+4*x^6-7*x^3", f17
    )


def test_expand_single_branch(f13):
    dec = decompose(multiplicative_group(f13), 1)
    poly = BranchMap(dec, [(5, 3)]).expand(scaled=True)
    assert poly == parse_polynomial("5*x^3", f13)


def test_expand_f64_forms():
    # the displayed trinomial identities need the modulus the source example
    # was computed in (x^6+x^4+x^3+x+1); the m-verdicts do not (see the
    # acceptance suite)
    F = make_field(2, 6, modulus=(1, 1, 0, 1, 1, 0, 1))
    dec = decompose(multiplicative_group(F), 3)
    g = F.exp_at
    poly = BranchMap(dec, [(g(1), 3), (g(14), 3), (g(35), 3)]).expand(scaled=False)
    assert poly == parse_polynomial("x^45+g*x^24+x^3", F)
    poly = BranchMap(dec, [(g(12), 1), (g(2), 1), (g(25), 1)]).expand(scaled=False)
    assert poly == parse_polynomial("x^43+g^3*x^22+g^5*x", F)


def test_expansion_fidelity_random():
    rng = SplitMix64(99)
    for p, n in ((13, 1), (17, 1), (5, 2), (2, 6)):
        F = make_field(p, n)
        divs = divisors(F.q - 1)
        for i in range(100):
            ell = divs[i % len(divs)]
            bm = _random_branch_map(F, ell, rng)
            poly = bm.expand(scaled=True)
            assert poly.eval(0) == 0
            for x in range(1, F.q):
                assert poly.eval(x) == bm.eval(x)


def test_expand_rejects_subgroup_context(f64):
    sub = subgroup_of_order(f64, 9)
    bm = BranchMap(decompose(sub, 3), [(1, 1), (1, 1), (1, 1)])
    with pytest.raises(UnsupportedContext):
        bm.expand()


def test_expand_rejects_nonpositive_exponent(f13):
    dec = decompose(multiplicative_group(f13), 2)
    bm = BranchMap(dec, [(1, 0), (1, 1)])
    with pytest.raises(ConstraintViolated):
        bm.expand()


def test_scaling_invariance(f13):
    # u * f(x) has the same multiplicity histogram as f(x)
    rng = SplitMix64(31)
    dec = decompose(multiplicative_group(f13), 2)
    for _ in range(20):
        bm = _random_branch_map(f13, 2, rng)
        u = f13.exp_at(rng.randrange(12))
        scaled = BranchMap(
            dec, [(f13.mul(u, a), r) for a, r in bm.branches]
        )
        assert (
            classify_branch_map(bm).histogram
            == classify_branch_map(scaled).histogram
        )


def test_generator_independence_of_poly_reports():
    poly_text = "x^10+x^8-x^4+x^2"
    reports = []
    for gen in (2, 6, 7, 11):
        F = make_field(13, generator=gen)
        rep = classify_polynomial(parse_polynomial(poly_text, F), "fqstar")
        reports.append((rep.valid_ms, frozenset(rep.exceptional_of(2))))
    assert len(set(reports)) == 1


# -- polynomials ---------------------------------------------------------------

def test_polynomial_canonical_fold(f13):
    # x^13 acts like x on all of F_13
    p = Polynomial.from_terms(f13, {13: 1})
    assert p.coeffs == (0, 1)
    p = Polynomial.from_terms(f13, {25: 2, 1: 11})
    assert p.is_zero()  # 2*x^25 + 11*x == 13*x^13... folds to (2+11)x = 0


def test_polynomial_eval_and_algebra(f13):
    p = parse_polynomial("x^3+x", make_field(5))
    assert [p.eval(x) for x in range(5)] == [0, 2, 0, 0, 3]
    a = parse_polynomial("x^2+1", f13)
    b = parse_polynomial("x+5", f13)
    prod = a * b
    for x in range(13):
        assert prod.eval(x) == f13.mul(a.eval(x), b.eval(x))
    assert (a - a).is_zero()
    assert (a ** 2) == a * a


def _product_power(poly, e):
    """poly**e by e - 1 products, the dense reference."""
    out = Polynomial(poly.field, (1,))
    for _ in range(e):
        out = out * poly
    return out


@pytest.mark.parametrize("p, n", [(13, 1), (5, 2), (2, 6)])
def test_monomial_power_folds_its_exponent(p, n):
    F = make_field(p, n)
    for c, k in ((1, 1), (F.generator, 3), (F.exp_at(5), 0), (1, F.q - 1)):
        mono = Polynomial.from_terms(F, {k: c})
        for e in range(0, 2 * F.q + 3):
            assert mono ** e == _product_power(mono, e)
    assert Polynomial(F, ()) ** 0 == Polynomial(F, (1,))
    assert (Polynomial(F, ()) ** 7).is_zero()


def test_power_refuses_a_dense_degree_past_the_cap():
    F = make_field(1000000000000000003)
    x = Polynomial(F, (0, 1))
    # a monomial folds, and its degree is capped like any dense polynomial
    assert (x ** (F.q + 4)).coeffs == (0, 0, 0, 0, 0, 1)
    with pytest.raises(CapExceeded, match="dense polynomial coefficients"):
        x ** 100000000000000000
    one_plus_x = Polynomial(F, (1, 1))
    with pytest.raises(CapExceeded, match="dense polynomial coefficients"):
        one_plus_x ** (1 << 22)
    assert (one_plus_x ** 3).coeffs == (1, 3, 3, 1)


@pytest.mark.parametrize("p, n, log_threshold", [
    (13, 1, None), (5, 2, None), (2, 6, None), (3, 4, None), (2, 12, 1 << 4),
])
def test_default_subgroup_generator_log_needs_no_dlog(p, n, log_threshold):
    # the old path took the default generator's log by a discrete log
    kw = {} if log_threshold is None else {"log_threshold": log_threshold}
    F = make_field(p, n, **kw)
    for order in divisors(F.q - 1):
        new = subgroup_of_order(F, order)
        old = GroupContext(F, order, F.exp_at((F.q - 1) // order))
        assert new.generator == old.generator
        assert (new._gen_log, new._log_factor) == (old._gen_log, old._log_factor)


def test_unit_circle_without_tables_takes_no_dlog(monkeypatch):
    F = make_field(1021, 2, log_threshold=1 << 10)
    assert not F.has_log_table

    def no_dlog(self, a):
        raise AssertionError("dlog called")

    monkeypatch.setattr(Field, "dlog", no_dlog)
    unit = unit_circle(F, 1021)
    assert unit.order == 1022 and unit.element(1) == unit.generator


def _dense_eval(poly, x):
    """Sum of c_e * x^e over every coefficient, zeros included."""
    F = poly.field
    acc = 0
    for e, c in enumerate(poly.coeffs):
        acc = F.add(acc, F.mul(c, F.pow(x, e)))
    return acc


@pytest.mark.parametrize("p, n, samples", [(2, 5, None), (5, 2, None), (3, 4, None), (97, 1, None),
                                          (2, 20, 30)])
def test_eval_over_the_nonzero_terms_matches_a_dense_sum(p, n, samples):
    # GF(2^20) with log_threshold=0 never builds tables: its logs are
    # Pohlig-Hellman and its products polynomial
    F = make_field(p, n, log_threshold=0) if samples else make_field(p, n)
    q = F.q
    rng = SplitMix64(p * 100 + n)
    polys = [Polynomial(F, ()), Polynomial(F, (1,)), Polynomial(F, (1 + rng.randrange(q - 1),)),
             Polynomial(F, (0, 0, 0, 1 + rng.randrange(q - 1)))]
    for _ in range(6 if samples else 12):
        top = min(q - 1, 40)
        coeffs = [rng.randrange(q) if rng.randrange(3) == 0 else 0 for _ in range(top)]
        polys.append(Polynomial(F, coeffs + [1 + rng.randrange(q - 1)]))
    if samples is None:
        points = range(q)
    else:
        points = [0, 1, q - 1, *(1 + rng.randrange(q - 1) for _ in range(samples))]
    assert any(0 in p.coeffs[1:-1] for p in polys)  # interior zero coefficients
    for poly in polys:
        for x in points:
            assert poly.eval(x) == _dense_eval(poly, x), (poly, x)
    assert F.has_log_table == (samples is None)
    if samples:
        assert F._log is None
