import inspect
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter
from itertools import product

import pytest

from cyclomap import (
    BranchMap,
    Polynomial,
    classify_branch_map,
    classify_callable,
    classify_polynomial,
    criterion_2to1_any_l,
    criterion_equal_d,
    criterion_l2,
    criterion_l3,
    decompose,
    lift_to_full_field,
    make_field,
    multiplicative_group,
    parse_polynomial,
    specialized_criterion,
    subgroup_of_order,
)
from cyclomap.cyclotomic import RelationKind
from cyclomap.errors import (
    _MAX_RESIDUES,
    CapExceeded,
    DomainElementOutsideField,
    HypothesisViolated,
    NotPrime,
    UnequalGcds,
    UnsupportedContext,
    WrongIndex,
)
from cyclomap.gf import divisors
from cyclomap.mto1 import (
    CRITERIA,
    Mto1Report,
    _counted_report,
    _fiber_sizes,
    _zero_extended,
    branch_map_valid_ms,
    cor32,
    cor33,
    cor42,
    cor43,
    cor53,
    cor53_branch_map,
    cor54,
    cor55,
    cor56,
    cor56_branch_map,
    cor61,
    cor61_branch_map,
    cor62,
    cor62_branch_map,
)
from cyclomap.search import SplitMix64


def _bm(field, ell, branches):
    return BranchMap(decompose(multiplicative_group(field), ell), branches)


# -- the oracle ----------------------------------------------------------------

def test_classify_f5_example(f5):
    rep = classify_polynomial(parse_polynomial("x^3+x", f5), "fq")
    assert rep.valid_ms == {3}
    assert rep.exceptional_of(3) == (1, 4)
    rep.check_consistency()
    with pytest.raises(ValueError):
        rep.exceptional_of(2)


def test_classify_identity_and_square(f13):
    rep = classify_polynomial(parse_polynomial("x", f13), "fqstar")
    assert rep.valid_ms == {1} and rep.exceptional_of(1) == ()
    rep = classify_polynomial(parse_polynomial("x^2", f13), "fqstar")
    assert 2 in rep.valid_ms
    rep = classify_polynomial(parse_polynomial("x^7", f13), "fqstar")
    assert 1 in rep.valid_ms  # gcd(7, 12) = 1


def test_classify_explicit_domain(f13):
    rep = classify_callable(lambda x: 1, (1, 2, 3, 4))
    assert rep.valid_ms == {4}
    poly = parse_polynomial("x^2", f13)
    rep = classify_polynomial(poly, (1, 12))
    assert rep.valid_ms == {2}
    with pytest.raises(DomainElementOutsideField):
        classify_polynomial(poly, (1, 99))


def test_explicit_domain_is_a_set(f5):
    # (1, 1, 2, 3) was counted as four points, with histogram {2: 2}
    poly = parse_polynomial("x^2", f5)
    rep = classify_polynomial(poly, (1, 1, 2, 3))
    ref = classify_polynomial(poly, (3, 2, 1))
    assert rep.domain_size == ref.domain_size == 3
    assert rep.histogram == ref.histogram == {1: 1, 2: 1}
    assert rep.valid_ms == ref.valid_ms == {2}
    assert rep.exceptional_of(2) == ref.exceptional_of(2) == (1,)


def test_histogram_identity_random_maps(f13, f17):
    rng = SplitMix64(8)
    for F in (f13, f17):
        for ell in divisors(F.q - 1):
            dec = decompose(multiplicative_group(F), ell)
            for _ in range(5):
                bm = BranchMap(
                    dec,
                    [
                        (F.exp_at(rng.randrange(F.q - 1)), 1 + rng.randrange(F.q - 1))
                        for _ in range(ell)
                    ],
                )
                for include_zero in (False, True):
                    classify_branch_map(bm, include_zero).check_consistency()


def test_exceptional_order_is_ascending_log(f13):
    # x^2 on F_13* is 2-to-1... use a 3-valid map with nonempty exceptional set
    bm = _bm(f13, 2, [(1, 2), (4, 6)])
    rep = classify_branch_map(bm)
    exc = rep.exceptional_of(8)
    logs = [f13.dlog(x) for x in exc]
    assert logs == sorted(logs)


def test_exceptional_sets_match_element_recount(f13, f17, f25, f64):
    # the fiber-table path against a recount over elements, on both domains
    rng = SplitMix64(31)
    uneven = 0
    for F in (f13, f17, f25, f64):
        N = F.q - 1
        for ell in divisors(N):
            dec = decompose(multiplicative_group(F), ell)
            for _ in range(6):
                bm = BranchMap(dec, [(F.exp_at(rng.randrange(N)), 1 + rng.randrange(N))
                                     for _ in range(ell)])
                for domain in ("fqstar", "fq"):
                    rep = classify_branch_map(bm, include_zero=(domain == "fq"))
                    image = {x: bm.eval(x) for x in range(1, F.q)}
                    if domain == "fq":
                        image[0] = 0
                    fibers = Counter(image.values())
                    for m in rep.valid_ms:
                        want = sorted((x for x in image if fibers[image[x]] != m),
                                      key=lambda x: -1 if x == 0 else F.dlog(x))
                        assert rep.exceptional_of(m) == tuple(want), (bm, domain, m)
                        uneven += rep.domain_size % m != 0
    assert uneven >= 20  # valid m with a nonempty exceptional set


def test_oracle_matches_an_eval_recount(small_branch_maps):
    # the fiber table and the sweep oracle that reads it against one
    # bm.eval per point, exceptional sets included, on log-form maps over
    # F_q* and the unit circle; F_7* and the circle share the order-6 tables
    for dec, las, rs in small_branch_maps:
        ctx = dec.ctx
        bm = BranchMap(dec, log_scales=las, exponents=rs)
        image = {x: bm.eval(x) for x in ctx}
        recount = Counter(image.values())
        sizes = _fiber_sizes(bm)
        assert len(sizes) == ctx.order
        assert {ctx.element(e): c for e, c in enumerate(sizes) if c} == recount
        assert sum(sizes) == ctx.order
        valid = Mto1Report(recount.values(), None).valid_ms
        assert branch_map_valid_ms(bm) == Mto1Report(filter(None, sizes), None).valid_ms == valid
        rep = classify_branch_map(bm)
        for m in rep.valid_ms:
            want = sorted((x for x in image if recount[image[x]] != m), key=ctx.dlog)
            assert rep.exceptional_of(m) == tuple(want), (bm, m)


@pytest.mark.parametrize("p, n", [(2, 8), (257, 1), (2, 12), (8191, 1), (2, 16), (65537, 1)])
def test_packed_oracle_at_the_byte_limit(p, n):
    # a lane holds N, the largest fiber: one byte up to N = 255, two up to
    # 65535, four at 65536; at each N, ell = 1 and r = 0 fill one lane with N.
    # Wider tables keep a block per image coset and copy the blocks out along
    # the shorter side, by coset for ell <= s and by position for s < ell.
    ctx = multiplicative_group(make_field(p, n))
    N = ctx.order
    lane = 1 if N <= 255 else 2 if N <= 65535 else 4
    rng = SplitMix64(N)
    wide = N >= 4095  # fewer maps, each counted at N points
    for ell in [e for e in divisors(N) if e <= 16 or N // e <= 2] if wide else divisors(N):
        dec = decompose(ctx, ell)
        s = dec.coset_size
        maps = [((5,) * ell, (0,) * ell), ((5,) * ell, (N,) * ell)]
        for _ in range(2 if wide else 12):
            las = tuple(rng.randrange(3 * N) - N for _ in range(ell))
            rs = tuple((0, s, -1, 2 * N + 1, rng.randrange(3 * N) - N)[rng.randrange(5)]
                       for _ in range(ell))
            maps.append((las, rs))
        for las, rs in maps:
            bm = BranchMap(dec, log_scales=las, exponents=rs)
            recount = Counter(map(bm.eval, ctx))
            sizes = _fiber_sizes(bm)
            assert memoryview(sizes).itemsize == lane and isinstance(sizes, bytes) == (lane == 1)
            assert {ctx.element(e): c for e, c in enumerate(sizes) if c} == recount
            valid = Mto1Report(recount.values(), None).valid_ms
            assert branch_map_valid_ms(bm) == valid, (N, ell, las, rs)


def test_step_store_empties_its_tables_at_the_lane_cap(monkeypatch):
    # 70 power maps of GF(2^16)* with distinct exponents need 70 steps of
    # 65535 lanes, more than the cap: the store empties its tables instead
    # of passing it, and the tables it then counts are still right
    from cyclomap import mto1

    monkeypatch.setattr(mto1, "_STEPS", mto1._StepStore())
    ctx = multiplicative_group(make_field(2, 16))
    N = ctx.order
    dec = decompose(ctx, 1)
    assert 70 * N > _MAX_RESIDUES
    for r in range(1, 71):
        bm = BranchMap(dec, log_scales=[r], exponents=[r])
        sizes = _fiber_sizes(bm)
        (width, steps), = mto1._STEPS.values()  # one block of N lanes per step at ell = 1
        assert width == 16 and N * (len(steps) - steps.count(0)) == mto1._STEPS.lanes <= _MAX_RESIDUES
        if r % 23 == 1:
            recount = Counter(map(bm.eval, ctx))
            assert {ctx.element(e): c for e, c in enumerate(sizes) if c} == recount
    assert 0 < mto1._STEPS.lanes < 70 * N


def _assert_residue_report_is_the_count(bm) -> int:
    """Compare both reports on both domains; the number of nonempty
    exceptional sets compared."""
    nonempty = 0
    for include_zero in (False, True):
        fast = classify_branch_map(bm, include_zero)
        slow = _counted_report(bm)
        if include_zero:
            slow = _zero_extended(slow, bm.decomp.ctx)
        assert fast.domain_size == slow.domain_size
        assert fast.histogram == slow.histogram, (bm, include_zero)
        assert fast.valid_ms == slow.valid_ms, (bm, include_zero)
        for m in slow.valid_ms:
            exceptional = slow.exceptional_of(m)
            assert fast.exceptional_of(m) == exceptional, (bm, include_zero, m)
            nonempty += bool(exceptional)
    return nonempty


def _maps_up_to_symmetry(dec):
    """Every branch map of one decomposition of F_q*, up to two symmetries
    that keep every fiber size and exceptional set.

    Branch i sends t to off_i + t*ell*r_i (mod N), so a map is fixed by its
    offsets mod N and its exponents mod the coset size s.  Scaling the map
    by a constant shifts every offset, so off_0 = 0.  At ell = N every coset
    is one point and any offsets occur; relabeling the image exponents keeps
    the fibers, so the offsets are restricted growth strings, one per set
    partition of the N points.
    """
    N, ell, s = dec.ctx.order, dec.index, dec.coset_size
    if ell == N:
        offset_tuples = [()]
        for _ in range(N):
            offset_tuples = [offs + (v,) for offs in offset_tuples
                             for v in range(max(offs, default=-1) + 2)]
        exponent_tuples = [(1,) * N]
    else:
        offset_tuples = [(0, *rest) for rest in product(range(N), repeat=ell - 1)]
        exponent_tuples = list(product(range(s), repeat=ell))
    for offs in offset_tuples:
        for rs in exponent_tuples:
            las = [off - i * r for i, (off, r) in enumerate(zip(offs, rs))]
            yield BranchMap(dec, log_scales=las, exponents=rs)


def test_residue_classifier_matches_the_count_on_every_small_map():
    # every index of F_5*, F_7* and F_9*, every map up to symmetry
    maps = nonempty = 0
    for p, n in ((5, 1), (7, 1), (3, 2)):
        F = make_field(p, n)
        for ell in divisors(F.q - 1):
            for bm in _maps_up_to_symmetry(decompose(multiplicative_group(F), ell)):
                nonempty += _assert_residue_report_is_the_count(bm)
                maps += 1
    assert maps == (4 + 16 + 15) + (6 + 54 + 288 + 203) + (8 + 128 + 8192 + 4140)
    assert nonempty >= 4000  # valid m with a nonempty exceptional set


def test_residue_classifier_matches_the_count_on_random_maps():
    rng = SplitMix64(1978)
    zero_exponents = full_period = nonempty = 0
    for p, n in ((13, 1), (17, 1), (5, 2), (29, 1), (2, 6), (3, 4)):
        F = make_field(p, n)
        N = F.q - 1
        for ell in divisors(N):
            dec = decompose(multiplicative_group(F), ell)
            for _ in range(100):
                las = [rng.randrange(N) for _ in range(ell)]
                # exponents up to 3N, a fifth of them = 0 mod N
                rs = [N * rng.randrange(4) if rng.randrange(5) == 0
                      else rng.randrange(3 * N + 1) for _ in range(ell)]
                bm = BranchMap(dec, log_scales=las, exponents=rs)
                nonempty += _assert_residue_report_is_the_count(bm)
                zero_exponents += any(r % N == 0 for r in rs)
                full_period += ell * math.lcm(*bm.multiplicities) == N
    assert zero_exponents >= 2500 and full_period >= 2500 and nonempty >= 500


@pytest.mark.parametrize("p, n", [(257, 1), (2, 9)])
def test_residue_classifier_matches_the_count_past_the_byte_limit(p, n):
    # groups of order 256 and 511, whose fiber tables have two-byte lanes
    F = make_field(p, n)
    N = F.q - 1
    rng = SplitMix64(N)
    nonempty = 0
    for ell in divisors(N):
        dec = decompose(multiplicative_group(F), ell)
        for _ in range(4):
            las = [rng.randrange(N) for _ in range(ell)]
            rs = [N * rng.randrange(2) if rng.randrange(5) == 0
                  else rng.randrange(3 * N + 1) for _ in range(ell)]
            bm = BranchMap(dec, log_scales=las, exponents=rs)
            nonempty += _assert_residue_report_is_the_count(bm)
    assert nonempty


def test_each_counting_report_counts_the_points_once(monkeypatch, f13):
    # _fiber_sizes is the one count behind the sweep oracle, the counting
    # report and classify_wrapped, each of which calls it once
    from cyclomap import mto1, unitary

    calls = []
    count = mto1._fiber_sizes
    monkeypatch.setattr(mto1, "_fiber_sizes", lambda bm: calls.append(bm) or count(bm))
    bm = _bm(f13, 2, [(1, 2), (12, 4)])
    assert branch_map_valid_ms(bm) == {2} and len(calls) == 1
    report = _zero_extended(_counted_report(bm), bm.decomp.ctx)
    assert report.valid_ms == {2} and report.exceptional_of(2) == (0,)
    assert len(calls) == 2
    F = unitary.ext_field_for(5)
    wm = unitary.make_wrapped(5, 1, Polynomial(F, (1,)), field=F)
    assert unitary.classify_wrapped(wm).valid_ms == {1}
    assert len(calls) == 3


def test_counting_report_refuses_a_group_past_the_cap():
    # classify_wrapped and classify_unit_mapping count every point, so past
    # 2^22 points they refuse, while the residue report still answers
    F = make_field(2, 23)
    bm = _bm(F, 1, [(1, 1)])
    with pytest.raises(CapExceeded):
        _counted_report(bm)
    assert classify_branch_map(bm).valid_ms == {1}


def test_branch_map_fast_path_matches_generic(f13):
    bm = _bm(f13, 3, [(1, 2), (2, 2), (8, 2)])
    fast = classify_branch_map(bm)
    slow = classify_callable(bm.eval, range(1, 13), order_key=f13.dlog)
    assert fast.valid_ms == slow.valid_ms
    assert fast.histogram == slow.histogram
    for m in fast.valid_ms:
        assert fast.exceptional_of(m) == slow.exceptional_of(m)


# -- lifting -------------------------------------------------------------------

def test_lift_rejects_nonzero_roots(f5):
    poly = parse_polynomial("x^3+x", f5)  # vanishes at 2
    with pytest.raises(HypothesisViolated):
        lift_to_full_field(poly, f5, 3)
    shifted = parse_polynomial("x+1", f5)  # f(0) != 0... and root at -1
    with pytest.raises(HypothesisViolated):
        lift_to_full_field(shifted, f5, 1)


def test_lift_evaluates_each_point_once(f13):
    calls = Counter()

    def cube(x):
        calls[x] += 1
        return f13.pow(x, 3)

    v = lift_to_full_field(cube, f13, 3)
    assert v.holds  # x^3 is 3-to-1 on GF(13)*, and 3 does not divide 13
    assert sorted(calls) == list(range(f13.q)) and set(calls.values()) == {1}
    assert not lift_to_full_field(cube, f13, 0).applicable  # was a ZeroDivisionError


def test_lift_parity_clause(f13):
    bm = _bm(f13, 2, [(1, 2), (12, 4)])  # 2-to-1 on the star
    v = lift_to_full_field(bm, f13, 2)
    assert v.holds  # 2 does not divide 13
    full = classify_branch_map(bm, include_zero=True)
    assert 2 in full.valid_ms


def test_lift_bijection_clause(f13):
    bm = _bm(f13, 1, [(5, 7)])  # gcd(7, 12) = 1: permutation of the star
    v = lift_to_full_field(bm, f13, 1)
    assert v.holds
    assert 1 in classify_branch_map(bm, include_zero=True).valid_ms


def test_lift_differential_all_small():
    # verdict == oracle over F_q for every two-branch map at q=5, 9
    for p, n in ((5, 1), (3, 2)):
        F = make_field(p, n)
        dec = decompose(multiplicative_group(F), 2)
        N = F.q - 1
        for e0, e1, r0, r1 in product(range(N), range(N), range(1, N + 1), range(1, N + 1)):
            bm = BranchMap(dec, [(F.exp_at(e0), r0), (F.exp_at(e1), r1)])
            full = classify_branch_map(bm, include_zero=True)
            for m in range(1, F.q + 1):
                v = lift_to_full_field(bm, F, m)
                assert v.holds == (m in full.valid_ms), (p, n, e0, e1, r0, r1, m)


def test_lift_and_zero_fiber_refuse_other_domains(f13):
    # the identity on the order-6 subgroup of GF(13) was lifted to a
    # "bijective-star" verdict on GF(13), and its report with 0 -> 0 added
    # counted a 7-point "F_q"; a map over GF(5)* answered for GF(13)
    sub = decompose(subgroup_of_order(f13, 6), 1)
    ident = BranchMap(sub, log_scales=(0,), exponents=(1,))
    for bm, field in ((ident, f13), (_bm(make_field(5), 1, [(1, 1)]), f13)):
        with pytest.raises(UnsupportedContext) as exc:
            lift_to_full_field(bm, field, 1)
        assert "\n" not in str(exc.value)
    with pytest.raises(UnsupportedContext):
        classify_branch_map(ident, include_zero=True)
    with pytest.raises(UnsupportedContext):
        _zero_extended(_counted_report(ident), sub.ctx)
    assert classify_branch_map(ident).valid_ms == {1}


def test_lift_refuses_a_polynomial_over_another_field(f13):
    # x^2 over GF(13) lifted to GF(7) answered about codes 0..6 of GF(13),
    # and x^3 over GF(7) lifted to GF(13) ended in an IndexError
    f7 = make_field(7)
    f25, other25 = make_field(5, 2), make_field(5, 2, modulus=[2, 0, 1])
    for poly, field in ((parse_polynomial("x^2", f13), f7), (parse_polynomial("x^3", f7), f13),
                        (parse_polynomial("x^5", other25), f25)):
        for m in (1, 2, 3):
            with pytest.raises(UnsupportedContext,
                               match=rf"^lifting to GF\({field.q}\) needs a polynomial over that field$"):
                lift_to_full_field(poly, field, m)
    assert lift_to_full_field(parse_polynomial("x^3", f13), f13, 3).holds


def test_lift_refuses_images_outside_the_field(f5):
    # images 101..104 of GF(5)* were counted as four distinct points and
    # answered holds=True, "bijective-star"
    seen = []

    def shifted(x):
        seen.append(x)
        return x + 100 if x else 0

    with pytest.raises(DomainElementOutsideField, match="^image 101 of 1 "):
        lift_to_full_field(shifted, f5, 1)
    assert seen == [0, 1]  # refused at the first image outside the field
    with pytest.raises(DomainElementOutsideField, match="^image -1 of 0 "):
        lift_to_full_field(lambda x: x - 1, f5, 1)
    # a root before an image outside the field: the root check comes first
    with pytest.raises(HypothesisViolated, match="nonzero root 1"):
        lift_to_full_field(lambda x: 0 if x < 2 else 5, f5, 1)
    with pytest.raises(HypothesisViolated, match="must fix 0"):
        lift_to_full_field(lambda x: 1 if x == 0 else x, f5, 1)


# -- criteria on known instances ----------------------------------------------------

def test_criterion_l2_instances(f13):
    assert criterion_l2(_bm(f13, 2, [(1, 2), (12, 4)]), 2).holds
    assert criterion_l2(_bm(f13, 2, [(8, 3), (7, 3)]), 3).holds
    assert criterion_l2(_bm(f13, 2, [(1, 2), (4, 6)]), 8).holds
    assert criterion_l2(_bm(f13, 2, [(2, 1), (12, 5)]), 2).holds
    with pytest.raises(WrongIndex):
        criterion_l2(_bm(f13, 3, [(1, 1), (1, 1), (1, 1)]), 2)
    assert not criterion_l2(_bm(f13, 2, [(1, 2), (12, 4)]), 99).applicable


def test_criterion_l3_instances(f13, f64):
    assert criterion_l3(_bm(f13, 3, [(1, 2), (2, 2), (8, 2)]), 2).holds
    assert criterion_l3(_bm(f13, 3, [(1, 1), (4, 1), (3, 2)]), 2).holds
    g = f64.exp_at
    assert criterion_l3(_bm(f64, 3, [(g(1), 3), (g(14), 3), (g(35), 3)]), 3).holds
    assert criterion_l3(_bm(f64, 3, [(g(12), 1), (g(2), 1), (g(25), 1)]), 3).holds
    with pytest.raises(WrongIndex):
        criterion_l3(_bm(f13, 2, [(1, 1), (1, 1)]), 2)


def test_criterion_l3_label_invariance(f13):
    # permuting branch data together with coset relabeling cannot change the
    # verdict when multiplicities tie; check by brute agreement with oracle
    rng = SplitMix64(13)
    dec = decompose(multiplicative_group(f13), 3)
    for _ in range(300):
        bm = BranchMap(
            dec,
            [(f13.exp_at(rng.randrange(12)), 1 + rng.randrange(12)) for _ in range(3)],
        )
        oracle = branch_map_valid_ms(bm)
        for m in range(1, 13):
            assert criterion_l3(bm, m).holds == (m in oracle)


def test_clause_2_size_bound_holds_iff_the_light_pair_is_equal():
    # the paper's clause 2 bound (s/dj)(dj - di) < m, m = di + dj, under
    # di | dj, dj | s and m | s, which criterion_l3 states as di == dj
    unequal = 0
    for s in range(1, 2001):
        for dj in divisors(s):
            for di in divisors(dj):
                if s % (di + dj) == 0:
                    assert ((s // dj) * (dj - di) < di + dj) == (di == dj), (s, di, dj)
                    unequal += di < dj
    assert unequal == 4451


@pytest.mark.parametrize("p, n", [(7, 1), (13, 1), (2, 4)])
def test_clause_5_decides_every_full_size_map_with_one_merged_pair(p, n):
    # the paper's clause 4 (every d = s, m = 2s, exactly two of the three
    # images equal), which criterion_l3 leaves to clause 5
    F = make_field(p, n)
    dec = decompose(multiplicative_group(F), 3)
    N, s = F.q - 1, dec.coset_size
    merged = 0
    for las in product(range(N), repeat=3):
        for rs in product((s, 2 * s, 3 * s), repeat=3):
            bm = BranchMap(dec, log_scales=las, exponents=rs)
            if len({off % (3 * s) for off in bm._offsets}) != 2:
                continue
            verdict = criterion_l3(bm, 2 * s)
            assert verdict.holds and verdict.witness.startswith("clause 5"), (las, rs)
            assert 2 * s in branch_map_valid_ms(bm), (las, rs)
            merged += 1
    assert merged == 27 * 3 * N * (N - 1)  # offsets are uniform mod N = 3s


def test_criterion_2to1_special_indices(f13, f17):
    # index 1: power map rule
    assert criterion_2to1_any_l(_bm(f13, 1, [(3, 2)])).holds
    assert not criterion_2to1_any_l(_bm(f13, 1, [(3, 3)])).holds
    # index q-1: singleton cosets
    F5 = make_field(5)
    dec = decompose(multiplicative_group(F5), 4)
    bm = BranchMap(dec, [(1, 1), (1, 1), (4, 1), (4, 1)])
    v = criterion_2to1_any_l(bm)
    assert v.holds == (2 in branch_map_valid_ms(bm))


def test_criterion_2to1_f17_instances(f17):
    neg = f17.neg
    cases = [
        [(neg(6), 1), (4, 1), (neg(3), 1), (neg(2), 1)],
        [(neg(6), 2), (neg(8), 2), (neg(3), 2), (1, 2)],
        [(8, 2), (2, 3), (neg(8), 2), (4, 3)],
    ]
    for bs in cases:
        bm = _bm(f17, 4, bs)
        assert criterion_2to1_any_l(bm).holds
        assert 2 in branch_map_valid_ms(bm)


def test_criterion_2to1_rejects_heavy_branch(f13):
    bm = _bm(f13, 2, [(1, 6), (1, 1)])  # gcd(6, 6) = 6 > 2
    v = criterion_2to1_any_l(bm)
    assert v.applicable and not v.holds


def test_criterion_equal_d_instances(f17):
    neg = f17.neg
    bm = _bm(f17, 4, [(5, 2), (7, 2), (neg(1), 2), (neg(2), 2)])
    assert criterion_equal_d(bm, 4).holds
    bm = _bm(f17, 4, [(neg(2), 3), (neg(6), 3), (neg(4), 1), (3, 3)])
    assert criterion_equal_d(bm, 4).holds
    with pytest.raises(UnequalGcds):
        criterion_equal_d(_bm(f17, 2, [(1, 2), (1, 1)]), 2)


def test_criterion_equal_d_index_one(f13):
    # a*x^r on the whole group: m-to-1 exactly for m = gcd(r, q-1)
    for r in range(1, 13):
        bm = _bm(f13, 1, [(7, r)])
        d = math.gcd(r, 12)
        for m in range(1, 13):
            assert criterion_equal_d(bm, m).holds == (m == d)


def test_l2_equal_d_consistency_random():
    # where both apply (two equal-gcd branches) the verdicts coincide
    rng = SplitMix64(21)
    for p in (13, 17):
        F = make_field(p)
        dec = decompose(multiplicative_group(F), 2)
        s = (p - 1) // 2
        checked = 0
        while checked < 1000:
            r0 = 1 + rng.randrange(p - 1)
            r1 = 1 + rng.randrange(p - 1)
            if math.gcd(r0, s) != math.gcd(r1, s):
                continue
            bm = BranchMap(
                dec, [(F.exp_at(rng.randrange(p - 1)), r0), (F.exp_at(rng.randrange(p - 1)), r1)]
            )
            m = 1 + rng.randrange(p - 1)
            assert criterion_l2(bm, m).holds == criterion_equal_d(bm, m).holds
            checked += 1


# -- negative structural test ---------------------------------------------------

def test_overlapping_non_nested_images_block_sum_multiplicity(f13, f17):
    # when images meet but neither contains the other, the map restricted to
    # the two cosets is never (d_i + d_j)-to-1
    rng = SplitMix64(55)
    hits = 0
    for F in (f13, f17):
        for _ in range(4000):
            ell = (2, 3, 4)[rng.randrange(3)]
            if (F.q - 1) % ell:
                continue
            dec = decompose(multiplicative_group(F), ell)
            bm = BranchMap(
                dec,
                [
                    (F.exp_at(rng.randrange(F.q - 1)), 1 + rng.randrange(F.q - 1))
                    for _ in range(ell)
                ],
            )
            for i in range(ell):
                for j in range(ell):
                    if i == j or bm.multiplicities[i] > bm.multiplicities[j]:
                        continue
                    rel = bm.relation(j, i)  # image(j) vs image(i)
                    if rel.kind not in (RelationKind.OVERLAP, RelationKind.SECOND_IN_FIRST):
                        continue
                    # f_i(C_i) meets f_j(C_j), f_j(C_j) not inside f_i(C_i)
                    hits += 1
                    dom = list(dec.coset(i)) + list(dec.coset(j))
                    rep = classify_callable(bm.eval, dom, order_key=F.dlog)
                    assert bm.multiplicities[i] + bm.multiplicities[j] not in rep.valid_ms
    assert hits > 40  # the shape is rare but must be exercised


# -- specialized corollaries -----------------------------------------------------

def test_cor32_cor33_against_parents(f13):
    dec = decompose(multiplicative_group(f13), 2)
    for e0, e1, r0, r1 in product(range(12), range(12), range(1, 7), range(1, 7)):
        bm = BranchMap(dec, [(f13.exp_at(e0), r0), (f13.exp_at(e1), r1)])
        oracle = branch_map_valid_ms(bm)
        assert cor32(bm).holds == (2 in oracle)
        v3 = cor33(bm)
        assert v3.applicable and v3.holds == (3 in oracle)


def test_cor33_threshold():
    F = make_field(7)
    bm = _bm(F, 2, [(1, 3), (1, 3)])
    assert not cor33(bm).applicable


def test_cor42_cor43_against_oracle():
    for p, n in ((13, 1), (5, 2)):
        F = make_field(p, n)
        if (F.q - 1) % 3:
            continue
        dec = decompose(multiplicative_group(F), 3)
        rng = SplitMix64(F.q)
        for _ in range(2000):
            bm = BranchMap(
                dec,
                [(F.exp_at(rng.randrange(F.q - 1)), 1 + rng.randrange(F.q - 1)) for _ in range(3)],
            )
            oracle = branch_map_valid_ms(bm)
            assert cor42(bm).holds == (2 in oracle)
            v = cor43(bm)
            if v.applicable:  # q >= 19
                assert v.holds == (3 in oracle)


def test_cor53_instances(f13):
    # branches (a0, r0), (a1, r1) x (ell-1); criterion vs oracle
    F = f13
    for ell in (3, 4, 6):
        s = 12 // ell
        for a0, a1, r0, r1 in product((1, 3, 9), (1, 3, 9), range(1, 7), range(1, 7)):
            d0, d1 = math.gcd(r0, s), math.gcd(r1, s)
            if d0 != d1 or F.pow(a0, s // d0) != F.pow(a1, s // d0):
                continue
            bm = cor53_branch_map(F, ell, a0, a1, r0, r1)
            oracle = branch_map_valid_ms(bm)
            for m in range(1, 13):
                assert cor53(F, ell, a0, a1, r0, r1, m).holds == (m in oracle)


def test_cor53_hypothesis_errors(f13):
    with pytest.raises(HypothesisViolated):
        cor53(f13, 3, 1, 2, 1, 1, 1)  # 1^4 = 1 but 2^4 = 3


def test_cor54_cor55_against_oracle(f17):
    rng = SplitMix64(99)
    for ell in (2, 4, 8):
        dec = decompose(multiplicative_group(f17), ell)
        s = 16 // ell
        for _ in range(800):
            d = (1, 2)[rng.randrange(2)]
            if s % d:
                continue
            rs = []
            while len(rs) < ell:
                r = 1 + rng.randrange(16)
                if math.gcd(r, s) == d:
                    rs.append(r)
            bm = BranchMap(
                dec, [(f17.exp_at(rng.randrange(16)), r) for r in rs]
            )
            oracle = branch_map_valid_ms(bm)
            assert cor54(bm).holds == (d in oracle)
            if d == 1:
                m = 1 + rng.randrange(16)
                assert cor55(bm, m).holds == (m in oracle)


def test_cor56_against_oracle():
    # q = 5, ell = 2: 25 = 1 (mod 4); q = 2, n = 6, ell = 3: 63 = 0 (mod 9)
    for q, n, ell in ((5, 2, 2), (2, 6, 3), (4, 3, 3)):
        bm = cor56_branch_map(q, n, ell)
        oracle = branch_map_valid_ms(bm)
        qn = q ** n
        for m in range(1, qn):
            assert cor56(q, n, ell, m).holds == (m in oracle), (q, n, ell, m)
    with pytest.raises(HypothesisViolated):
        cor56(3, 1, 2, 1)  # 3 != 1 (mod 4)


@pytest.mark.parametrize("fn", [cor56, cor56_branch_map])
def test_cor56_checks_ell_and_the_field_first(fn):
    extra = (1,) if fn is cor56 else ()
    # l < 1 once divided by l*l; GF(6) and GF(10) do not exist
    for ell in (0, -1):
        with pytest.raises(HypothesisViolated):
            fn(4, 2, ell, *extra)
    for q in (6, 10, 1):
        with pytest.raises(NotPrime):
            fn(q, 2, 1, *extra)
    with pytest.raises(ValueError):
        fn(5, 0, 2, *extra)


def test_cor61_against_oracle(f13):
    rng = SplitMix64(3)
    from cyclomap.cyclotomic import Polynomial

    for _ in range(300):
        g0 = Polynomial(f13, [rng.randrange(13) for _ in range(3)])
        g1 = Polynomial(f13, [rng.randrange(13) for _ in range(3)])
        if g0.eval(1) == 0 or g1.eval(f13.neg(1)) == 0:
            continue
        r0, r1 = 1 + rng.randrange(12), 1 + rng.randrange(12)
        bm = cor61_branch_map(f13, g0, g1, r0, r1)
        # displayed map is 2x the branch map; multiplicities match by scaling
        oracle = branch_map_valid_ms(bm)
        for m in range(1, 13):
            assert cor61(f13, g0, g1, r0, r1, m).holds == (m in oracle)


def test_cor61_trivial_constants(f13):
    # with unit g_i, the map is (1+x^s)x^r0 + (1-x^s)x^r1 = 2x^r; every odd r
    # gives gcd(r, s)-to-1 (the printed parity form of the clause)
    from cyclomap.cyclotomic import Polynomial

    one = Polynomial(f13, (1,))
    for r in range(1, 13):
        d = math.gcd(r, 6)
        v = cor61(f13, one, one, r, r, d)
        if r % 2 == 1:
            assert v.holds
        oracle = branch_map_valid_ms(cor61_branch_map(f13, one, one, r, r))
        assert v.holds == (d in oracle)


def test_cor62_against_oracle():
    # base q = 5, n = 2: constants drawn from the base field
    F = make_field(5, 2)
    from cyclomap.cyclotomic import Polynomial

    rng = SplitMix64(17)
    s = (F.q - 1) // 2
    for _ in range(200):
        c0, c1 = 1 + rng.randrange(4), 1 + rng.randrange(4)
        h0 = Polynomial(F, (c0,))
        h1 = Polynomial(F, (c1,))
        r0, r1 = 1 + rng.randrange(24), 1 + rng.randrange(24)
        d = min(math.gcd(r0, s), math.gcd(r1, s))
        if ((F.q - 1) // 4) % (2 * d):
            continue
        bm = cor62_branch_map(5, 2, h0, h1, r0, r1)
        oracle = branch_map_valid_ms(bm)
        for m in range(1, F.q):
            assert cor62(5, 2, h0, h1, r0, r1, m).holds == (m in oracle)


def _poly(text, p, n=1):
    return parse_polynomial(text, make_field(p, n))


def _f7_map(ell):
    # GF(7) is below every q bound of cor33, cor42 and cor43
    return _bm(make_field(7), ell, [(1, 1)] * ell)


@pytest.mark.parametrize("fn, args, error, message", [
    (cor32, lambda: (_f7_map(3),), WrongIndex, "cor32 needs 2 branches"),
    (cor33, lambda: (_f7_map(3),), WrongIndex, "cor33 needs 2 branches"),
    (cor42, lambda: (_f7_map(2),), WrongIndex, "cor42 needs 3 branches"),
    (cor43, lambda: (_f7_map(2),), WrongIndex, "cor43 needs 3 branches"),
    (cor53, lambda: (make_field(13), 3, 1, 1, 1, 2, 1), HypothesisViolated,
     r"gcd\(r0, s\) must equal gcd\(r1, s\)"),
    (cor54, lambda: (_bm(make_field(13), 2, [(1, 1), (1, 2)]),), UnequalGcds,
     "branch multiplicities are not all equal"),
    (cor55, lambda: (_bm(make_field(13), 2, [(1, 1), (1, 2)]), 1), HypothesisViolated,
     r"every gcd\(r_i, s\) must be 1"),
    (cor62, lambda: (5, 2, _poly("1", 13), _poly("1", 13), 1, 1, 1), HypothesisViolated,
     r"polynomials must live in GF\(q\^n\)"),
    (cor62, lambda: (2, 2, _poly("1", 2, 2), _poly("1", 2, 2), 1, 1, 1), HypothesisViolated,
     "needs odd q"),
    (cor62, lambda: (5, 2, _poly("0", 5, 2), _poly("1", 5, 2), 1, 1, 1), HypothesisViolated,
     r"h_i\(\+-1\) must be a nonzero base-field value"),
    (cor62, lambda: (5, 2, _poly("1", 5, 2), _poly("g", 5, 2), 1, 1, 1), HypothesisViolated,
     r"h_i\(\+-1\) must be a nonzero base-field value"),
])
def test_corollary_guards_raise(fn, args, error, message):
    with pytest.raises(error, match=message):
        fn(*args())
    fixed_m = CRITERIA[fn.__name__].fixed_m
    if fixed_m is not None:
        # another m is answered before the map's index, or q, is checked
        bm, = args()
        for m in (0, 1, fixed_m + 1, 7):
            assert fn(bm, m) == (False, None, "m-out-of-range")


@pytest.mark.parametrize("name", list(CRITERIA))
def test_every_criterion_takes_m_last(name):
    entry = CRITERIA[name]
    *_, last = inspect.signature(entry.fn).parameters.values()
    assert last.name == "m"
    if entry.fixed_m is not None:
        assert last.default == entry.fixed_m


def test_specialized_dispatch(f13):
    bm = _bm(f13, 2, [(1, 2), (12, 4)])
    assert specialized_criterion("COR32", bm).holds
    assert specialized_criterion("cor32", bm).holds
    with pytest.raises(ValueError):
        specialized_criterion("COR99", bm)


def test_specialized_dispatch_asks_a_fixed_m_corollary_about_an_m(f13):
    # cor33 answered an m after the map with a TypeError
    bm = _bm(f13, 2, [(1, 3), (f13.exp_at(1), 3)])  # 1:3,g:3
    for call in (lambda m: specialized_criterion("cor33", bm, m),
                 lambda m: specialized_criterion("cor33", bm, m=m),
                 lambda m: specialized_criterion("cor33", bm=bm, m=m)):
        assert call(5) == (False, None, "m-out-of-range")
        assert call(3) == cor33(bm) == specialized_criterion("cor33", bm)
    assert cor33(bm).holds
    assert specialized_criterion("cor32", bm, 3).witness == "m-out-of-range"
    assert specialized_criterion("cor32", bm, 2) == cor32(bm)


def test_specialized_dispatch_takes_the_ten_corollaries_only(f13):
    names = ["cor32", "cor33", "cor42", "cor43", "cor53", "cor54", "cor55",
             "cor56", "cor61", "cor62"]
    assert [n for n in CRITERIA if n.startswith("cor")] == names
    assert specialized_criterion("COR56", 5, 2, 2, 1) == cor56(5, 2, 2, 1)
    assert specialized_criterion("Cor56", 5, 2, 2, 1) == cor56(5, 2, 2, 1)
    bm = _bm(f13, 2, [(1, 2), (12, 4)])
    for name in ("l2", "L3", "2to1", "equal-d", "lift", "cor", ""):
        with pytest.raises(ValueError):
            specialized_criterion(name, bm, 2)


def test_check_consistency_raises_under_python_O():
    # a report whose exceptional set has the wrong size: 5 points, two
    # fibers of size 2, so m = 2 is valid with one exceptional element
    script = (
        "import sys\n"
        "from cyclomap.mto1 import Mto1Report\n"
        "assert False, 'asserts must be stripped here'\n"
        "try:\n"
        "    Mto1Report([2, 2, 1], lambda m: ()).check_consistency()\n"
        "except AssertionError as exc:\n"
        "    print('caught:', exc, sys.flags.optimize)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "caught: exceptional set of m=2 has the wrong size 1\n"
