"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
The differential items hold every closed-form criterion to zero mismatches
against the brute-force classification over the stated sweeps.
"""

import hashlib
import math
import os
import time

import pytest

from cyclomap import (
    BranchMap,
    Polynomial,
    SweepSpec,
    classify_branch_map,
    classify_polynomial,
    classify_wrapped,
    criterion_l2,
    criterion_l3,
    criterion_wrapped,
    decompose,
    differential_verify,
    make_field,
    make_wrapped,
    multiplicative_group,
    parse_polynomial,
    unit_circle,
)
from cyclomap.errors import ConstraintViolated, HypothesisViolated, RootOnUnitCircle
from cyclomap.gf import divisors
from cyclomap.mto1 import branch_map_valid_ms
from cyclomap.search import SplitMix64, sample_rng
from cyclomap.unitary import (
    ext_field_for,
    family_cb0,
    family_cbu,
    family_cta,
    family_ctab,
    family_ctkuv,
)

# `pytest -m "not acceptance"` leaves these sweeps out of a development run
pytestmark = pytest.mark.acceptance


def _assert_pinned(reports, digest):
    # sha256 of the sweep's reports, so that no change to the sweep code
    # alters a report unnoticed
    text = "".join(rep.to_json() for rep in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _report(number, label, elapsed, budget):
    assert elapsed < budget, f"criterion {number} took {elapsed:.3f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number:2d} {label}: PASS ({elapsed:.3f}s)")


def test_acceptance_01_f5_example(f5):
    poly = parse_polynomial("x^3+x", f5)
    start = time.perf_counter()
    rep = classify_polynomial(poly, "fq")
    elapsed = time.perf_counter() - start
    assert 3 in rep.valid_ms
    assert rep.exceptional_of(3) == (1, 4)
    _report(1, "cubic-plus-x over the 5-element field", elapsed, 0.001)


def test_acceptance_02_two_branch_examples(f13):
    dec = decompose(multiplicative_group(f13), 2)
    cases = [
        ("x^10+x^8-x^4+x^2", [(1, 2), (12, 4)], 2),
        ("x^11+2*x^7-x^5+2*x", [(2, 1), (12, 5)], 2),
        ("x^9+2*x^3", [(8, 3), (7, 3)], 3),
    ]
    start = time.perf_counter()
    for text, branches, m in cases:
        rep = classify_polynomial(parse_polynomial(text, f13), "fqstar")
        assert rep.valid_ms == {m}, text
        bm = BranchMap(dec, branches)
        assert criterion_l2(bm, m).holds
        assert bm.expand(scaled=False) == parse_polynomial(text, f13)
    elapsed = time.perf_counter() - start
    _report(2, "two-branch examples over the 13-element field", elapsed, 0.010)


def test_acceptance_03_three_branch_examples(f13):
    start = time.perf_counter()
    for text in ("x^10+4*x^6-2*x^2", "x^10-4*x^6-2*x^5+3*x^2+5*x"):
        rep = classify_polynomial(parse_polynomial(text, f13), "fqstar")
        assert rep.valid_ms == {2}, text
    # the 64-element examples: branch data is verified in the deterministic
    # default field; the displayed trinomials additionally need the modulus
    # they were computed under (x^6+x^4+x^3+x+1), so that field is pinned
    F_def = make_field(2, 6)
    dec = decompose(multiplicative_group(F_def), 3)
    g = F_def.exp_at
    for branches in (
        [(g(1), 3), (g(14), 3), (g(35), 3)],
        [(g(12), 1), (g(2), 1), (g(25), 1)],
    ):
        bm = BranchMap(dec, branches)
        assert branch_map_valid_ms(bm) == {3}
        assert criterion_l3(bm, 3).holds
    F_pin = make_field(2, 6, modulus=(1, 1, 0, 1, 1, 0, 1))
    dec_pin = decompose(multiplicative_group(F_pin), 3)
    gp = F_pin.exp_at
    for text, branches in (
        ("x^45+g*x^24+x^3", [(gp(1), 3), (gp(14), 3), (gp(35), 3)]),
        ("x^43+g^3*x^22+g^5*x", [(gp(12), 1), (gp(2), 1), (gp(25), 1)]),
    ):
        poly = parse_polynomial(text, F_pin)
        assert BranchMap(dec_pin, branches).expand(scaled=False) == poly
        assert classify_polynomial(poly, "fqstar").valid_ms == {3}
    elapsed = time.perf_counter() - start
    _report(3, "three-branch examples (13- and 64-element fields)", elapsed, 0.100)


def test_acceptance_04_index4_examples(f17):
    cases = [
        ("6*x^13-7*x^9+x^5-6*x", 2),
        ("4*x^14+8*x^10+3*x^6-4*x^2", 2),
        ("2*x^15+4*x^14+7*x^11-2*x^7+4*x^6-7*x^3", 2),
        ("x^14+4*x^10+2*x^6-2*x^2", 4),
        ("x^13-4*x^11-x^9-x^7+x^5+3*x^3-x", 4),
    ]
    for text, m in cases:
        start = time.perf_counter()
        rep = classify_polynomial(parse_polynomial(text, f17), "fqstar")
        elapsed = time.perf_counter() - start
        assert rep.valid_ms == {m}, text
        assert elapsed < 0.010
    _report(4, "index-4 examples over the 17-element field", elapsed, 0.010)


def test_acceptance_05_wrapped_q32_example():
    q = 32
    F = ext_field_for(q)
    start = time.perf_counter()
    base = unit_circle(F, q)
    for j in (1, 2, 5):  # default generator plus two alternatives
        unit = unit_circle(F, q, generator=base.element(j))
        h = parse_polynomial("1+x^11+(z^-1+z^10)*x^2", F, unit=unit)
        wm = make_wrapped(q, 6, h, field=F, unit=unit)
        rep = classify_wrapped(wm)
        assert 3 in rep.valid_ms
        assert criterion_wrapped(wm, 3, ell=3).holds
    elapsed = time.perf_counter() - start
    _report(5, "wrapped trinomial over the 1024-element field", elapsed, 1.0)


def test_acceptance_06_differential_two_branch():
    start = time.perf_counter()
    reports = []
    for field_id in ("5", "3^2", "13"):
        rep = differential_verify(
            SweepSpec(criterion="l2", field_id=field_id, ell=2,
                      r_range=(1, int_q(field_id) - 1)),
            jobs=os.cpu_count(),
        )
        assert rep.mismatches == [], field_id
        reports.append(rep)
    for field_id in ("17", "5^2", "29"):
        rep = differential_verify(
            SweepSpec(criterion="l2", field_id=field_id, ell=2,
                      r_range=(1, int_q(field_id) - 1),
                      mode="random", samples=10_000, seed=42),
            jobs=os.cpu_count(),
        )
        assert rep.mismatches == [], field_id
        reports.append(rep)
    _assert_pinned(reports, "e8d709b3e59cbd1515dbef681a3ca2d7d97c1595895e91fed56220f8b6b20431")
    elapsed = time.perf_counter() - start
    _report(6, "two-branch criterion vs oracle", elapsed, 300)


def int_q(field_id):
    if "^" in field_id:
        p, n = field_id.split("^")
        return int(p) ** int(n)
    return int(field_id)


def test_acceptance_07_differential_three_branch():
    start = time.perf_counter()
    reports = []
    for field_id in ("13", "2^4"):
        rep = differential_verify(
            SweepSpec(criterion="l3", field_id=field_id, ell=3,
                      r_range=(1, 6), cap=50_000_000),
            jobs=os.cpu_count(),
        )
        assert rep.mismatches == [], field_id
        reports.append(rep)
    for field_id in ("19", "5^2"):
        rep = differential_verify(
            SweepSpec(criterion="l3", field_id=field_id, ell=3,
                      r_range=(1, int_q(field_id) - 1),
                      mode="random", samples=10_000, seed=42),
            jobs=os.cpu_count(),
        )
        assert rep.mismatches == [], field_id
        reports.append(rep)
    _assert_pinned(reports, "2f8da03996c96d1b90931a753de378f32b679520d29cadbfe90f8f5921c39333")
    elapsed = time.perf_counter() - start
    _report(7, "three-branch criterion vs oracle", elapsed, 300)


def test_acceptance_08_differential_2to1_any_index():
    start = time.perf_counter()
    reports = []
    # exhaustive for small indices (full constant range, exponent range
    # mirroring item 7's bound; [1,3] at index 4 keeps the product sane),
    # seeded samples beyond
    plan = {
        "13": {2: (1, 6), 3: (1, 6), 4: (1, 3), 6: None},
        "17": {2: (1, 6), 4: (1, 3), 8: None},
    }
    for field_id, by_ell in plan.items():
        for ell, r_range in by_ell.items():
            if r_range is not None:
                spec = SweepSpec(criterion="2to1", field_id=field_id, ell=ell,
                                 r_range=r_range, cap=200_000_000)
            else:
                spec = SweepSpec(criterion="2to1", field_id=field_id, ell=ell,
                                 r_range=(1, int_q(field_id) - 1),
                                 mode="random", samples=10_000, seed=42)
            rep = differential_verify(spec, jobs=os.cpu_count())
            assert rep.mismatches == [], (field_id, ell)
            reports.append(rep)
    _assert_pinned(reports, "566446129161e537a4e37e15bd138fe0002cc5f260a14025fcb61e059808ebbc")
    elapsed = time.perf_counter() - start
    _report(8, "2-to-1 criterion vs oracle (all indices)", elapsed, 300)


def test_acceptance_09_differential_equal_multiplicity():
    start = time.perf_counter()
    reports = []
    for field_id in ("13", "17", "5^2"):
        q = int_q(field_id)
        for ell in divisors(q - 1):
            rep = differential_verify(
                SweepSpec(criterion="equal-d", field_id=field_id, ell=ell,
                          r_range=(1, q - 1), mode="random",
                          samples=10_000, seed=42),
                jobs=os.cpu_count(),
            )
            assert rep.mismatches == [], (field_id, ell)
            reports.append(rep)
            assert rep.applicable_cases == rep.total_cases  # conditioned draws
    _assert_pinned(reports, "7d3d8f850ee60429663bfb44f62badacc2f03991a31a5dd94a07f9bb81296504")
    elapsed = time.perf_counter() - start
    _report(9, "equal-multiplicity criterion vs oracle", elapsed, 300)


def test_acceptance_10_differential_wrapped():
    start = time.perf_counter()
    for q in (5, 7, 9):
        F = ext_field_for(q)
        unit = unit_circle(F, q)
        done = 0
        idx = 0
        while done < 1000:
            rng = sample_rng(100 + q, idx)
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
            wm = make_wrapped(q, r, h, field=F, unit=unit)
            oracle = classify_wrapped(wm).valid_ms
            for m in range(1, q + 2):
                assert criterion_wrapped(wm, m).holds == (m in oracle), (q, r, m)
    elapsed = time.perf_counter() - start
    _report(10, "wrapped criterion vs full-plane oracle", elapsed, 300)


def test_acceptance_11_family_soundness():
    start = time.perf_counter()
    total = 0
    # binomial families, exhaustive
    for q in (5, 7, 9, 11, 13):
        F = ext_field_for(q)
        unit = unit_circle(F, q)
        t = (q + 1) // 2
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
                            m for m in classify_wrapped(res.wrapped).valid_ms
                            if m <= q + 1
                        }
                        assert res.predicted_ms == oracle, (fam.__name__, q, r, u, j)
                        total += 1
    # trinomial families, exhaustive over admissible parameters
    for q in (7, 11):
        F = ext_field_for(q)
        unit = unit_circle(F, q)
        t2 = (q + 1) // 2
        four = F.from_int(4)
        minus1 = F.neg(1)
        rs = [r for r in range(1, q * q) if math.gcd(r, q - 1) == 1]
        a_cta = [a for a in range(1, F.q) if F.pow(a, q + 1) == four]
        for r in rs:
            for u in range(1, t2):
                for v in (0, 1):
                    for a in a_cta:
                        try:
                            res = family_cta(q=q, r=r, u=u, v=v, a=a)
                        except (RootOnUnitCircle, ConstraintViolated):
                            continue
                        oracle = {
                            m for m in classify_wrapped(res.wrapped).valid_ms
                            if m <= q + 1
                        }
                        assert res.predicted_ms == oracle, ("CTA", q, r, u, v, a)
                        total += 1
        a_ctab = [a for a in range(1, F.q) if F.pow(a, q - 1) == minus1]
        for a in a_ctab:
            target = F.sub(1, F.mul(a, a))
            bs = [b for b in range(1, F.q) if F.pow(b, q + 1) == target]
            for b in bs:
                for r in rs:
                    for u in range(1, t2):
                        for v in (0, 1):
                            try:
                                res = family_ctab(q=q, r=r, u=u, v=v, a=a, b=b)
                            except (RootOnUnitCircle, ConstraintViolated):
                                continue
                            oracle = {
                                m for m in classify_wrapped(res.wrapped).valid_ms
                                if m <= q + 1
                            }
                            assert res.predicted_ms == oracle, ("CTAB", q, r, u, v, a, b)
                            total += 1
        if q % 3 == 2:
            t3 = (q + 1) // 3
            for k in (1, 2):
                eps_k = F.pow(unit.element(t3), k)
                shell = F.sub(1, eps_k)
                for j in range(q + 1):
                    a = F.mul(shell, unit.element(j))
                    for r in rs:
                        for u in range(1, t3):
                            for v in (0, 1):
                                try:
                                    res = family_ctkuv(q=q, r=r, u=u, v=v, k=k, a=a)
                                except (RootOnUnitCircle, ConstraintViolated,
                                        HypothesisViolated):
                                    continue
                                oracle = {
                                    m
                                    for m in classify_wrapped(res.wrapped).valid_ms
                                    if m <= q + 1
                                }
                                assert res.predicted_ms == oracle, ("CTKUV", q, r, u, v, k, a)
                                total += 1
    # the 32-element base-field instance
    F = ext_field_for(32)
    unit = unit_circle(F, 32)
    zeta = unit.generator
    a = F.mul(F.inv(zeta), F.add(1, unit.element(11)))
    res = family_ctkuv(q=32, r=6, u=2, v=0, k=1, a=a)
    assert res.predicted_ms == {3}
    assert {m for m in classify_wrapped(res.wrapped).valid_ms if m <= 33} == {3}
    total += 1
    elapsed = time.perf_counter() - start
    assert total > 40_000
    _report(11, f"family soundness ({total} instances)", elapsed, 600)


def test_acceptance_12_property_suites():
    start = time.perf_counter()
    rng = SplitMix64(1202)

    # expansion fidelity: 100 random maps per field
    for p, n in ((13, 1), (17, 1), (5, 2), (2, 6)):
        F = make_field(p, n)
        divs = divisors(F.q - 1)
        for i in range(100):
            ell = divs[i % len(divs)]
            dec = decompose(multiplicative_group(F), ell)
            bm = BranchMap(
                dec,
                [(F.exp_at(rng.randrange(F.q - 1)), 1 + rng.randrange(F.q - 1))
                 for _ in range(ell)],
            )
            poly = bm.expand(scaled=True)
            assert poly.eval(0) == 0
            assert all(poly.eval(x) == bm.eval(x) for x in range(1, F.q))

    # image-relation trichotomy: exhaustive over the two-branch item-6 space
    # at q=13 (r bounded as in item 7), seeded samples at the other shapes
    F13 = make_field(13)
    dec2 = decompose(multiplicative_group(F13), 2)
    for e0 in range(12):
        for e1 in range(12):
            for r0 in range(1, 7):
                for r1 in range(1, 7):
                    bm = BranchMap(dec2, [(F13.exp_at(e0), r0), (F13.exp_at(e1), r1)])
                    _trichotomy(bm)
    for field_id, ells in (("13", (3, 6)), ("17", (2, 4, 8)), ("5^2", (2, 4))):
        F = make_field(*map(int, field_id.split("^"))) if "^" in field_id else make_field(int(field_id))
        for ell in ells:
            dec = decompose(multiplicative_group(F), ell)
            for _ in range(300):
                bm = BranchMap(
                    dec,
                    [(F.exp_at(rng.randrange(F.q - 1)), 1 + rng.randrange(F.q - 1))
                     for _ in range(ell)],
                )
                _trichotomy(bm)

    # residue-progression lemma vs enumeration for all moduli up to 60
    from cyclomap import residue_progression_relation
    from cyclomap.gf import ProgressionKind

    for nmod in range(1, 61):
        for a in divisors(nmod):
            for b in divisors(nmod):
                A = {(a * x) % nmod for x in range(nmod)}
                for c in range(nmod):
                    B = {(b * y + c) % nmod for y in range(nmod)}
                    rel = residue_progression_relation(a, b, c, nmod)
                    if rel.kind is ProgressionKind.DISJOINT:
                        assert not (A & B)
                    else:
                        assert rel.elements() == (A & B)

    # histogram identity on every report produced here
    for p, n in ((13, 1), (17, 1), (5, 2)):
        F = make_field(p, n)
        for ell in divisors(F.q - 1):
            dec = decompose(multiplicative_group(F), ell)
            for _ in range(10):
                bm = BranchMap(
                    dec,
                    [(F.exp_at(rng.randrange(F.q - 1)), 1 + rng.randrange(F.q - 1))
                     for _ in range(ell)],
                )
                classify_branch_map(bm).check_consistency()
                classify_branch_map(bm, include_zero=True).check_consistency()

    elapsed = time.perf_counter() - start
    _report(12, "property suites", elapsed, 120)


def _trichotomy(bm):
    ell = bm.decomp.index
    images = [{bm.eval(x) for x in bm.decomp.coset(i)} for i in range(ell)]
    for i in range(ell):
        for j in range(ell):
            rel = bm.relation(i, j)
            img_i, img_j = images[i], images[j]
            inter = img_i & img_j
            assert rel.intersection_elements == inter
            from cyclomap import RelationKind

            kind = rel.kind
            assert (kind is RelationKind.DISJOINT) == (not inter)
            if inter:
                assert (kind is RelationKind.EQUAL) == (img_i == img_j)
                assert (kind is RelationKind.FIRST_IN_SECOND) == (img_i < img_j)
                assert (kind is RelationKind.SECOND_IN_FIRST) == (img_j < img_i)


def test_acceptance_13_differential_branches_items_06_to_09_miss():
    # 2to1 at index 1 and at singleton cosets (index q-1), and GF(3), whose
    # group of order 2 is the smallest that 2-to-1 is asked of: acceptance 08
    # sweeps none of these branches.  The l3 sweep at GF(37) (s = 12) reaches
    # clause 3's size bound, which no field of acceptance 07 decides.
    start = time.perf_counter()
    specs = [
        SweepSpec(criterion="2to1", field_id="13", ell=1, r_range=(1, 12)),
        SweepSpec(criterion="2to1", field_id="17", ell=1, r_range=(1, 16)),
        SweepSpec(criterion="2to1", field_id="13", ell=12, r_range=(1, 12),
                  mode="random", samples=10_000, seed=42),
        SweepSpec(criterion="2to1", field_id="17", ell=16, r_range=(1, 16),
                  mode="random", samples=10_000, seed=42),
        SweepSpec(criterion="2to1", field_id="3", ell=1, r_range=(1, 2)),
        SweepSpec(criterion="2to1", field_id="3", ell=2, r_range=(1, 2)),
        SweepSpec(criterion="l3", field_id="37", ell=3, r_range=(1, 36),
                  mode="random", samples=20_000, seed=42),
    ]
    reports = []
    for spec in specs:
        rep = differential_verify(spec, jobs=os.cpu_count())
        assert rep.mismatches == [], spec
        reports.append(rep)
    assert [rep.total_cases for rep in reports] == [144, 256, 10_000, 10_000, 4, 16, 20_000]
    _assert_pinned(reports, "e17cf582440a9193a3d1c90f778281cd1eb333a1d1c923a098cf27b5a034281e")
    elapsed = time.perf_counter() - start
    _report(13, "criterion branches beyond items 6-9 vs oracle", elapsed, 60)


def test_acceptance_14_differential_l3_clause_3_bound():
    # exhaustive l3 at GF(5^2), s = 8: r in [2, 4] gives di = 2 and
    # dj = dk = 4 at m = 6, where clause 3's bound (s/dj)(dj - 2*di) < m
    # reads 0 < 6, and the bound with 2 // di in place of 2 * di reads
    # 6 < 6: that mutant gives 576 mismatches here and none in the l3
    # sweeps of acceptance 07 and 13
    start = time.perf_counter()
    rep = differential_verify(
        SweepSpec(criterion="l3", field_id="5^2", ell=3, r_range=(2, 4), m_range=(6, 6)),
        jobs=os.cpu_count(),
    )
    assert rep.mismatches == []
    assert rep.total_cases == 373_248
    _assert_pinned([rep], "5412463123d41588a0d42df35564c54bd0c5a9021474ff57b562315952b9b52e")
    elapsed = time.perf_counter() - start
    _report(14, "three-branch criterion at clause 3's bound vs oracle", elapsed, 60)
