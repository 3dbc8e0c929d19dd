import json
import math
from dataclasses import replace
from itertools import islice

import pytest

from cyclomap import (
    BranchMap,
    SweepSpec,
    decompose,
    differential_verify,
    enumerate_mto1,
    make_field,
    multiplicative_group,
)
from cyclomap.errors import CapExceeded
from cyclomap.mto1 import (
    CRITERIA,
    CriterionVerdict,
    branch_map_valid_ms,
    criterion_equal_d,
    criterion_l2,
)
from cyclomap.notation import field_from_id
from cyclomap.search import _BLOCK, _GAMMA, SplitMix64, _cases, sample_rng


def test_splitmix_reference_stream():
    # first outputs for seed 1234567, per the reference construction
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    assert SplitMix64(1234567).next_u64() == first[0]


def test_sample_rng_is_chunk_invariant():
    a = [sample_rng(9, i).next_u64() for i in range(10)]
    b = [sample_rng(9, i).next_u64() for i in range(5, 10)]
    assert a[5:] == b


def _reference_cases(spec, field, lo, hi):
    """`_cases` of a normalized random spec, drawn one word at a time from
    sample_rng: a_exps, r0, the other r (from r0's gcd bucket when the
    criterion needs equal gcds), then m."""
    a_window, r_window, m_window = (range(w[0], w[1] + 1) for w in (
        spec.a_exp_range, spec.r_range, spec.m_range))
    s = (field.q - 1) // spec.ell
    for j in range(lo, hi):
        rng = sample_rng(spec.seed, j)
        a_exps = tuple(a_window[rng.randrange(len(a_window))]
                       for _ in range(spec.ell))
        r0 = r_window[rng.randrange(len(r_window))]
        pool = r_window
        if CRITERIA[spec.criterion].equal_gcds:
            pool = [r for r in r_window if math.gcd(r, s) == math.gcd(r0, s)]
        rs = (r0, *(pool[rng.randrange(len(pool))] for _ in range(spec.ell - 1)))
        yield j, a_exps, rs, (m_window[rng.randrange(len(m_window))],)


_NARROW = {"r_range": (3, 8), "a_exp_range": (4, 9), "m_range": (2, 5)}


@pytest.mark.parametrize("criterion, field_id, ell, seed, lo, hi, windows", [
    # two full blocks and a tail
    ("l2", "13", 2, 3, 0, 2 * _BLOCK + 37, {}),
    # chunk starts off a block boundary
    ("l3", "13", 3, 42, 7, _BLOCK + 300, {}),
    ("l2", "5^2", 2, 5, _BLOCK - 3, _BLOCK + 4, _NARROW),
    # seeds near and above 2^64, and word 1's states wrapping past 2^64
    # at lane 700 of the first block
    ("l2", "17", 2, 2 ** 64 - _BLOCK, 0, _BLOCK + 9, {}),
    ("l2", "17", 2, (-_GAMMA - 700) % 2 ** 64, 0, _BLOCK + 9, {}),
    ("l2", "17", 2, 2 ** 64 + 5, 11, 400, _NARROW),
    ("l3", "13", 3, 2 ** 70 + 1, 0, 300, {}),
    # ell = 1 draws no other r; ell = q - 1 has singleton cosets
    ("2to1", "13", 1, 9, 0, _BLOCK + 5, {}),
    ("2to1", "13", 12, 9, 5, 400, {}),
    ("equal-d", "17", 1, 4, 0, 300, _NARROW),
    ("equal-d", "13", 12, 4, 0, 300, {}),
    # equal-gcd buckets, over the default and a narrowed r window
    ("equal-d", "13", 3, 3, 0, _BLOCK + 50, {}),
    ("equal-d", "5^2", 4, 2 ** 64 - 700, 3, 900, _NARROW),
])
def test_packed_stream_equals_sample_rng(criterion, field_id, ell, seed, lo, hi,
                                         windows):
    field = field_from_id(field_id)
    spec = SweepSpec(criterion=criterion, field_id=field_id, ell=ell,
                     mode="random", samples=hi, seed=seed,
                     **{"r_range": (None, None), **windows}).normalized(field)
    assert list(_cases(spec, field, lo, hi)) == list(
        _reference_cases(spec, field, lo, hi))


def test_exhaustive_sweep_zero_mismatches_small():
    spec = SweepSpec(criterion="l2", field_id="5", ell=2, r_range=(1, 4))
    report = differential_verify(spec)
    assert report.total_cases == (4 * 4) ** 2 * 4
    assert report.applicable_cases == report.total_cases
    assert report.mismatches == []


@pytest.mark.parametrize("spec", [
    SweepSpec(criterion="2to1", field_id="7", ell=2, r_range=(None, None), m_range=(1, 3)),
    SweepSpec(criterion="2to1", field_id="13", ell=4, r_range=(None, None), m_range=(1, 3),
              mode="random", samples=300, seed=1),
])
def test_fixed_m_sweep_decides_only_its_m(spec):
    # 2to1's verdict once stood for every m of the window, so m = 1 and
    # m = 3 cases read as mismatches
    report = differential_verify(spec)
    assert report.mismatches == []
    assert 0 < report.applicable_cases < report.total_cases
    if spec.mode == "exhaustive":
        assert report.applicable_cases * 3 == report.total_cases


def test_random_sweep_deterministic_json():
    spec = SweepSpec(
        criterion="l3", field_id="13", ell=3, r_range=(1, 12),
        mode="random", samples=400, seed=42,
    )
    a = differential_verify(spec)
    b = differential_verify(spec)
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert payload["mismatch_count"] == 0
    assert "elapsed_seconds" not in payload
    assert "elapsed_seconds" in json.loads(a.to_json(include_runtime=True))


def _recorded_draws(spec, criterion):
    draws = []

    def record(bm, m):
        draws.append((bm.log_scales, bm.exponents, m))
        return criterion(bm, m)

    differential_verify(spec, criterion_fn=record)
    return draws


@pytest.mark.parametrize("criterion, ell, fn", [
    ("l2", 2, criterion_l2),
    ("equal-d", 3, criterion_equal_d),
])
def test_random_sweeps_draw_inside_the_windows(criterion, ell, fn):
    # the random mode once drew a and r over the whole group whatever the
    # windows in its report said
    spec = SweepSpec(
        criterion=criterion, field_id="13", ell=ell, r_range=(3, 8),
        a_exp_range=(4, 9), m_range=(2, 5), mode="random", samples=300, seed=7,
    )
    draws = _recorded_draws(spec, fn)
    assert len(draws) == 300
    assert {a for las, _, _ in draws for a in las} == set(range(4, 10))
    assert {r for _, rs, _ in draws for r in rs} == set(range(3, 9))
    assert {m for _, _, m in draws} == set(range(2, 6))
    if criterion == "equal-d":
        # r0's gcd bucket is taken over the r window, not over 1..q-1
        assert all(len({math.gcd(r, 12 // ell) for r in rs}) == 1 for _, rs, _ in draws)


def test_random_default_windows_keep_the_sample_stream():
    # a_exps, r0, the other r, then m, each uniform over the full range
    spec = SweepSpec(criterion="l2", field_id="13", ell=2, r_range=(1, 12),
                     mode="random", samples=50, seed=3)
    expected = []
    for j in range(50):
        rng = sample_rng(3, j)
        las = tuple(rng.randrange(12) for _ in range(2))
        rs = tuple(1 + rng.randrange(12) for _ in range(2))
        expected.append((las, rs, 1 + rng.randrange(12)))
    assert _recorded_draws(spec, criterion_l2) == expected


def test_random_windows_keep_the_sample_stream():
    # as above, but each draw is an offset into its non-default window
    spec = SweepSpec(criterion="l2", field_id="13", ell=2, r_range=(3, 8),
                     a_exp_range=(4, 9), m_range=(2, 5), mode="random",
                     samples=50, seed=7)
    expected = []
    for j in range(50):
        rng = sample_rng(7, j)
        las = tuple(4 + rng.randrange(6) for _ in range(2))
        rs = tuple(3 + rng.randrange(6) for _ in range(2))
        expected.append((las, rs, 2 + rng.randrange(4)))
    assert _recorded_draws(spec, criterion_l2) == expected


def test_random_equal_d_keeps_the_bucket_stream():
    # the r after r0 index r0's gcd bucket, listed in ascending order
    spec = SweepSpec(criterion="equal-d", field_id="13", ell=3, r_range=(1, 12),
                     mode="random", samples=50, seed=3)
    expected = []
    for j in range(50):
        rng = sample_rng(3, j)
        las = tuple(rng.randrange(12) for _ in range(3))
        r0 = 1 + rng.randrange(12)
        bucket = [r for r in range(1, 13) if math.gcd(r, 4) == math.gcd(r0, 4)]
        rs = (r0,) + tuple(bucket[rng.randrange(len(bucket))] for _ in range(2))
        expected.append((las, rs, 1 + rng.randrange(12)))
    assert _recorded_draws(spec, criterion_equal_d) == expected


def test_exhaustive_sweep_skips_maps_outside_the_criterion_hypothesis():
    # equal-d raises UnequalGcds on a map whose gcds differ; the sweep
    # counts that case and goes on
    rep = differential_verify(SweepSpec(criterion="equal-d", field_id="7", ell=2,
                                        r_range=(1, 6), a_exp_range=(0, 1)))
    assert rep.mismatches == []
    assert 0 < rep.applicable_cases < rep.total_cases


@pytest.mark.parametrize("criterion, windows, expected", [
    ("l2", {"r_range": (None, 3)}, {"r_range": (1, 3)}),
    ("l2", {"r_range": (5, None)}, {"r_range": (5, 12)}),
    ("l2", {"a_exp_range": (None, 3)}, {"a_exp_range": (0, 3)}),
    ("l2", {"a_exp_range": (5, None)}, {"a_exp_range": (5, 11)}),
    ("l2", {"m_range": (None, None)}, {"m_range": (1, 12)}),
    ("2to1", {}, {"m_range": (2, 2)}),
    ("2to1", {"m_range": (None, None)}, {"m_range": (2, 2)}),
    ("2to1", {"m_range": (None, 5)}, {"m_range": (1, 5)}),
    ("2to1", {"m_range": (3, None)}, {"m_range": (3, 12)}),
])
def test_sweep_spec_fills_missing_window_ends(f13, criterion, windows, expected):
    spec = SweepSpec(criterion=criterion, field_id="13", ell=2,
                     **{"r_range": (None, None), **windows})
    filled = spec.normalized(f13)
    full = {"r_range": (1, 12), "a_exp_range": (0, 11),
            "m_range": (2, 2) if criterion == "2to1" else (1, 12)}
    for name, window in {**full, **expected}.items():
        assert getattr(filled, name) == window, name


def test_empty_windows_are_rejected(f13):
    spec = SweepSpec(criterion="l2", field_id="13", ell=2, r_range=(5, 2))
    with pytest.raises(ValueError, match=r"^the r window 5\.\.2 is empty$"):
        differential_verify(spec)
    with pytest.raises(ValueError, match=r"^the a window 5\.\.2 is empty$"):
        next(enumerate_mto1(f13, 2, 2, a_exp_range=(5, 2)))


@pytest.mark.parametrize("samples", [0, -3])
def test_random_sweeps_need_a_sample(f13, samples):
    spec = SweepSpec(criterion="l2", field_id="13", ell=2, r_range=(1, 12),
                     mode="random", samples=samples)
    with pytest.raises(ValueError, match=f"^samples={samples} must be at least 1$"):
        differential_verify(spec)
    # an exhaustive sweep does not read samples
    assert replace(spec, mode="exhaustive").normalized(f13).samples == samples


def test_parallel_equals_serial():
    spec = SweepSpec(criterion="l2", field_id="13", ell=2, r_range=(1, 6))
    serial = differential_verify(spec)
    parallel = differential_verify(spec, jobs=3)
    assert serial.to_json() == parallel.to_json()
    spec_r = SweepSpec(
        criterion="l2", field_id="13", ell=2, r_range=(1, 12),
        mode="random", samples=300, seed=5,
    )
    assert differential_verify(spec_r).to_json() == differential_verify(spec_r, jobs=2).to_json()


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: runs chunks in this process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, cpus, expected", [
    (64, 3, [3]),    # at most one worker per CPU
    (64, 64, [16]),  # at most one worker per map
    (5, 64, [4]),    # 16 maps in chunks of 4
    (64, 1, []),     # one CPU: no pool at all
])
def test_jobs_clamped_to_maps_chunks_and_cpus(monkeypatch, jobs, cpus, expected):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingExecutor, "max_workers", [])
    spec = SweepSpec(criterion="l2", field_id="5", ell=2, r_range=(1, 2),
                     a_exp_range=(0, 1))  # (2 * 2) ** 2 = 16 maps
    report = differential_verify(spec, jobs=jobs)
    assert _RecordingExecutor.max_workers == expected
    assert report.to_json() == differential_verify(spec).to_json()


def test_merge_rejects_reports_of_different_sweeps():
    a = differential_verify(SweepSpec(criterion="l2", field_id="5", ell=2, r_range=(1, 2)))
    b = differential_verify(SweepSpec(criterion="l2", field_id="7", ell=2, r_range=(1, 2)))
    with pytest.raises(ValueError):
        a.merge(b)


def test_cap_guard():
    spec = SweepSpec(criterion="l2", field_id="17", ell=2, r_range=(1, 16), cap=100)
    with pytest.raises(CapExceeded):
        differential_verify(spec)


def test_corrupted_criterion_is_caught():
    # dropping the size-bound clause must produce mismatches, including the
    # 8-to-1 instance with branches (1,2),(4,6) over the 13-element field
    def corrupted(bm, m):
        v = criterion_l2(bm, m)
        if v.applicable and not v.holds:
            d0, d1 = bm.multiplicities
            if m == d0 + d1:
                d = min(d0, d1)
                off = bm._offsets
                if m % d == 0 and off[0] % (2 * d) == off[1] % (2 * d):
                    return CriterionVerdict(True, True, "size bound dropped")
        return v

    spec = SweepSpec(criterion="l2", field_id="13", ell=2, r_range=(1, 12))
    report = differential_verify(spec, criterion_fn=corrupted)
    assert report.mismatches
    F = make_field(13)
    target = {"a_exps": [0, 2], "r": [2, 6]}  # (1, 2), (4, 6)
    found = [
        mm
        for mm in report.mismatches
        if mm["a_exps"] == target["a_exps"] and mm["r"] == target["r"]
    ]
    # that map is genuinely 8-to-1, so the mutation flips some *other* m
    assert any(mm["criterion"] and not mm["oracle"] for mm in report.mismatches)
    bm = BranchMap(
        decompose(multiplicative_group(F), 2), [(1, 2), (4, 6)]
    )
    assert 8 in branch_map_valid_ms(bm)


def test_sweep_ad_hoc_sufficient_conditions():
    # prose conditions for 4+ branches, checked as sanity assertions:
    # pairwise-disjoint images make the map gcd-to-1 exactly when all the
    # gcds agree; all-bijective branches with residues m-to-1 give m-to-1
    F = make_field(17)
    dec = decompose(multiplicative_group(F), 4)
    rng = SplitMix64(2024)
    seen = 0
    for _ in range(3000):
        bm = BranchMap(
            dec,
            [(F.exp_at(rng.randrange(16)), 1 + rng.randrange(16)) for _ in range(4)],
        )
        images = [{bm.eval(x) for x in bm.decomp.coset(i)} for i in range(4)]
        disjoint = all(
            not (images[i] & images[j]) for i in range(4) for j in range(i + 1, 4)
        )
        if not disjoint:
            continue
        seen += 1
        valid = branch_map_valid_ms(bm)
        ds = set(bm.multiplicities)
        for m in range(1, 17):
            assert (m in valid) == (ds == {m})
    assert seen > 20


def test_enumerate_small_examples(f13):
    # power maps at index 1: only exponents with gcd(r, 12) = 2 qualify
    maps = list(enumerate_mto1(f13, 1, 2, r_range=(1, 12)))
    assert maps and all(math.gcd(bm.exponents[0], 12) == 2 for bm in maps)
    # index 2, m = 3: the (8,3),(7,3) instance appears under narrowed bounds
    found = [
        bm.branches
        for bm in enumerate_mto1(f13, 2, 3, a_exp_range=(3, 11), r_range=(3, 3))
    ]
    assert ((8, 3), (7, 3)) in [tuple(b) for b in found]


def test_enumerate_respects_limit_and_verifies(f13):
    stream = list(enumerate_mto1(f13, 2, 3, limit=5))
    assert len(stream) == 5
    for bm in stream:
        assert 3 in branch_map_valid_ms(bm)


def test_enumerate_walks_its_windows_lazily():
    # default windows at GF(2^14), index 3: 16383^3 constant tuples, which
    # the stream once stored before yielding its first map
    import tracemalloc

    from cyclomap.search import _lattice

    window = range(700)  # a stored lattice would hold 2 * 700^2 tuples
    tracemalloc.start()
    try:
        first = list(islice(_lattice(2, window, window), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [((0, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 0), (0, 2))]
    assert peak < 1 << 20, peak


def test_enumerate_rejects_m_above_the_group_order(f13, monkeypatch):
    # no map of F_13* is 13-to-1; the stream used to walk all 3*10^6 maps
    from cyclomap import search

    built = []
    monkeypatch.setattr(search, "BranchMap", lambda *a: built.append(a))
    with pytest.raises(ValueError, match="m=13 exceeds the group order 12"):
        next(enumerate_mto1(f13, 3, 13))
    assert built == []


def test_enumerate_rejects_a_negative_limit(f13, monkeypatch):
    # limit=-1 used to end the stream at once, as if no map were m-to-1
    from cyclomap import search

    built = []
    monkeypatch.setattr(search, "BranchMap", lambda *a: built.append(a))
    with pytest.raises(ValueError, match="limit=-1 must be at least 0"):
        next(enumerate_mto1(f13, 2, 2, limit=-1))
    assert built == [] and list(enumerate_mto1(f13, 2, 2, limit=0)) == []


def test_enumerate_f17_2to1_all_pass_criterion():
    from cyclomap import criterion_2to1_any_l

    F = make_field(17)
    count = 0
    for bm in enumerate_mto1(F, 4, 2, r_range=(1, 4), limit=10):
        assert criterion_2to1_any_l(bm).holds
        count += 1
    assert count == 10
