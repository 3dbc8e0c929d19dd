"""The benchmark's tracer still sees the package's criterion layer.

bench/tracer.py wraps module bindings such as cyclomap.search.criterion_l2.
A sweep that called its criterion by another route would run unchanged but
leave the traced criterion layer blank; these tests catch that.
"""

import importlib
import pathlib

import pytest

from cyclomap import SweepSpec
from cyclomap import search

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer_module():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("tracer")


def test_every_layer_hook_resolves(tracer_module):
    for layer, module_name, path, _ in tracer_module.LAYER_HOOKS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (layer, module_name, path)


def test_traced_sweep_counts_one_criterion_call_per_case(tracer_module):
    specs = (
        SweepSpec(criterion="2to1", field_id="13", ell=2, r_range=(1, 3)),
        SweepSpec(criterion="equal-d", field_id="13", ell=3, r_range=(1, 12),
                  mode="random", samples=300, seed=5),
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        reports = [search.differential_verify(spec) for spec in specs]
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    cases = sum(r.total_cases for r in reports)
    applicable = sum(r.applicable_cases for r in reports)
    assert cases == 1296 + 300 and applicable > 0
    assert all(r.mismatches == [] for r in reports)
    skipped = agg["counters"].get("mto1.criterion.skipped", 0)
    assert skipped == 0  # equal-gcd draws: every case reaches a verdict
    assert agg["calls"]["mto1.criterion"] == cases - skipped
    assert agg["counters"].get("mto1.criterion.applicable", 0) == applicable
    assert agg["calls"]["search.driver"] == 2
    assert agg["counters"]["search.cases"] == cases


def test_traced_family_construct_counts_one_family_call(tracer_module):
    from cyclomap.unitary import FamilySpec, family_construct

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        result = family_construct(FamilySpec("T4", {"q": 5, "r": 1, "a": 1}))
    finally:
        tracer.uninstall()
    assert result.family_id == "T4"
    assert tracer.aggregate()["calls"]["unitary.family"] == 1
