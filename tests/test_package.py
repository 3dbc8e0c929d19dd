"""The package's export contract, and what a fresh CLI process imports."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import cyclomap

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

EXPORTS = [
    "errors",
    "Branch", "BranchMap", "BranchRelation", "CosetDecomposition", "GroupContext",
    "Polynomial", "RelationKind", "decompose", "multiplicative_group",
    "subgroup_of_order", "unit_circle",
    "DiophantineSolution", "Field", "ProgressionKind", "ResidueSetRelation",
    "make_field", "residue_progression_relation", "solve_diophantine",
    "CriterionVerdict", "Mto1Report", "classify_branch_map", "classify_callable",
    "classify_pairs", "classify_polynomial", "criterion_2to1_any_l",
    "criterion_equal_d", "criterion_l2", "criterion_l3", "lift_to_full_field",
    "specialized_criterion",
    "field_from_id", "format_element", "parse_branches", "parse_element",
    "parse_field_id", "parse_polynomial",
    "MismatchReport", "SplitMix64", "SweepSpec", "differential_verify",
    "enumerate_mto1",
    "FamilyResult", "FamilySpec", "WrappedMap", "classify_unit_mapping",
    "classify_wrapped", "criterion_wrapped", "criterion_xrh", "eval_wrapped",
    "family_construct", "infer_monomial_branches", "make_wrapped",
    "reduce_to_unit", "xrh_valid_ms",
]

# modules that only some commands, or nothing on the CLI path, should load
OPTIONAL = ("cyclomap.search", "cyclomap.unitary", "dataclasses", "inspect")


def _child(code: str) -> dict:
    """Run code in a fresh `python -S` and return the JSON it prints last."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exports_are_the_pinned_names():
    assert len(EXPORTS) == len(set(EXPORTS)) == 55
    assert sorted(cyclomap.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(cyclomap))


def test_every_export_resolves_by_getattr_and_by_star_import():
    star = {}
    exec("from cyclomap import *", star)
    for name in EXPORTS:
        value = getattr(cyclomap, name)
        assert star[name] is value, name
    assert cyclomap.errors.__name__ == "cyclomap.errors"
    with pytest.raises(AttributeError):
        cyclomap.no_such_name  # noqa: B018


def test_bare_import_loads_no_submodule():
    loaded = _child("import sys, json, cyclomap\n"
                    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cyclomap'))))")
    assert loaded == ["cyclomap"]


def test_submodules_resolve_from_a_bare_import():
    loaded = _child("import json, cyclomap\n"
                    "print(json.dumps([cyclomap.gf.__name__, cyclomap.mto1.__name__,"
                    " cyclomap.BranchMap.__module__]))")
    assert loaded == ["cyclomap.gf", "cyclomap.mto1", "cyclomap.cyclotomic"]


_RUN_AND_LIST = """
import contextlib, io, json, sys
import cyclomap.cli as cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run({argv!r})
print(json.dumps([code, [m for m in {optional!r} if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["field-info", "--field", "2^6"], []),
    (["classify", "--field", "13", "--poly", "x^3"], []),
    (["cyc-classify", "--field", "13", "--ell", "2", "--branches", "1:2,-1:4"], []),
    (["crit", "--theorem", "l2", "--field", "13", "--ell", "2",
      "--branches", "1:2,-1:4", "--m", "2"], []),
    # dataclasses imports inspect
    (["unit-classify", "--q", "5", "--r", "1", "--h", "1+2*x"],
     ["cyclomap.unitary", "dataclasses", "inspect"]),
    (["unit-family", "--family", "CB0", "--q", "5", "--r", "1", "--u", "2", "--a", "z^2"],
     ["cyclomap.unitary", "dataclasses", "inspect"]),
    (["enumerate", "--field", "13", "--ell", "2", "--m", "3", "--limit", "1"],
     ["cyclomap.search", "dataclasses", "inspect"]),
])
def test_a_command_loads_only_the_modules_it_runs(argv, loaded):
    if not argv:  # the import alone
        code = ("import sys, json, cyclomap.cli\n"
                f"print(json.dumps([0, [m for m in {OPTIONAL!r} if m in sys.modules]]))")
    else:
        code = _RUN_AND_LIST.format(argv=argv, optional=OPTIONAL)
    assert _child(code) == [0, loaded]


def test_a_wrapper_set_on_cli_is_the_function_the_handler_calls():
    # set before unitary is loaded, and set after a read that loads it
    # (as the benchmark's tracer does): the handler calls the wrapper
    code = """
import contextlib, io, json
import cyclomap.cli as cli
calls = []
def wrap(fn):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper
from cyclomap import unitary
cli.classify_wrapped = wrap(unitary.classify_wrapped)
original = cli.criterion_wrapped
cli.criterion_wrapped = wrap(original)
argv = ["unit-classify", "--q", "5", "--r", "1", "--h", "1+2*x"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv), cli.run([*argv, "--m", "1"])]
print(json.dumps([codes, calls]))
"""
    assert _child(code) == [[0, 0], ["classify_wrapped", "classify_wrapped",
                                     "criterion_wrapped"]]
