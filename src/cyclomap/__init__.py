"""Piecewise-monomial mappings on finite-field cosets and their
many-to-one classification.

Every name in `__all__` loads on first use: `import cyclomap` imports no
submodule, and `cyclomap.X` or `from cyclomap import X` imports only the
submodule that defines X (PEP 562).  A CLI command likewise loads only the
modules it runs.
"""

from importlib import import_module

_SUBMODULE_EXPORTS = {
    "cyclotomic": (
        "Branch",
        "BranchMap",
        "BranchRelation",
        "CosetDecomposition",
        "GroupContext",
        "Polynomial",
        "RelationKind",
        "decompose",
        "multiplicative_group",
        "subgroup_of_order",
        "unit_circle",
    ),
    "gf": (
        "DiophantineSolution",
        "Field",
        "ProgressionKind",
        "ResidueSetRelation",
        "make_field",
        "residue_progression_relation",
        "solve_diophantine",
    ),
    "mto1": (
        "CriterionVerdict",
        "Mto1Report",
        "classify_branch_map",
        "classify_callable",
        "classify_pairs",
        "classify_polynomial",
        "criterion_2to1_any_l",
        "criterion_equal_d",
        "criterion_l2",
        "criterion_l3",
        "lift_to_full_field",
        "specialized_criterion",
    ),
    "notation": (
        "field_from_id",
        "format_element",
        "parse_branches",
        "parse_element",
        "parse_field_id",
        "parse_polynomial",
    ),
    "search": (
        "MismatchReport",
        "SplitMix64",
        "SweepSpec",
        "differential_verify",
        "enumerate_mto1",
    ),
    "unitary": (
        "FamilyResult",
        "FamilySpec",
        "WrappedMap",
        "classify_unit_mapping",
        "classify_wrapped",
        "criterion_wrapped",
        "criterion_xrh",
        "eval_wrapped",
        "family_construct",
        "infer_monomial_branches",
        "make_wrapped",
        "reduce_to_unit",
        "xrh_valid_ms",
    ),
}

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names
}

__all__ = ["errors", *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name == "errors" or name in _SUBMODULE_EXPORTS:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
