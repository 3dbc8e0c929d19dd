"""Command-line front end.

Exit codes: 0 = success (for criterion commands: the verdict was computed),
2 = criterion hypotheses unmet, 1 = usage or data errors.  With --json each
command emits exactly one JSON document on stdout.  `crit --theorem` accepts
the names of `mto1.CRITERIA`, `verify --criterion` those it marks for sweeps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from .cyclotomic import (
    BranchMap,
    CosetDecomposition,
    multiplicative_group,
    unit_circle,
)
from .errors import CyclomapError, HypothesisError
from .gf import make_field, split_prime_power
from .mto1 import CRITERIA, classify_branch_map, classify_polynomial
from .notation import (
    element_json,
    field_from_id,
    format_element,
    format_log,
    parse_branches,
    parse_config,
    parse_element,
    parse_generator,
    parse_modulus,
    parse_polynomial,
)

# Names from the modules that only some commands run, so that the other
# commands never load them.  A handler that reads them calls _bind first; a
# name read from outside (cli.classify_wrapped) loads its module through
# __getattr__.
_LAZY = {
    "search": ("SweepSpec", "differential_verify", "enumerate_mto1"),
    "unitary": (
        "FAMILY_TURNS",
        "check_unit_index",
        "classify_unit_mapping",
        "classify_wrapped",
        "criterion_wrapped",
        "ext_field_for",
        "family_function",
        "make_wrapped",
        "reduce_to_unit",
    ),
}


def _bind(module_name: str):
    """Import a lazily loaded module and bind its names here.  A name that
    is bound already keeps its value, so a wrapper set on this module stays
    the function the handlers call."""
    module = import_module(f"{__package__}.{module_name}")
    for name in _LAZY[module_name]:
        globals().setdefault(name, getattr(module, name))


def __getattr__(name):
    for module_name, names in _LAZY.items():
        if name in names:
            _bind(module_name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _emit(args, payload: dict, human_lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def _report_payload(field, domain: str, report) -> dict:
    return {
        "field": field.id_str(),
        "domain": domain,
        "histogram": {str(m): c for m, c in sorted(report.histogram.items())},
        "valid_m": sorted(report.valid_ms),
        "exceptional": {
            str(m): [element_json(field, x) for x in report.exceptional_of(m)]
            for m in sorted(report.valid_ms)
        },
    }


def _report_lines(field, domain: str, report):
    yield f"field:      {field.id_str()}"
    yield f"domain:     {domain} ({report.domain_size} elements)"
    hist = ", ".join(
        f"{c} point(s) x{m}" for m, c in sorted(report.histogram.items())
    )
    yield f"histogram:  {hist}"
    yield f"valid m:    {sorted(report.valid_ms)}"
    for m in sorted(report.valid_ms):
        exc = ", ".join(format_element(field, x) for x in report.exceptional_of(m))
        yield f"exceptional[{m}]: {{{exc}}}"


def _load_field(args, registry):
    modulus = (
        parse_modulus(args.modulus)
        if getattr(args, "modulus", None)
        else None
    )
    generator = (
        parse_generator(args.generator)
        if getattr(args, "generator", None)
        else None
    )
    return field_from_id(args.field, registry, modulus=modulus, generator=generator)


# -- handlers -----------------------------------------------------------------

def _cmd_field_info(args, registry):
    F = _load_field(args, registry)
    payload = {
        "field": F.id_str(),
        "p": F.p,
        "n": F.n,
        "q": F.q,
        "modulus": list(F.modulus),
        "generator": format_element(F, F.generator),
        "generator_coeffs": list(F.coeffs(F.generator)),
        "log_table": F.has_log_table,
    }
    _emit(args, payload, (f"{k}: {v}" for k, v in payload.items()))
    return 0


def _cmd_classify(args, registry):
    F = _load_field(args, registry)
    poly = parse_polynomial(args.poly, F)
    report = classify_polynomial(poly, args.domain)
    _emit(args, _report_payload(F, args.domain, report),
          _report_lines(F, args.domain, report))
    return 0


def _branch_map_from_args(args, registry):
    F = _load_field(args, registry)
    return F, _params(args, ("bm",), args.command, lambda: F)[0]


def _cmd_cyc_classify(args, registry):
    F, bm = _branch_map_from_args(args, registry)
    report = classify_branch_map(bm, include_zero=(args.domain == "fq"))
    payload = _report_payload(F, args.domain, report)
    # the map holds each constant's log, so no branch needs a discrete log
    payload["branches"] = [
        [F.exp_at(k) if F.n == 1 else format_log(k), r]
        for k, r in zip(bm.log_scales, bm.exponents)
    ]
    _emit(args, payload, _report_lines(F, args.domain, report))
    return 0


def _cmd_expand(args, registry):
    F, bm = _branch_map_from_args(args, registry)
    poly = bm.expand(scaled=args.scaled)
    text = poly.to_str(lambda c: format_element(F, c))
    payload = {
        "field": F.id_str(),
        "ell": args.ell,
        "scaled": args.scaled,
        "polynomial": text,
        "coeffs": [element_json(F, c) for c in poly.coeffs],
    }
    _emit(args, payload, [text])
    return 0


def _cmd_relation(args, registry):
    F, bm = _branch_map_from_args(args, registry)
    rel = bm.relation(args.i, args.j)
    inter = sorted(rel.intersection_elements, key=lambda x: F.dlog(x))
    payload = {
        "field": F.id_str(),
        "i": args.i,
        "j": args.j,
        "kind": rel.kind.value,
        "d": rel.d,
        "lcm": rel.lcm,
        "shift": rel.shift,
        "x0": rel.x0,
        "intersection": [element_json(F, x) for x in inter],
    }
    lines = [
        f"kind: {rel.kind.value}",
        f"d={rel.d} lcm={rel.lcm} shift={rel.shift} x0={rel.x0}",
        "intersection: {" + ", ".join(format_element(F, x) for x in inter) + "}",
    ]
    _emit(args, payload, lines)
    return 0


def _verdict_exit(args, payload, verdict):
    payload.update(
        {
            "applicable": verdict.applicable,
            "holds": verdict.holds,
            "witness": verdict.witness,
        }
    )
    lines = [
        f"applicable: {verdict.applicable}",
        f"holds:      {verdict.holds}",
        f"witness:    {verdict.witness}",
    ]
    _emit(args, payload, lines)
    return 0 if verdict.applicable else 2


# The parameters before m of the theorems that take no branch map (the rest
# take "bm").  A parameter reads the flag of its name, or needs the flags
# _PARAM_FLAGS lists and reads the last.
_CRIT_PARAMS = {
    "lift": ("fn", "field"),
    "cor53": ("field", "ell", "a0", "a1", "r0", "r1"),
    "cor56": ("q", "n", "ell"),
    "cor61": ("field", "g0", "g1", "r0", "r1"),
    "cor62": ("q", "n", "h0", "h1", "r0", "r1"),
}
_PARAM_FLAGS = {"fn": ("field", "poly"), "bm": ("field", "ell", "branches")}


def _params(args, names, usage, field, **parse):
    """Values of the parameters `names`, once no flag they need is missing.
    "field" reads as field(), in which elements, polynomials and "bm" (the
    map of --ell and --branches) are parsed."""
    flags = [flag for name in names for flag in _PARAM_FLAGS.get(name, (name,))]
    missing = [f"--{flag}" for flag in dict.fromkeys(flags) if getattr(args, flag) is None]
    if missing:
        raise CyclomapError(f"{usage} needs " + ", ".join(missing))
    F = field()
    values = []
    for name in names:
        value = getattr(args, _PARAM_FLAGS.get(name, (name,))[-1])
        if name == "field":
            value = F
        elif name == "bm":
            decomp = CosetDecomposition(multiplicative_group(F), args.ell)
            value = BranchMap(decomp, parse_branches(value, F))
        elif name in ("a0", "a1", "a", "b"):
            value = parse_element(value, F, **parse)
        elif name in ("fn", "g0", "g1", "h0", "h1"):
            value = parse_polynomial(value, F)
        values.append(value)
    return values


def _cmd_crit(args, registry):
    entry = CRITERIA[args.theorem]

    def field():  # cor62's polynomials live in GF(q^n); cor56 reads no field
        if args.theorem == "cor62":
            p, e = split_prime_power(args.q)
            return make_field(p, e * args.n)
        return None if args.theorem == "cor56" else _load_field(args, registry)

    fn_args = _params(args, _CRIT_PARAMS.get(args.theorem, ("bm",)),
                      f"crit --theorem {args.theorem}", field)
    m = args.m if args.m is not None else entry.fixed_m or 2
    verdict = entry.fn(*fn_args, m)
    return _verdict_exit(args, {"theorem": args.theorem, "m": m}, verdict)


def _wrapped_from_args(args):
    F = ext_field_for(args.q)
    gen = None
    if args.gen_exp is not None:
        gen = F.exp_at((args.q - 1) * args.gen_exp)
    unit = unit_circle(F, args.q, generator=gen)
    h = parse_polynomial(args.h, F, unit=unit, eps_exp=args.eps_exp)
    return make_wrapped(args.q, args.r, h, field=F, unit=unit)


def _cmd_unit_classify(args, registry):
    _bind("unitary")
    wm = _wrapped_from_args(args)
    if args.m is None and args.ell is not None:
        check_unit_index(args.q, args.ell)  # criterion_wrapped checks it with an m
    F = wm.field
    f_report = classify_wrapped(wm)
    g_report = classify_unit_mapping(reduce_to_unit(wm))
    payload = {
        "q": args.q,
        "field": F.id_str(),
        "r": args.r,
        "h": args.h,
        "f_valid_m": sorted(f_report.valid_ms),
        "g_valid_m": sorted(g_report.valid_ms),
    }
    lines = [
        f"f over GF({args.q}^2)*: valid m = {sorted(f_report.valid_ms)}",
        f"g over unit circle:  valid m = {sorted(g_report.valid_ms)}",
    ]
    if args.m is not None:
        verdict = criterion_wrapped(wm, args.m, ell=args.ell)
        payload["m"] = args.m
        return _verdict_exit(args, payload, verdict)
    _emit(args, payload, lines)
    return 0


def _cmd_unit_family(args, registry):
    import inspect

    _bind("unitary")
    construct = family_function(args.family)
    fam = args.family.upper()
    F = ext_field_for(args.q)
    unit = unit_circle(F, args.q)
    turns = FAMILY_TURNS.get(fam)
    eps_exp = (args.q + 1) // turns if turns else None
    names = tuple(inspect.signature(construct).parameters)
    params = dict(zip(names, _params(args, names, f"family {fam}", lambda: F,
                                     unit=unit, eps_exp=eps_exp)))
    result = construct(**params)
    payload = {
        "family": fam,
        "q": args.q,
        "params": {
            k: (element_json(F, v) if k in ("a", "b") else v)
            for k, v in params.items()
        },
        "predicted_m": sorted(result.predicted_ms),
        "h": result.wrapped.h.to_str(lambda c: format_element(F, c)),
        "r": result.wrapped.r,
    }
    lines = [
        f"family {fam} over GF({args.q}^2)",
        f"f(x) = x^{result.wrapped.r} * h(x^{args.q - 1}),  h = {payload['h']}",
        f"predicted m: {sorted(result.predicted_ms)}",
    ]
    if args.check:
        oracle = classify_wrapped(result.wrapped).valid_ms
        window = set(oracle)
        payload["oracle_m"] = sorted(window)
        payload["match"] = set(result.predicted_ms) == window
        lines.append(f"oracle m:    {sorted(window)} (match={payload['match']})")
    _emit(args, payload, lines)
    return 0


def _cmd_enumerate(args, registry):
    _bind("search")
    F = _load_field(args, registry)
    maps = []
    for bm in enumerate_mto1(F, args.ell, args.m, (args.a_min, args.a_max),
                             (args.r_min, args.r_max), args.limit):
        maps.append(",".join(f"{format_element(F, a)}:{r}" for a, r in bm.branches))
    payload = {
        "field": F.id_str(),
        "ell": args.ell,
        "m": args.m,
        "maps": maps,
    }
    _emit(args, payload, maps or [f"no {args.m}-to-1 map found"])
    return 0


def _cmd_verify(args, config):
    _bind("search")
    # a flag wins over its config key; what neither gives, SweepSpec fills
    def pick(name, cast=int):
        flag = getattr(args, name)
        if flag is None and name in config:
            return cast(config[name])
        return flag

    criterion, field_id = pick("criterion", str), pick("field", str)
    ell = pick("ell")
    if criterion is None or field_id is None or ell is None:
        raise CyclomapError("verify needs --criterion, --field and --ell (or a config)")
    scalars = {"mode": pick("mode", str), "samples": pick("samples"),
               "seed": pick("seed"), "cap": pick("cap")}
    spec = SweepSpec(
        criterion=criterion,
        field_id=field_id,
        ell=ell,
        r_range=(pick("r_min"), pick("r_max")),
        a_exp_range=(pick("a_min"), pick("a_max")),
        m_range=(pick("m_min"), pick("m_max")),
        **{name: value for name, value in scalars.items() if value is not None},
    )
    report = differential_verify(spec, jobs=args.jobs, registry=config)
    if args.json:
        print(report.to_json(include_runtime=args.stats))
    else:
        print(f"criterion {criterion} on GF({field_id}), ell={ell}, mode={report.mode}")
        print(f"cases: {report.total_cases} ({report.applicable_cases} applicable)")
        print(f"mismatches: {len(report.mismatches)}")
        if args.stats:
            print(f"elapsed: {report.elapsed:.2f}s")
        for mm in report.mismatches[:20]:
            print(f"  {mm}")
    return 0


# -- parser wiring -------------------------------------------------------------

def _add_global_opts(p):
    # also accepted after the subcommand; SUPPRESS keeps the subparser from
    # clobbering a value parsed at the top level
    p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                   help="emit one JSON document")
    p.add_argument("--config", default=argparse.SUPPRESS,
                   help="key = value config file")


def _add_field_opts(p, with_ell=False, with_branches=False):
    p.add_argument("--field", required=True, help="field id, e.g. 13 or 2^6")
    p.add_argument("--modulus", help="comma coefficients, constant term first")
    p.add_argument("--generator", help="element code or [c0,c1,...]")
    if with_ell:
        p.add_argument("--ell", type=int, required=True, help="number of cosets")
    if with_branches:
        p.add_argument("--branches", required=True, help="a0:r0,a1:r1,...")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line through run, not a usage block
        raise CyclomapError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="cyclomap",
        description="piecewise-monomial maps on finite-field cosets: "
        "classification, criteria, families, and differential verification",
    )
    top.add_argument("--json", action="store_true", help="emit one JSON document")
    top.add_argument("--config", default=None, help="key = value config file")
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_global_opts(p)
        return p

    p = add_parser("field-info", help="show a field's pinned parameters")
    _add_field_opts(p)

    p = add_parser("classify", help="m-to-1 report for a polynomial")
    _add_field_opts(p)
    p.add_argument("--poly", required=True)
    p.add_argument("--domain", choices=("fq", "fqstar"), default="fq")

    p = add_parser("cyc-classify", help="m-to-1 report for a branch map")
    _add_field_opts(p, with_ell=True, with_branches=True)
    p.add_argument("--domain", choices=("fq", "fqstar"), default="fqstar")

    p = add_parser("expand", help="single-polynomial form of a branch map")
    _add_field_opts(p, with_ell=True, with_branches=True)
    p.add_argument("--scaled", action="store_true",
                   help="include the 1/ell factor (exact piecewise agreement)")

    p = add_parser("relation", help="how two branch images intersect")
    _add_field_opts(p, with_ell=True, with_branches=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)

    p = add_parser("crit", help="evaluate a closed-form criterion")
    p.add_argument("--theorem", required=True, choices=tuple(CRITERIA))
    p.add_argument("--field")
    p.add_argument("--modulus")
    p.add_argument("--generator")
    p.add_argument("--ell", type=int)
    p.add_argument("--branches")
    p.add_argument("--poly")
    p.add_argument("--m", type=int, help="default: the theorem's fixed m, else 2")
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--a0")
    p.add_argument("--a1")
    p.add_argument("--r0", type=int)
    p.add_argument("--r1", type=int)
    p.add_argument("--g0")
    p.add_argument("--g1")
    p.add_argument("--h0")
    p.add_argument("--h1")

    p = add_parser("unit-classify", help="wrapped map over GF(q^2)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", required=True, help="polynomial in the wrapped variable")
    p.add_argument("--m", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--gen-exp", type=int, dest="gen_exp",
                   help="use zeta^j as the unit generator (j coprime to q+1)")
    p.add_argument("--eps-exp", type=int, dest="eps_exp",
                   help="exponent for the 'e' notation constant")

    p = add_parser("unit-family", help="construct a named wrapped family")
    p.add_argument("--family", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--u", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--check", action="store_true",
                   help="also classify over GF(q^2)* and compare")

    p = add_parser("enumerate", help="stream maps that are m-to-1")
    _add_field_opts(p, with_ell=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--a-min", type=int, default=None, dest="a_min")
    p.add_argument("--a-max", type=int, default=None, dest="a_max")
    p.add_argument("--r-min", type=int, default=None, dest="r_min")
    p.add_argument("--r-max", type=int, default=None, dest="r_max")

    p = add_parser("verify", help="differential sweep against the oracle")
    p.add_argument("--criterion",
                   choices=tuple(name for name, c in CRITERIA.items() if c.sweep))
    p.add_argument("--field")
    p.add_argument("--ell", type=int)
    p.add_argument("--r-min", type=int, dest="r_min")
    p.add_argument("--r-max", type=int, dest="r_max")
    p.add_argument("--m-min", type=int, dest="m_min")
    p.add_argument("--m-max", type=int, dest="m_max")
    p.add_argument("--a-min", type=int, default=None, dest="a_min")
    p.add_argument("--a-max", type=int, default=None, dest="a_max")
    p.add_argument("--mode", choices=("exhaustive", "random"))
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--stats", action="store_true",
                   help="include wall time in the report")

    return top


_HANDLERS = {
    "field-info": _cmd_field_info,
    "classify": _cmd_classify,
    "cyc-classify": _cmd_cyc_classify,
    "expand": _cmd_expand,
    "relation": _cmd_relation,
    "crit": _cmd_crit,
    "unit-classify": _cmd_unit_classify,
    "unit-family": _cmd_unit_family,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = ""
        if args.config:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise CyclomapError(f"cannot read config: {exc}") from None
        # one dict holds the sweep keys and the field registry entries
        return _HANDLERS[args.command](args, parse_config(text))
    except SystemExit as exc:  # --help, after printing its text
        return 1 if exc.code else 0
    except HypothesisError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    except (CyclomapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # stdout to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
