"""Command-line front end.

Exit codes: 0 = success (for criterion commands: the verdict was computed),
2 = criterion hypotheses unmet, 1 = usage or data errors.  With --json each
command emits exactly one JSON document on stdout.  `crit --theorem` accepts
the names of `mto1.CRITERIA`, `verify --criterion` those it marks for sweeps.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

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
    parse_branches,
    parse_config,
    parse_element,
    parse_generator,
    parse_polynomial,
)
from .search import SweepSpec, differential_verify, enumerate_mto1
from .unitary import (
    classify_unit_mapping,
    classify_wrapped,
    criterion_wrapped,
    ext_field_for,
    family_function,
    make_wrapped,
    reduce_to_unit,
)


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
        [int(c) for c in args.modulus.split(",")]
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
    decomp = CosetDecomposition(multiplicative_group(F), args.ell)
    return F, BranchMap(decomp, parse_branches(args.branches, F))


def _cmd_cyc_classify(args, registry):
    F, bm = _branch_map_from_args(args, registry)
    report = classify_branch_map(bm, include_zero=(args.domain == "fq"))
    payload = _report_payload(F, args.domain, report)
    payload["branches"] = [
        [element_json(F, a), r] for a, r in bm.branches
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


def _require(args, *names):
    """Exit with a usage error when a flag the theorem reads is missing."""
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        raise CyclomapError(
            f"crit --theorem {args.theorem} needs " + ", ".join(f"--{n}" for n in missing)
        )


# Arguments (without m) of the criteria that take no branch map, from flags.

def _lift_args(args, registry):
    _require(args, "field", "poly")
    F = _load_field(args, registry)
    return parse_polynomial(args.poly, F), F


def _cor53_args(args, registry):
    _require(args, "field", "ell", "a0", "a1", "r0", "r1")
    F = _load_field(args, registry)
    a0 = parse_element(args.a0, F)
    a1 = parse_element(args.a1, F)
    return F, args.ell, a0, a1, args.r0, args.r1


def _cor56_args(args, registry):
    _require(args, "q", "n", "ell")
    return args.q, args.n, args.ell


def _cor61_args(args, registry):
    _require(args, "field", "g0", "g1", "r0", "r1")
    F = _load_field(args, registry)
    g0 = parse_polynomial(args.g0, F)
    g1 = parse_polynomial(args.g1, F)
    return F, g0, g1, args.r0, args.r1


def _cor62_args(args, registry):
    _require(args, "q", "n", "h0", "h1", "r0", "r1")
    p, e = split_prime_power(args.q)
    F = make_field(p, e * args.n)
    h0 = parse_polynomial(args.h0, F)
    h1 = parse_polynomial(args.h1, F)
    return args.q, args.n, h0, h1, args.r0, args.r1


_CRIT_ARGS = {
    "lift": _lift_args,
    "cor53": _cor53_args,
    "cor56": _cor56_args,
    "cor61": _cor61_args,
    "cor62": _cor62_args,
}


def _cmd_crit(args, registry):
    entry = CRITERIA[args.theorem]
    if args.theorem in _CRIT_ARGS:
        fn_args = _CRIT_ARGS[args.theorem](args, registry)
    else:
        _require(args, "field", "ell", "branches")
        _, bm = _branch_map_from_args(args, registry)
        fn_args = (bm,)
    m = args.m if args.m is not None else entry.fixed_m or 2
    verdict = entry.with_m()(*fn_args, m)
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
    wm = _wrapped_from_args(args)
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
    construct = family_function(args.family)
    fam = args.family.upper()
    F = ext_field_for(args.q)
    unit = unit_circle(F, args.q)
    eps_exp = None
    if fam == "CTKUV":
        eps_exp = (args.q + 1) // 3
    elif fam in ("CBU", "CB0", "CTAB", "CTA"):
        eps_exp = (args.q + 1) // 2
    params = {}
    for name in inspect.signature(construct).parameters:
        value = getattr(args, name)
        if value is None:
            raise CyclomapError(f"family {fam} needs --{name}")
        if name in ("a", "b"):
            value = parse_element(value, F, unit=unit, eps_exp=eps_exp)
        params[name] = value
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
        window = {m for m in oracle if 1 <= m <= args.q + 1}
        if fam.startswith(("B", "T")):
            window = set(oracle)
        payload["oracle_m"] = sorted(window)
        payload["match"] = set(result.predicted_ms) == window
        lines.append(f"oracle m:    {sorted(window)} (match={payload['match']})")
    _emit(args, payload, lines)
    return 0


def _cmd_enumerate(args, registry):
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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    text = ""
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
    try:
        # one dict holds the sweep keys and the field registry entries
        return _HANDLERS[args.command](args, parse_config(text))
    except HypothesisError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    except CyclomapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
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
