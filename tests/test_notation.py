import pytest

from cyclomap import (
    make_field,
    parse_branches,
    parse_element,
    parse_field_id,
    parse_polynomial,
    unit_circle,
)
from cyclomap.errors import CoefficientNotInField, ParseError
from cyclomap.notation import (
    element_json,
    field_from_id,
    format_element,
    parse_config,
    parse_generator,
)


def test_parse_field_id():
    assert parse_field_id("13") == (13, 1)
    assert parse_field_id("2^6") == (2, 6)
    with pytest.raises(ParseError):
        parse_field_id("6a")


def test_parse_element_prime(f13):
    assert parse_element("7", f13) == 7
    assert parse_element("-1", f13) == 12
    assert parse_element("0", f13) == 0
    assert parse_element("2^3", f13) == 8
    assert parse_element("g", f13) == 2


def test_parse_element_extension(f64):
    assert parse_element("g^14", f64) == f64.exp_at(14)
    assert parse_element("g^-1", f64) == f64.exp_at(62)
    assert parse_element("[0,1,0,0,0,0]", f64) == 2
    assert parse_element("[1,1]", f64) == 3
    with pytest.raises(CoefficientNotInField):
        parse_element("[1,1,1,1,1,1,1]", f64)


def test_parse_unit_constants():
    F = make_field(2, 10)
    unit = unit_circle(F, 32)
    zeta = unit.generator
    assert parse_element("z", F, unit=unit) == zeta
    assert parse_element("z^-1", F, unit=unit) == F.inv(zeta)
    eps = unit.element(11)
    a = parse_element("z^-1*(1+e)", F, unit=unit, eps_exp=11)
    assert a == F.mul(F.inv(zeta), F.add(1, eps))
    assert parse_element("z^-1+z^10", F, unit=unit) == a  # same element
    with pytest.raises(ParseError):
        parse_element("z", F)  # no unit context


def test_parse_polynomial_examples(f5=None):
    F5 = make_field(5)
    p = parse_polynomial("x^3+x", F5)
    assert p.coeffs == (0, 1, 0, 1)
    F17 = make_field(17)
    p = parse_polynomial("6*x^13-7*x^9+x^5-6*x", F17)
    assert p.coeffs[13] == 6 and p.coeffs[9] == 10 and p.coeffs[1] == 11
    assert parse_polynomial("0", F17).is_zero()
    p = parse_polynomial(" x ^ 2 + 3 ", F17)  # whitespace ignored
    assert p.coeffs == (3, 0, 1)


def test_parse_polynomial_parenthesized_coefficients(f64):
    p = parse_polynomial("(g^3+g)*x^2+1", f64)
    expected = f64.add(f64.exp_at(3), f64.exp_at(1))
    assert p.coeffs[2] == expected and p.coeffs[0] == 1


def test_parse_errors(f13):
    for bad in ("x^", "3*", "(x", "x^-2", "[1,2", "x&y", ""):
        with pytest.raises(ParseError):
            parse_polynomial(bad, f13)
    with pytest.raises(ParseError):
        parse_element("x+1", f13)
    for deep in ("(" * 3000 + "x" + ")" * 3000, "-" * 5000 + "x"):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_polynomial(deep, f13)


def test_parse_branches(f13):
    assert parse_branches("1:2,-1:4", f13) == [(1, 2), (12, 4)]
    assert parse_branches("8:3,7:3", f13) == [(8, 3), (7, 3)]
    f4 = make_field(2, 2)
    assert parse_branches("[1,1]:2,g^1:1", f4) == [(3, 2), (2, 1)]
    with pytest.raises(ParseError):
        parse_branches("1:2,3", f13)
    with pytest.raises(ParseError):
        parse_branches("1:x", f13)


def test_format_roundtrip(f13, f64):
    assert format_element(f13, 12) == "12"
    assert format_element(f64, 0) == "0"
    assert format_element(f64, 1) == "1"
    g14 = f64.exp_at(14)
    assert format_element(f64, g14) == "g^14"
    assert parse_element(format_element(f64, g14), f64) == g14
    assert element_json(f13, 5) == 5
    assert element_json(f64, g14) == "g^14"


def test_config_parsing_and_registry(tmp_path):
    text = """
    # sweep parameters
    criterion = l2
    field = 13
    ell = 2
    13.generator = 6
    2^6.modulus = 1,1,0,1,1,0,1
    """
    cfg = parse_config(text)
    assert cfg["criterion"] == "l2" and cfg["ell"] == "2"
    F = field_from_id("13", cfg)
    assert F.generator == 6
    F64 = field_from_id("2^6", cfg)
    assert F64.modulus == (1, 1, 0, 1, 1, 0, 1)
    with pytest.raises(ParseError):
        parse_config("just a line without equals")
    # flags and config files share one generator parser
    assert parse_generator(" [1, 1] ") == [1, 1] and parse_generator("6") == 6
    with pytest.raises(ParseError):
        field_from_id("13", {"13.generator": "[2"})
