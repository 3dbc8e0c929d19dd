"""Text notation for fields, elements, polynomials, and branch lists.

Grammar (whitespace ignored)::

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INT)?
    atom   := INT | 'g' | 'z' | 'e' | 'x' | '(' expr ')' | '[' INT (',' INT)* ']'

'g' is the field generator, 'z' the unit-circle generator, 'e' the fixed
power of 'z' supplied by the caller (families), 'x' the polynomial
variable.  '[c0,c1,...]' is an element by coefficient vector.  Integers
embed through the prime subfield, so '-1' is the additive inverse of 1.
Field identifiers are 'P' or 'P^N', e.g. '13' or '2^6'.
"""

from __future__ import annotations

import re

from .cyclotomic import GroupContext, Polynomial
from .errors import CoefficientNotInField, ParseError
from .gf import Field, make_field

_TOKEN = re.compile(r"\s*(\d+|[][()+*^,:-]|[a-zA-Z])")


def _tokenize(text: str):
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, field: Field, unit: GroupContext | None,
                 eps_exp: int | None):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.unit = unit
        self.eps_exp = eps_exp

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def const(self, code: int) -> Polynomial:
        return Polynomial(self.field, (code,))

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            p = p + rhs if op == "+" else p - rhs
        return p

    def term(self) -> Polynomial:
        p = self.unary()
        while self.peek() == "*":
            self.next()
            p = p * self.unary()
        return p

    def unary(self) -> Polynomial:
        if self.peek() == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.next()
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected exponent, got {tok!r}")
        e = sign * int(tok)
        if e >= 0:
            return base ** e
        if base.degree > 0:
            raise ParseError("negative power of a non-constant")
        code = base.coeffs[0] if base.coeffs else 0
        return self.const(self.field.pow(code, e))

    def atom(self) -> Polynomial:
        tok = self.next()
        if tok.isdigit():
            return self.const(self.field.from_int(int(tok)))
        if tok == "(":
            p = self.expr()
            self.expect(")")
            return p
        if tok == "[":
            cs = []
            while True:
                sign = 1
                if self.peek() == "-":
                    self.next()
                    sign = -1
                num = self.next()
                if not num.isdigit():
                    raise ParseError(f"expected coefficient, got {num!r}")
                cs.append(sign * int(num))
                nxt = self.next()
                if nxt == "]":
                    break
                if nxt != ",":
                    raise ParseError(f"expected ',' or ']', got {nxt!r}")
            if len(cs) > self.field.n:
                raise CoefficientNotInField(
                    f"{len(cs)} coefficients for a degree-{self.field.n} field"
                )
            return self.const(self.field.from_coeffs(cs))
        if tok == "x":
            return Polynomial(self.field, (0, 1))
        if tok == "g":
            return self.const(self.field.generator)
        if tok == "z":
            if self.unit is None:
                raise ParseError("'z' needs a unit-circle context")
            return self.const(self.unit.generator)
        if tok == "e":
            if self.unit is None or self.eps_exp is None:
                raise ParseError("'e' needs a unit-circle context with a step")
            return self.const(self.unit.element(self.eps_exp))
        raise ParseError(f"unexpected token {tok!r}")


def parse_polynomial(text: str, field: Field, unit: GroupContext | None = None,
                     eps_exp: int | None = None) -> Polynomial:
    """Parse polynomial (or constant) notation into a canonical Polynomial."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    try:
        return _Parser(tokens, field, unit, eps_exp).parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None


def parse_element(text: str, field: Field, unit: GroupContext | None = None,
                  eps_exp: int | None = None) -> int:
    """Parse element notation; rejects anything involving the variable x."""
    p = parse_polynomial(text, field, unit, eps_exp)
    if p.degree > 0:
        raise ParseError(f"{text!r} is not a single element")
    return p.coeffs[0] if p.coeffs else 0


def _split_top_level(text: str, sep: str):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_branches(text: str, field: Field) -> list[tuple[int, int]]:
    """'a0:r0,a1:r1,...' with a_i in element notation and integer r_i."""
    out = []
    for chunk in _split_top_level(text, ","):
        pieces = _split_top_level(chunk, ":")
        if len(pieces) != 2:
            raise ParseError(f"branch {chunk!r} is not 'a:r'")
        a = parse_element(pieces[0], field)
        try:
            r = int(pieces[1].strip())
        except ValueError:
            raise ParseError(f"exponent {pieces[1]!r} is not an integer") from None
        out.append((a, r))
    return out


def parse_field_id(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"\s*(\d+)(?:\^(\d+))?\s*", text)
    if not m:
        raise ParseError(f"field id {text!r} is not 'P' or 'P^N'")
    return int(m.group(1)), int(m.group(2) or 1)


def format_log(k: int) -> str:
    """Display of g^k in a non-prime field, from its log k in [0, q-2]."""
    if k == 0:
        return "1"
    if k == 1:
        return "g"
    return f"g^{k}"


def format_element(field: Field, code: int) -> str:
    """Canonical display: decimal for prime fields, '0' or `format_log` of
    the element's log otherwise."""
    if field.n == 1:
        return str(code)
    if code == 0:
        return "0"
    # 1 and g need no discrete log, which a large field may not afford
    k = 0 if code == 1 else 1 if code == field.generator else field.dlog(code)
    return format_log(k)


def element_json(field: Field, code: int):
    """JSON-friendly element: int for prime fields, string otherwise."""
    return code if field.n == 1 else format_element(field, code)


# ---------------------------------------------------------------------------
# key = value config files (sweep parameters and a field registry).
# ---------------------------------------------------------------------------

def parse_config(text: str) -> dict[str, str]:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def field_from_id(field_id: str, registry: dict[str, str] | None = None,
                  modulus=None, generator=None) -> Field:
    """Build a field from 'P^N', honoring registry overrides then arguments.

    Registry keys: '<id>.modulus' (comma ints, constant term first) and
    '<id>.generator' (int code or coefficient list).
    """
    p, n = parse_field_id(field_id)
    key_id = str(p) if n == 1 else f"{p}^{n}"
    if registry:
        if modulus is None and f"{key_id}.modulus" in registry:
            modulus = parse_modulus(registry[f"{key_id}.modulus"])
        if generator is None and f"{key_id}.generator" in registry:
            generator = parse_generator(registry[f"{key_id}.generator"])
    return make_field(p, n, modulus=modulus, generator=generator)


def parse_modulus(text: str) -> list[int]:
    """A modulus given as comma coefficients, constant term first."""
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise ParseError(f"modulus {text!r} is not comma-separated integers") from None


def parse_generator(text: str):
    """A generator given as an element code or as '[c0,c1,...]'."""
    text = text.strip()
    if text.startswith("[") and not text.endswith("]"):
        raise ParseError(f"generator {text!r} has no closing ']'")
    try:
        return [int(c) for c in text[1:-1].split(",")] if text.startswith("[") else int(text)
    except ValueError:
        raise ParseError(f"generator {text!r} is not an integer or '[c0,c1,...]'") from None
