"""Exact arithmetic in GF(p^n), discrete logarithms, and integer helpers.

Field elements are plain ints: the base-p encoding of the coefficient
vector, c0 + c1*p + ... + c_{n-1}*p^(n-1); prime fields store the residue
itself.  A Field owns its modulus, a primitive generator and, at desk
scale, full exp/log tables, built when the field is made (at most 4096
elements) or when a walk first needs them.  Multiplicative arithmetic is
then table lookups, and so is addition in odd extension fields (a Zech
table).  Without tables, multiplication is polynomial arithmetic and
discrete logs are Pohlig-Hellman over the prime factors of q - 1.
Primality is proven, never assumed: Miller-Rabin where it is
deterministic, Pocklington above.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import (
    CapExceeded,
    DivisibilityViolation,
    DivisionByZero,
    NotPrime,
    NotPrimitive,
    ReducibleModulus,
    ZeroArgument,
)

#: Largest field order for which a field uses exp/log tables.
LOG_TABLE_LIMIT = 1 << 22
#: Largest field order whose tables are built when the field is made;
#: larger fields build them only for a function that walks the field.
_SCALAR_TABLE_LIMIT = 1 << 12


#: The first 13 primes.  As Miller-Rabin bases they decide primality of
#: every n < _MR_PROVEN_LIMIT (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_LIMIT = 3317044064679887385961981
#: Trial divisions one factorisation may spend before it gives up.
_TRIAL_DIVISIONS = 1 << 20


def _strong_probable_prime(m: int) -> bool:
    """Whether m > 1 passes Miller-Rabin to every base in _MR_BASES; below
    _MR_PROVEN_LIMIT that means m is prime."""
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _trial_factor(m: int) -> tuple[list[int], int]:
    """(primes, rest) for m >= 1: the distinct primes of m found by trial
    division, ascending, and the part of m they leave, 1 when m is fully
    factored.  Division stops once the rest is proven prime (it joins the
    primes), is a strong probable prime too large to be proven so (it is
    returned), or after _TRIAL_DIVISIONS steps."""
    primes, f, steps = [], 2, 0
    while m > 1:
        if _strong_probable_prime(m):
            if m >= _MR_PROVEN_LIMIT:
                return primes, m
            primes.append(m)
            return primes, 1
        while m % f:
            steps += 1
            if steps > _TRIAL_DIVISIONS:
                return primes, m
            f += 1 if f == 2 else 2
        primes.append(f)
        while m % f == 0:
            m //= f
    return primes, 1


def is_prime(m: int) -> bool:
    """Whether m is prime, proven: by Miller-Rabin below _MR_PROVEN_LIMIT,
    above it by Pocklington's n-1 test on the part of m-1 that trial
    division factors.  CapExceeded when neither proves a probable prime."""
    if m < 2 or not _strong_probable_prime(m):
        return False
    if m < _MR_PROVEN_LIMIT:
        return True
    primes, rest = _trial_factor(m - 1)
    if ((m - 1) // rest + 1) ** 2 <= m:
        raise CapExceeded(f"cannot prove {m} prime: trial division factors too little of m - 1")
    # Pocklington: once each prime f of F = (m-1)/rest has a witness a with
    # gcd(a^((m-1)/f) - 1, m) = 1, every prime factor of m is 1 mod F, and
    # F + 1 > sqrt(m) leaves m itself as the only one
    for f in primes:
        for a in _MR_BASES:  # m passed Miller-Rabin, so a^(m-1) = 1 mod m
            g = math.gcd(pow(a, (m - 1) // f, m) - 1, m)
            if g == 1:
                break
            if g != m:
                return False
        else:
            raise CapExceeded(f"cannot prove {m} prime: no Pocklington witness")
    return True


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime divisors of m, ascending; CapExceeded when trial
    division and a primality proof of what it leaves do not finish them."""
    primes, rest = _trial_factor(m)
    if rest > 1:
        if not is_prime(rest):
            raise CapExceeded(
                f"cannot factor {m} within {_TRIAL_DIVISIONS} trial divisions")
        primes.append(rest)
    return tuple(primes)


def _unit_group_factors(p: int, n: int) -> tuple[int, ...]:
    """prime_factors(p**n - 1), for even n from p**(n/2) - 1 and p**(n/2) + 1
    apart: trial division can finish each where their product is too large."""
    if n % 2:
        return prime_factors(p ** n - 1)
    return tuple(sorted({*_unit_group_factors(p, n // 2), *prime_factors(p ** (n // 2) + 1)}))


def divisors(m: int) -> tuple[int, ...]:
    """All positive divisors of m, ascending."""
    small, large = [], []
    f = 1
    while f * f <= m:
        if m % f == 0:
            small.append(f)
            if f != m // f:
                large.append(m // f)
        f += 1
    return tuple(small + large[::-1])


def split_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q == p**e, or raise for non-prime-powers."""
    ps = prime_factors(q)
    if len(ps) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p = ps[0]
    e = 0
    while q > 1:
        if q % p:
            raise NotPrime(f"{q} is not a prime power")
        q //= p
        e += 1
    return p, e


# ---------------------------------------------------------------------------
# Integer lemmas: linear Diophantine equations and residue progressions.
# ---------------------------------------------------------------------------

class DiophantineSolution(NamedTuple):
    """Particular solution of a*x + b*y = c with the x-stride b/d.

    The full solution set is x = x0 + stride*t, y = y0 - (a/d)*t.
    """

    x0: int
    y0: int
    stride: int
    d: int


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with a*u + b*v = g and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def solve_diophantine(a: int, b: int, c: int) -> DiophantineSolution | None:
    """Solve a*x + b*y = c over the integers; None when gcd(a, b) does not divide c."""
    if a == 0 and b == 0:
        raise ValueError("a and b must not both be zero")
    g, u, v = _ext_gcd(a, b)
    if c % g:
        return None
    k = c // g
    return DiophantineSolution(x0=u * k, y0=v * k, stride=b // g, d=g)


class ProgressionKind(Enum):
    DISJOINT = "disjoint"
    CONTAINED = "contained"
    OVERLAP = "overlap"


class ResidueSetRelation(NamedTuple):
    """How B = {(b*y + c) mod n} sits inside A = {(a*x) mod n}.

    When the intersection is nonempty it is the arithmetic progression
    {(base + t*lcm_ab) mod n : 0 <= t < n/lcm_ab}.
    """

    kind: ProgressionKind
    d: int
    x0: int | None
    lcm_ab: int
    base: int | None
    n: int

    def elements(self) -> frozenset[int]:
        if self.base is None:
            return frozenset()
        return frozenset(
            (self.base + t * self.lcm_ab) % self.n
            for t in range(self.n // self.lcm_ab)
        )


def residue_progression_relation(a: int, b: int, c: int, n: int) -> ResidueSetRelation:
    """Classify {a*x mod n} against {(b*y + c) mod n} for a | n, b | n."""
    if a < 1 or b < 1 or n < 1:
        raise ValueError("a, b, n must be positive")
    if n % a or n % b:
        raise DivisibilityViolation(f"a={a} and b={b} must both divide n={n}")
    d = math.gcd(a, b)
    lcm_ab = a * b // d
    if c % d:
        return ResidueSetRelation(ProgressionKind.DISJOINT, d, None, lcm_ab, None, n)
    a_bar = pow(a // d, -1, b // d)  # 0 when b // d == 1
    x0 = a_bar * (c // d)
    base = (a * x0) % n
    kind = (
        ProgressionKind.CONTAINED
        if (b % a == 0 and c % a == 0)
        else ProgressionKind.OVERLAP
    )
    return ResidueSetRelation(kind, d, x0, lcm_ab, base, n)


# ---------------------------------------------------------------------------
# Polynomial arithmetic over F_p on coefficient lists (construction only).
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a*b mod f over F_p; f monic."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_divmod(out, f, p)


def _poly_divmod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f over F_p; f monic."""
    a = a[:]
    deg_f = len(f) - 1
    while len(a) > deg_f:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - deg_f
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - lead * fi) % p
        a.pop()
    return _poly_trim(a)


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_divmod(a, f, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic = [(ci * inv_lead) % p for ci in b]
        a, b = b, _poly_divmod(a, monic, p)
    return a


def _is_irreducible(f: list[int], p: int, n: int) -> bool:
    """Distinct-degree gcd test: no factor of degree <= n/2."""
    if n == 1:
        return True
    if f[0] == 0:
        return False
    t = [0, 1]
    for _ in range(n // 2):
        t = _poly_powmod(t, p, f, p)
        diff = t[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(f[:], _poly_trim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# The field itself.
# ---------------------------------------------------------------------------

class Field:
    """GF(p^n) with a pinned modulus and primitive generator.

    Its modulus, generator and arithmetic never change after construction.
    Four operations hold the arithmetic, each with a table path and a raw
    path: `sum`, `mul`, `pow` and `dlog`; `add`, `sub`, `neg`, `inv`, `div`
    and `exp_at` are defined from them.  Fields of order at most
    ``log_threshold`` use exp/log tables, built when the field is made
    (order at most 4096) or when a function first walks it
    (``_load_tables``).  Until then, and always above the threshold,
    products and powers are polynomial arithmetic, sums digit arithmetic
    and logs Pohlig-Hellman, with baby-step giant-step in each prime-order
    subgroup (those baby tables are built on first use).  ``has_log_table``
    reports whether the field uses tables, not whether they exist yet.
    Odd-characteristic extension fields (p odd, n > 1) also build a Zech
    table, Z(k) = log(1 + g^k), which only `sum` reads.  Safe to share
    between threads: two threads whose walks race to build the tables both
    build the same ones and one copy is kept.
    """

    __slots__ = (
        "p", "n", "q", "modulus", "generator", "_use_tables",
        "_exp", "_log", "_zech", "_mask", "_mod_int", "_order_factors", "_bsgs_baby",
    )

    def __init__(self, p, n, modulus, generator=None, log_threshold=LOG_TABLE_LIMIT):
        """generator=None picks the class of x when n > 1 and it is
        primitive, else the least primitive element code."""
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(modulus)
        self._order_factors = _unit_group_factors(p, n)
        if p == 2:
            self._mod_int = sum(c << i for i, c in enumerate(self.modulus))
            self._mask = 1 << n
        else:
            self._mod_int = None
            self._mask = None
        self._use_tables = self.q <= log_threshold
        self._exp = None
        self._log = None
        self._zech = None
        self._bsgs_baby = None
        if generator is None:
            self.generator = self._least_primitive_code()
        else:
            self.generator = generator
            self._check_generator_order()
        if self._use_tables and self.q <= _SCALAR_TABLE_LIMIT:
            self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _is_primitive_code(self, code: int) -> bool:
        return all(
            self._pow_raw(code, (self.q - 1) // f) != 1 for f in self._order_factors
        )

    def _least_primitive_code(self) -> int:
        x_code = self.p  # coefficient vector (0, 1, 0, ...) when n > 1
        if self.n > 1 and self._is_primitive_code(x_code):
            return x_code
        for code in range(1, self.q):
            if self._is_primitive_code(code):
                return code
        raise NotPrimitive("no primitive element found")

    def _check_generator_order(self):
        g = self.generator
        if not 0 < g < self.q:
            raise NotPrimitive(f"generator {g} is not a nonzero field element")
        order = self.q - 1
        if self._pow_raw(g, order) != 1:
            raise NotPrimitive("generator order does not divide q-1")
        for f in self._order_factors:
            if self._pow_raw(g, order // f) == 1:
                raise NotPrimitive(
                    f"generator has order dividing (q-1)/{f}, not q-1"
                )

    def _load_tables(self):
        """Build the exp/log tables if this field uses them and they do not
        exist yet.  A function that walks the field calls this first."""
        if self._use_tables and self._log is None:
            self._build_tables()

    def _build_tables(self):
        q, g = self.q, self.generator
        exp = [0] * (q - 1)
        log = [-1] * q
        acc = 1
        if g == 2 and self.p == 2:
            # times x: shift, then reduce by the modulus when degree n appears
            mask, mod_int = self._mask, self._mod_int
            for k in range(q - 1):
                exp[k] = acc
                log[acc] = k
                acc <<= 1
                if acc & mask:
                    acc ^= mod_int
        else:
            for k in range(q - 1):
                exp[k] = acc
                log[acc] = k
                acc = self._mul_raw(acc, g)
        if acc != 1:
            raise NotPrimitive("generator does not cycle back to 1")
        if self.p != 2 and self.n > 1:
            # 1 + g^k differs from g^k in the constant digit only; the
            # k with g^k = -1 reads log[0] = -1
            top = self.p - 1
            self._zech = [log[a - top if a % self.p == top else a + 1] for a in exp]
        self._exp = exp  # before _log: a reader that sees _log sees _exp and _zech
        self._log = log

    # -- raw arithmetic (no tables) -------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a * b) % self.p
        if self.p == 2:
            acc = 0
            x = a
            while b:
                if b & 1:
                    acc ^= x
                b >>= 1
                x <<= 1
                if x & self._mask:
                    x ^= self._mod_int
            return acc
        return self.from_coeffs(
            _poly_mulmod(self.coeffs(a), self.coeffs(b), self.modulus, self.p))

    def _pow_raw(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_raw(result, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return result

    # -- encoding -------------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c0, ..., c_{n-1}) of an element code."""
        if self.n == 1:
            return (a,)
        out = []
        for _ in range(self.n):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        code = 0
        for c in reversed(list(cs)):
            code = code * self.p + (c % self.p)
        return code

    def from_int(self, k: int) -> int:
        """Embed an integer as a prime-subfield constant."""
        return k % self.p

    def contains(self, a: int) -> bool:
        return 0 <= a < self.q

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.sum((a, b))

    def sum(self, elements) -> int:
        """The sum of the elements, 0 for none, reduced once: a prime field
        reduces the integer sum, characteristic 2 xors, and an odd extension
        field adds digit columns, or with its tables keeps the running sum
        as a log, one Zech lookup per term."""
        if self.n == 1:
            return sum(elements) % self.p
        if self.p == 2:
            acc = 0
            for b in elements:
                acc ^= b
            return acc
        if self._log is None:
            return self.from_coeffs(map(sum, zip(*map(self.coeffs, elements))))
        exp, log, zech, order = self._exp, self._log, self._zech, self.q - 1
        acc = -1  # log of the running sum; -1 while it is 0
        for b in elements:
            if b:
                if acc < 0:
                    acc = log[b]
                else:
                    z = zech[(log[b] - acc) % order]
                    acc = -1 if z < 0 else (acc + z) % order
        return 0 if acc < 0 else exp[acc]

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)  # the code p - 1 is -1 in every field

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self.pow(a, -1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e; negative e allowed for nonzero a; 0**0 == 1."""
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivisionByZero("negative power of zero")
        if self._log is not None:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        return self._pow_raw(a, e % (self.q - 1))  # a^(q-1) = 1

    def exp_at(self, k: int) -> int:
        """generator ** k."""
        return self.pow(self.generator, k)

    def dlog(self, a: int) -> int:
        """Exponent k in [0, q-2] with generator**k == a; a must be nonzero."""
        if a == 0:
            raise ZeroArgument("discrete log of zero")
        if self._log is not None:
            return self._log[a]
        return self._dlog_pohlig_hellman(a)

    def _dlog_pohlig_hellman(self, a: int) -> int:
        """log a from its residues modulo the prime powers p^e || q-1
        (Pohlig & Hellman, IEEE Trans. IT 24, 1978).

        With G = g^((q-1)/p^e), a^((q-1)/p^e) = G^x for x = log a mod p^e.
        Digit j of x, once digits below j are divided out, is a log in the
        order-p subgroup; the residues are joined by the CRT.
        """
        order = self.q - 1
        log, modulus = 0, 1
        for p in self._order_factors:
            pe, e = p, 1
            while order % (pe * p) == 0:
                pe, e = pe * p, e + 1
            cofactor = order // pe
            h = self._pow_raw(a, cofactor)
            g_inv = self._pow_raw(self.generator, order - cofactor)  # G^-1
            x, weight = 0, 1
            for _ in range(e):
                y = self._mul_raw(h, self._pow_raw(g_inv, x))
                x += self._dlog_prime(p, self._pow_raw(y, pe // (weight * p))) * weight
                weight *= p
            log += modulus * ((x - log) * pow(modulus, -1, pe) % pe)
            modulus *= pe
        return log

    def _dlog_prime(self, p: int, y: int) -> int:
        """k in [0, p) with gamma^k == y for gamma = g^((q-1)/p), by
        baby-step giant-step; the baby table of each p is kept."""
        if self._bsgs_baby is None:
            self._bsgs_baby = {}
        steps = self._bsgs_baby.get(p)
        if steps is None:
            gamma = self._pow_raw(self.generator, (self.q - 1) // p)
            m = math.isqrt(p - 1) + 1
            baby = {}
            cur = 1
            for j in range(m):
                baby[cur] = j
                cur = self._mul_raw(cur, gamma)
            steps = self._bsgs_baby.setdefault(p, (m, baby, self._pow_raw(gamma, -m % p)))
        m, baby, giant = steps
        cur = y
        for i in range(m + 1):
            j = baby.get(cur)
            if j is not None:
                return (i * m + j) % p
            cur = self._mul_raw(cur, giant)
        raise ZeroArgument("element not generated; inconsistent field state")

    def _tables(self):
        """(exp, log) when the tables exist, else None: for callers that
        keep operands as logs."""
        if self._log is not None:
            return self._exp, self._log
        return None

    @property
    def has_log_table(self) -> bool:
        """Whether this field uses exp/log tables: a field of at most 4096
        elements builds them when it is made, a larger one when a walk first
        needs them."""
        return self._use_tables

    # -- misc -------------------------------------------------------------------

    def in_subfield(self, a: int, q0: int) -> bool:
        """Whether a lies in the subfield of order q0 (q0**k == q required)."""
        return self.pow(a, q0) == a

    def __repr__(self):
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.n})"

    def id_str(self) -> str:
        return str(self.p) if self.n == 1 else f"{self.p}^{self.n}"


def _default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible with x primitive.

    Coefficient tuples (c0, ..., c_{n-1}) are compared left to right,
    constant term first; deterministic so coset labels reproduce across
    runs.  When x is primitive modulo f, its norm (-1)^n * c0 generates
    F_p* (Lidl & Niederreiter, Finite Fields, 3.1), so only such constant
    terms are tried; c0 = 0 is never one of them.
    """
    q = p ** n
    factors = _unit_group_factors(p, n)
    p_factors = prime_factors(p - 1)
    sign = -1 if n % 2 else 1
    for c0 in range(1, p):
        if not _is_primitive_root(sign * c0 % p, p, p_factors):
            continue
        for rest in _lex_tuples(p, n - 1):
            f = [c0, *rest, 1]
            if not _is_irreducible(f, p, n):
                continue
            if _x_is_primitive(f, p, q, factors):
                return tuple(f)
    raise ReducibleModulus(f"no irreducible degree-{n} modulus over F_{p} found")


def _lex_tuples(p: int, k: int):
    """The k-tuples over range(p) in lexicographic order, as
    product(range(p), repeat=k) lists them; product would first build
    range(p) as a tuple, which fails on a large prime p."""
    digits = [0] * k
    while True:
        yield tuple(digits)
        i = k - 1
        while i >= 0 and digits[i] == p - 1:
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        digits[i] += 1


def _is_primitive_root(g: int, p: int, p_factors) -> bool:
    """Whether g generates F_p*; p_factors are the prime factors of p - 1."""
    return all(pow(g, (p - 1) // f, p) != 1 for f in p_factors)


def _x_is_primitive(f: list[int], p: int, q: int, factors) -> bool:
    for e in factors:
        if _poly_powmod([0, 1], (q - 1) // e, f, p) == [1]:
            return False
    return True


_FIELD_CACHE: dict = {}


def make_field(p: int, n: int = 1, modulus=None, generator=None,
               log_threshold: int = LOG_TABLE_LIMIT) -> Field:
    """Construct (or fetch the cached) GF(p^n).

    modulus: optional monic degree-n coefficient sequence (c0, ..., cn);
    generator: optional element code or coefficient sequence.  Defaults are
    deterministic: least primitive root for n == 1, otherwise the lex-least
    irreducible modulus under which the class of x is primitive (and x as
    the generator).
    """
    key = (
        p, n,
        tuple(modulus) if modulus is not None else None,
        tuple(generator) if isinstance(generator, (list, tuple)) else generator,
        log_threshold,
    )
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached

    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError("extension degree must be >= 1")

    if n == 1:
        mod = (0, 1) if modulus is None else tuple(c % p for c in modulus)
        if len(mod) != 2 or mod[1] != 1:
            raise ReducibleModulus("prime-field modulus must be monic degree 1")
    elif modulus is None:
        mod = _default_modulus(p, n)
    else:
        mod = tuple(c % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise ReducibleModulus(f"modulus must be monic of degree {n}")
        if not _is_irreducible(list(mod), p, n):
            raise ReducibleModulus(f"modulus {mod} is reducible over F_{p}")

    if generator is None:
        gen = None  # the Field picks its least primitive code
    elif isinstance(generator, (list, tuple)):
        gen = 0
        for c in reversed(list(generator)):
            gen = gen * p + (c % p)
    else:
        gen = int(generator)
        if n == 1:
            gen %= p

    field = Field(p, n, mod, gen, log_threshold=log_threshold)
    _FIELD_CACHE[key] = field
    return field
