"""Coset decompositions of cyclic groups and piecewise-monomial branch maps.

The same machinery serves the full multiplicative group F_q* and any cyclic
subgroup of it (in particular the norm-one "unit circle" of a quadratic
extension): a GroupContext pins the group and its generator, a
CosetDecomposition splits it into `index` cosets, and a BranchMap attaches
one monomial a_i * x^(r_i) to each coset.

Every group here is one kind of object: the subgroup of order N of F_q*,
whose elements are the x with field log divisible by (q-1)/N.  Its logs are
the field's logs divided by (q-1)/N and rescaled to its own generator, so
F_q*, the index-l subgroup C_0 and the unit circle share one implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import (
    ConstraintViolated,
    IndexNotDividingOrder,
    NotInGroup,
    NotPrimitive,
    UnsupportedContext,
)
from .gf import Field, ProgressionKind, residue_progression_relation


class GroupContext:
    """A cyclic subgroup of F_q*, with its own generator and logs.

    The group of order N = (q-1)/index is the set of x whose field log is a
    multiple of index.  Its generator is g^e for the field generator g, with
    index | e and gcd(e/index, N) = 1, so element(k) = g^(k*e) and
    dlog(x) = (field.dlog(x)/index) * (e/index)^-1 mod N.  F_q* itself is
    the case index = 1, e = 1.
    """

    __slots__ = ("field", "order", "generator", "index", "_gen_log", "_log_factor")

    def __init__(self, field: Field, order: int, generator: int):
        if order < 1 or (field.q - 1) % order:
            raise IndexNotDividingOrder(
                f"order {order} does not divide |F*| = {field.q - 1}"
            )
        if not 0 < generator < field.q:
            raise NotPrimitive(f"generator {generator} is not a nonzero field element")
        self.field = field
        self.order = order
        self.generator = generator
        self.index = (field.q - 1) // order
        e = 1 if generator == field.generator else field.dlog(generator)
        if e % self.index or math.gcd(e // self.index, order) != 1:
            raise NotPrimitive(f"generator does not have exact order {order}")
        self._gen_log = e
        self._log_factor = pow(e // self.index, -1, order)

    @property
    def is_full(self) -> bool:
        """Whether the group is all of F_q*."""
        return self.index == 1

    def element(self, k: int) -> int:
        """generator ** k."""
        return self.field.exp_at(k * self._gen_log)

    def dlog(self, x: int) -> int:
        """k in [0, order) with generator ** k == x; NotInGroup otherwise."""
        if 0 < x < self.field.q:
            k, rest = divmod(self.field.dlog(x), self.index)
            if not rest:
                return k * self._log_factor % self.order
        raise NotInGroup(f"element {x} is not in the group of order {self.order}")

    def contains(self, x: int) -> bool:
        return 0 < x < self.field.q and self.field.dlog(x) % self.index == 0

    def __iter__(self):
        return (self.element(k) for k in range(self.order))

    def __repr__(self):
        kind = "units" if self.is_full else f"subgroup({self.order})"
        return f"<{kind} of {self.field!r}>"


def multiplicative_group(field: Field) -> GroupContext:
    """F_q* with the field's own generator and logs."""
    return GroupContext(field, field.q - 1, field.generator)


def subgroup_of_order(field: Field, order: int, generator: int | None = None) -> GroupContext:
    """The unique subgroup of F_q* of the given order (must divide q-1);
    its default generator is g^((q-1)/order)."""
    if generator is None and order >= 1:  # GroupContext rejects a bad order
        generator = field.exp_at((field.q - 1) // order)
    return GroupContext(field, order, generator)


def unit_circle(ext_field: Field, base_q: int, generator: int | None = None) -> GroupContext:
    """Norm-one subgroup of order base_q + 1 inside GF(base_q^2)*."""
    if ext_field.q != base_q * base_q:
        raise ConstraintViolated(
            f"field order {ext_field.q} is not the square of {base_q}"
        )
    return subgroup_of_order(ext_field, base_q + 1, generator)


# ---------------------------------------------------------------------------
# Canonical polynomials (reduced mod x^q - x) with sparse evaluation.
# ---------------------------------------------------------------------------

class Polynomial:
    """A polynomial function on F_q: exponents folded modulo x^q - x."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_terms(cls, field: Field, terms: dict) -> "Polynomial":
        q = field.q
        folded: dict[int, int] = {}
        for e, c in terms.items():
            if c == 0:
                continue
            if e < 0:
                raise ValueError("polynomial exponents must be non-negative")
            if e >= q:
                e = 1 + (e - 1) % (q - 1)
            folded[e] = field.add(folded.get(e, 0), c)
        coeffs = [0] * (max(folded) + 1 if folded else 0)
        for e, c in folded.items():
            coeffs[e] = c
        return cls(field, coeffs)

    def terms(self):
        return tuple((e, c) for e, c in enumerate(self.coeffs) if c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, x: int) -> int:
        F = self.field
        if not self.coeffs:
            return 0
        if x == 0:
            return self.coeffs[0]
        lx = F.dlog(x)
        acc = 0
        order = F.q - 1
        for e, c in enumerate(self.coeffs):
            if c:
                acc = F.add(acc, F.mul(c, F.exp_at((lx * e) % order)))
        return acc

    def scale(self, c: int) -> "Polynomial":
        F = self.field
        return Polynomial(F, (F.mul(c, a) for a in self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Polynomial(F, out)

    def __neg__(self) -> "Polynomial":
        F = self.field
        return Polynomial(F, (F.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        F = self.field
        terms: dict[int, int] = {}
        for e1, c1 in enumerate(self.coeffs):
            if not c1:
                continue
            for e2, c2 in enumerate(other.coeffs):
                if not c2:
                    continue
                e = e1 + e2
                terms[e] = F.add(terms.get(e, 0), F.mul(c1, c2))
        return Polynomial.from_terms(F, terms)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial(self.field, (1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def to_str(self, coef_fmt=None) -> str:
        if not self.coeffs:
            return "0"
        fmt = coef_fmt or (lambda c: str(c))
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            cs = fmt(c)
            if e == 0:
                parts.append(cs)
            else:
                xs = "x" if e == 1 else f"x^{e}"
                parts.append(xs if c == 1 else f"{cs}*{xs}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.to_str()})"


# ---------------------------------------------------------------------------
# Coset decompositions.
# ---------------------------------------------------------------------------

class CosetDecomposition:
    """Partition of a cyclic group into `index` cosets of equal size."""

    __slots__ = ("ctx", "index", "coset_size")

    def __init__(self, ctx: GroupContext, index: int):
        if index < 1 or ctx.order % index:
            raise IndexNotDividingOrder(
                f"index {index} does not divide group order {ctx.order}"
            )
        self.ctx = ctx
        self.index = index
        self.coset_size = ctx.order // index

    def coset_of(self, x: int) -> int:
        return self.ctx.dlog(x) % self.index

    def coset(self, i: int):
        """Lazy iterator over the i-th coset."""
        ell = self.index
        return (self.ctx.element(k * ell + i) for k in range(self.coset_size))

    def cosets(self):
        return tuple(frozenset(self.coset(i)) for i in range(self.index))

    def __repr__(self):
        return f"<decomposition of order {self.ctx.order} into {self.index} cosets>"


def decompose(ctx: GroupContext, index: int) -> CosetDecomposition:
    return CosetDecomposition(ctx, index)


# ---------------------------------------------------------------------------
# Branch maps.
# ---------------------------------------------------------------------------

class Branch(NamedTuple):
    scale: int
    exponent: int


@dataclass(frozen=True)
class BranchImage:
    """Closed-form description of one branch's image set."""

    target_coset: int
    multiplicity: int
    size: int
    base_exp: int
    step: int
    ctx: GroupContext

    @property
    def elements(self) -> frozenset[int]:
        N = self.ctx.order
        return frozenset(
            self.ctx.element((self.base_exp + j * self.step) % N)
            for j in range(self.size)
        )


class RelationKind(Enum):
    DISJOINT = "disjoint"
    EQUAL = "equal"
    FIRST_IN_SECOND = "first-in-second"
    SECOND_IN_FIRST = "second-in-first"
    OVERLAP = "overlap"


@dataclass(frozen=True)
class BranchRelation:
    """Verdict on how two branch images intersect, with the witness data."""

    kind: RelationKind
    d: int
    lcm: int
    shift: int
    x0: int | None
    intersection_elements: frozenset[int]


class BranchMap:
    """One monomial a_i * x^(r_i) per coset of a decomposition.

    `BranchMap(decomp, [(a_0, r_0), ...])` takes the constants as group
    elements; `BranchMap(decomp, log_scales=..., exponents=...)` takes
    their logs to the group's generator and skips the log lookups.  Both
    keep the logs (reduced modulo the group order) and the exponents as
    given (criteria read them verbatim, and reduce them modulo the group
    order for evaluation; both give the same gcd with the coset size,
    because the coset size divides the group order).  `branches` and
    `scales` are derived from them on first read.
    """

    __slots__ = ("decomp", "exponents", "log_scales", "multiplicities", "_offsets", "__dict__")

    def __init__(self, decomp: CosetDecomposition, branches=None, *,
                 log_scales=None, exponents=None):
        ell = decomp.index
        if branches is not None:
            if log_scales is not None or exponents is not None:
                raise TypeError("give branches, or log_scales and exponents, not both")
            pairs = [(int(a), int(r)) for a, r in branches]
            if len(pairs) != ell:
                raise ValueError(f"expected {ell} branches, got {len(pairs)}")
            exponents = [r for _, r in pairs]
            log_scales = [_constant_log(decomp.ctx, a) for a, _ in pairs]
        elif log_scales is None or exponents is None:
            raise TypeError("BranchMap needs branches, or log_scales and exponents")
        elif len(log_scales) != ell or len(exponents) != ell:
            raise ValueError(
                f"expected {ell} branches, got {len(log_scales)} logs"
                f" and {len(exponents)} exponents"
            )
        N = decomp.ctx.order
        s = decomp.coset_size
        self.decomp = decomp
        self.exponents = exponents = tuple(exponents)
        self.log_scales = log_scales = tuple([la % N for la in log_scales])
        self.multiplicities = tuple([math.gcd(r, s) for r in exponents])
        self._offsets = tuple(
            [i * r + la for i, r, la in zip(range(ell), exponents, log_scales)]
        )

    @cached_property
    def scales(self) -> tuple[int, ...]:
        return tuple(map(self.decomp.ctx.element, self.log_scales))

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        return tuple(map(Branch, self.scales, self.exponents))

    # -- evaluation -----------------------------------------------------------

    def eval(self, x: int) -> int:
        k = self.decomp.ctx.dlog(x)
        return self.decomp.ctx.element(self.eval_exp(k))

    def eval_exp(self, k: int) -> int:
        """Exponent of f(generator**k)."""
        i = k % self.decomp.index
        return (k * self.exponents[i] + self.log_scales[i]) % self.decomp.ctx.order

    def image_residue(self, i: int, n: int) -> int:
        """(i*r_i + log of the branch constant) mod n; drives every criterion."""
        return self._offsets[i] % n

    def target_coset(self, i: int) -> int:
        return self._offsets[i] % self.decomp.index

    # -- image analysis ---------------------------------------------------------

    def branch_image(self, i: int) -> BranchImage:
        d = self.multiplicities[i]
        return BranchImage(
            target_coset=self.target_coset(i),
            multiplicity=d,
            size=self.decomp.coset_size // d,
            base_exp=self._offsets[i] % self.decomp.ctx.order,
            step=self.decomp.index * d,
            ctx=self.decomp.ctx,
        )

    def relation(self, i: int, j: int) -> BranchRelation:
        """Classify image(i) against image(j) and describe the intersection."""
        ell = self.decomp.index
        if not (0 <= i < ell and 0 <= j < ell):
            raise ValueError(f"branch indices {i}, {j} must lie in 0..{ell - 1}")
        # Shifted by off_j, image(j) is {ell*dj*x} and image(i) is
        # {ell*di*y + off_i - off_j}, modulo the group order.
        N = self.decomp.ctx.order
        di, dj = self.multiplicities[i], self.multiplicities[j]
        c = self._offsets[i] - self._offsets[j]
        rel = residue_progression_relation(ell * dj, ell * di, c, N)
        inter = frozenset(
            self.decomp.ctx.element((self._offsets[j] + e) % N)
            for e in rel.elements()
        )
        if rel.kind is ProgressionKind.DISJOINT:
            kind = RelationKind.DISJOINT
        elif di == dj:
            kind = RelationKind.EQUAL
        elif di % dj == 0:
            kind = RelationKind.FIRST_IN_SECOND
        elif dj % di == 0:
            kind = RelationKind.SECOND_IN_FIRST
        else:
            kind = RelationKind.OVERLAP
        return BranchRelation(kind, rel.d // ell, rel.lcm_ab // ell, c, rel.x0, inter)

    # -- polynomial expansion -----------------------------------------------------

    def expand(self, scaled: bool = True) -> Polynomial:
        """Single-polynomial form on F_q (full multiplicative group only).

        scaled=True gives the polynomial that agrees with the piecewise map
        at every nonzero point and vanishes at 0; scaled=False gives `index`
        times that polynomial (the usual display form).
        """
        ctx = self.decomp.ctx
        if not ctx.is_full:
            raise UnsupportedContext(
                "expansion to one polynomial is defined on the full group F_q*"
            )
        if any(r < 1 for r in self.exponents):
            raise ConstraintViolated("expansion needs positive branch exponents")
        F = ctx.field
        N = ctx.order
        ell = self.decomp.index
        s = self.decomp.coset_size
        terms: dict[int, int] = {}
        for i, (a, r) in enumerate(self.branches):
            for j in range(ell):
                w = F.exp_at((-i * j * s) % N) if ell > 1 else 1
                e = r + j * s
                coef = F.mul(a, w)
                terms[e] = F.add(terms.get(e, 0), coef)
        poly = Polynomial.from_terms(F, terms)
        if scaled:
            poly = poly.scale(F.inv(F.from_int(ell)))
        return poly

    # -- cached data for criteria ---------------------------------------------

    @cached_property
    def m_candidates(self) -> frozenset[int]:
        """The only m values any closed-form clause can name: branch
        multiplicities, their pairwise/total sums, and twice the coset size."""
        d = self.multiplicities
        out = set(d)
        n = len(d)
        for i in range(n):
            for j in range(i + 1, n):
                out.add(d[i] + d[j])
        out.add(sum(d))
        out.add(2 * self.decomp.coset_size)
        return frozenset(out)

    def __repr__(self):
        bs = ",".join(f"({a},{r})" for a, r in self.branches)
        return f"BranchMap[{bs}]"


def _constant_log(ctx: GroupContext, a: int) -> int:
    try:
        return ctx.dlog(a)
    except NotInGroup:
        raise NotInGroup(f"branch constant {a} is not in the group") from None
