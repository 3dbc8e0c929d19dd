"""Exception hierarchy shared by all cyclomap modules."""


class CyclomapError(Exception):
    """Base class for all library errors."""


class HypothesisError(CyclomapError):
    """A criterion or constructor was invoked outside its hypotheses."""


# -- field construction / arithmetic ----------------------------------------

class NotPrime(CyclomapError):
    pass


class ReducibleModulus(CyclomapError):
    pass


class NotPrimitive(CyclomapError):
    pass


class DivisionByZero(CyclomapError):
    pass


class ZeroArgument(CyclomapError):
    pass


# -- integer lemmas ----------------------------------------------------------

class DivisibilityViolation(CyclomapError):
    pass


# -- groups, cosets, branch maps ---------------------------------------------

class IndexNotDividingOrder(HypothesisError):
    pass


class NotInGroup(CyclomapError):
    pass


class UnsupportedContext(CyclomapError):
    pass


class DomainElementOutsideField(CyclomapError):
    pass


# -- parsing -----------------------------------------------------------------

class ParseError(CyclomapError):
    pass


class CoefficientNotInField(ParseError):
    pass


# -- criteria and families ---------------------------------------------------

class WrongIndex(HypothesisError):
    pass


class UnequalGcds(HypothesisError):
    pass


class HypothesisViolated(HypothesisError):
    pass


class GcdHypothesis(HypothesisError):
    pass


class RootOnUnitCircle(CyclomapError):
    """h vanishes where the map needs it nonzero.  `point` is the root's
    element code, or None where the raiser names no root (the CBU and CB0
    constructors)."""

    def __init__(self, msg, point=None):
        super().__init__(msg)
        self.point = point


class ConstraintViolated(HypothesisError):
    pass


# -- sweeps ------------------------------------------------------------------

class CapExceeded(CyclomapError):
    pass


# A walk or a dense table past this many entries is refused rather than
# allowed to exhaust memory or time: `classify_branch_map`'s residue
# classes, the points of a branch map's fiber table and the lanes of its
# step store (`mto1._fiber_sizes`), the points `classify`, `lift` and
# `enumerate` count, the unit circle, and dense polynomial coefficients.
_MAX_RESIDUES = 1 << 22


def _check_cap(count: int, what: str):
    """CapExceeded when a walk over count `what` would pass `_MAX_RESIDUES`."""
    if count > _MAX_RESIDUES:
        raise CapExceeded(f"{count} {what}, more than the cap {_MAX_RESIDUES}")
