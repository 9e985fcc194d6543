"""Exception types shared across the package."""


class VerkitError(Exception):
    """Base class for all errors raised by verkit."""


class OutOfRange(VerkitError, ValueError):
    """An index, label, weight, multiplicity or count lies outside its documented range."""


class UnsupportedPrime(VerkitError):
    """The requested operation is not defined at this prime (usually p=2)."""


class NegativeLeadingCoefficient(VerkitError):
    """A character fed to the tilting decomposition was not effective."""


class BoundExceeded(VerkitError):
    """The requested category is larger than the configured build bound."""


class InvalidCategory(VerkitError, ValueError):
    """(p, n) names no category Ver_{p^n}: p is not a prime or n < 1."""


class ShapeMismatch(VerkitError):
    """An operand has the wrong shape: a coefficient vector not of the rank
    of its ring, or a matrix that is not square where a square one is needed."""


class NotReal(VerkitError):
    """A real value was asked of an element that is not real."""


class PrecisionExceeded(VerkitError):
    """A numeric evaluation cannot meet its stated error bound, or an int64
    product could overflow."""
