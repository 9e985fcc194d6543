"""Exception types shared across the package, and the category guard.

The guard (`is_prime`, `check_prime`, `check_pn`, `check_category`) lives
here because it needs nothing but integers: the command line runs it on
every call, and this module imports nothing.  Its
messages name an integer too long to print in decimal by its size.
"""

# Largest number of simple objects `catalog.build` and the command line accept.
DEFAULT_BOUND = 2500


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
    """A numeric evaluation cannot meet its stated error bound."""


# Miller-Rabin with every prime base up to 41 decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below _MR_EXACT_BELOW.

    At or above it only a factor among the bases is decided; any other p
    raises OutOfRange, since no exact answer is available there.
    """
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= _MR_EXACT_BELOW:
        raise OutOfRange(f"no exact primality test for p >= {_MR_EXACT_BELOW}")
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in _MR_BASES:
        x = pow(b, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _decimal(x: int) -> str:
    """x in decimal, or its size in bits where the decimal would be long
    enough for Python to refuse the conversion (4300 digits by default)."""
    if x.bit_length() <= 14_000:  # at most 4215 decimal digits
        return str(x)
    return f"a {'negative ' if x < 0 else ''}{x.bit_length()}-bit integer"


def check_prime(p: int) -> None:
    """Refuse a p that is not a prime; `is_prime` refuses a p whose
    primality it cannot decide."""
    if not is_prime(p):
        raise InvalidCategory(f"{_decimal(p)} is not a prime")


def _check_level(n: int) -> None:
    if n < 1:
        raise InvalidCategory(f"level must be >= 1, got {_decimal(n)}")


def check_pn(p: int, n: int) -> None:
    """Refuse a (p, n) that names no category Ver_{p^n}."""
    check_prime(p)
    _check_level(n)


def check_category(p: int, n: int) -> None:
    """Refuse a (p, n) that names no category, or one with more than
    DEFAULT_BOUND simple objects: Ver_{5^5} (2500) and Ver_{47^2} (2162)
    are admitted, Ver_{53^2} (2756) and Ver_{3^8} (4374) are not.

    Quick on any integers: n is tested first, the p - 1 simples of level
    one are compared with the bound before the primality test, and the
    count (p - 1) p^(n - 1) grows by factors of p only while it stays
    within the bound.  The message names the count when it fits in 64 bits.
    """
    _check_level(n)
    count, left = p - 1, n - 1
    if count <= DEFAULT_BOUND:
        check_pn(p, n)
        while left and count <= DEFAULT_BOUND:
            count, left = count * p, left - 1
    if count > DEFAULT_BOUND:
        small = count.bit_length() + left * p.bit_length() <= 64
        amount = count * p**left if small else "more than 2^64"
        raise BoundExceeded(f"{amount} simple objects exceeds the bound {DEFAULT_BOUND}")
