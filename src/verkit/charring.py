"""Exact arithmetic on SL2 characters.

A character is a symmetric Laurent polynomial in one variable x, stored as a
finitely supported map from weight (the exponent of x) to an arbitrary
precision integer multiplicity.  The Weyl character of highest weight m is

    [m+1]_x = (x^(m+1) - x^(-m-1)) / (x - x^(-1)),

i.e. multiplicity one on the weights m, m-2, ..., -m.  Every symmetric
integer character a is a unique integer combination of Weyl characters, the
coefficient of [m+1]_x being a[m] - a[m+2]; this is the engine behind
decomposition matrices and Hom-dimension inner products.
"""

from __future__ import annotations

from .errors import NegativeLeadingCoefficient, OutOfRange, _decimal


class SymChar:
    """Symmetric Laurent polynomial with integer coefficients.

    Instances are treated as immutable; all operations return new objects.
    Zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int]):
        self.coeffs = {w: c for w, c in coeffs.items() if c != 0}

    def __eq__(self, other) -> bool:
        return isinstance(other, SymChar) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "SymChar(0)"
        terms = " + ".join(
            f"{c}*x^{w}" if c != 1 else f"x^{w}"
            for w, c in sorted(self.coeffs.items(), reverse=True)
        )
        return f"SymChar({terms})"

    def __add__(self, other: "SymChar") -> "SymChar":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return SymChar(out)

    def __sub__(self, other: "SymChar") -> "SymChar":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) - c
        return SymChar(out)

    def __mul__(self, other: "SymChar") -> "SymChar":
        return mul(self, other)

    def __rmul__(self, scalar: int) -> "SymChar":
        return SymChar({w: scalar * c for w, c in self.coeffs.items()})


def weyl_char(m: int) -> SymChar:
    """Character of the Weyl module of highest weight m >= 0."""
    if m < 0:
        raise OutOfRange(f"Weyl highest weight must be >= 0, got {_decimal(m)}")
    return SymChar({w: 1 for w in range(-m, m + 1, 2)})


def mul(a: SymChar, b: SymChar) -> SymChar:
    """Exact product (convolution of coefficient maps)."""
    out: dict[int, int] = {}
    for wa, ca in a.coeffs.items():
        for wb, cb in b.coeffs.items():
            w = wa + wb
            out[w] = out.get(w, 0) + ca * cb
    return SymChar(out)


def frobenius_twist(a: SymChar, p: int) -> SymChar:
    """Substitution x -> x^p: every weight is scaled by p."""
    return SymChar({p * w: c for w, c in a.coeffs.items()})


def weyl_expand(a: SymChar) -> dict[int, int]:
    """Expand a symmetric character in the Weyl basis, top weight first.

    The coefficient of weyl_char(m), m >= 0, is a[m] - a[m+2]; it may be
    negative.  A character that is not symmetric raises
    NegativeLeadingCoefficient.
    """
    mult = a.coeffs
    bad = next((w for w, c in mult.items() if mult.get(-w, 0) != c), None)
    if bad is not None:
        raise NegativeLeadingCoefficient(f"weights {bad} and {-bad} differ: not symmetric")
    tops = sorted({m for w in mult for m in (w, w - 2) if m >= 0}, reverse=True)
    diffs = ((m, mult.get(m, 0) - mult.get(m + 2, 0)) for m in tops)
    return {m: c for m, c in diffs if c}


def inner(a: SymChar, b: SymChar) -> int:
    """Inner product of characters; Weyl characters are orthonormal."""
    da = weyl_expand(a)
    db = weyl_expand(b)
    if len(db) < len(da):
        da, db = db, da
    return sum(c * db.get(m, 0) for m, c in da.items())


def dim_at_one(a: SymChar) -> int:
    """Evaluate at x=1, i.e. total of all multiplicities."""
    return sum(a.coeffs.values())
