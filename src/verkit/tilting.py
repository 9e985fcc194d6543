"""Indecomposable tilting characters of SL2 in characteristic p.

The character of the tilting module T_m is produced by Donkin's recursion:

* 0 <= m <= p-1:        chi(T_m) = [m+1]_x  (T_m is simple),
* p <= m <= 2p-2:       chi(T_m) = [m+1]_x + [2p-1-m]_x,
* m >= 2p-1:            write m = a + p*b with a in [p-1, 2p-2]; then
                        chi(T_m) = chi(T_a) * chi(T_b)(x^p).

The one memo holds chi(T_m) in the Weyl basis: its nonzero coefficients,
top first.  With a = p-1+r, chi(T_a) = chi(p-1) * (x^r + x^-r), and
Steinberg's rule chi(p-1) * chi(j)(x^p) = chi(p-1+pj) turns each Weyl factor
chi(j) of T_b into chi(p-1+pj+r) and chi(p-1+pj-r), or into chi(p-1+pj)
alone when r = 0.  These weights are distinct, so the row of T_m copies the
coefficients of the row of T_b and never sums two of them.  `tilting_char`
rebuilds the dense character from the row (cumulative sums, mirrored) on
each call.

On top of this the module provides the decomposition of an effective tilting
character into indecomposables, truncation to the quotient where T_m
vanishes for m >= p^n - 1, Hom dimensions, and the dimensions of invariants
in tensor powers of the two-dimensional module, together with the
generating-series route that must reproduce them.  The decomposition runs
in the Weyl basis: greedy from the top, which is valid because the
tilting-to-Weyl transition matrix is unitriangular, and the top Weyl
coefficient of a symmetric character is its top multiplicity.  The Weyl
coefficients of T_i (x) T_j come from the Clebsch-Gordan rule applied to the
two Weyl rows.  All arithmetic is on Python integers, so it is exact at any
size.  Only the dense characters need `charring`: `tilting_char`,
`decompose_tilting` and `TiltingSum.character` import it in their bodies,
so a build, which reads the Weyl rows only, never loads it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import TYPE_CHECKING

from .digits import donkin_split
from .errors import NegativeLeadingCoefficient, OutOfRange, _decimal, check_pn, check_prime

if TYPE_CHECKING:
    from .charring import SymChar


class TiltingSum:
    """Multiset of tilting indices with positive multiplicities."""

    __slots__ = ("mults",)

    def __init__(self, mults: dict[int, int]):
        if any(c < 0 for c in mults.values()):
            raise OutOfRange("tilting multiplicities must be >= 0")
        self.mults = {m: c for m, c in mults.items() if c != 0}

    def __eq__(self, other) -> bool:
        return isinstance(other, TiltingSum) and self.mults == other.mults

    def __repr__(self) -> str:
        inside = ", ".join(f"T{m}: {c}" for m, c in sorted(self.mults.items()))
        return f"TiltingSum({{{inside}}})"

    def character(self, p: int) -> SymChar:
        from .charring import SymChar

        out = SymChar({})
        for m, c in self.mults.items():
            out = out + c * tilting_char(p, m)
        return out


def _check_index(m: int) -> None:
    if m < 0:
        raise OutOfRange(f"tilting index must be >= 0, got {_decimal(m)}")


@lru_cache(maxsize=None)
def _weyl_row(p: int, m: int) -> tuple[tuple[int, int], ...]:
    """Nonzero Weyl coefficients of chi(T_m), memoized, as pairs (k, c):
    c is the coefficient of the Weyl character of highest weight m-2k.

    Top first; the first pair is (0, 1).  The factor chi(j) of T_b, j = b-2k,
    gives the weights p-1+pj+r and p-1+pj-r of T_m, at pk and pk+r.  The
    memo is only ever filled with the same immutable value for a given key,
    so concurrent fills are idempotent.  A miss for a p that is not a prime
    raises InvalidCategory.
    """
    check_prime(p)
    if m < p:
        return ((0, 1),)
    a, b = donkin_split(p, m)
    r = a - p + 1
    row = _weyl_row(p, b)
    if not r:
        return tuple((p * k, c) for k, c in row)
    return tuple(pair for k, c in row for pair in ((p * k, c), (p * k + r, c)))


def tilting_char(p: int, m: int) -> SymChar:
    """Character of the indecomposable tilting module T_m."""
    from .charring import SymChar

    _check_index(m)
    weyl = [0] * (m // 2 + 1)
    for k, c in _weyl_row(p, m):
        weyl[k] = c
    half = list(accumulate(weyl))
    return SymChar(dict(zip(range(m, -m - 1, -2), half + half[: (m + 1) // 2][::-1])))


def _peel(p: int, top: int, weyl: list[int], mults: dict[int, int]) -> None:
    """Greedy decomposition of one parity class in the Weyl basis, in place.

    Entry k of `weyl` is the coefficient of the Weyl character of highest
    weight top-2k, for every k <= top // 2.  Each step reads the highest
    nonzero coefficient, of weight m, and subtracts that multiple of the
    Weyl row of T_m, whose leading coefficient is 1; nothing is left after
    the last step.
    """
    for k, c in enumerate(weyl):
        if not c:
            continue
        m = top - 2 * k
        if c < 0:
            raise NegativeLeadingCoefficient(
                f"coefficient {c} at top weight {m}: not a tilting character"
            )
        for kr, cr in _weyl_row(p, m):
            weyl[k + kr] -= c * cr
        mults[m] = c


def decompose_tilting(p: int, a: SymChar) -> TiltingSum:
    """Write an effective tilting character as a sum of indecomposables.

    Greedy from the top weight on the Weyl coefficients of `a`, one dense
    list per weight parity.  Raises NegativeLeadingCoefficient if `a` is not
    symmetric or some stage exposes a negative top coefficient, i.e. the
    input was not the character of a tilting module.
    """
    from .charring import weyl_expand

    coeffs = weyl_expand(a)
    mults: dict[int, int] = {}
    for parity in (0, 1):
        part = {m: c for m, c in coeffs.items() if m % 2 == parity}
        if not part:
            continue
        top = max(part)
        weyl = [0] * (top // 2 + 1)
        for m, c in part.items():
            weyl[(top - m) // 2] = c
        _peel(p, top, weyl, mults)
    return TiltingSum(mults)


def tensor_decompose(p: int, i: int, j: int) -> TiltingSum:
    """Decomposition of T_i (x) T_j into indecomposable tilting summands.

    By Clebsch-Gordan each pair of Weyl factors W_a, W_b of T_i and T_j
    contributes W_(a+b), W_(a+b-2), ..., W_|a-b|: one range of the Weyl
    coefficients of the product, summed in a difference array.
    """
    _check_index(i)
    _check_index(j)
    top = i + j
    diff = [0] * (top // 2 + 2)
    row_j = [(kb, cb, j - 2 * kb) for kb, cb in _weyl_row(p, j)]
    for ka, ca in _weyl_row(p, i):
        a = i - 2 * ka
        for kb, cb, b in row_j:
            c = ca * cb
            diff[ka + kb] += c
            diff[(top - abs(a - b)) // 2 + 1] -= c
    mults: dict[int, int] = {}
    _peel(p, top, list(accumulate(diff[:-1])), mults)
    return TiltingSum(mults)


def truncate(p: int, n: int, s: TiltingSum) -> TiltingSum:
    """Discard all summands T_m with m >= p^n - 1 (the vanishing ideal)."""
    cut = p**n - 1
    return TiltingSum({m: c for m, c in s.mults.items() if m < cut})


def hom_dim(p: int, i: int, j: int) -> int:
    """dim Hom(T_i, T_j) = inner product of the two characters.

    Weyl characters are orthonormal, so it is the sum of c_i(w) c_j(w) over
    the weights w of both Weyl rows.
    """
    _check_index(i)
    _check_index(j)
    row_j = {j - 2 * k: c for k, c in _weyl_row(p, j)}
    return sum(c * row_j.get(i - 2 * k, 0) for k, c in _weyl_row(p, i))


def _invariant_count(p: int, n: int, s: TiltingSum) -> int:
    """Dimension of invariants: T_m contributes iff m = 2p^l - 2, l < n."""
    total = 0
    l = 0
    while 2 * p**l - 2 <= p**n - 2:
        total += s.mults.get(2 * p**l - 2, 0)
        l += 1
    return total


def invariant_dims(p: int, n: int, M: int) -> list[int]:
    """d_m = dim of invariants in V^(2m) in the truncated category, m <= M.

    Tensors with V = T_1 one factor at a time, summing `tensor_decompose`
    of each summand and truncating after each step; truncation commutes
    with tensoring, so this never inflates intermediate sums.  A (p, n)
    that names no category raises InvalidCategory, M < 0 OutOfRange.
    """
    check_pn(p, n)
    if M < 0:
        raise OutOfRange(f"series depth must be >= 0, got {_decimal(M)}")
    v = TiltingSum({0: 1})
    out = [_invariant_count(p, n, v)]
    for _ in range(M):
        for _ in range(2):
            step: dict[int, int] = {}
            for m, c in v.mults.items():
                for t, d in tensor_decompose(p, m, 1).mults.items():
                    step[t] = step.get(t, 0) + c * d
            v = truncate(p, n, TiltingSum(step))
        out.append(_invariant_count(p, n, v))
    return out


def chebyshev_s(m: int) -> list[int]:
    """Coefficients (ascending) of S_m: S_0 = 1, S_1 = u, S_m = u S_{m-1} - S_{m-2}."""
    if m == 0:
        return [1]
    prev, cur = [1], [0, 1]
    for _ in range(m - 1):
        nxt = [0] + cur
        for k, c in enumerate(prev):
            nxt[k] -= c
        prev, cur = cur, nxt
    return cur


def series_fn(p: int, n: int, M: int) -> list[int]:
    """Coefficients of u^(-2m), m <= M, of u * S_{p^n-2}(u) / S_{p^n-1}(u).

    The quotient is expanded as a power series in u^(-1) by long division in
    descending powers.  S_m has the parity of m, and its coefficient of
    u^(m-2k) is (-1)^k C(m-k, k), so the division reads only the top M+1
    coefficients of each polynomial.  S_{p^n-1} is monic, so the division is
    integral.  Substituting u = t + t^(-1) shows this series lists the
    invariant dimensions, which is exactly what the invariants_series check
    asserts.  M < 0 raises OutOfRange.
    """
    check_pn(p, n)
    if M < 0:
        raise OutOfRange(f"series depth must be >= 0, got {_decimal(M)}")

    def top(m: int) -> list[int]:
        return [(-1) ** k * comb(m - k, k) if 2 * k <= m else 0 for k in range(M + 1)]

    num, den = top(p**n - 2), top(p**n - 1)
    series: list[int] = []
    for k in range(M + 1):
        series.append(num[k] - sum(den[j] * series[k - j] for j in range(1, k + 1)))
    return series
