"""Indecomposable tilting characters of SL2 in characteristic p.

The character of the tilting module T_m is produced by Donkin's recursion:

* 0 <= m <= p-1:        chi(T_m) = [m+1]_x  (T_m is simple),
* p <= m <= 2p-2:       chi(T_m) = [m+1]_x + [2p-1-m]_x,
* m >= 2p-1:            write m = a + p*b with a in [p-1, 2p-2]; then
                        chi(T_m) = chi(T_a) * chi(T_b)(x^p).

On top of this the module provides the decomposition of an effective tilting
character into indecomposables (greedy from the top weight, which is valid
because the tilting-to-Weyl transition matrix is unitriangular), truncation
to the quotient where T_m vanishes for m >= p^n - 1, Hom dimensions, and the
dimensions of invariants in tensor powers of the two-dimensional module,
together with the generating-series route that must reproduce them.
"""

from __future__ import annotations

from .charring import SymChar, frobenius_twist, inner, mul, weyl_char
from .errors import NegativeLeadingCoefficient

_tilting_cache: dict[tuple[int, int], SymChar] = {}


class TiltingSum:
    """Multiset of tilting indices with positive multiplicities."""

    __slots__ = ("mults",)

    def __init__(self, mults: dict[int, int]):
        if any(c < 0 for c in mults.values()):
            raise ValueError("tilting multiplicities must be >= 0")
        self.mults = {m: c for m, c in mults.items() if c != 0}

    def __eq__(self, other) -> bool:
        return isinstance(other, TiltingSum) and self.mults == other.mults

    def __repr__(self) -> str:
        inside = ", ".join(f"T{m}: {c}" for m, c in sorted(self.mults.items()))
        return f"TiltingSum({{{inside}}})"

    def character(self, p: int) -> SymChar:
        out = SymChar({})
        for m, c in self.mults.items():
            out = out + c * tilting_char(p, m)
        return out


def tilting_char(p: int, m: int) -> SymChar:
    """Character of the indecomposable tilting module T_m, memoized.

    The cache is only ever filled with the same value for a given key, so
    concurrent fills are idempotent.
    """
    if m < 0:
        raise ValueError(f"tilting index must be >= 0, got {m}")
    key = (p, m)
    got = _tilting_cache.get(key)
    if got is not None:
        return got
    if m <= p - 1:
        out = weyl_char(m)
    elif m <= 2 * p - 2:
        out = weyl_char(m) + weyl_char(2 * p - 2 - m)
    else:
        r = m % p
        a = p - 1 if r == p - 1 else p + r
        b = (m - a) // p
        out = mul(tilting_char(p, a), frobenius_twist(tilting_char(p, b), p))
    _tilting_cache[key] = out
    return out


def decompose_tilting(p: int, a: SymChar) -> TiltingSum:
    """Write an effective tilting character as a sum of indecomposables.

    Greedy from the top weight.  Raises NegativeLeadingCoefficient if some
    stage exposes a negative top coefficient, i.e. the input was not the
    character of a tilting module.
    """
    mults: dict[int, int] = {}
    rest = a
    while rest:
        m = rest.top_weight()
        c = rest.coeffs[m]
        if c < 0:
            raise NegativeLeadingCoefficient(
                f"coefficient {c} at top weight {m}: not a tilting character"
            )
        mults[m] = c
        rest = rest - c * tilting_char(p, m)
    return TiltingSum(mults)


def tensor_decompose(p: int, i: int, j: int) -> TiltingSum:
    """Decomposition of T_i (x) T_j into indecomposable tilting summands."""
    return decompose_tilting(p, mul(tilting_char(p, i), tilting_char(p, j)))


def truncate(p: int, n: int, s: TiltingSum) -> TiltingSum:
    """Discard all summands T_m with m >= p^n - 1 (the vanishing ideal)."""
    cut = p**n - 1
    return TiltingSum({m: c for m, c in s.mults.items() if m < cut})


def hom_dim(p: int, i: int, j: int) -> int:
    """dim Hom(T_i, T_j) = inner product of the two characters."""
    return inner(tilting_char(p, i), tilting_char(p, j))


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

    Multiplies by chi(V) one factor at a time, decomposing and truncating
    after each step; truncation commutes with tensoring, so this never
    inflates intermediate characters.
    """
    v = TiltingSum({0: 1})
    chi_v = weyl_char(1)
    out = [_invariant_count(p, n, v)]
    for _ in range(M):
        for _ in range(2):
            v = truncate(p, n, decompose_tilting(p, mul(v.character(p), chi_v)))
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
    descending powers.  S_{p^n-1} is monic, so the division is integral.
    Substituting u = t + t^(-1) shows this series lists the invariant
    dimensions, which is exactly what the invariants_series check asserts.
    """
    num = [0] + chebyshev_s(p**n - 2)
    den = chebyshev_s(p**n - 1)
    # Reverse into power series in v = 1/u; den has constant term 1 after
    # reversal since S_{p^n-1} is monic.
    shift = len(den) - len(num)
    rnum = num[::-1]
    rden = den[::-1]
    terms = 2 * M + 1
    series = [0] * terms
    for k in range(terms):
        idx = k - shift
        c = rnum[idx] if 0 <= idx < len(rnum) else 0
        for j in range(1, min(k, len(rden) - 1) + 1):
            c -= rden[j] * series[k - j]
        series[k] = c
    return [series[2 * m] for m in range(M + 1)]
