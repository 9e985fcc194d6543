"""Indecomposable tilting characters of SL2 in characteristic p.

The character of the tilting module T_m is produced by Donkin's recursion:

* 0 <= m <= p-1:        chi(T_m) = [m+1]_x  (T_m is simple),
* p <= m <= 2p-2:       chi(T_m) = [m+1]_x + [2p-1-m]_x,
* m >= 2p-1:            write m = a + p*b with a in [p-1, 2p-2]; then
                        chi(T_m) = chi(T_a) * chi(T_b)(x^p).

Every weight of T_m has the parity of m, so the memo holds chi(T_m) densely:
an int64 vector of length m+1 whose entry k is the multiplicity of the
weight m-2k.  Products are `np.convolve` of such vectors and the Frobenius
twist spreads a vector p entries apart; `tilting_char` returns the same
character as a SymChar.

On top of this the module provides the decomposition of an effective tilting
character into indecomposables (greedy from the top weight, which is valid
because the tilting-to-Weyl transition matrix is unitriangular), run on a
dense vector per weight parity and shared by every caller, truncation
to the quotient where T_m vanishes for m >= p^n - 1, Hom dimensions, and the
dimensions of invariants in tensor powers of the two-dimensional module,
together with the generating-series route that must reproduce them.  All
int64 work is guarded: it raises PrecisionExceeded before a product could
overflow.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .charring import SymChar, inner, mul, weyl_char
from .digits import donkin_split
from .errors import NegativeLeadingCoefficient, OutOfRange, PrecisionExceeded, check_prime
from .linalg import check_int64_products


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
        out = SymChar({})
        for m, c in self.mults.items():
            out = out + c * tilting_char(p, m)
        return out


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two dense characters of one parity each."""
    check_int64_products(np.abs(a).max(), np.abs(b).max(), min(len(a), len(b)), "character product")
    return np.convolve(a, b)


@lru_cache(maxsize=None)
def _tilting_vec(p: int, m: int) -> np.ndarray:
    """Dense chi(T_m), memoized: entry k is the multiplicity of weight m-2k.

    The memo is only ever filled with the same read-only value for a given
    key, so concurrent fills are idempotent.  A miss for a p that is not a
    prime raises InvalidCategory.
    """
    check_prime(p)
    if m <= p - 1:
        out = np.ones(m + 1, dtype=np.int64)
    elif m <= 2 * p - 2:
        out = np.ones(m + 1, dtype=np.int64)
        out[m - p + 1 : p] += 1
    else:
        a, b = donkin_split(p, m)
        twisted = np.zeros(p * b + 1, dtype=np.int64)
        twisted[::p] = _tilting_vec(p, b)
        out = _convolve(_tilting_vec(p, a), twisted)
    out.flags.writeable = False
    return out


def tilting_char(p: int, m: int) -> SymChar:
    """Character of the indecomposable tilting module T_m."""
    if m < 0:
        raise OutOfRange(f"tilting index must be >= 0, got {m}")
    return SymChar(dict(zip(range(m, -m - 1, -2), _tilting_vec(p, m).tolist())))


def _peel(p: int, top: int, rest: np.ndarray, mults: dict[int, int]) -> None:
    """Greedy decomposition of one dense parity class, in place.

    Entry k of `rest` is the multiplicity of weight top-2k.  Each step reads
    the highest nonzero entry of nonnegative weight m and subtracts that
    multiple of chi(T_m); a symmetric tilting character leaves nothing.
    Entries only decrease, and the largest entry of chi(T_m) is its middle
    one (a sum of Weyl characters peaks at weight 0 or 1), so tracking a
    lower bound of `rest` refuses any step that could overflow int64.
    """
    low = min(int(rest.min()), 0)
    k = 0
    half = top // 2 + 1
    while k < half:
        nz = rest[k:half].nonzero()[0]
        if not nz.size:
            break
        k += int(nz[0])
        m = top - 2 * k
        c = int(rest[k])
        if c < 0:
            raise NegativeLeadingCoefficient(
                f"coefficient {c} at top weight {m}: not a tilting character"
            )
        t = _tilting_vec(p, m)
        low -= c * int(t[m // 2])
        if low <= -(2**63):
            raise PrecisionExceeded(f"peeling {c} * T_{m} could overflow int64")
        rest[k : k + m + 1] -= c * t
        mults[m] = c
    if rest.any():
        raise NegativeLeadingCoefficient(
            "nonzero remainder at negative weights: the character is not symmetric"
        )


def decompose_tilting(p: int, a: SymChar) -> TiltingSum:
    """Write an effective tilting character as a sum of indecomposables.

    Greedy from the top weight, one dense int64 vector per weight parity.
    Raises NegativeLeadingCoefficient if some stage exposes a negative top
    coefficient or leaves a remainder, i.e. the input was not the character
    of a tilting module, and PrecisionExceeded if a coefficient does not fit
    the int64 work.
    """
    mults: dict[int, int] = {}
    for parity in (0, 1):
        part = {w: c for w, c in a.coeffs.items() if w % 2 == parity}
        if not part:
            continue
        if max(abs(c) for c in part.values()) >= 2**63:
            raise PrecisionExceeded("a character coefficient does not fit in int64")
        top = max(part)
        bottom = min(min(part), -top)
        rest = np.zeros((top - bottom) // 2 + 1, dtype=np.int64)
        for w, c in part.items():
            rest[(top - w) // 2] = c
        _peel(p, top, rest, mults)
    return TiltingSum(mults)


def tensor_decompose(p: int, i: int, j: int) -> TiltingSum:
    """Decomposition of T_i (x) T_j into indecomposable tilting summands."""
    for m in (i, j):
        if m < 0:
            raise OutOfRange(f"tilting index must be >= 0, got {m}")
    mults: dict[int, int] = {}
    _peel(p, i + j, _convolve(_tilting_vec(p, i), _tilting_vec(p, j)), mults)
    return TiltingSum(mults)


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
    inflates intermediate characters.  M < 0 raises OutOfRange.
    """
    if M < 0:
        raise OutOfRange(f"series depth must be >= 0, got {M}")
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
    M < 0 raises OutOfRange.
    """
    if M < 0:
        raise OutOfRange(f"series depth must be >= 0, got {M}")
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
