"""Base-p digit combinatorics for the categories Ver_{p^n}.

Projective objects are indexed by highest weights i in [p^(n-1)-1, p^n-2];
simple objects by labels i in [0, p^(n-1)(p-1)-1], i.e. n-digit strings whose
leading digit is at most p-2.  A "descendant" of an n-digit number
a = a_1...a_n (a_1 != 0) is any value a_1 p^(n-1) +- a_2 p^(n-2) +- ... +- a_n.
Descendants drive everything here:

* the decomposition matrix has d_ij = 1 iff j+1 is a descendant of i+1,
* the Cartan entry c_ij counts common descendants of i+1 and j+1,
* blocks, Ext^1 and the Steinberg labelling are digit conditions.

A second, independent construction of the Cartan matrix peels the least
significant digit and takes Kronecker products of fixed p x p matrices; the
two (plus the character route in `catalog`) must agree exactly.  Both give
sparse rows; `cartan_descendant` and `cartan_kronecker` are dense views.

numpy is imported only inside the functions that return arrays, so the
digit rules themselves load without it.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import OutOfRange, UnsupportedPrime, _decimal
from .errors import check_pn, is_prime  # re-exported

if TYPE_CHECKING:
    import numpy as np


def to_digits(a: int, p: int, n: int) -> list[int]:
    """n base-p digits of a, most significant first."""
    if not 0 <= a < p**n:
        raise OutOfRange(f"{_decimal(a)} does not fit in {n} base-{p} digits")
    digits = []
    for _ in range(n):
        digits.append(a % p)
        a //= p
    return digits[::-1]


def from_digits(digits: list[int], p: int) -> int:
    value = 0
    for d in digits:
        value = value * p + d
    return value


def descendants(a: int, p: int, n: int) -> set[int]:
    """All sign choices a_1 p^(n-1) +- a_2 p^(n-2) +- ... +- a_n."""
    if not p ** (n - 1) <= a <= p**n - 1:
        raise OutOfRange(f"{_decimal(a)} is not an n-digit number for p={p}, n={n}")
    digits = to_digits(a, p, n)
    values = {digits[0] * p ** (n - 1)}
    for k, d in enumerate(digits[1:], start=2):
        step = d * p ** (n - k)
        values = {v + s for v in values for s in ((step, -step) if step else (0,))}
    return values


def projective_range(p: int, n: int) -> range:
    return range(p ** (n - 1) - 1, p**n - 1)


def simple_range(p: int, n: int) -> range:
    return range(p ** (n - 1) * (p - 1))


def check_simple(p: int, n: int, i: int) -> None:
    """Refuse a label i that names no simple object of Ver_{p^n}."""
    if i not in simple_range(p, n):
        raise OutOfRange(f"simple label {_decimal(i)} outside range for p={p}, n={n}")


def decomposition_matrix(p: int, n: int) -> np.ndarray:
    """0/1 matrix over rows i in projective_range, columns j in [0, p^n-2]."""
    import numpy as np

    rows = projective_range(p, n)
    cols = p**n - 1
    mat = np.zeros((len(rows), cols), dtype=object)
    for ri, i in enumerate(rows):
        for b in descendants(i + 1, p, n):
            mat[ri, b - 1] = 1
    return mat


def extended_decomposition_row(p: int, n: int, i: int) -> dict[int, int]:
    """Weyl multiplicities of chi(T_i), valid for any i in [0, p^n-2].

    Independent of the descendant rule: read from the memoized Weyl row of
    the character recursion (`tilting._weyl_row`).
    """
    from .tilting import _weyl_row

    if not 0 <= i <= p**n - 2:
        raise OutOfRange(f"tilting index {_decimal(i)} outside [0, {p**n - 2}]")
    return {i - 2 * k: c for k, c in _weyl_row(p, i)}


def read_only_rows(rows: dict[int, dict[int, int]]) -> Mapping[int, Mapping[int, int]]:
    """The sparse rows {label: {label: entry}} behind read-only mappings."""
    return MappingProxyType({s: MappingProxyType(row) for s, row in rows.items()})


def dense_matrix(rows: Mapping[int, Mapping[int, int]], labels) -> np.ndarray:
    """The object matrix of sparse rows on `labels`, in that order; no row reads as zeros."""
    import numpy as np

    pos = {s: a for a, s in enumerate(labels)}
    mat = np.zeros((len(pos), len(pos)), dtype=object)
    for s, a in pos.items():
        for t, c in rows.get(s, {}).items():
            if t in pos:
                mat[a, pos[t]] = c
    return mat


def cartan_descendant_rows(p: int, n: int) -> Mapping[int, Mapping[int, int]]:
    """Cartan matrix as read-only rows {T label: {T label: nonzero entry}}:
    entry (i, j) counts common descendants of i+1 and j+1.  Each descendant
    value adds one to every pair of the rows that hold it; no block is assumed."""
    holders: dict[int, list[int]] = {}
    for s in projective_range(p, n):
        for v in descendants(s + 1, p, n):
            holders.setdefault(v, []).append(s)
    rows: dict[int, dict[int, int]] = {s: {} for s in projective_range(p, n)}
    for group in holders.values():
        for s in group:
            row = rows[s]
            for t in group:
                row[t] = row.get(t, 0) + 1
    return read_only_rows(rows)


def cartan_descendant(p: int, n: int) -> np.ndarray:
    """Dense view of `cartan_descendant_rows`, rows in highest-weight order."""
    return dense_matrix(cartan_descendant_rows(p, n), projective_range(p, n))


def cartan_kronecker_rows(p: int, n: int) -> Mapping[int, Mapping[int, int]]:
    """Cartan matrix by the digit-peeling Kronecker recursion, as read-only
    rows {T label: {T label: nonzero entry}}.

    The pair (X, Z) starts at (Id_{p-1}, A restricted to nonzero digits) over
    one-digit labels and evolves by

        X <- D (x) X + S (x) Z,      Z <- 2A (x) X + B (x) Z,

    where the left Kronecker factor addresses the appended least significant
    digit: the row of kron(D, X) at position (d, a') describes the label
    a'*p + d, so after n-1 steps X holds the row of T_(label - 1) at each
    label; no block is assumed; the last step forms X only.  Base matrices are
    held as their nonzero (i, j, entry); at p=2, X and Z start as (1), (0).
    """
    A = [(i, j, 1) for i in range(p) for j in (i - 1, i + 1) if 0 <= j < p]
    B = [(i, j, 1) for i in range(p) for j in (p - 1 - i, p + 1 - i) if 0 <= j < p]
    S = [(i, p - i, 1) for i in range(1, p)]
    D = [(i, i, 1 if i == 0 else 2) for i in range(p)]

    def kron(*terms):
        out: dict[int, dict[int, int]] = {}
        for base, M in terms:
            for d1, d2, c in base:
                for a1, row in M.items():
                    target = out.setdefault(a1 * p + d1, {})
                    for a2, x in row.items():
                        target[a2 * p + d2] = target.get(a2 * p + d2, 0) + c * x
        return out

    X = {a: {a: 1} for a in range(1, p)}
    Z = {a: {j: c for i, j, c in A if i == a and j} for a in range(1, p)}
    for _ in range(n - 2):
        X, Z = kron((D, X), (S, Z)), kron(([(i, j, 2 * c) for i, j, c in A], X), (B, Z))
    if n >= 2:
        X, Z = kron((D, X), (S, Z)), None
    return read_only_rows({a - 1: {b - 1: c for b, c in X.pop(a).items()} for a in list(X)})


def cartan_kronecker(p: int, n: int) -> np.ndarray:
    """Dense view of `cartan_kronecker_rows`, rows in highest-weight order."""
    return dense_matrix(cartan_kronecker_rows(p, n), projective_range(p, n))


def donkin_split(p: int, m: int) -> tuple[int, int]:
    """(a, b) with m = a + p*b and a in [p-1, 2p-2], for m >= 2p-1: the
    split of Donkin's formula chi(T_m) = chi(T_a) * chi(T_b)(x^p)."""
    r = m % p
    a = p - 1 if r == p - 1 else p + r
    return a, (m - a) // p


def block_key(p: int, n: int, i: int) -> tuple[int, int, int]:
    """Invariant separating the blocks: (parity, trailing zeros, digit class).

    Two projectives T_i, T_j share a block iff i = j mod 2, the base-p
    expansions of i+1 and j+1 end in the same number of zeros, and their last
    nonzero digits are equal or sum to p.
    """
    a = i + 1
    tz = 0
    while a % p == 0:
        a //= p
        tz += 1
    last = a % p
    return (i % 2, tz, min(last, p - last))


def block_partition(p: int, n: int) -> list[list[int]]:
    """Blocks as sorted lists of projective indices, in a deterministic order.

    Blocks are ordered by descending size, then by smallest member.
    """
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i in projective_range(p, n):
        groups.setdefault(block_key(p, n, i), []).append(i)
    blocks = [sorted(v) for v in groups.values()]
    blocks.sort(key=lambda b: (-len(b), b[0]))
    return blocks


def steinberg_label(p: int, n: int, i: int) -> int:
    """Highest weight s(i) of the projective cover of the simple L_i.

    The digit rule: keep the leading digit, complement the rest with
    d -> p-1-d, and shift by p^(n-1)-1.
    """
    check_simple(p, n, i)
    digits = to_digits(i, p, n)
    starred = [digits[0]] + [p - 1 - d for d in digits[1:]]
    return p ** (n - 1) - 1 + from_digits(starred, p)


def simple_of_projective(p: int, n: int, s: int) -> int:
    """Inverse of steinberg_label: the simple whose projective cover is T_s."""
    if s not in projective_range(p, n):
        raise OutOfRange(f"projective index {_decimal(s)} outside [{p**(n-1)-1}, {p**n-2}]")
    digits = to_digits(s - (p ** (n - 1) - 1), p, n)
    return from_digits([digits[0]] + [p - 1 - d for d in digits[1:]], p)


def ext1(p: int, n: int, a: int, b: int) -> int:
    """dim Ext^1(L_a, L_b) for p odd: 0 or 1.

    Nonzero exactly when the digit strings differ in two consecutive
    positions only, the more significant pair differing by 1 and the less
    significant pair summing to p-2.
    """
    if p == 2:
        raise UnsupportedPrime("Ext^1 digit rule is only defined for odd p")
    check_simple(p, n, a)
    check_simple(p, n, b)
    da = to_digits(a, p, n)
    db = to_digits(b, p, n)
    diff = [k for k in range(n) if da[k] != db[k]]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        return 0
    hi, lo = diff
    if abs(da[hi] - db[hi]) == 1 and da[lo] + db[lo] == p - 2:
        return 1
    return 0


def ext1_edges(p: int, n: int) -> tuple[tuple[int, int], ...]:
    """Pairs a < b of simples with Ext^1(L_a, L_b) != 0, p odd, in order: the
    rule of `ext1`, generated from each a.  Such b differs from a in two
    adjacent digits only, the upper one by +-1 and the lower one a_lo becoming
    p-2-a_lo (not a_lo, as p-2 is odd); b's leading digit is at most p-2."""
    if p == 2:
        raise UnsupportedPrime("Ext^1 digit rule is only defined for odd p")
    edges = []
    for a in simple_range(p, n):
        da = to_digits(a, p, n)
        above = []
        for hi in range(n - 1):
            lo, top = da[hi + 1], p - 2 if hi == 0 else p - 1
            for up in (-1, 1):
                if lo <= p - 2 and 0 <= da[hi] + up <= top:
                    above.append(a + up * p ** (n - 1 - hi) + (p - 2 - 2 * lo) * p ** (n - 2 - hi))
        edges += [(a, b) for b in sorted(above) if b > a]
    return tuple(edges)


def frobenius_on_simple(p: int, n: int, i: int):
    """Frobenius image of L_i: None (zero object) or a pair of labels.

    For i = r*p^(n-1) + b the image vanishes when b >= p^(n-1) - p^(n-2);
    otherwise it is (label in Ver_{p^(n-1)}, label in Ver_p).  For odd r the
    first component has its leading digit b_1 replaced by p-2-b_1, by the
    simple-current fusion in Ver_p.
    """
    if p == 2:
        raise UnsupportedPrime("Frobenius digit rule is only defined for odd p")
    check_simple(p, n, i)
    if n == 1:
        raise OutOfRange("the digit rule for the Frobenius image needs n >= 2")
    r, b = divmod(i, p ** (n - 1))
    if b >= p ** (n - 1) - p ** (n - 2):
        return None
    if r % 2 == 0:
        return (b, r)
    digits = to_digits(b, p, n - 1)
    digits[0] = p - 2 - digits[0]
    return (from_digits(digits, p), p - 2 - r)
