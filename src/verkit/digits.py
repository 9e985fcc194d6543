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
two (plus the character route in `tilting`) must agree exactly.

numpy is imported only inside the functions that return arrays, so the
digit rules themselves load without it.
"""

from __future__ import annotations

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


def cartan_descendant(p: int, n: int) -> np.ndarray:
    """Cartan matrix: entry (i, j) counts common descendants of i+1, j+1."""
    import numpy as np

    rows = projective_range(p, n)
    desc = [descendants(i + 1, p, n) for i in rows]
    size = len(rows)
    mat = np.zeros((size, size), dtype=object)
    for a in range(size):
        for b in range(a, size):
            c = len(desc[a] & desc[b])
            mat[a, b] = c
            mat[b, a] = c
    return mat


def _kron_base_matrices(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    import numpy as np

    A = np.zeros((p, p), dtype=object)
    B = np.zeros((p, p), dtype=object)
    S = np.zeros((p, p), dtype=object)
    D = np.zeros((p, p), dtype=object)
    for i in range(p):
        D[i, i] = 1 if i == 0 else 2
        for j in range(p):
            A[i, j] = int(i == j - 1) + int(i == j + 1)
            B[i, j] = int(i + j == p - 1) + int(i + j == p + 1)
            S[i, j] = int(i + j == p)
    return A, B, S, D


def cartan_kronecker(p: int, n: int) -> np.ndarray:
    """Cartan matrix by the digit-peeling Kronecker recursion.

    The pair (X, Z) starts at (Id_{p-1}, A restricted to nonzero digits) over
    one-digit labels and evolves by

        X <- D (x) X + S (x) Z,      Z <- 2A (x) X + B (x) Z,

    where the left Kronecker factor addresses the appended least significant
    digit: the row of kron(D, X) at position (d, a') describes the label
    a'*p + d.  After n-1 steps X is the Cartan matrix in that mixed order;
    rows and columns are then sorted into highest-weight order so the result
    is directly comparable with cartan_descendant.  The same base matrices
    work at p=2, where X and Z collapse to the 1x1 blocks (1) and (0).
    """
    import numpy as np

    A, B, S, D = _kron_base_matrices(p)
    X = np.eye(p - 1, dtype=object)
    Z = A[1:, 1:].copy()
    labels = list(range(1, p))
    for _ in range(n - 1):
        X, Z = (
            np.kron(D, X) + np.kron(S, Z),
            np.kron(2 * A, X) + np.kron(B, Z),
        )
        labels = [a * p + d for d in range(p) for a in labels]
    order = sorted(range(len(labels)), key=labels.__getitem__)
    return X[np.ix_(order, order)]


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


def ext1_matrix(p: int, n: int) -> np.ndarray:
    """Boolean k x k matrix of Ext^1(L_a, L_b) != 0 over all simples, p odd.

    The rule of `ext1` on every pair at once: digits are held in the
    narrowest signed dtype that fits 2p, and each step compares one digit
    position across all pairs, so at most a few k x k arrays are alive.
    """
    import numpy as np

    if p == 2:
        raise UnsupportedPrime("Ext^1 digit rule is only defined for odd p")
    k = p ** (n - 1) * (p - 1)
    labels = np.arange(k)
    dtype = np.min_scalar_type(-2 * p)
    digits = [(labels // p ** (n - 1 - t) % p).astype(dtype) for t in range(n)]
    differing = np.zeros((k, k), dtype=np.uint8)
    adjacent = np.zeros((k, k), dtype=bool)
    prev = None
    for t, d in enumerate(digits):
        col, row = d[:, None], d[None, :]
        neq = col != row
        differing += neq
        if t:
            hi = digits[t - 1]
            step = np.abs(hi[:, None] - hi[None, :]) == 1
            adjacent |= prev & step & neq & (col + row == p - 2)
        prev = neq
    return adjacent & (differing == 2)


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
