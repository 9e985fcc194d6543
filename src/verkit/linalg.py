"""Exact integer linear algebra on small dense matrices.

Matrices are numpy arrays with dtype=object holding Python integers, so all
results are exact regardless of entry growth.  Provided here: fraction-free
(Bareiss) determinants, leading principal minors and the definiteness test,
the Smith normal form with a transformation certificate, and equality of
symmetric matrices up to a simultaneous row/column permutation.

Determinants and minors share one elimination step, applied to the whole
trailing block at once.  Without row exchanges the pivot reached after step
s is the (s+1)-th leading principal minor (Sylvester's identity; Bareiss,
Math. Comp. 22, 1968), so one O(k^3) pass yields every minor; `det` swaps
rows past a zero pivot instead.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import ShapeMismatch


def identity(k: int) -> np.ndarray:
    return np.eye(k, dtype=object)


def _square_copy(M: np.ndarray) -> np.ndarray:
    """A Python-int copy of M; ShapeMismatch unless M is a square matrix."""
    A = np.array(M, dtype=object)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def _bareiss_step(A: np.ndarray, s: int, prev: int) -> None:
    """Eliminate below pivot A[s, s] in place; prev is the previous pivot.

    The division is exact, so the entries stay Python ints.
    """
    A[s + 1 :, s + 1 :] = (
        A[s + 1 :, s + 1 :] * A[s, s] - np.outer(A[s + 1 :, s], A[s, s + 1 :])
    ) // prev


def _leading_minors(A: np.ndarray) -> Iterator[int]:
    """Leading principal minors of square A, from one unpivoted pass.

    Eliminates in A; stops after the first zero minor, past which the pass
    cannot go on.
    """
    prev = 1
    for s in range(A.shape[0]):
        pivot = A[s, s]
        yield pivot
        if pivot == 0:
            return
        _bareiss_step(A, s, prev)
        prev = pivot


def det(M: np.ndarray) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    A = _square_copy(M)
    k = A.shape[0]
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for s in range(k - 1):
        if A[s, s] == 0:
            for i in range(s + 1, k):
                if A[i, s] != 0:
                    A[[s, i]] = A[[i, s]]
                    sign = -sign
                    break
            else:
                return 0
        _bareiss_step(A, s, prev)
        prev = A[s, s]
    return sign * A[k - 1, k - 1]


def leading_principal_minors(M: np.ndarray) -> list[int]:
    """Determinants of the leading j x j submatrices, j = 1..size."""
    minors = list(_leading_minors(_square_copy(M)))
    k = len(M)
    return minors + [det(M[:j, :j]) for j in range(len(minors) + 1, k + 1)]


def definiteness_witness(M: np.ndarray) -> str:
    """Why M is not symmetric positive definite, or "" if it is.

    Names the first asymmetric entry or the first non-positive leading
    minor (1-based); elimination stops there.
    """
    A = _square_copy(M)
    asymmetric = np.argwhere(A != A.T)
    if len(asymmetric):
        i, j = asymmetric[0]
        return f"not symmetric at ({i}, {j})"
    for j, minor in enumerate(_leading_minors(A), 1):
        if minor <= 0:
            return f"leading minor {j} = {minor}"
    return ""


def is_positive_definite(M: np.ndarray) -> bool:
    """Sylvester criterion on an integer matrix: symmetric, with every
    leading principal minor positive (one pass, stopping at the first
    non-positive one)."""
    return definiteness_witness(M) == ""


def smith_normal_form(M: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Invariant factors d_1 | d_2 | ... and a certificate (U, V).

    U and V are unimodular with U @ M @ V diagonal; the test suite verifies
    the certificate rather than trusting this routine.  Pivots are chosen by
    minimal absolute value to limit entry growth.
    """
    A = M.astype(object).copy()
    rows, cols = A.shape
    U = identity(rows)
    V = identity(cols)
    for s in range(min(rows, cols)):
        while True:
            pivot = None
            for i in range(s, rows):
                for j in range(s, cols):
                    if A[i, j] != 0 and (pivot is None or abs(A[i, j]) < abs(A[pivot[0], pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            i, j = pivot
            if i != s:
                A[[s, i]] = A[[i, s]]
                U[[s, i]] = U[[i, s]]
            if j != s:
                A[:, [s, j]] = A[:, [j, s]]
                V[:, [s, j]] = V[:, [j, s]]
            if A[s, s] < 0:
                A[s, :] = -A[s, :]
                U[s, :] = -U[s, :]
            clean = True
            for i in range(s + 1, rows):
                q = A[i, s] // A[s, s]
                if q:
                    A[i, :] -= q * A[s, :]
                    U[i, :] -= q * U[s, :]
                if A[i, s] != 0:
                    clean = False
            for j in range(s + 1, cols):
                q = A[s, j] // A[s, s]
                if q:
                    A[:, j] -= q * A[:, s]
                    V[:, j] -= q * V[:, s]
                if A[s, j] != 0:
                    clean = False
            if clean:
                # Enforce divisibility of the trailing block by the pivot.
                bad = None
                for i in range(s + 1, rows):
                    for j in range(s + 1, cols):
                        if A[i, j] % A[s, s] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                A[s, :] += A[bad, :]
                U[s, :] += U[bad, :]
        if A[s, s] == 0:
            break
    factors = [int(A[s, s]) for s in range(min(rows, cols))]
    return factors, U, V


def permutation_equivalent(A: np.ndarray, B: np.ndarray) -> list[int] | None:
    """Permutation f with B[f(i), f(j)] = A[i, j], or None.

    Backtracking over index assignments, pruned by row signatures; meant for
    the small symmetric matrices appearing as block Cartan matrices.
    """
    k = A.shape[0]
    if B.shape != A.shape:
        return None

    def signature(M, v):
        return (M[v, v], tuple(sorted(int(x) for x in M[v, :])))

    siga = [signature(A, v) for v in range(k)]
    sigb = [signature(B, v) for v in range(k)]
    if sorted(siga) != sorted(sigb):
        return None

    assignment: list[int] = []
    used = [False] * k

    def extend(v: int) -> bool:
        if v == k:
            return True
        for w in range(k):
            if used[w] or siga[v] != sigb[w]:
                continue
            if any(A[v, u] != B[w, assignment[u]] for u in range(v)):
                continue
            used[w] = True
            assignment.append(w)
            if extend(v + 1):
                return True
            assignment.pop()
            used[w] = False
        return False

    return assignment if extend(0) else None
