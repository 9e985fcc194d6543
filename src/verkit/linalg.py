"""Exact integer linear algebra on small dense matrices.

Matrices are numpy arrays with dtype=object holding Python integers, so all
results are exact regardless of entry growth.  Provided here: fraction-free
(Bareiss) determinants, leading principal minors and the definiteness test,
and the Smith normal form with a transformation certificate.

Determinants and minors come from one elimination, `minors_and_det`, each
step applied to the whole trailing block at once.  Without row exchanges
the pivot reached after step s is the (s+1)-th leading principal minor
(Sylvester's identity; Bareiss, Math. Comp. 22, 1968), so one O(k^3) pass
yields every minor up to the first zero one; only past that zero does the
pass exchange rows, and it goes on to the determinant.  `det` and
`definiteness_witness` read it, and the witness accepts minors already
computed, so a caller that needs both runs the pass once.

The Smith normal form works on the trailing block in the same way: each
pivot search (the first entry of least nonzero absolute value, row-major),
each elimination of the pivot's column and row, and each divisibility
fix-up is one array operation, applied to U and V alongside.

These routines work on whatever matrix they are given.  `catalog` calls
`minors_and_det` and `smith_normal_form` only for a Cartan block that
`catalog.block_certificate` does not certify; the test suite keeps the
full-matrix calls, and `smith_normal_form` with its certificate, as the
oracles the per-block results must reproduce.

numpy is imported only inside these routines, so importing the module
(as `catalog` does) loads no numpy, and a build whose blocks are all
certified never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ShapeMismatch

if TYPE_CHECKING:
    import numpy as np


def _square_copy(M: np.ndarray) -> np.ndarray:
    """A Python-int copy of M; ShapeMismatch unless M is a square matrix."""
    import numpy as np

    A = np.array(M, dtype=object)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def minors_and_det(M: np.ndarray) -> tuple[list[int], int]:
    """Leading principal minors of square M up to and including the first
    zero one, and det M, from one fraction-free (Bareiss) elimination.

    Rows are exchanged only past the first zero pivot, so the pivots up to
    and including it are leading principal minors; from there the same pass
    exchanges rows and goes on to the determinant.  The divisions are exact,
    so the entries stay Python ints.
    """
    import numpy as np

    A = _square_copy(M)
    minors: list[int] = []
    sign, prev = 1, 1
    for s in range(len(A)):
        if not minors or minors[-1]:
            minors.append(A[s, s])
        if A[s, s] == 0:
            below = np.flatnonzero(A[s + 1 :, s])
            if not below.size:
                return minors, 0
            i = s + 1 + below[0]
            A[[s, i]] = A[[i, s]]
            sign = -sign
        A[s + 1 :, s + 1 :] = (
            A[s + 1 :, s + 1 :] * A[s, s] - np.outer(A[s + 1 :, s], A[s, s + 1 :])
        ) // prev
        prev = A[s, s]
    return minors, sign * prev


def det(M: np.ndarray) -> int:
    """Exact determinant, from `minors_and_det`."""
    return minors_and_det(M)[1]


def definiteness_witness(M: np.ndarray, rows=None, minors=None) -> str:
    """Why M is not symmetric positive definite, or "" if it is.

    Names the first asymmetric entry or the first non-positive leading
    minor (1-based).  `minors`, when given, is `minors_and_det(M)[0]`,
    computed by the caller.  When M is the principal submatrix of a larger
    matrix on the increasing row numbers `rows`, the witness names those
    rows: a leading minor of M on rows other than the larger matrix's first
    ones is named as a principal minor on its rows.
    """
    import numpy as np

    A = _square_copy(M)
    rows = range(len(A)) if rows is None else list(rows)
    asymmetric = np.argwhere(A != A.T)
    if len(asymmetric):
        i, j = asymmetric[0]
        return f"not symmetric at ({rows[i]}, {rows[j]})"
    if minors is None:
        minors = minors_and_det(A)[0]
    for j, minor in enumerate(minors, 1):
        if minor <= 0:
            if list(rows[:j]) == list(range(j)):
                return f"leading minor {j} = {minor}"
            return f"principal minor on rows {list(rows[:j])} = {minor}"
    return ""


def smith_normal_form(M: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Invariant factors d_1 | d_2 | ... and a certificate (U, V).

    U and V are unimodular with U @ M @ V diagonal; the test suite verifies
    the certificate rather than trusting this routine.  M may be
    rectangular; anything but a matrix raises ShapeMismatch.  Pivots are
    chosen by minimal absolute value to limit entry growth.  `catalog` calls
    it only for a solve block that `catalog.block_certificate` does not
    certify; the test suite uses it as the oracle for the certified factors.
    """
    import numpy as np

    A = np.array(M, dtype=object)
    if A.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {A.shape}")
    rows, cols = A.shape
    U = np.eye(rows, dtype=object)
    V = np.eye(cols, dtype=object)
    for s in range(min(rows, cols)):
        # Rows and columns before s are zero outside the diagonal, so every
        # step works on the trailing block T (a view) and on all of U and V.
        T = A[s:, s:]
        if not T.any():
            break
        while True:
            size = np.abs(T).ravel()
            nonzero = np.flatnonzero(size)
            i, j = divmod(int(nonzero[np.argmin(size[nonzero])]), T.shape[1])
            T[[0, i]] = T[[i, 0]]
            U[[s, s + i]] = U[[s + i, s]]
            T[:, [0, j]] = T[:, [j, 0]]
            V[:, [s, s + j]] = V[:, [s + j, s]]
            if T[0, 0] < 0:
                T[0] = -T[0]
                U[s] = -U[s]
            pivot = T[0, 0]
            q = T[1:, 0] // pivot
            r = np.flatnonzero(q)
            T[1 + r] -= np.outer(q[r], T[0])
            U[s + 1 + r] -= np.outer(q[r], U[s])
            q = T[0, 1:] // pivot
            c = np.flatnonzero(q)
            T[:, 1 + c] -= np.outer(T[:, 0], q[c])
            V[:, s + 1 + c] -= np.outer(V[:, s], q[c])
            if T[1:, 0].any() or T[0, 1:].any():
                continue
            # Enforce divisibility of the rest of the block by the pivot.
            bad = np.argwhere(T[1:, 1:] % pivot != 0)
            if not len(bad):
                break
            T[0] += T[1 + bad[0, 0]]
            U[s] += U[s + 1 + bad[0, 0]]
    factors = [int(A[s, s]) for s in range(min(rows, cols))]
    return factors, U, V
