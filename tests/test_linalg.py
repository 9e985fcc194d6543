from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verkit.errors import ShapeMismatch
from verkit.linalg import (
    definiteness_witness,
    det,
    minors_and_det,
    smith_normal_form,
)

ENTRIES = st.integers(-4, 4) | st.integers(-(10**12), 10**12)


def fraction_det(M) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    A = [[Fraction(int(x)) for x in row] for row in M]
    k = len(A)
    d = Fraction(1)
    for s in range(k):
        pivot = next((i for i in range(s, k) if A[i][s] != 0), None)
        if pivot is None:
            return 0
        if pivot != s:
            A[s], A[pivot] = A[pivot], A[s]
            d = -d
        d *= A[s][s]
        for i in range(s + 1, k):
            f = A[i][s] / A[s][s]
            for j in range(s, k):
                A[i][j] -= f * A[s][j]
    assert d.denominator == 1
    return int(d)


def matrices(r: int, k: int):
    """r x k matrices of Python ints."""
    rows = st.lists(st.lists(ENTRIES, min_size=k, max_size=k), min_size=r, max_size=r)

    def build(entries):
        M = np.zeros((r, k), dtype=object)
        for i, row in enumerate(entries):
            M[i, :] = row
        return M

    return rows.map(build)


@st.composite
def symmetric_matrices(draw) -> np.ndarray:
    """Symmetric integer matrices up to 8x8: arbitrary ones (mostly
    indefinite, often singular) and Gram matrices B^T B (positive
    semidefinite, singular when B has rank below k)."""
    k = draw(st.integers(0, 8))
    if draw(st.booleans()):
        r = draw(st.integers(0, 8))
        B = draw(matrices(r, k))
        return B.T @ B if r else np.zeros((k, k), dtype=object)
    M = np.zeros((k, k), dtype=object)
    for i in range(k):
        for j in range(i, k):
            M[i, j] = M[j, i] = draw(ENTRIES)
    return M


square_matrices = st.integers(0, 8).flatmap(lambda k: matrices(k, k))


@settings(deadline=None)
@given(symmetric_matrices())
def test_minors_and_det_match_fraction_oracle(M):
    k = M.shape[0]
    leading = [fraction_det(M[:j, :j]) for j in range(1, k + 1)]
    cut = next((j + 1 for j, minor in enumerate(leading) if minor == 0), k)
    assert minors_and_det(M) == (leading[:cut], fraction_det(M))
    assert det(M) == fraction_det(M)


@settings(deadline=None)
@given(square_matrices)
def test_det_matches_fraction_oracle_on_any_square_matrix(M):
    assert det(M) == fraction_det(M)


@st.composite
def eliminated_matrices(draw) -> np.ndarray:
    """Square integer matrices, arbitrary or symmetric, often with a zero
    leading minor: a zero top-left entry, or the first j + 1 entries of row
    j a multiple of another row's, which leaves the rest free."""
    M = draw(square_matrices | symmetric_matrices())
    k = len(M)
    if k and draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        if j == 0:
            M[0, 0] = 0
        else:
            i = draw(st.integers(0, j - 1))
            M[j, : j + 1] = draw(st.integers(-2, 2)) * M[i, : j + 1]
    return M


@settings(deadline=None, max_examples=300)
@given(eliminated_matrices())
def test_one_elimination_gives_det_minors_and_definiteness(M):
    k = len(M)
    leading = [fraction_det(M[:j, :j]) for j in range(1, k + 1)]
    cut = next((j + 1 for j, minor in enumerate(leading) if minor == 0), k)
    minors, d = minors_and_det(M)
    assert d == fraction_det(M) == det(M)
    assert minors == leading[:cut]
    symmetric = bool((M == M.T).all())
    witness = definiteness_witness(M)
    assert (witness == "") == (symmetric and all(minor > 0 for minor in leading))
    if symmetric and witness:
        j = next(j for j, minor in enumerate(leading) if minor <= 0)
        assert witness == f"leading minor {j + 1} = {leading[j]}"
    assert definiteness_witness(M, minors=minors) == witness


@settings(deadline=None)
@given(symmetric_matrices())
def test_definite_iff_every_leading_minor_is_positive(M):
    definite = all(fraction_det(M[:j, :j]) > 0 for j in range(1, len(M) + 1))
    assert (definiteness_witness(M) == "") == definite


def test_explicit_minors_and_definiteness():
    ones = np.array([[1, 1], [1, 1]], dtype=object)
    assert minors_and_det(ones) == ([1, 0], 0)
    assert definiteness_witness(ones) == "leading minor 2 = 0"

    swap = np.array([[0, 1], [1, 0]], dtype=object)
    assert minors_and_det(swap) == ([0], -1)
    assert minors_and_det(swap.tolist()) == ([0], -1)
    assert definiteness_witness(swap) == "leading minor 1 = 0"

    empty = np.zeros((0, 0), dtype=object)
    assert minors_and_det(empty) == ([], 1)
    assert det(empty) == 1
    assert definiteness_witness(empty) == ""

    skew = np.array([[2, 1], [0, 2]], dtype=object)
    assert minors_and_det(skew) == ([2, 4], 4)
    assert definiteness_witness(skew) == "not symmetric at (0, 1)"


def test_inputs_are_left_untouched():
    M = np.array([[4, 2, 1], [2, 5, 3], [1, 3, 6]], dtype=object)
    M.flags.writeable = False
    before = M.copy()
    assert det(M) == 67
    assert minors_and_det(M) == ([4, 16, 67], 67)
    assert definiteness_witness(M) == ""
    assert (M == before).all()


@pytest.mark.parametrize(
    "M",
    [
        np.array([[1, 2, 3], [4, 5, 6]], dtype=object),
        np.array([[1], [2]], dtype=object),
        np.array([1, 2], dtype=object),
    ],
)
def test_non_square_matrices_are_refused(M):
    for fn in (det, minors_and_det, definiteness_witness):
        with pytest.raises(ShapeMismatch):
            fn(M)


@st.composite
def integer_matrices(draw) -> np.ndarray:
    """r x c integer matrices, r, c <= 6: arbitrary ones, diagonal ones
    (whose entries rarely divide each other, so the pivot must be fixed up),
    products B C of rank at most m (singular when m < min(r, c)) and zero
    ones."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["any", "diagonal", "low rank", "zero"]))
    if kind == "any":
        return draw(matrices(r, c))
    M = np.zeros((r, c), dtype=object)
    small = st.integers(-6, 6)
    if kind == "diagonal":
        for i in range(min(r, c)):
            M[i, i] = draw(small)
    if kind != "low rank":
        return M
    m = draw(st.integers(0, min(r, c)))
    B = np.array(draw(st.lists(small, min_size=r * m, max_size=r * m)), dtype=object).reshape(r, m)
    C = np.array(draw(st.lists(small, min_size=m * c, max_size=m * c)), dtype=object).reshape(m, c)
    return B @ C


@settings(deadline=None)
@given(integer_matrices())
def test_snf_certificate_and_factors_match_minor_gcds(M):
    r, c = M.shape
    factors, U, V = smith_normal_form(M)
    D = np.zeros((r, c), dtype=object)
    D[range(len(factors)), range(len(factors))] = factors
    assert (U @ M @ V == D).all()
    assert abs(fraction_det(U)) == 1 and abs(fraction_det(V)) == 1
    assert all(d >= 0 for d in factors)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(factors, factors[1:]))
    # d_1 ... d_i is the gcd of the i x i minors (0 when all of them vanish).
    for i in range(1, len(factors) + 1):
        minors = (
            fraction_det(M[np.ix_(rows, cols)])
            for rows in combinations(range(r), i)
            for cols in combinations(range(c), i)
        )
        assert prod(factors[:i]) == gcd(*minors)


@pytest.mark.parametrize(
    "M",
    [
        np.array([1, 2], dtype=object),
        np.array(3, dtype=object),
        np.zeros((2, 2, 2), dtype=object),
    ],
)
def test_snf_refuses_anything_but_a_matrix(M):
    with pytest.raises(ShapeMismatch):
        smith_normal_form(M)
