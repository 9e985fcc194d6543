import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verkit.digits import (
    block_key,
    block_partition,
    cartan_descendant,
    cartan_kronecker,
    decomposition_matrix,
    descendants,
    ext1,
    ext1_edges,
    extended_decomposition_row,
    frobenius_on_simple,
    projective_range,
    simple_of_projective,
    simple_range,
    steinberg_label,
)
from verkit.errors import OutOfRange, UnsupportedPrime

# Every category Ver_{p^n} with p^n <= 343; the property tests draw from it.
CATEGORIES = [
    (p, n)
    for p in range(2, 344)
    if all(p % d for d in range(2, p))
    for n in range(1, 9)
    if p**n <= 343
]


def test_descendants_examples():
    assert descendants(7, 3, 2) == {7, 5}
    assert descendants(6, 3, 2) == {6}
    assert descendants(17, 3, 3) == {17, 13, 5, 1}


def test_descendants_count_and_range():
    for p, n in ((3, 3), (5, 2), (2, 5)):
        for a in range(p ** (n - 1), p**n):
            ds = descendants(a, p, n)
            digits = []
            x = a
            while x:
                digits.append(x % p)
                x //= p
            nonzero_low = sum(1 for d in digits[: n - 1] if d)
            assert len(ds) == 2**nonzero_low
            assert all(1 <= b <= p**n - 1 for b in ds)
            assert a in ds


@pytest.mark.parametrize("label", [-1, 6, 10**6])
def test_every_simple_label_guard_refuses_alike(label):
    """The six functions that take a simple label share one guard and one
    message (`check_simple`)."""
    from verkit import cyclo
    from verkit.grring import GrElement

    calls = [
        lambda: steinberg_label(3, 2, label),
        lambda: ext1(3, 2, label, 0),
        lambda: ext1(3, 2, 0, label),
        lambda: frobenius_on_simple(3, 2, label),
        lambda: cyclo.fpdim_simple(3, 2, label),
        lambda: cyclo.dim_simple(3, 2, label),
        lambda: GrElement.basis(3, 2, label),
    ]
    for call in calls:
        with pytest.raises(OutOfRange, match=f"^simple label {label} outside range for p=3, n=2$"):
            call()


def test_descendants_rejects_leading_zero():
    with pytest.raises(OutOfRange):
        descendants(2, 3, 2)
    with pytest.raises(OutOfRange):
        descendants(9, 3, 2)


def test_decomposition_matrix_rows():
    D = decomposition_matrix(3, 2)
    rows = list(projective_range(3, 2))
    r = rows.index(6)
    assert [j for j in range(8) if D[r, j]] == [4, 6]
    D2 = decomposition_matrix(2, 2)
    assert [j for j in range(3) if D2[0, j]] == [1]
    # last row: all digits p-1, hence 2^(n-1) ones
    for p, n in ((3, 3), (2, 4), (5, 2)):
        D = decomposition_matrix(p, n)
        assert int(D[-1].sum()) == 2 ** (n - 1)


def test_decomposition_unitriangular():
    for p, n in ((3, 2), (2, 3), (5, 2)):
        D = decomposition_matrix(p, n)
        for r, i in enumerate(projective_range(p, n)):
            assert D[r, i] == 1
            assert all(D[r, j] == 0 for j in range(i + 1, p**n - 1))


def test_extended_row_agrees_with_descendants():
    for p, n in ((3, 2), (3, 3), (5, 2), (2, 4)):
        D = decomposition_matrix(p, n)
        for r, i in enumerate(projective_range(p, n)):
            row = extended_decomposition_row(p, n, i)
            assert row == {j: int(D[r, j]) for j in range(p**n - 1) if D[r, j]}


def test_extended_row_small_indices():
    assert extended_decomposition_row(3, 2, 3) == {3: 1, 1: 1}
    for i in range(3):
        assert extended_decomposition_row(3, 2, i) == {i: 1}
    assert extended_decomposition_row(5, 2, 10) == {10: 1, 8: 1}


def test_cartan_routes_agree():
    for p, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)):
        C = cartan_descendant(p, n)
        assert (C == cartan_kronecker(p, n)).all(), (p, n)
        assert (C == C.T).all()


def test_cartan_32_block_shape():
    C = cartan_descendant(3, 2)
    expected = np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 2, 0, 0, 0, 1],
            [0, 0, 2, 0, 1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 2, 0],
            [0, 1, 0, 0, 0, 2],
        ],
        dtype=object,
    )
    assert (C == expected).all()


def test_cartan_22_diag():
    assert (cartan_descendant(2, 2) == np.array([[1, 0], [0, 2]], dtype=object)).all()


def test_cartan_p2_block_structure():
    # C_{n,2} splits as (even part) + (previous level) on the parity blocks.
    for n in (2, 3, 4):
        C = cartan_descendant(2, n)
        rows = list(projective_range(2, n))
        odd = [k for k, i in enumerate(rows) if i % 2 == 1]
        even = [k for k, i in enumerate(rows) if i % 2 == 0]
        assert (C[np.ix_(odd, even)] == 0).all()
        prev = cartan_descendant(2, n - 1)
        # The odd-index part realizes the level n-1 Cartan: T_{2i+1} <-> T_i.
        odd_sorted = sorted(odd, key=lambda k: rows[k])
        sub = C[np.ix_(odd_sorted, odd_sorted)]
        assert (sub == prev).all()


def test_unit_diagonal_entry():
    for p, n in ((3, 2), (3, 3), (5, 2), (2, 4), (7, 2)):
        C = cartan_descendant(p, n)
        rows = list(projective_range(p, n))
        u = rows.index(steinberg_label(p, n, 0))
        assert int(C[u, u]) == 2 ** (n - 1)


def test_blocks_32():
    blocks = block_partition(3, 2)
    assert sorted(map(tuple, blocks)) == [(2,), (3, 7), (4, 6), (5,)]


def test_blocks_33_sizes():
    sizes = sorted(len(b) for b in block_partition(3, 3))
    assert sizes == [1, 1, 2, 2, 6, 6]


def test_blocks_22():
    assert sorted(map(tuple, block_partition(2, 2))) == [(1,), (2,)]


def test_block_count_and_sizes():
    for p, n in ((2, 5), (3, 3), (5, 2), (7, 2), (3, 4)):
        blocks = block_partition(p, n)
        assert len(blocks) == n * (p - 1)
        expected = sorted(
            ([1] * (p - 1)) + [p ** (m - 1) * (p - 1) for m in range(1, n) for _ in range(p - 1)]
        )
        assert sorted(len(b) for b in blocks) == expected


def test_cartan_support_within_blocks():
    for p, n in ((3, 3), (5, 2), (2, 4)):
        C = cartan_descendant(p, n)
        rows = list(projective_range(p, n))
        for a, i in enumerate(rows):
            for b, j in enumerate(rows):
                if C[a, b]:
                    assert block_key(p, n, i) == block_key(p, n, j)


def test_steinberg_examples():
    assert steinberg_label(3, 2, 0) == 4
    assert steinberg_label(3, 3, 0) == 16
    for n in (2, 3, 4):
        for i in simple_range(2, n):
            assert steinberg_label(2, n, i) == 2**n - 2 - i


def test_steinberg_bijection():
    for p, n in ((3, 2), (3, 3), (5, 2), (2, 4), (7, 2)):
        for i in simple_range(p, n):
            assert simple_of_projective(p, n, steinberg_label(p, n, i)) == i
        for s in projective_range(p, n):
            assert steinberg_label(p, n, simple_of_projective(p, n, s)) == s


def test_steinberg_out_of_range():
    with pytest.raises(OutOfRange):
        steinberg_label(3, 2, 6)
    with pytest.raises(OutOfRange):
        simple_of_projective(3, 2, 1)


def test_covers_compat():
    for p, n in ((3, 2), (3, 3), (5, 2), (2, 3), (7, 2)):
        if n < 2:
            continue
        for i in simple_range(p, n - 1):
            assert steinberg_label(p, n, p * i) == 2 * p - 2 + p * steinberg_label(p, n - 1, i)


def test_ext1_examples():
    assert ext1(3, 2, 0, 4) == 1
    assert ext1(3, 2, 1, 3) == 1
    for a in simple_range(3, 2):
        assert ext1(3, 2, a, a) == 0


def test_ext1_n2_closed_form():
    # At n=2 extensions pair kp+c-1 with kp-c-1 and with (k+2)p-c-1.
    for p in (3, 5, 7):
        expected = set()
        for k in range(p - 1):
            for c in range(1, p):
                for other in (k * p - c - 1, (k + 2) * p - c - 1):
                    a = k * p + c - 1
                    if 0 <= a < p * (p - 1) and 0 <= other < p * (p - 1):
                        expected.add(frozenset((a, other)))
        got = {
            frozenset((a, b))
            for a in simple_range(p, 2)
            for b in simple_range(p, 2)
            if a != b and ext1(p, 2, a, b)
        }
        assert got == {e for e in expected if len(e) == 2}


def test_ext1_symmetry_and_p2():
    for a in simple_range(3, 3):
        for b in simple_range(3, 3):
            assert ext1(3, 3, a, b) == ext1(3, 3, b, a)
    with pytest.raises(UnsupportedPrime):
        ext1(2, 2, 0, 1)


def test_frobenius_examples():
    assert frobenius_on_simple(3, 2, 0) == (0, 0)
    assert frobenius_on_simple(3, 2, 5) is None
    assert frobenius_on_simple(3, 2, 3) == (1, 0)
    with pytest.raises(UnsupportedPrime):
        frobenius_on_simple(2, 3, 0)


def test_frobenius_image_ranges():
    for p, n in ((3, 2), (3, 3), (5, 2)):
        for i in simple_range(p, n):
            out = frobenius_on_simple(p, n, i)
            if out is None:
                continue
            lower, base = out
            assert lower in simple_range(p, n - 1)
            assert 0 <= base <= p - 2


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(CATEGORIES))
def test_cartan_routes_agree_on_random_categories(pn):
    assert (cartan_kronecker(*pn) == cartan_descendant(*pn)).all(), pn


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(CATEGORIES))
def test_steinberg_bijection_on_random_categories(pn):
    p, n = pn
    covers = [steinberg_label(p, n, i) for i in simple_range(p, n)]
    assert sorted(covers) == list(projective_range(p, n))
    assert [simple_of_projective(p, n, s) for s in covers] == list(simple_range(p, n))


def test_ext1_edges_equal_scalar_rule_on_every_odd_category():
    for p, n in CATEGORIES:
        if p == 2:
            continue
        k = p ** (n - 1) * (p - 1)
        scalar = tuple((a, b) for a in range(k) for b in range(a + 1, k) if ext1(p, n, a, b))
        assert ext1_edges(p, n) == scalar, (p, n)
    with pytest.raises(UnsupportedPrime):
        ext1_edges(2, 3)
