import os
import random
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verkit
from verkit.charring import SymChar, dim_at_one, frobenius_twist, inner, mul, weyl_char, weyl_expand
from verkit.digits import descendants
from verkit.errors import (
    InvalidCategory,
    NegativeLeadingCoefficient,
    OutOfRange,
    VerkitError,
)
from verkit.tilting import (
    TiltingSum,
    _weyl_row,
    chebyshev_s,
    decompose_tilting,
    hom_dim,
    invariant_dims,
    series_fn,
    tensor_decompose,
    tilting_char,
    truncate,
)


def test_tilting_char_base_cases():
    assert tilting_char(3, 3).coeffs == {3: 1, 1: 2, -1: 2, -3: 1}
    assert tilting_char(3, 5) == weyl_char(5)
    assert weyl_expand(tilting_char(5, 10)) == {10: 1, 8: 1}
    assert dim_at_one(tilting_char(5, 10)) == 20


def test_base_case_recursion_overlap():
    # For p-1 <= m <= 2p-2 the closed form and the recursion with b=0 agree.
    for p in (2, 3, 5, 7):
        for m in range(p - 1, 2 * p - 1):
            r = m % p
            a = p - 1 if r == p - 1 else p + r
            assert a == m
            rec = mul(tilting_char(p, a), frobenius_twist(tilting_char(p, 0), p))
            assert rec == tilting_char(p, m)


def test_decompose_examples():
    assert decompose_tilting(3, mul(tilting_char(3, 1), tilting_char(3, 1))).mults == {2: 1, 0: 1}
    for p in (3, 5, 7):
        got = decompose_tilting(p, mul(tilting_char(p, 1), tilting_char(p, p - 1)))
        assert got.mults == {p: 1}
    assert tensor_decompose(5, 2, 2).mults == {4: 1, 2: 1, 0: 1}


def test_decompose_round_trip():
    rng = random.Random(4)
    for p in (2, 3, 5):
        for _ in range(30):
            mults = {rng.randrange(0, 20): rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))}
            s = TiltingSum(mults)
            assert decompose_tilting(p, s.character(p)) == s


def test_decompose_rejects_non_tilting():
    with pytest.raises(NegativeLeadingCoefficient):
        decompose_tilting(3, weyl_char(3))  # W_3 alone is not tilting at p=3


def test_tensor_examples():
    assert tensor_decompose(3, 1, 1).mults == {2: 1, 0: 1}
    assert tensor_decompose(3, 1, 2).mults == {3: 1}
    for i in range(3):
        assert tensor_decompose(3, i, 10 - i).mults.get(10) == 1


def test_appears_once_at_special_weights():
    # T_m for m = pr + p - 2 appears in T_i (x) T_k iff k = m - i, once.
    for p, m in ((3, 10), (5, 8), (3, 4)):
        assert m % p == p - 2
        for i in range(p):
            for k in range(m + p):
                mult = tensor_decompose(p, i, k).mults.get(m, 0)
                assert mult == (1 if k == m - i else 0), (p, m, i, k)


def test_truncate():
    assert truncate(3, 1, TiltingSum({2: 1, 0: 1})).mults == {0: 1}
    assert truncate(3, 2, TiltingSum({4: 1, 3: 2})).mults == {4: 1, 3: 2}
    assert truncate(2, 2, TiltingSum({3: 5, 1: 1})).mults == {1: 1}


def test_weyl_support_matches_descendants():
    # Weyl factors of T_m are exactly the descendants of m+1, shifted by one.
    for p, n in ((3, 2), (3, 3), (5, 2), (2, 4)):
        for m in range(p ** (n - 1) - 1, p**n - 1):
            expansion = weyl_expand(tilting_char(p, m))
            assert set(expansion.values()) == {1}
            assert {j + 1 for j in expansion} == descendants(m + 1, p, n)


def test_hom_dim():
    assert hom_dim(3, 0, 0) == 1
    assert hom_dim(3, 4, 6) == 1
    assert hom_dim(3, 16, 16) == 4
    for p in (3, 5):
        for i in range(8):
            for j in range(8):
                assert hom_dim(p, i, j) == hom_dim(p, j, i)
            assert hom_dim(p, i, i) >= 1


def test_hom_dim_from_weyl_rows_equals_the_inner_product_of_characters():
    rng = random.Random(25)
    for _ in range(400):
        p, i, j = rng.choice((2, 3, 5, 7)), rng.randrange(300), rng.randrange(300)
        assert hom_dim(p, i, j) == inner(tilting_char(p, i), tilting_char(p, j)), (p, i, j)
    assert hom_dim(3, 2185, 2183) == inner(tilting_char(3, 2185), tilting_char(3, 2183))
    for call in (lambda: hom_dim(3, -1, 2), lambda: hom_dim(3, 2, -1)):
        with pytest.raises(OutOfRange):
            call()


def test_invariant_dims_small():
    assert invariant_dims(3, 1, 8) == [1] * 9
    assert invariant_dims(3, 2, 4)[:3] == [1, 1, 2]
    assert invariant_dims(2, 1, 5) == [1, 0, 0, 0, 0, 0]
    assert invariant_dims(2, 2, 6) == [1, 1, 2, 4, 8, 16, 32]


def test_series_examples():
    assert series_fn(2, 1, 6) == [1, 0, 0, 0, 0, 0, 0]
    assert series_fn(2, 2, 8) == [1] + [2 ** max(m - 1, 0) for m in range(1, 9)]
    assert series_fn(3, 2, 2)[2] == 2


def test_series_matches_tensor_route():
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)):
        assert invariant_dims(p, n, 10) == series_fn(p, n, 10), (p, n)


def full_division_series(p: int, n: int, M: int) -> list[int]:
    """series_fn by long division of the full polynomials S_(p^n-2), S_(p^n-1)."""
    num = [0] + chebyshev_s(p**n - 2)
    rnum, rden = num[::-1], chebyshev_s(p**n - 1)[::-1]
    series = [0] * (2 * M + 1)
    for k in range(2 * M + 1):
        c = rnum[k] if k < len(rnum) else 0
        for j in range(1, min(k, len(rden) - 1) + 1):
            c -= rden[j] * series[k - j]
        series[k] = c
    assert not any(series[1::2])
    return series[::2]


PRIME_POWERS_TO_343 = [
    (p, n)
    for p in range(2, 344)
    if all(p % d for d in range(2, p))
    for n in range(1, 9)
    if p**n <= 343
]


@pytest.mark.parametrize("p, n", PRIME_POWERS_TO_343)
def test_series_equals_the_full_polynomial_division(p, n):
    full = full_division_series(p, n, 24)
    for M in range(25):
        assert series_fn(p, n, M) == full[: M + 1], (p, n, M)


@pytest.mark.parametrize("p, n", [(2, 11), (3, 7)])
def test_series_matches_tensor_route_at_the_frontier(p, n):
    assert series_fn(p, n, 12) == invariant_dims(p, n, 12)


@settings(deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.dictionaries(st.integers(0, 80), st.integers(1, 4), max_size=4),
)
def test_decompose_recovers_any_tilting_sum(p, mults):
    s = TiltingSum(mults)
    assert decompose_tilting(p, s.character(p)) == s


# Every (p, top) with an odd or even prime p and top = p^n - 1 <= 342: the
# tilting indices of the categories Ver_{p^n} with p^n <= 343.
TOPS = [
    (p, p**n - 1)
    for p in range(2, 344)
    if all(p % d for d in range(2, p))
    for n in range(1, 9)
    if p**n <= 343
]


@lru_cache(maxsize=None)
def oracle_tilting_char(p: int, m: int) -> SymChar:
    """Donkin's recursion on dict characters, independent of the Weyl-row memo."""
    if m <= p - 1:
        return weyl_char(m)
    if m <= 2 * p - 2:
        return weyl_char(m) + weyl_char(2 * p - 2 - m)
    r = m % p
    a = p - 1 if r == p - 1 else p + r
    b = (m - a) // p
    return mul(oracle_tilting_char(p, a), frobenius_twist(oracle_tilting_char(p, b), p))


def oracle_decompose(p: int, a: SymChar) -> dict[int, int]:
    """Greedy from the top weight on dict characters."""
    mults = {}
    rest = a
    while rest:
        m = max(rest.coeffs)
        c = rest.coeffs[m]
        assert c > 0, (m, c)
        mults[m] = c
        rest = rest - c * oracle_tilting_char(p, m)
    return mults


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(TOPS), st.data())
def test_dense_tensor_decompose_matches_dict_oracle(ptop, data):
    p, top = ptop
    i = data.draw(st.integers(0, top - 1))
    j = data.draw(st.integers(0, top - 1))
    assert tilting_char(p, i) == oracle_tilting_char(p, i)
    want = oracle_decompose(p, mul(oracle_tilting_char(p, i), oracle_tilting_char(p, j)))
    assert tensor_decompose(p, i, j).mults == want
    assert decompose_tilting(p, mul(tilting_char(p, i), tilting_char(p, j))).mults == want


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.dictionaries(st.integers(0, 120), st.integers(1, 6), max_size=6),
)
def test_dense_decompose_tilting_matches_dict_oracle(p, mults):
    char = SymChar({})
    for m, c in mults.items():
        char = char + c * oracle_tilting_char(p, m)
    got = decompose_tilting(p, char)
    assert got.mults == oracle_decompose(p, char) == mults


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.data())
def test_weyl_row_matches_the_weyl_expansion_of_the_dict_oracle(p, data):
    m = data.draw(st.integers(0, 2 * p**3 - 1))
    row = _weyl_row(p, m)
    assert row[0] == (0, 1)
    assert {m - 2 * k: c for k, c in row} == weyl_expand(oracle_tilting_char(p, m))


# The acceptance set of tests/test_acceptance.py, and Ver_343.
ORACLE_PN = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)]


@pytest.mark.parametrize("p, n", ORACLE_PN)
def test_weyl_rows_and_tilting_chars_match_the_dict_oracle_exhaustively(p, n):
    # Every index below 2 p^n, past the top tilting index of Ver_{p^n}; SL2
    # tilting modules have Weyl multiplicities 0 or 1.
    for m in range(2 * p**n):
        want = oracle_tilting_char(p, m)
        row = _weyl_row(p, m)
        assert {m - 2 * k: c for k, c in row} == weyl_expand(want), (p, m)
        assert {c for _, c in row} == {1}, (p, m)
        assert tilting_char(p, m) == want, (p, m)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([pt for pt in TOPS if pt[1] >= 2]), st.data())
def test_tensor_decompose_matches_dict_oracle_past_the_truncation(ptop, data):
    # i + j >= p^n - 1: the product has summands T_m with m >= p^n - 1,
    # the ones `truncate` drops.
    p, top = ptop
    i = data.draw(st.integers(1, top - 1))
    j = data.draw(st.integers(top - i, top - 1))
    want = oracle_decompose(p, mul(oracle_tilting_char(p, i), oracle_tilting_char(p, j)))
    assert max(want) >= top
    assert tensor_decompose(p, i, j).mults == want


def test_decompose_rejects_asymmetric_character():
    with pytest.raises(NegativeLeadingCoefficient):
        decompose_tilting(3, SymChar({1: 1}))
    with pytest.raises(NegativeLeadingCoefficient):
        decompose_tilting(3, SymChar({-2: 1}))


def test_int64_guard_raises_before_overflow():
    # The tilting decomposition works on Python integers and is exact past 2^63.
    assert decompose_tilting(3, SymChar({0: 2**63})).mults == {0: 2**63}
    assert decompose_tilting(3, 2**62 * tilting_char(3, 2)).mults == {2: 2**62}
    # T_3 = W_3 + W_1 at p = 3, so 2^62 W_3 leaves -2^62 W_1.
    with pytest.raises(NegativeLeadingCoefficient):
        decompose_tilting(3, 2**62 * weyl_char(3))


def test_int64_guard_raises_under_python_O():
    code = (
        "from verkit.charring import SymChar, weyl_char\n"
        "from verkit.errors import NegativeLeadingCoefficient\n"
        "from verkit.tilting import decompose_tilting, tilting_char\n"
        "if decompose_tilting(3, SymChar({0: 2**63})).mults != {0: 2**63}:\n"
        "    raise SystemExit('2^63 T_0 not recovered')\n"
        "if decompose_tilting(3, 2**62 * tilting_char(3, 2)).mults != {2: 2**62}:\n"
        "    raise SystemExit('2^62 T_2 not recovered')\n"
        "try:\n"
        "    decompose_tilting(3, 2**62 * weyl_char(3))\n"
        "except NegativeLeadingCoefficient:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no NegativeLeadingCoefficient')\n"
    )
    src = os.path.dirname(os.path.dirname(verkit.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    cmd = [sys.executable, "-O", "-c", code]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr + done.stdout


def test_range_errors_are_verkit_errors():
    for call in (
        lambda: weyl_char(-1),
        lambda: tilting_char(3, -1),
        lambda: tensor_decompose(3, -1, 2),
        lambda: TiltingSum({1: -1}),
    ):
        with pytest.raises(OutOfRange) as info:
            call()
        assert isinstance(info.value, VerkitError) and isinstance(info.value, ValueError)


def test_tilting_characters_refuse_a_p_that_is_not_prime():
    # At p = 1 the recursion never reached a base case and at p = 0 it
    # divided by zero; p = 4 and 6 name no category either.
    for call in (
        lambda: tilting_char(1, 5),
        lambda: tilting_char(0, 5),
        lambda: tilting_char(4, 9),
        lambda: tensor_decompose(6, 3, 4),
        lambda: hom_dim(9, 2, 2),
        lambda: invariant_dims(3, 0, 3),
        lambda: series_fn(3, 0, 3),
        lambda: series_fn(3, -1, 3),
        lambda: series_fn(4, 2, 3),
        lambda: series_fn(1, 2, 3),
    ):
        with pytest.raises(InvalidCategory):
            call()


def test_series_refuse_a_negative_depth():
    # invariant_dims returned [1] and series_fn [] for M < 0.
    for call in (lambda: invariant_dims(3, 2, -1), lambda: series_fn(3, 2, -1)):
        with pytest.raises(OutOfRange):
            call()
    assert invariant_dims(3, 2, 0) == series_fn(3, 2, 0) == [1]
