import random
from functools import lru_cache
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verkit import catalog
from verkit.cyclo import context, dim_simple, fpdim_simple
from verkit.digits import projective_range, simple_of_projective, simple_range
from verkit.errors import (
    InvalidCategory,
    NegativeLeadingCoefficient,
    OutOfRange,
    ShapeMismatch,
    UnsupportedPrime,
)
from verkit.grring import (
    GrElement,
    _product,
    _times_v,
    base_fusion,
    check_ring_hom_fusion,
    fold_projectives,
    fuse_simples,
    projective_class,
    tilting_class,
)

SMALL = [(3, 2), (5, 2), (2, 2), (2, 3), (3, 3), (2, 4), (7, 2)]
# Every category Ver_{p^n} with p^n <= 343; the property tests draw from it.
CATEGORIES = [
    (p, n)
    for p in range(2, 344)
    if all(p % d for d in range(2, p))
    for n in range(1, 9)
    if p**n <= 343
]


def lift(v: GrElement) -> GrElement:
    """Image of a class under the inclusion one level up: label j -> j*p."""
    p, n = v.p, v.n + 1
    out = [0] * (p ** (n - 1) * (p - 1))
    for j, c in enumerate(v.coeffs):
        out[j * p] = c
    return GrElement(p, n, out)


def draw_labels(data, p: int, n: int, count: int) -> list[int]:
    label = st.integers(0, p ** (n - 1) * (p - 1) - 1)
    return [data.draw(label) for _ in range(count)]


def vec(e: GrElement) -> list[int]:
    return list(e.coeffs)


def l1_induction_oracle(p: int):
    """Multiplication matrices built only from the L_1 rule and recursion."""
    k = p - 1
    m1 = np.zeros((k, k), dtype=object)
    for m in range(k):
        if m - 1 >= 0:
            m1[m - 1, m] = 1
        if m + 1 < k:
            m1[m + 1, m] = 1
    mats = [np.eye(k, dtype=object), m1]
    for _ in range(2, k):
        mats.append(np.dot(m1, mats[-1]) - mats[-2])
    return mats


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_base_fusion_against_oracle(p):
    mats = l1_induction_oracle(p)
    for i in range(p - 1):
        for j in range(p - 1):
            assert all(mats[i][k, j] in (0, 1) for k in range(p - 1))
            assert base_fusion(p, i, j) == sorted(
                k for k in range(p - 1) if mats[i][k, j]
            )


def test_base_fusion_examples():
    assert base_fusion(5, 1, 1) == [0, 2]
    assert base_fusion(5, 1, 3) == [2]
    assert base_fusion(5, 0, 3) == [3]
    assert base_fusion(2, 0, 0) == [0]
    for p in (3, 5, 7, 11):
        for j in range(p - 1):
            assert base_fusion(p, p - 2, j) == [p - 2 - j]


def test_fusion_golden_ver9():
    assert vec(fuse_simples(3, 2, 1, 1)) == [1, 0, 1, 0, 0, 0]
    assert vec(fuse_simples(3, 2, 2, 2)) == [2, 0, 1, 0, 1, 0]
    assert vec(fuse_simples(3, 2, 1, 2)) == [0, 2, 0, 1, 0, 0]
    assert vec(fuse_simples(3, 2, 0, 5)) == [0, 0, 0, 0, 0, 1]


def test_fusion_golden_ver25():
    got = vec(fuse_simples(5, 2, 2, 2))
    assert got == [1, 0, 1, 0, 1] + [0] * 15


def test_fuse_unit_and_range():
    for p, n in SMALL:
        for b in simple_range(p, n):
            assert fuse_simples(p, n, 0, b) == GrElement.basis(p, n, b)
    with pytest.raises(OutOfRange):
        fuse_simples(3, 2, 0, 6)
    with pytest.raises(ShapeMismatch):
        GrElement(3, 2, (1, 0))


def test_fusion_commutative_exhaustive_small():
    for p, n in ((3, 2), (2, 3), (2, 2)):
        for a in simple_range(p, n):
            for b in simple_range(p, n):
                assert fuse_simples(p, n, a, b) == fuse_simples(p, n, b, a)


def test_fusion_associative_sampled():
    rng = random.Random(5)
    for p, n in SMALL:
        top = p ** (n - 1) * (p - 1)
        for _ in range(25):
            a, b, c = (rng.randrange(top) for _ in range(3))
            ea, eb, ec = (GrElement.basis(p, n, x) for x in (a, b, c))
            assert (ea * eb) * ec == ea * (eb * ec), (p, n, a, b, c)


def test_fusion_effective_and_parity():
    rng = random.Random(6)
    for p, n in SMALL:
        top = p ** (n - 1) * (p - 1)
        for _ in range(40):
            a, b = rng.randrange(top), rng.randrange(top)
            prod = fuse_simples(p, n, a, b)
            assert prod.is_effective()
            assert all((c - a - b) % 2 == 0 for c in prod.support())


def test_fpdim_is_ring_hom():
    rng = random.Random(7)
    for p, n in SMALL:
        top = p ** (n - 1) * (p - 1)
        pairs = (
            [(a, b) for a in range(top) for b in range(top)]
            if top <= 8
            else [(rng.randrange(top), rng.randrange(top)) for _ in range(30)]
        )
        for a, b in pairs:
            lhs = fpdim_simple(p, n, a) * fpdim_simple(p, n, b)
            rhs = context(p, n).zero()
            for c, k in enumerate(fuse_simples(p, n, a, b).coeffs):
                if k:
                    rhs = rhs + k * fpdim_simple(p, n, c)
            assert lhs == rhs, (p, n, a, b)


def test_dim_mod_p_is_ring_hom():
    rng = random.Random(8)
    for p, n in SMALL:
        top = p ** (n - 1) * (p - 1)
        for _ in range(30):
            a, b = rng.randrange(top), rng.randrange(top)
            lhs = dim_simple(p, n, a)[0] * dim_simple(p, n, b)[0]
            rhs = sum(
                k * dim_simple(p, n, c)[0]
                for c, k in enumerate(fuse_simples(p, n, a, b).coeffs)
            )
            assert (lhs - rhs) % p == 0


def test_simple_current_involution():
    for p, n in ((3, 2), (5, 2), (3, 3), (7, 2)):
        g = p ** (n - 1) * (p - 2)
        assert fuse_simples(p, n, g, g) == GrElement.basis(p, n, 0)
        for b in simple_range(p, n):
            image = fuse_simples(p, n, g, b)
            assert sum(image.coeffs) == 1 and image.is_effective()
            (c,) = image.support()
            back = fuse_simples(p, n, g, c)
            assert back == GrElement.basis(p, n, b)


def test_parity_row_ver25():
    expected = {2: 17, 4: 19, 6: 11, 8: 13, 10: 5, 12: 7, 14: 9, 16: 1, 18: 3}
    for b, out in expected.items():
        assert fuse_simples(5, 2, 15, b) == GrElement.basis(5, 2, out)


def test_projective_class_examples():
    assert vec(projective_class(3, 2, 0)) == [2, 0, 0, 0, 1, 0]
    assert vec(projective_class(3, 2, 2)) == [0, 0, 1, 0, 0, 0]
    got = vec(projective_class(3, 3, 0))
    expected = [0] * 18
    for lab, mult in ((0, 4), (4, 2), (10, 1), (12, 2), (16, 1)):
        expected[lab] = mult
    assert got == expected


def test_tilting_class_examples():
    assert vec(tilting_class(3, 2, 3)) == [0, 2, 0, 1, 0, 0]
    assert vec(tilting_class(3, 2, 4)) == [2, 0, 0, 0, 1, 0]
    for m in range(3):
        assert tilting_class(3, 2, m) == GrElement.basis(3, 2, m)
    with pytest.raises(UnsupportedPrime):
        tilting_class(2, 2, 1)


def test_tilting_class_matches_projectives():
    for p, n in ((3, 2), (5, 2), (3, 3)):
        for s in projective_range(p, n):
            assert tilting_class(p, n, s) == projective_class(
                p, n, simple_of_projective(p, n, s)
            )


def test_lift_is_multiplicative():
    rng = random.Random(9)
    for p, n in ((3, 2), (5, 2), (3, 3)):
        top = p ** (n - 2) * (p - 1) if n >= 2 else p - 1
        for _ in range(20):
            a, b = rng.randrange(top), rng.randrange(top)
            low = fuse_simples(p, n - 1, a, b)
            assert lift(low) == lift(GrElement.basis(p, n - 1, a)) * lift(
                GrElement.basis(p, n - 1, b)
            )


def test_check_ring_hom_fusion():
    rep = check_ring_hom_fusion(3, 2, samples=64, seed=0)
    assert rep["passed"] and rep["pairs_checked"] == 64
    assert check_ring_hom_fusion(5, 2, samples=100, seed=1)["passed"]
    assert check_ring_hom_fusion(3, 3, samples=100, seed=2)["passed"]
    with pytest.raises(UnsupportedPrime):
        check_ring_hom_fusion(2, 3)


def test_fold_examples():
    s, pp, rem = fold_projectives(3, 2, fuse_simples(3, 2, 2, 2))
    assert s == {2: 1} and pp == {0: 1} and not rem
    # At p=2 the cover of the unit is not simple even though its block has
    # a single member: L1 (x) L1 = P0, class 2 L0.
    s, pp, rem = fold_projectives(2, 2, fuse_simples(2, 2, 1, 1))
    assert s == {} and pp == {0: 1} and not rem
    s, pp, rem = fold_projectives(5, 2, fuse_simples(5, 2, 8, 8))
    assert s == {0: 1, 4: 1, 10: 1, 14: 1} and pp == {2: 1, 12: 1} and not rem
    s, pp, rem = fold_projectives(3, 2, fuse_simples(3, 2, 0, 5))
    assert s == {5: 1} and not pp and not rem


def test_fold_reconstructs_and_empties_remainder_at_level_two():
    for p in (3, 5):
        for a in simple_range(p, 2):
            for b in simple_range(p, 2):
                v = fuse_simples(p, 2, a, b)
                simples, projectives, rem = fold_projectives(p, 2, v)
                assert not rem
                rebuilt = GrElement.zero(p, 2)
                for i, c in simples.items():
                    rebuilt = rebuilt + c * GrElement.basis(p, 2, i)
                for i, c in projectives.items():
                    rebuilt = rebuilt + c * projective_class(p, 2, i)
                assert rebuilt == v


def test_fold_reads_only_the_cartan_matrix_of_the_context(monkeypatch):
    from collections import Counter

    from verkit import catalog, cyclo, digits

    calls = Counter()
    for module, name in [
        (digits, "cartan_descendant_rows"),
        (cyclo, "fpdim_simple"),
        (cyclo, "fpdim_projective"),
    ]:
        def counted(*args, _orig=getattr(module, name), _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(module, name, counted)
    catalog.category.cache_clear()
    try:
        v = fuse_simples(3, 3, 2, 4)
        assert fold_projectives(3, 3, v) == fold_projectives(3, 3, v)
        assert calls == {"cartan_descendant_rows": 1}
    finally:
        catalog.category.cache_clear()


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(CATEGORIES), st.data())
def test_fusion_commutative_and_associative_on_random_categories(pn, data):
    p, n = pn
    a, b, c = draw_labels(data, p, n, 3)
    assert fuse_simples(p, n, a, b) == fuse_simples(p, n, b, a)
    ea, eb, ec = (GrElement.basis(p, n, x) for x in (a, b, c))
    assert (ea * eb) * ec == ea * (eb * ec)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(CATEGORIES), st.data())
def test_fpdim_is_multiplicative_on_random_categories(pn, data):
    p, n = pn
    a, b = draw_labels(data, p, n, 2)
    rhs = context(p, n).zero()
    for c, k in enumerate(fuse_simples(p, n, a, b).coeffs):
        if k:
            rhs = rhs + k * fpdim_simple(p, n, c)
    assert fpdim_simple(p, n, a) * fpdim_simple(p, n, b) == rhs


def test_operands_of_another_category_are_refused():
    a = GrElement.basis(3, 2, 1)
    b = GrElement.basis(7, 1, 1)
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: b * a,
        lambda: b + a,
    ):
        with pytest.raises(ShapeMismatch) as info:
            op()
        assert "Ver_{3^2}" in str(info.value) and "Ver_{7^1}" in str(info.value)
    # An operand that is no GrElement is refused by Python; the only scalars
    # are integers (numpy ones included), so no float enters a coefficient.
    for op in (
        lambda: a * 2,
        lambda: a + 1,
        lambda: 1 + a,
        lambda: a - 1,
        lambda: 1 - a,
        lambda: 2.5 * a,
        lambda: a * 2.5,
        lambda: np.float64(2.5) * a,
    ):
        with pytest.raises(TypeError):
            op()
    for scalar in (2, np.int64(2), True):
        doubled = scalar * a
        assert doubled == GrElement(3, 2, [0, int(scalar), 0, 0, 0, 0])
        assert all(type(c) is int for c in doubled.coeffs)


def test_fold_refuses_non_effective_class():
    v = GrElement.basis(3, 2, 0) - GrElement.basis(3, 2, 1)
    with pytest.raises(NegativeLeadingCoefficient):
        fold_projectives(3, 2, v)


@lru_cache(maxsize=None)
def recursive_tilting_class(p: int, n: int, m: int) -> GrElement:
    """[T_m] by the recursion on labels, one call per factor, no table."""
    if m <= p - 1:
        return GrElement.basis(p, n, m)
    if m <= 2 * p - 2:
        return 2 * GrElement.basis(p, n, 2 * p - 2 - m) + GrElement.basis(p, n, m)
    r = m % p
    a = p - 1 if r == p - 1 else p + r
    b = (m - a) // p
    return recursive_tilting_class(p, n, a) * lift(recursive_tilting_class(p, n - 1, b))


ODD_UP_TO_125 = [(p, n) for p, n in CATEGORIES if p > 2 and p**n <= 125]


@pytest.mark.parametrize("p, n", ODD_UP_TO_125)
def test_class_table_matches_recursive_definition(p, n):
    table = catalog.category(p, n).tilting_classes
    assert len(table) == p**n - 1
    for m in range(p**n - 1):
        assert tilting_class(p, n, m) == recursive_tilting_class(p, n, m), (p, n, m)
        expected = recursive_tilting_class(p, n, m).coeffs
        assert table[m] == {k: c for k, c in enumerate(expected) if c}, (p, n, m)


def test_cold_check_fills_each_level_table_once(monkeypatch):
    from verkit import grring

    p, n = 7, 3
    products = []
    original = grring._product
    depth = 0

    def counted(p, n, x, y):
        # `_product` recurses through the module name: count outermost calls.
        nonlocal depth
        if not depth:
            products.append((p, n))
        depth += 1
        try:
            return original(p, n, x, y)
        finally:
            depth -= 1

    monkeypatch.setattr(grring, "_product", counted)
    catalog.category.cache_clear()
    try:
        first = check_ring_hom_fusion(p, n, samples=100, seed=0)
        assert first["passed"]
        table_fill = len(products) - first["pairs_checked"]
        assert table_fill <= sum(p**l - 1 for l in range(1, n + 1))
        before = len(products)
        again = check_ring_hom_fusion(p, n, samples=100, seed=1)
        assert again["passed"]
        # A warm check reads the tables: one product per pair, no refill.
        assert len(products) - before == again["pairs_checked"]
    finally:
        catalog.category.cache_clear()


def test_corrupted_class_table_fails_the_check():
    catalog.category.cache_clear()
    try:
        ctx = catalog.category(3, 2)
        bad = list(ctx.tilting_classes)
        row = dict(bad[4])
        row[0] = row.get(0, 0) + 1
        bad[4] = MappingProxyType(row)
        ctx.__dict__["tilting_classes"] = tuple(bad)
        rep = check_ring_hom_fusion(3, 2, samples=64)
        assert not rep["passed"]
        i, j = rep["counterexample"]
        assert 0 <= i < 8 and 0 <= j < 8
        check = {c.name: c for c in catalog.verify_all(3, 2).checks}["fusion_consistency"]
        assert not check.passed and check.witness == f"pair {rep['counterexample']}"
    finally:
        catalog.category.cache_clear()
    assert check_ring_hom_fusion(3, 2, samples=64)["passed"]


def test_tilting_class_refuses_a_p_that_is_not_prime():
    for p, n, m in ((4, 2, 9), (1, 3, 0), (9, 1, 2)):
        with pytest.raises(InvalidCategory):
            tilting_class(p, n, m)


@lru_cache(maxsize=None)
def reference_fuse(p: int, n: int, a: int, b: int) -> tuple[int, ...]:
    """L_a L_b label pair by label pair, memoised, with V applied separately.

    An independent reference for the sparse product: the same digit rule,
    written over dense coefficient vectors of basis pairs.
    """
    size = p ** (n - 1) * (p - 1)
    out = [0] * size
    if n == 1:
        for k in base_fusion(p, a, b):
            out[k] = 1
        return tuple(out)
    ap, m = divmod(a, p)
    bp, r = divmod(b, p)
    w = reference_fuse(p, n - 1, ap, bp)
    if m + r < p:
        low = {k: 1 for k in range(abs(m - r), m + r + 1, 2)}
    else:
        low = {k: 1 for k in range(abs(m - r), 2 * (p - 2) - m - r + 1, 2)}
        start = 2 * (p - 1) - m - r
        for k in range(start, p):
            if (m + r - k) % 2 == 0:
                low[k] = 2 - (k == p - 1)
    for j, cj in enumerate(w):
        if cj:
            for k, ck in low.items():
                out[j * p + k] += cj * ck
    if m + r >= p:
        wv = reference_mul_by_v(p, n - 1, w)
        for j, cj in enumerate(wv):
            if cj:
                for k in range(p, m + r + 1):
                    if (m + r - k) % 2 == 0:
                        out[j * p + k - p] += cj
    return tuple(out)


def reference_mul_by_v(p: int, n: int, w: tuple[int, ...]) -> tuple[int, ...]:
    """w times the class of V (label 1); V of Ver_2 is zero."""
    if p == 2 and n == 1:
        return (0,) * len(w)
    out = [0] * len(w)
    for j, cj in enumerate(w):
        if cj:
            for k, ck in enumerate(reference_fuse(p, n, 1, j)):
                if ck:
                    out[k] += cj * ck
    return tuple(out)


def sparse(dense) -> dict[int, int]:
    return {k: c for k, c in enumerate(dense) if c}


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(CATEGORIES), st.data())
def test_times_v_equals_the_reference(pn, data):
    p, n = pn
    size = p ** (n - 1) * (p - 1)
    w = data.draw(st.dictionaries(st.integers(0, size - 1), st.integers(-4, 4), max_size=6))
    dense = tuple(w.get(i, 0) for i in range(size))
    assert _times_v(p, n, w) == sparse(reference_mul_by_v(p, n, dense))


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 4), (3, 1), (11, 1), (3, 3), (5, 2)])
def test_times_v_on_every_basis_vector(p, n):
    # V of Ver_2 is zero; at p = 2 one level up, V carries into nothing.
    size = p ** (n - 1) * (p - 1)
    for i in range(size):
        dense = tuple(int(k == i) for k in range(size))
        assert _times_v(p, n, {i: 1}) == sparse(reference_mul_by_v(p, n, dense)), (p, n, i)
    if (p, n) == (2, 1):
        assert _times_v(2, 1, {0: 5}) == {}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_one_term_operands_equal_the_reference(p):
    """c L_0 and c L_1 on either side of `_product`, against the reference,
    on random y at every level up to n = 4."""
    rng = random.Random(p)
    for n in range(1, 5):
        size = p ** (n - 1) * (p - 1)
        for k in range(min(size, 2)):
            for _ in range(6):
                c = rng.choice([-3, -1, 1, 2, 5])
                y = {rng.randrange(size): rng.randint(-4, 4) for _ in range(rng.randint(1, 5))}
                expected = [0] * size
                for b, cb in y.items():
                    for t, ct in enumerate(reference_fuse(p, n, k, b)):
                        expected[t] += c * cb * ct
                assert _product(p, n, {k: c}, y) == sparse(expected), (p, n, k, c, y)
                assert _product(p, n, y, {k: c}) == sparse(expected), (p, n, k, c, y)


@lru_cache(maxsize=None)
def sparse_reference(p: int, n: int, a: int, b: int) -> tuple[tuple[int, int], ...]:
    return tuple(sparse(reference_fuse(p, n, a, b)).items())


def test_table_row_products_at_ver729_equal_the_reference():
    # n = 6 at p = 3: the longest V carry chain of the ten categories.
    p, n = 3, 6
    rows = catalog.category(p, n).tilting_classes
    rng = random.Random(20)
    for _ in range(30):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        expected: dict[int, int] = {}
        for a, ca in rows[i].items():
            for b, cb in rows[j].items():
                for c, cc in sparse_reference(p, n, a, b):
                    expected[c] = expected.get(c, 0) + ca * cb * cc
        expected = {c: cc for c, cc in expected.items() if cc}
        assert _product(p, n, rows[i], rows[j]) == expected, (i, j)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(CATEGORIES), st.data())
def test_products_equal_the_memoised_reference(pn, data):
    p, n = pn
    size = p ** (n - 1) * (p - 1)
    a, b = draw_labels(data, p, n, 2)
    assert fuse_simples(p, n, a, b).coeffs == reference_fuse(p, n, a, b)
    terms = st.dictionaries(st.integers(0, size - 1), st.integers(-4, 4), max_size=5)
    x, y = data.draw(terms), data.draw(terms)
    expected = [0] * size
    for a, ca in x.items():
        for b, cb in y.items():
            for c, cc in enumerate(reference_fuse(p, n, a, b)):
                expected[c] += ca * cb * cc
    ex, ey = (GrElement(p, n, [z.get(i, 0) for i in range(size)]) for z in (x, y))
    assert (ex * ey).coeffs == tuple(expected)


def test_products_retain_no_memory():
    """200 fresh products at Ver_343 leave (almost) nothing allocated in grring."""
    import gc
    import tracemalloc

    from verkit import grring

    p, n = 7, 3
    size = p ** (n - 1) * (p - 1)
    pairs = random.Random(11).sample(range(size * size), 200)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.take_snapshot()
        for ab in pairs:
            fuse_simples(p, n, *divmod(ab, size))
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    only_grring = [tracemalloc.Filter(True, grring.__file__)]
    diff = after.filter_traces(only_grring).compare_to(
        before.filter_traces(only_grring), "filename"
    )
    retained = sum(stat.size_diff for stat in diff)
    assert retained < 64 * 1024, f"{retained} bytes retained"
