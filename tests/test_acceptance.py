"""Acceptance suite: golden tables and exact identities, one test per criterion.

Each test prints a single summary line; run with `pytest -v` to get the
pass/fail line per criterion.  All assertions are exact except the single
numeric tolerance (1e-9) stated for the category dimension.
"""

import random
import time
from fractions import Fraction

import mpmath
import numpy as np

from verkit import cyclo, digits, grring, tilting
from verkit.catalog import cartan_character, category, expected_block_det, fpdim_category, verify_cd_eq_p
from verkit.cli import fold_text
from verkit.linalg import det, smith_normal_form

def mpf(x: Fraction) -> mpmath.mpf:
    """A numeric value of verkit as an mpf, exactly: its denominator is a power of two."""
    with mpmath.workprec(max(x.numerator.bit_length(), 1)):
        return mpmath.mpf(x.numerator) / x.denominator


PN_SET = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]
ODD_SET = [(p, n) for p, n in PN_SET if p > 2]


def _blockdiag(*blocks):
    size = sum(b.shape[0] for b in blocks)
    M = np.zeros((size, size), dtype=object)
    at = 0
    for b in blocks:
        k = b.shape[0]
        M[at : at + k, at : at + k] = b
        at += k
    return M


def test_criterion_01_golden_cartan_3_2():
    start = time.perf_counter()
    C = digits.cartan_descendant(3, 2)
    # Rows and columns in block order: (T3, T7), (T4, T6), (T2,), (T5,).
    rows = digits.projective_range(3, 2)
    order = [rows.index(s) for block in digits.block_partition(3, 2) for s in block]
    assert sorted(order) == list(range(len(C)))
    expected = _blockdiag(
        np.array([[2, 1], [1, 2]], dtype=object),
        np.array([[2, 1], [1, 2]], dtype=object),
        np.array([[1]], dtype=object),
        np.array([[1]], dtype=object),
    )
    assert (C[np.ix_(order, order)] == expected).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    print(f"criterion 1: Cartan(3,2) matches block form in {elapsed * 1000:.1f}ms")


# The printed 9x9 even-part Cartan matrix of Ver_27, rows and columns ordered
# L0, L4, L6, L10, L12, L16 (wild block), L2, L14 (finite type), L8.
CARTAN_27_EVEN = [
    [4, 2, 0, 1, 2, 1, 0, 0, 0],
    [2, 4, 2, 2, 1, 0, 0, 0, 0],
    [0, 2, 2, 1, 0, 0, 0, 0, 0],
    [1, 2, 1, 4, 2, 0, 0, 0, 0],
    [2, 1, 0, 2, 4, 2, 0, 0, 0],
    [1, 0, 0, 0, 2, 2, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 2, 1, 0],
    [0, 0, 0, 0, 0, 0, 1, 2, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
]
CARTAN_27_ORDER = [0, 4, 6, 10, 12, 16, 2, 14, 8]


def test_criterion_02_golden_cartan_3_3_even():
    start = time.perf_counter()
    C = digits.cartan_descendant(3, 3)
    rows = list(digits.projective_range(3, 3))
    idx = [rows.index(digits.steinberg_label(3, 3, i)) for i in CARTAN_27_ORDER]
    sub = C[np.ix_(idx, idx)]
    assert (sub == np.array(CARTAN_27_EVEN, dtype=object)).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 2: even Cartan(3,3) equals printed table in {elapsed * 1000:.1f}ms")


# Full 6x6 tensor table of Ver_9 in folded form.  Four printed cells,
# (1,2), (2,1), (4,5), (5,4), show P3 in the source table; that value is
# dimension-inconsistent (see test body, which proves P1 is forced), so the
# golden data carries the corrected entries.
VER9_TABLE = [
    ["L0", "L1", "L2", "L3", "L4", "L5"],
    ["L1", "L0 + L2", "P1", "L4", "L3 + L5", "P4"],
    ["L2", "P1", "L2 + P0", "L5", "P4", "L5 + P3"],
    ["L3", "L4", "L5", "L0", "L1", "L2"],
    ["L4", "L3 + L5", "P4", "L1", "L0 + L2", "P1"],
    ["L5", "P4", "L5 + P3", "L2", "P1", "L2 + P0"],
]
VER9_ERRATA_CELLS = [(1, 2), (2, 1), (4, 5), (5, 4)]


def test_criterion_03_golden_fusion_table_ver9():
    start = time.perf_counter()
    for a in range(6):
        for b in range(6):
            got = fold_text(3, 2, grring.fuse_simples(3, 2, a, b))
            assert got == VER9_TABLE[a][b], (a, b, got)
    # Proof that the corrected cells are forced: exact Frobenius-Perron
    # dimensions in the cyclotomic ring separate P1 from P3.
    for a, b in VER9_ERRATA_CELLS:
        product = cyclo.fpdim_simple(3, 2, a) * cyclo.fpdim_simple(3, 2, b)
        p1 = _class_fpdim(3, 2, grring.projective_class(3, 2, 1))
        p3 = _class_fpdim(3, 2, grring.projective_class(3, 2, 3))
        assert product == p1
        assert product != p3
        assert grring.fuse_simples(3, 2, a, b) == grring.projective_class(3, 2, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 3: Ver_9 tensor table matches in {elapsed * 1000:.1f}ms")


def _class_fpdim(p, n, v):
    out = cyclo.context(p, n).zero()
    for c, k in enumerate(v.coeffs):
        if k:
            out = out + k * cyclo.fpdim_simple(p, n, c)
    return out


# Spot rows of the Ver_25 table (even part), transcribed cell by cell.  The
# printed cell at (L8, L12) reads "L6 + L10 + P8 + P18"; exact dimensions rule
# that out (see test body) and force L16 in place of L10.
VER25_ROWS = {
    2: {
        0: "L2",
        2: "L0 + L2 + L4",
        4: "L4 + P2",
        6: "L6 + L8",
        8: "L6 + P8",
        10: "L12",
        12: "L10 + L12 + L14",
        14: "L14 + P12",
        16: "L16 + L18",
        18: "L16 + P18",
    },
    4: {
        0: "L4",
        2: "L4 + P2",
        4: "L4 + P0 + P2",
        6: "P8",
        8: "P6 + P8",
        10: "L14",
        12: "L14 + P12",
        14: "L14 + P10 + P12",
        16: "P18",
        18: "P16 + P18",
    },
    8: {
        0: "L8",
        2: "L6 + P8",
        4: "P6 + P8",
        6: "L2 + L4 + L12 + L14",
        8: "L0 + L4 + L10 + L14 + P2 + P12",
        10: "L8 + L18",
        12: "L6 + L16 + P8 + P18",
        14: "P6 + P8 + P16 + P18",
        16: "L12 + L14",
        18: "L10 + L14 + P12",
    },
}
VER25_PARITY_ROW = {0: 15, 2: 17, 4: 19, 6: 11, 8: 13, 10: 5, 12: 7, 14: 9, 16: 1, 18: 3}


def test_criterion_04_golden_fusion_rows_ver25():
    start = time.perf_counter()
    for a, row in VER25_ROWS.items():
        for b, expected in row.items():
            got = fold_text(5, 2, grring.fuse_simples(5, 2, a, b))
            assert got == expected, (a, b, got)
    for b, out in VER25_PARITY_ROW.items():
        assert grring.fuse_simples(5, 2, 15, b) == grring.GrElement.basis(5, 2, out)
    # Proof for the corrected (8, 12) cell: the printed version fails the
    # exact dimension count, the corrected one achieves it.
    product = cyclo.fpdim_simple(5, 2, 8) * cyclo.fpdim_simple(5, 2, 12)
    corrected = (
        grring.GrElement.basis(5, 2, 6)
        + grring.GrElement.basis(5, 2, 16)
        + grring.projective_class(5, 2, 8)
        + grring.projective_class(5, 2, 18)
    )
    printed = (
        grring.GrElement.basis(5, 2, 6)
        + grring.GrElement.basis(5, 2, 10)
        + grring.projective_class(5, 2, 8)
        + grring.projective_class(5, 2, 18)
    )
    assert product == _class_fpdim(5, 2, corrected)
    assert product != _class_fpdim(5, 2, printed)
    assert grring.fuse_simples(5, 2, 8, 12) == corrected
    # The L8 row of the Ver_27 even-part table, where L8 (x) L8 really is
    # L8 + P0 + P2 + P6 (it is not in Ver_25).
    assert fold_text(3, 3, grring.fuse_simples(3, 3, 8, 8)) == "L8 + P0 + P2 + P6"
    ver27_row8 = {
        2: grring.GrElement.basis(3, 3, 8) + grring.projective_class(3, 3, 6),
        4: grring.projective_class(3, 3, 4),
        6: grring.GrElement.basis(3, 3, 8) + grring.projective_class(3, 3, 2),
        10: grring.projective_class(3, 3, 16),
        12: grring.projective_class(3, 3, 14),
        14: grring.projective_class(3, 3, 12) + grring.projective_class(3, 3, 14),
        16: grring.projective_class(3, 3, 10) + grring.projective_class(3, 3, 16),
    }
    for b, expected_class in ver27_row8.items():
        assert grring.fuse_simples(3, 3, 8, b) == expected_class, b
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 4: Ver_25 spot rows and the Ver_27 L8 row match in {elapsed * 1000:.1f}ms")


def test_criterion_05_cartan_route_agreement():
    start = time.perf_counter()
    for p, n in PN_SET:
        a = digits.cartan_descendant(p, n)
        b = digits.dense_matrix(cartan_character(p, n), digits.projective_range(p, n))
        c = digits.cartan_kronecker(p, n)
        assert (a == b).all(), (p, n)
        assert (a == c).all(), (p, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    print(f"criterion 5: three Cartan routes agree on {len(PN_SET)} categories in {elapsed:.2f}s")


def test_criterion_06_determinants():
    for p, n in PN_SET:
        C = digits.cartan_descendant(p, n)
        assert det(C) == p ** (p ** (n - 1) - 1), (p, n)
        for block, d in category(p, n).block_dets.items():
            assert d == expected_block_det(p, n, list(block)), (p, n, block)
    print(f"criterion 6: total and per-block determinants exact on {len(PN_SET)} categories")


def test_criterion_07_snf_cokernel():
    for p, n in PN_SET:
        C = digits.cartan_descendant(p, n)
        factors, U, V = smith_normal_form(C)
        assert (U @ C @ V == np.diag(np.array(factors, dtype=object))).all(), (p, n)
        nontrivial = [f for f in factors if f != 1]
        assert nontrivial == [p] * (p ** (n - 1) - 1), (p, n)
    print(f"criterion 7: Cartan cokernel is (Z/p)^(p^(n-1)-1) on {len(PN_SET)} categories")


def test_criterion_08_fpdim_identities():
    for p, n in PN_SET:
        ok, witness = verify_cd_eq_p(category(p, n))
        assert ok, (p, n, witness)
        total, _ = fpdim_category(category(p, n))
        closed = cyclo.fpdim_category_closed_form(p, n)
        assert abs(mpf(total) - mpf(closed)) < mpmath.mpf("1e-9"), (p, n)
    print(f"criterion 8: C.d = p exact and category dim within 1e-9 on {len(PN_SET)} categories")


def test_criterion_09_chebyshev_roots():
    for p, n in PN_SET:
        x = cyclo.fpdim_simple(p, n, 1)
        assert not cyclo.chebyshev_Q(p, n)(x), (p, n)
        assert cyclo.chebyshev_Q(p, n - 1)(x), (p, n)
    print(f"criterion 9: Chebyshev vanishing exactly at the right level on {len(PN_SET)} categories")


def test_criterion_10_invariant_series():
    for p, n in PN_SET:
        assert tilting.invariant_dims(p, n, 12) == tilting.series_fn(p, n, 12), (p, n)
    assert tilting.invariant_dims(3, 1, 16) == [1] * 17
    dims = tilting.invariant_dims(2, 2, 16)
    assert dims[0] == 1 and dims[1:] == [2 ** (m - 1) for m in range(1, 17)]
    print(f"criterion 10: invariant dimensions match the series on {len(PN_SET)} categories")


def test_criterion_11_property_suite():
    start = time.perf_counter()
    rng = random.Random(0)
    cases_per = 25  # 25 x 10 categories = 250 cases per property

    commut = assoc = fphom = parity = 0
    for p, n in PN_SET:
        top = p ** (n - 1) * (p - 1)
        for _ in range(cases_per):
            a, b, c = (rng.randrange(top) for _ in range(3))
            ea, eb, ec = (grring.GrElement.basis(p, n, x) for x in (a, b, c))
            prod = grring.fuse_simples(p, n, a, b)
            assert prod == grring.fuse_simples(p, n, b, a)
            commut += 1
            assert (ea * eb) * ec == ea * (eb * ec)
            assoc += 1
            lhs = cyclo.fpdim_simple(p, n, a) * cyclo.fpdim_simple(p, n, b)
            rhs = _class_fpdim(p, n, prod)
            assert lhs == rhs
            fphom += 1
            assert all((k - a - b) % 2 == 0 for k in prod.support())
            parity += 1
    assert min(commut, assoc, fphom, parity) >= 200

    ring_hom = 0
    for p, n in ODD_SET:
        rep = grring.check_ring_hom_fusion(p, n, samples=40, seed=rng.randrange(10**6))
        assert rep["passed"], (p, n, rep)
        ring_hom += rep["pairs_checked"]
    assert ring_hom >= 200

    ext_cases = 0
    for p, n in ODD_SET:
        top = p ** (n - 1) * (p - 1)
        for _ in range(40):
            a, b = rng.randrange(top), rng.randrange(top)
            e = digits.ext1(p, n, a, b)
            assert e == digits.ext1(p, n, b, a)
            if e:
                sa = digits.steinberg_label(p, n, a)
                sb = digits.steinberg_label(p, n, b)
                assert digits.block_key(p, n, sa) == digits.block_key(p, n, sb)
            ext_cases += 1
    assert ext_cases >= 200

    entries = 0
    for p, n in PN_SET:
        C = digits.cartan_descendant(p, n)
        powers = {0} | {2**m for m in range(n)}
        for row in C:
            for x in row:
                assert int(x) in powers
                entries += 1
    assert entries >= 200

    # The label identity is pure digit arithmetic, so it can be pushed past
    # the build set to reach the case quota.
    covers = 0
    for p, n in PN_SET + [(2, 6), (2, 7), (3, 5), (5, 4), (7, 3)]:
        if n < 2:
            continue
        for i in digits.simple_range(p, n - 1):
            assert digits.steinberg_label(p, n, p * i) == 2 * p - 2 + p * digits.steinberg_label(
                p, n - 1, i
            )
            covers += 1
    assert covers >= 200

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    print(
        "criterion 11: properties pass "
        f"(commut {commut}, assoc {assoc}, fpdim-hom {fphom}, parity {parity}, "
        f"tilting-route {ring_hom}, ext1 {ext_cases}, entries {entries}, covers {covers}) "
        f"in {elapsed:.2f}s"
    )
