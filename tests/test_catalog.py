import dataclasses
import math
import os
import subprocess
import sys
import weakref
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from verkit import catalog, cli, cyclo, digits, errors, grring
from verkit.catalog import (
    build,
    cartan_character,
    expected_block_det,
    is_prime,
    verify_all,
)
from verkit.digits import cartan_descendant
from verkit.errors import (
    BoundExceeded,
    InvalidCategory,
    NotReal,
    OutOfRange,
    PrecisionExceeded,
    UnsupportedPrime,
)
from verkit.linalg import (
    definiteness_witness,
    det,
    minors_and_det,
    smith_normal_form,
)

SET = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]


def test_is_prime():
    assert [x for x in range(2, 30) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def _prime_by_trial_division(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(p) == _prime_by_trial_division(p) for p in range(-3, 200_000))


@pytest.mark.parametrize(
    # The last is a strong pseudoprime to every prime base up to 37.
    "composite", [3215031751, 3825123056546413051, 318665857834031151167461]
)
def test_is_prime_rejects_strong_pseudoprimes(composite):
    assert not is_prime(composite)


def _child_lines(code: str) -> list[str]:
    """The stdout lines of `code` run in a child process with this package
    on its path.  The child's timeout turns a hang into a failure."""
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split("\n")[:-1]


def test_large_primes_are_recognised_at_once():
    """Library calls that skip the category bound test primality of a large
    p; each returns within a second."""
    code = """
import time
from verkit import catalog, tilting
from verkit.errors import is_prime
p = 10**18 + 3
for call in (lambda: catalog.category(p, 1), lambda: tilting.tilting_char(p, 0)):
    start = time.perf_counter()
    call()
    print(time.perf_counter() - start)
print(is_prime(p), is_prime((10**9 + 7) * (10**9 + 9)))
"""
    *seconds, verdicts = _child_lines(code)
    assert all(float(s) < 1.0 for s in seconds), seconds
    assert verdicts == "True False"


def test_primality_past_the_exact_bound_is_refused_at_once():
    """Past the bound of deterministic Miller-Rabin no exact answer is
    available, so a p with no small factor is refused within a second (trial
    division up to sqrt(p) ran for longer than 20 s at 2^89 - 1)."""
    code = """
import time
from verkit import catalog, tilting
from verkit.errors import OutOfRange, is_prime
p = 2**89 - 1
for call in (lambda: is_prime(p), lambda: tilting.tilting_char(p, 0), lambda: catalog.category(p, 1)):
    start = time.perf_counter()
    try:
        call()
    except OutOfRange:
        print(time.perf_counter() - start)
"""
    seconds = _child_lines(code)
    assert len(seconds) == 3 and all(float(s) < 1.0 for s in seconds), seconds


def test_guard_messages_survive_integers_too_long_for_decimal():
    """A p or n of more than 4300 decimal digits is refused with
    InvalidCategory, named by its size, not by Python's conversion limit."""
    from verkit import tilting

    calls = [
        (lambda: catalog.category(2**20000, 1), "a 20001-bit integer is not a prime"),
        (lambda: tilting.tilting_char(2**20000, 0), "a 20001-bit integer is not a prime"),
        (lambda: errors.check_category(3, -(10**5000)), "got a negative 16610-bit integer"),
    ]
    for call, message in calls:
        with pytest.raises(InvalidCategory, match=message):
            call()
    with pytest.raises(InvalidCategory, match="^4 is not a prime$"):
        catalog.category(4, 1)


def test_index_guards_survive_integers_too_long_for_decimal():
    """A label or index of more than 4300 decimal digits is refused with
    OutOfRange, named by its size; formatting it in decimal raised
    Python's ValueError instead."""
    from verkit import charring, tilting

    calls = [
        (lambda: grring.GrElement.basis(3, 2, 10**5000), "simple label a 16610-bit integer"),
        (lambda: digits.extended_decomposition_row(3, 2, 10**5000), "index a 16610-bit integer"),
        (lambda: digits.simple_of_projective(3, 2, 10**5000), "index a 16610-bit integer"),
        (lambda: tilting.tilting_char(3, -(10**5000)), "got a negative 16610-bit integer"),
        (lambda: tilting.tensor_decompose(3, -(10**5000), 1), "got a negative 16610-bit integer"),
        (lambda: tilting.invariant_dims(3, 2, -(10**5000)), "got a negative 16610-bit integer"),
        (lambda: grring.tilting_class(3, 2, 10**5000), "index a 16610-bit integer"),
        (lambda: grring.base_fusion(3, 10**5000, 0), "label a 16610-bit integer"),
        (lambda: digits.to_digits(10**5000, 3, 2), "^a 16610-bit integer does not fit"),
        (lambda: digits.descendants(10**5000, 3, 2), "^a 16610-bit integer is not"),
        (lambda: charring.weyl_char(-(10**5000)), "got a negative 16610-bit integer"),
    ]
    for call, message in calls:
        with pytest.raises(OutOfRange, match=message):
            call()


def test_det_examples():
    assert det(np.eye(4, dtype=object)) == 1
    assert det(np.array([[2, 1], [1, 2]], dtype=object)) == 3
    assert det(np.array([[0, 1], [1, 0]], dtype=object)) == -1
    assert det(np.zeros((2, 2), dtype=object)) == 0


def test_positive_definite():
    assert definiteness_witness(np.array([[2, 1], [1, 2]], dtype=object)) == ""
    assert definiteness_witness(np.array([[1, 2], [2, 1]], dtype=object)) != ""
    assert definiteness_witness(np.array([[0, 1], [1, 0]], dtype=object)) != ""


def test_one_pass_minors_match_per_minor_dets_on_cartan():
    for p, n in SET:
        C = cartan_descendant(p, n)
        k = C.shape[0]
        if k > 64:
            continue
        minors = minors_and_det(C)[0]
        assert minors == [det(C[:j, :j]) for j in range(1, k + 1)], (p, n)
        assert minors[-1] == p ** (p ** (n - 1) - 1), (p, n)


def test_posdef_check_names_its_witness(monkeypatch):
    def posdef_check(cartan):
        ctx = _fresh_context(2, 3, cartan)
        monkeypatch.setattr(catalog, "category", lambda p, n: ctx)
        checks = {c.name: c for c in verify_all(2, 3).checks}
        return checks["cartan_symmetric_posdef"]

    C = cartan_descendant(2, 3)
    assert C.shape == (4, 4)
    # Make row 2 of the leading 3x3 block the sum of rows 0 and 1, keeping
    # the matrix symmetric: the first two leading minors stay positive and
    # the third is 0.
    a, b, c = C[0, 0], C[0, 1], C[1, 1]
    singular = C.copy()
    singular[0, 2] = singular[2, 0] = a + b
    singular[1, 2] = singular[2, 1] = b + c
    singular[2, 2] = a + 2 * b + c
    assert minors_and_det(singular)[0] == [a, a * c - b * b, 0]
    check = posdef_check(singular)
    assert not check.passed and check.witness == "leading minor 3 = 0"

    skew = C.copy()
    skew[1, 3] += 1
    check = posdef_check(skew)
    assert not check.passed and check.witness == "not symmetric at (1, 3)"

    check = posdef_check(C)
    assert check.passed and check.witness == ""


def test_snf_examples():
    factors, U, V = smith_normal_form(np.eye(3, dtype=object))
    assert factors == [1, 1, 1]
    M = np.array([[2, 1], [1, 2]], dtype=object)
    factors, U, V = smith_normal_form(M)
    assert factors == [1, 3]
    assert (U @ M @ V == np.diag(np.array(factors, dtype=object))).all()
    assert abs(det(U)) == 1 and abs(det(V)) == 1


def test_snf_certificates_on_cartan():
    for p, n in SET:
        C = cartan_descendant(p, n)
        factors, U, V = smith_normal_form(C)
        assert (U @ C @ V == np.diag(np.array(factors, dtype=object))).all(), (p, n)
        assert abs(det(U)) == 1 and abs(det(V)) == 1
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_snf_divisibility_fixup():
    # A matrix whose naive diagonal is (2, 3): SNF must deliver (1, 6).
    M = np.array([[2, 0], [0, 3]], dtype=object)
    factors, U, V = smith_normal_form(M)
    assert factors == [1, 6]
    assert (U @ M @ V == np.diag(np.array(factors, dtype=object))).all()


def test_stable_gr():
    got = catalog.category(3, 2).stable
    assert got["order"] == 9
    assert sorted(got["invariant_factors"]) == [1, 1, 1, 1, 3, 3]
    assert catalog.category(2, 2).stable["order"] == 2
    got = catalog.category(2, 3).stable
    assert got["order"] == 8
    assert sorted(f for f in got["invariant_factors"] if f != 1) == [2, 2, 2]


def test_stable_gr_general_shape():
    for p, n in SET:
        got = catalog.category(p, n).stable
        k = p ** (n - 1) - 1
        assert got["order"] == p**k, (p, n)
        nontrivial = [f for f in got["invariant_factors"] if f != 1]
        assert nontrivial == [p] * k, (p, n)


def test_block_dets():
    dets = catalog.category(3, 2).block_dets
    assert dets[(3, 7)] == 3 and dets[(4, 6)] == 3
    assert dets[(2,)] == 1 and dets[(5,)] == 1
    dets = catalog.category(3, 3).block_dets
    sizes = {len(b): d for b, d in dets.items()}
    assert sizes[6] == 27 and sizes[2] == 3 and sizes[1] == 1


def test_block_det_class_prediction():
    for p, n in SET:
        dets = catalog.category(p, n).block_dets
        total = 1
        for block, d in dets.items():
            assert d == expected_block_det(p, n, list(block)), (p, n, block)
            total *= d
        assert total == p ** (p ** (n - 1) - 1)


def test_cartan_character_route():
    for p, n in ((3, 2), (2, 4), (5, 2)):
        assert cartan_character(p, n) == digits.cartan_descendant_rows(p, n)


def test_verify_all_passes_everywhere():
    expected_names = {
        "cartan_block_diagonal",
        "cartan_routes_agree",
        "cartan_symmetric_posdef",
        "entries_powers_of_two",
        "unit_diagonal_entry",
        "simple_count",
        "block_count",
        "block_sizes",
        "same_size_blocks_identical",
        "p2_nonsemisimple_block_is_brauer_line",
        "det_total",
        "det_per_block",
        "stable_rank_mod_p",
        "cd_eq_p",
        "fpdim_category",
        "chebyshev_roots",
        "invariants_series",
        "ext1_symmetric",
        "ext1_within_blocks",
        "steinberg_bijection",
        "covers_compat",
        "fusion_consistency",
    }
    # The Ext^1 digit rule and the tilting-route check need odd p.
    odd_only = {"ext1_symmetric", "ext1_within_blocks", "fusion_consistency"}
    for p, n in [(2, 2), (3, 2), (3, 3), (5, 2), (2, 4)]:
        report = verify_all(p, n, samples=60, seed=0)
        names = [c.name for c in report.checks]
        expected = expected_names - odd_only if p == 2 else expected_names
        assert set(names) == expected and len(names) == (19 if p == 2 else 22)
        assert report.all_passed, (p, n, [(c.name, c.witness) for c in report.failed()])


def test_verify_all_level_one():
    """Level one lists only the checks it runs: it has no Brauer-line block
    and no smaller category, and Ver_2 has no simple L_1 for the Chebyshev
    check."""
    skipped = {"p2_nonsemisimple_block_is_brauer_line", "covers_compat"}
    for p, count in ((2, 16), (3, 20), (5, 20)):
        report = verify_all(p, 1)
        assert report.all_passed, (p, [(c.name, c.witness) for c in report.failed()])
        names = {c.name for c in report.checks}
        assert len(report.checks) == count and not names & skipped, (p, names)
        assert ("chebyshev_roots" in names) == (p > 2)


def test_build_record():
    data = build(3, 2)
    assert len(data.simples) == 6
    assert len(data.blocks) == 4
    assert data.proj_of_simple[0] == 4
    assert data.simple_of_proj[7] == 3
    assert data.dims[5] == 6
    assert data.stable["order"] == 9
    assert data.verification.all_passed
    assert sorted(data.ext1_edges) == [(0, 4), (1, 3)]


def test_build_p2_has_no_ext_data():
    data = build(2, 3)
    assert data.ext1_edges is None
    assert data.verification.all_passed


def test_build_guards(monkeypatch):
    with pytest.raises(ValueError):
        build(99, 1)
    with pytest.raises(ValueError):
        build(4, 2)
    with pytest.raises(ValueError):
        build(3, 0)
    with pytest.raises(BoundExceeded):
        build(3, 9)
    monkeypatch.setattr(errors, "DEFAULT_BOUND", 10)
    with pytest.raises(BoundExceeded):
        build(5, 2)
    for samples in (-1, 0):
        with pytest.raises(OutOfRange):
            build(3, 2, samples=samples)


def test_the_bound_admits_ver_3125_and_ver_2209_and_refuses_ver_6561():
    """The bound is 2500 simples: Ver_{5^5} has exactly 2500 and Ver_{47^2}
    2162, and Ver_{3^8}, with 4374, is refused by its count."""
    errors.check_category(5, 5)
    errors.check_category(47, 2)
    with pytest.raises(BoundExceeded, match="^4374 simple objects exceeds the bound 2500$"):
        errors.check_category(3, 8)


def test_build_computes_each_quantity_once(monkeypatch):
    calls = Counter()
    for module, name in [
        (digits, "cartan_descendant_rows"),
        (digits, "block_partition"),
        (cyclo, "fpdim_simple"),
        (cyclo, "fpdim_projective"),
    ]:
        def counted(*args, _orig=getattr(module, name), _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(module, name, counted)
    catalog.category.cache_clear()
    try:
        data = build(3, 3)
    finally:
        catalog.category.cache_clear()
    k = len(data.simples)
    assert k == 18 and data.verification.all_passed
    assert calls == {
        "cartan_descendant_rows": 1,
        "block_partition": 1,
        "fpdim_simple": k,
        "fpdim_projective": k,
    }


def _reachable(value):
    """`value` and everything it holds: items of tuples, lists and sets, keys
    and values of mappings, fields of dataclasses."""
    yield value
    if isinstance(value, Mapping):
        for k, v in value.items():
            yield from _reachable(k)
            yield from _reachable(v)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for v in value:
            yield from _reachable(v)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _reachable(getattr(value, f.name))


def test_cold_build_and_payload_evaluate_each_fpdim_once(monkeypatch):
    """Over a cold build and its payload, FPdim P_i is formed once per
    simple and each exact FP element is evaluated once; its weight, summed
    as it was formed, is the one the category dimension reads, which reads
    no element.  No attribute of the context or of the record holds an
    FPdim P afterwards."""
    formed, labels, evaluated = [], [], Counter()

    def form(p, n, i, _orig=cyclo.fpdim_projective):
        labels.append(i)
        formed.append(_orig(p, n, i))
        return formed[-1]

    def counted(self, _orig=cyclo.CycloInt.numeric):
        evaluated[id(self)] += 1
        return _orig(self)

    monkeypatch.setattr(cyclo, "fpdim_projective", form)
    monkeypatch.setattr(cyclo.CycloInt, "numeric", counted)
    catalog.category.cache_clear()
    try:
        data = build(3, 3)
        payload = cli.category_payload(data, 100, 0)
        ctx = catalog.category(3, 3)
    finally:
        catalog.category.cache_clear()
    assert sorted(labels) == list(range(18))
    exact = ctx.fpdim_simples + tuple(formed)
    assert len(evaluated) == len(exact) == 36
    assert evaluated == Counter(id(x) for x in exact)
    assert payload["fpdim"][1]["simple_numeric"] == cli._nstr(data.fpdim_numeric[1][0])
    projectives = [formed[labels.index(i)] for i in ctx.simples]
    assert ctx.fp_pass.weights == tuple((fs.weight, fp.weight) for fs, fp in zip(ctx.fpdim_simples, projectives))
    held = {id(x) for where in (vars(ctx), vars(data)) for x in _reachable(where)}
    assert len(held) > 100
    assert not held & {id(x) for x in formed}
    assert not hasattr(ctx, "fpdim_projectives")
    assert not {"fpdim_simples", "fpdim_projectives"} & {f.name for f in dataclasses.fields(data)}
    dimension = catalog.fpdim_category(ctx)
    ctx.__dict__["fpdim_simples"] = None
    assert catalog.fpdim_category(ctx) == dimension


def test_fusion_check_refuses_fewer_than_one_sample():
    for samples in (-5, 0):
        for p, n in ((3, 2), (2, 3)):
            with pytest.raises(OutOfRange):
                verify_all(p, n, samples=samples)
        with pytest.raises(OutOfRange):
            grring.check_ring_hom_fusion(3, 2, samples=samples)


def test_category_context_is_lazy_and_shared():
    catalog.category.cache_clear()
    ctx = catalog.category(3, 2)
    assert catalog.category(3, 2) is ctx
    assert vars(ctx).keys() == {"p", "n", "simples", "rows"}
    assert ctx.block_dets == {(2,): 1, (3, 7): 3, (4, 6): 3, (5,): 1}
    assert "fpdim_simples" not in vars(ctx)
    with pytest.raises(ValueError):
        ctx.cartan[0, 0] = 5


def _assert_immutable(value, where):
    """Fail unless `value` and everything it holds is read-only."""
    if isinstance(value, np.ndarray):
        assert not value.flags.writeable, where
    elif isinstance(value, Mapping):
        assert isinstance(value, MappingProxyType), where
        for k, v in value.items():
            _assert_immutable(k, where)
            _assert_immutable(v, f"{where}[{k!r}]")
    elif isinstance(value, (catalog.SolveBlock, catalog.FPPass)):
        for f in dataclasses.fields(value):
            _assert_immutable(getattr(value, f.name), f"{where}.{f.name}")
    elif isinstance(value, cyclo.CycloInt):
        _assert_immutable(value.coeffs, f"{where}.coeffs")
    elif isinstance(value, (list, set, dict, bytearray)):
        raise AssertionError(f"{where} is a mutable {type(value).__name__}")
    elif isinstance(value, tuple):
        for i, v in enumerate(value):
            _assert_immutable(v, f"{where}[{i}]")
    else:
        assert isinstance(value, (int, str, Fraction, type(None))), (where, type(value))


def test_every_filled_context_value_is_immutable():
    """The context's values are shared process-wide: a build fills every
    one of them, and none can be changed in place."""
    catalog.category.cache_clear()
    try:
        build(3, 3)
        ctx = catalog.category(3, 3)
        ctx.cartan  # the dense view, which no build step reads
        names = [k for k, v in vars(catalog.CategoryContext).items() if isinstance(v, cached_property)]
        assert set(names) <= vars(ctx).keys()
        for name in names:
            _assert_immutable(vars(ctx)[name], name)
        with pytest.raises(TypeError):
            ctx.tilting_classes[4][0] = 7
        assert ctx.tilting_classes[4] == {4: 1, 0: 2}
        p2 = catalog.category(2, 3)
        assert p2.ext1_edges is None
        with pytest.raises(UnsupportedPrime):
            p2.tilting_classes
    finally:
        catalog.category.cache_clear()


def _fresh_context(p, n, cartan, rows=None, blocks=None):
    """A CategoryContext of Ver_{p^n} whose Cartan matrix (and optionally
    row labels and blocks) are replaced before anything is computed: the
    dense matrix, or rows {s: {t: nonzero entry}}, becomes the context's
    rows of nonzero entries."""
    ctx = catalog.CategoryContext(p, n)
    if rows is not None:
        ctx.rows = rows
    if not isinstance(cartan, Mapping):
        cartan = np.array(cartan, dtype=object)
        cartan = {s: {t: int(c) for t, c in zip(ctx.rows, row) if c} for s, row in zip(ctx.rows, cartan)}
    ctx.__dict__["cartan_rows"] = digits.read_only_rows(cartan)
    if blocks is not None:
        ctx.__dict__["blocks"] = blocks
    return ctx


def _checks_on(monkeypatch, ctx):
    """verify_all with `ctx` in place of its category's context."""
    real = catalog.category
    monkeypatch.setattr(catalog, "category", lambda p, n: ctx if (p, n) == (ctx.p, ctx.n) else real(p, n))
    return {c.name: c for c in verify_all(ctx.p, ctx.n, samples=20).checks}


def _elementary_divisors(factors) -> Counter:
    """Prime powers of the nonzero factors, and the number of zeros."""
    out = Counter()
    for f in factors:
        if f == 0:
            out[0] += 1
            continue
        q = 2
        while f > 1:
            e = 0
            while f % q == 0:
                f //= q
                e += 1
            if e:
                out[q**e] += 1
            q += 1
    return out


@st.composite
def symmetric_blocks(draw):
    """Symmetric integer blocks: arbitrary ones, or G^T D G with G unimodular
    and D a diagonal of signed powers of one prime (or zeros), whose block
    factors always merge into a divisibility chain."""
    chained = draw(st.booleans())
    prime = draw(st.sampled_from([2, 3, 5]))
    blocks = []
    for size in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        if chained:
            G = np.eye(size, dtype=object)
            for _ in range(draw(st.integers(0, 6))):
                i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
                if i != j:
                    G[i] += draw(st.integers(-2, 2)) * G[j]
            signs = st.sampled_from([1, -1])
            powers = st.sampled_from([0, 1, prime, prime, prime**2])
            D = np.diag(np.array([draw(signs) * draw(powers) for _ in range(size)], dtype=object))
            blocks.append(G.T @ D @ G)
        else:
            A = np.zeros((size, size), dtype=object)
            for i in range(size):
                for j in range(i, size):
                    A[i, j] = A[j, i] = draw(st.integers(-4, 4))
            if draw(st.booleans()):
                A = A @ A.T + np.eye(size, dtype=object)
            blocks.append(A)
    return chained, blocks


@settings(deadline=None, max_examples=150)
@given(symmetric_blocks(), st.randoms(use_true_random=False))
def test_per_block_linear_algebra_equals_full_matrix(drawn, rnd):
    chained, blocks = drawn
    k = sum(len(b) for b in blocks)
    perm = list(range(k))
    rnd.shuffle(perm)
    C = np.zeros((k, k), dtype=object)
    labels = range(10, 10 + k)
    members = []
    start = 0
    for B in blocks:
        idx = [perm[start + t] for t in range(len(B))]
        C[np.ix_(idx, idx)] = B
        members.append(tuple(sorted(labels[a] for a in idx)))
        start += len(B)
    ctx = _fresh_context(3, 2, C, rows=labels, blocks=tuple(members))
    assert ctx.block_diagonal_witness == ""
    assert ctx.solve_blocks == tuple(members)
    assert tuple(r.block for r in ctx.solved) == tuple(members)

    assert (catalog._definiteness_witness(ctx) == "") == (definiteness_witness(C) == "")
    dets = tuple(r.det for r in ctx.solved)
    assert math.prod(dets) == det(C)
    assert dets == tuple(det(ctx.block_cartan(b)) for b in members)

    full, U, V = smith_normal_form(C)
    assert (U @ C @ V == np.diag(np.array(full, dtype=object))).all()
    assert abs(det(U)) == 1 and abs(det(V)) == 1
    merged = list(ctx.stable["invariant_factors"])
    if chained:
        assert merged == full
    assert _elementary_divisors(merged) == _elementary_divisors(full)


def test_full_matrix_routines_are_the_oracles_on_acceptance_pairs():
    for p, n in SET:
        ctx = catalog.category(p, n)
        C = ctx.cartan
        assert ctx.block_diagonal_witness == "" and ctx.solve_blocks == ctx.blocks
        assert definiteness_witness(C) == catalog._definiteness_witness(ctx) == "", (p, n)
        dets = tuple(r.det for r in ctx.solved)
        assert math.prod(dets) == det(C) == p ** (p ** (n - 1) - 1), (p, n)
        assert dets == tuple(det(ctx.block_cartan(b)) for b in ctx.blocks), (p, n)
        factors, U, V = smith_normal_form(C)
        assert (U @ C @ V == np.diag(np.array(factors, dtype=object))).all(), (p, n)
        assert abs(det(U)) == 1 and abs(det(V)) == 1, (p, n)
        assert list(ctx.stable["invariant_factors"]) == factors, (p, n)
        assert all(r.minors is None for r in ctx.solved), (p, n)
        assert catalog._stable_witness(ctx) == "", (p, n)


def test_off_block_entry_fails_the_block_diagonal_check(monkeypatch):
    p, n = 3, 3
    C = cartan_descendant(p, n)
    rows = digits.projective_range(p, n)
    blocks = catalog.category(p, n).blocks
    owner = {rows.index(s): b for b, block in enumerate(blocks) for s in block}
    # The first off-block position, row-major: (0, j) for the first j outside
    # row 0's block.  A 5 there (diagonal entries are at most 4) makes a 2x2
    # principal minor negative.
    j = next(j for j in range(len(rows)) if owner[j] != owner[0])
    C[0, j] = C[j, 0] = 5
    ctx = _fresh_context(p, n, C)
    checks = _checks_on(monkeypatch, ctx)
    assert not checks["cartan_block_diagonal"].passed
    assert checks["cartan_block_diagonal"].witness == f"nonzero off-block entry at (0, {j})"
    # Everything that would run per block runs on the whole matrix instead,
    # and fails there; none of it passes on the untouched blocks.
    assert ctx.solve_blocks == (tuple(rows),)
    for name in ("cartan_symmetric_posdef", "det_total", "stable_rank_mod_p"):
        assert not checks[name].passed, name
    assert math.prod(r.det for r in ctx.solved) == det(C) != p ** (p ** (n - 1) - 1)
    assert list(ctx.stable["invariant_factors"]) == smith_normal_form(C)[0]


def test_block_diagonal_check_refuses_a_broken_partition():
    C = cartan_descendant(3, 2)
    blocks = catalog.category(3, 2).blocks  # ((3, 7), (4, 6), (2,), (5,))
    cases = {
        blocks[1:]: "T3 lies in no block",
        blocks + ((7,),): "T7 lies in blocks 0 and 4",
        blocks[:-1] + ((5, 8),): "T8 of block 3 is no Cartan row",
    }
    for broken, witness in cases.items():
        ctx = _fresh_context(3, 2, C, blocks=broken)
        assert ctx.block_diagonal_witness == witness
        assert ctx.solve_blocks == (tuple(ctx.rows),)


def test_a_block_label_that_is_no_cartan_row_is_reported_not_raised(monkeypatch):
    """Such a label reads as a zero row, so every check that reads the
    blocks runs, and only the ones that see the broken block fail."""
    blocks = catalog.category(3, 2).blocks[:-1] + ((5, 8),)
    ctx = _fresh_context(3, 2, cartan_descendant(3, 2), blocks=blocks)
    checks = _checks_on(monkeypatch, ctx)
    failed = {name: c.witness for name, c in checks.items() if not c.passed}
    assert failed == {
        "cartan_block_diagonal": "T8 of block 3 is no Cartan row",
        "block_sizes": "got [1, 2, 2, 2]",
        "det_per_block": "block (5, 8)",
    }
    assert ctx.block_dets[(5, 8)] == 0


@pytest.fixture
def default_recursion_limit():
    """Python's default recursion limit for the test, restored after it."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def test_same_class_blocks_of_ver_6561_compare_at_the_default_recursion_limit(default_recursion_limit):
    """Ver_6561 has two blocks of 1458 members in one class.  The search the
    sorted-label map replaced recursed once per member and raised
    RecursionError there; the category is past the build bound, but its
    context checks none."""
    try:
        ctx = catalog.category(3, 8)
        assert sorted(map(len, ctx.blocks))[-2:] == [1458, 1458]
        assert catalog._same_class_witness(ctx) == ""
        assert catalog._brauer_line_witness(ctx) == ""
    finally:
        catalog.category.cache_clear()


def test_a_planted_entry_in_a_class_of_1100_member_blocks_is_named(default_recursion_limit):
    """Two blocks of 1100 members in one class (expected det 3 at Ver_9):
    the even and the odd labels below 2200, each a Brauer line in label
    order.  One entry of the second, changed symmetrically, is named."""
    k = 1100
    blocks = (tuple(range(0, 2 * k, 2)), tuple(range(1, 2 * k, 2)))
    rows = {}
    for block in blocks:
        for a, s in enumerate(block):
            rows[s] = {block[b]: 2 - abs(a - b) for b in range(max(a - 1, 0), min(a + 2, k))}
    ctx = _fresh_context(3, 2, rows, rows=range(2 * k), blocks=blocks)
    assert catalog._same_class_witness(ctx) == ""
    rows[1401][1403] = rows[1403][1401] = 3
    ctx = _fresh_context(3, 2, rows, rows=range(2 * k), blocks=blocks)
    assert catalog._same_class_witness(ctx) == "(T1400, T1402) 1 vs (T1401, T1403) 3"


def test_block_checks_pass_on_every_odd_category_within_the_bound():
    """Every same-class pair of blocks is equal under the sorted-label map,
    and every block of p - 1 members and det p is a Brauer line, at each
    odd p^n with n >= 2 that the build bound admits."""
    within = [
        (p, n)
        for p in range(3, errors.DEFAULT_BOUND + 2)
        if is_prime(p)
        for n in range(2, errors.DEFAULT_BOUND.bit_length() + 2)
        if p ** (n - 1) * (p - 1) <= errors.DEFAULT_BOUND
    ]
    assert {(3, 7), (5, 5), (47, 2)} <= set(within)
    for p, n in within:
        ctx = catalog.CategoryContext(p, n)
        assert catalog._same_class_witness(ctx) == "", (p, n)
        assert catalog._brauer_line_witness(ctx) == "", (p, n)


@pytest.mark.parametrize(
    "check, p, n, entry, witness",
    [
        # (T16, T24) of the second 6-member block of Ver_27 is 1, and so is
        # (T15, T25) of the first.
        ("same_size_blocks_identical", 3, 3, (16, 24, 3), "(T15, T25) 1 vs (T16, T24) 3"),
        # The last Brauer line of Ver_25 against the first.
        ("same_size_blocks_identical", 5, 2, (10, 20, 1), "(T13, T23) 0 vs (T10, T20) 1"),
        ("p2_nonsemisimple_block_is_brauer_line", 3, 2, (7, 7, 3), "block [3, 7]: (T7, T7) 3, not 2"),
        # The third line of Ver_25 is the first that is broken.
        ("p2_nonsemisimple_block_is_brauer_line", 5, 2, (7, 17, 1), "block [7, 11, 17, 21]: (T7, T17) 1, not 0"),
    ],
)
def test_a_wrong_block_entry_is_named_by_its_check(monkeypatch, check, p, n, entry, witness):
    C = cartan_descendant(p, n)
    rows = list(digits.projective_range(p, n))
    s, t, value = entry
    C[rows.index(s), rows.index(t)] = C[rows.index(t), rows.index(s)] = value
    found = _checks_on(monkeypatch, _fresh_context(p, n, C))[check]
    assert not found.passed
    assert found.witness == witness


def test_posdef_witness_names_full_matrix_rows_inside_a_block(monkeypatch):
    p, n = 3, 3
    ctx = catalog.category(p, n)
    block = ctx.blocks[1]
    first = ctx.rows.index(block[0])
    assert first > 0
    C = cartan_descendant(p, n)
    C[first, first] = 0
    checks = _checks_on(monkeypatch, _fresh_context(p, n, C))
    assert checks["cartan_block_diagonal"].passed
    assert checks["cartan_symmetric_posdef"].witness == f"principal minor on rows [{first}] = 0"


@st.composite
def prime_power_blocks(draw):
    """A prime p and symmetric blocks G^T D G, G unimodular and D a diagonal
    of signed powers of p: mostly 1 and p, sometimes p^2, sometimes 0."""
    prime = draw(st.sampled_from([2, 3, 5]))
    blocks = []
    for size in draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)):
        G = np.eye(size, dtype=object)
        for _ in range(draw(st.integers(0, 8))):
            i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
            if i != j:
                G[i] += draw(st.integers(-3, 3)) * G[j]
        powers = st.sampled_from([1, 1, prime, prime, prime, prime**2, 0])
        diagonal = [draw(st.sampled_from([1, -1])) * draw(powers) for _ in range(size)]
        blocks.append(G.T @ np.diag(np.array(diagonal, dtype=object)) @ G)
    return prime, blocks


@settings(deadline=None, max_examples=150)
@given(prime_power_blocks())
def test_stable_factors_from_det_and_rank_equal_smith_normal_form(drawn):
    prime, blocks = drawn
    k = sum(len(B) for B in blocks)
    C = np.zeros((k, k), dtype=object)
    members, start = [], 0
    for B in blocks:
        C[start : start + len(B), start : start + len(B)] = B
        members.append(tuple(range(start, start + len(B))))
        start += len(B)
    ctx = _fresh_context(prime, 2, C, rows=range(k), blocks=tuple(members))
    assert tuple(r.block for r in ctx.solved) == tuple(members)
    for r in ctx.solved:
        B = ctx.block_cartan(r.block)
        factors = smith_normal_form(B)[0]
        assert list(r.factors) == factors and r.det == det(B)
        # The det and the rank mod p (the factors prime to p) decide the
        # block exactly when its Smith form is diag(1, ..., 1, p, ..., p),
        # which is what `stable_rank_mod_p` asks of its factors.
        e = len(r.block) - sum(f % prime != 0 for f in factors)
        assert (abs(r.det) == prime**e) == (set(factors) <= {1, prime})
    assert list(ctx.stable["invariant_factors"]) == smith_normal_form(C)[0]


def _stable_check_on_first_block(monkeypatch, block):
    """stable_rank_mod_p on Ver_9 with the 2x2 block (T3, T7) replaced."""
    C = cartan_descendant(3, 2)
    idx = np.ix_([1, 5], [1, 5])  # rows T3 and T7 of T2..T7
    C[idx] = np.array(block, dtype=object)
    ctx = _fresh_context(3, 2, C)
    assert ctx.blocks[0] == (3, 7)
    return ctx, C, _checks_on(monkeypatch, ctx)["stable_rank_mod_p"]


def test_stable_rank_check_names_the_failing_block(monkeypatch):
    # diag(1, 9): det 3^2, but only one factor is divisible by 3.
    # diag(2, 3): det 6 is no power of 3.
    for block, det_text in (([[1, 0], [0, 9]], "det 9"), ([[2, 0], [0, 3]], "det 6")):
        ctx, C, check = _stable_check_on_first_block(monkeypatch, block)
        assert not check.passed
        assert check.witness == f"block of T3: {det_text}, rank mod 3 1 of 2 rows"
        # The payload still gets the true factors, from the Smith normal form.
        assert list(ctx.stable["invariant_factors"]) == smith_normal_form(C)[0]
    # The identity passes the block test, but then one factor 3 is missing.
    ctx, C, check = _stable_check_on_first_block(monkeypatch, [[1, 0], [0, 1]])
    assert not check.passed and check.witness == "1 invariant factors equal to 3"
    assert ctx.stable["invariant_factors"] == (1, 1, 1, 1, 1, 3) == tuple(smith_normal_form(C)[0])
    ctx, C, check = _stable_check_on_first_block(monkeypatch, [[2, 1], [1, 2]])
    assert check.passed and check.witness == ""


def test_det_is_read_from_the_minors_and_pivoted_only_past_an_early_zero_one(monkeypatch):
    pivoted = []
    monkeypatch.setattr(catalog, "det", lambda M: pivoted.append(M.shape) or det(M))
    ctx = _fresh_context(3, 3, cartan_descendant(3, 3))
    assert tuple(r.det for r in ctx.solved) == tuple(det(ctx.block_cartan(b)) for b in ctx.blocks)
    assert dict(ctx.block_dets) == {b: det(ctx.block_cartan(b)) for b in ctx.blocks}
    # A block whose first leading minor is zero gets its det from the same
    # pass, which exchanges rows past that zero; one with negative minors
    # -1, -3 reads det -3.  Neither runs a separate `det`.
    ctx = _fresh_context(3, 2, _zero_and_negative_minor_blocks())
    dets = tuple(r.det for r in ctx.solved)
    assert dets == (-1, -3, 1, 1) == tuple(det(ctx.block_cartan(b)) for b in ctx.blocks)
    assert dict(ctx.block_dets) == dict(zip(ctx.blocks, dets))
    assert [r.minors for r in ctx.solved[:2]] == [(0,), (-1, -3)]
    assert pivoted == []


def _zero_and_negative_minor_blocks():
    """Ver_9's Cartan matrix with the block (T3, T7) replaced by one whose
    first leading minor is zero, and (T4, T6) by one with minors -1, -3."""
    C = cartan_descendant(3, 2)
    C[np.ix_([1, 5], [1, 5])] = np.array([[0, 1], [1, 0]], dtype=object)
    C[np.ix_([2, 4], [2, 4])] = np.array([[-1, 1], [1, 2]], dtype=object)
    return C


def _counted_passes(monkeypatch):
    """Count `minors_and_det` and `smith_normal_form` calls by routine and
    matrix, through both module names (`det` reads linalg's, the context
    catalog's)."""
    from verkit import linalg

    passes = Counter()
    for name in ("minors_and_det", "smith_normal_form"):
        real = getattr(linalg, name)

        def counted(M, name=name, real=real):
            passes[name, str(np.array(M, dtype=object).tolist())] += 1
            return real(M)

        monkeypatch.setattr(linalg, name, counted)
        monkeypatch.setattr(catalog, name, counted)
    return passes


def test_only_an_uncertified_solve_block_is_eliminated_and_only_once(monkeypatch):
    passes = _counted_passes(monkeypatch)
    for p, n, C in ((3, 3, cartan_descendant(3, 3)), (3, 2, _zero_and_negative_minor_blocks())):
        passes.clear()
        ctx = _fresh_context(p, n, C)
        checks = _checks_on(monkeypatch, ctx)
        assert len(ctx.block_dets) == len(ctx.blocks) and ctx.stable["order"]
        assert ctx.solve_blocks == ctx.blocks
        # Ver_27 is certified block by block; in the planted Ver_9 the two
        # replaced blocks are not, and each gets one pass of each routine.
        uncertified = [b for b in ctx.blocks if catalog.block_certificate(ctx, b) is None]
        assert uncertified == ([] if p**n == 27 else [(3, 7), (4, 6)])
        expected = [(name, str(ctx.block_cartan(b).tolist())) for b in uncertified
                    for name in ("minors_and_det", "smith_normal_form")]
        assert sorted(passes.elements()) == sorted(expected), (p, n)
        assert [r.minors is None for r in ctx.solved] == [b not in uncertified for b in ctx.blocks]
        assert checks["cartan_symmetric_posdef"].passed == ((p, n) == (3, 3))


def test_cold_builds_run_no_elimination_and_no_smith_form(monkeypatch):
    passes = _counted_passes(monkeypatch)
    fresh = {(p, n): catalog.CategoryContext(p, n) for p, n in ((3, 3), (3, 4), (5, 3), (2, 7))}
    real = catalog.category
    monkeypatch.setattr(catalog, "category", lambda p, n: fresh.get((p, n)) or real(p, n))
    for p, n in fresh:
        data = build(p, n, samples=20)
        assert data.verification.all_passed, (p, n)
        assert data.stable["order"] == p ** (p ** (n - 1) - 1), (p, n)
    assert not passes


def test_block_certificate_equals_elimination_and_smith_form_up_to_729():
    """On every block of every Ver_{p^n}, p^n <= 729: the certificate's
    det p^r, factors and rank mod p k - r are those of `minors_and_det`
    and `smith_normal_form`, and every leading minor is positive."""
    categories = [(p, n) for p in range(2, 730) if is_prime(p) for n in range(1, 10) if p**n <= 729]
    assert len(categories) == 152 and (3, 6) in categories and (727, 1) in categories
    for p, n in categories:
        ctx = catalog.category(p, n)
        total = 0
        for b in ctx.blocks:
            r = catalog.block_certificate(ctx, b)
            assert r is not None, (p, n, b)
            total += r
            C = ctx.block_cartan(b)
            minors, d = minors_and_det(C)
            factors = smith_normal_form(C)[0]
            assert d == p**r and len(minors) == len(b) and min(minors) > 0, (p, n, b)
            assert factors == [1] * (len(b) - r) + [p] * r, (p, n, b)
            assert sum(f % p != 0 for f in factors) == len(b) - r, (p, n, b)
            record = next(rec for rec in ctx.solved if rec.block == b)
            assert (record.det, list(record.factors), record.minors) == (d, factors, None), (p, n, b)
        assert total == p ** (n - 1) - 1, (p, n)


def test_a_block_the_certificate_refuses_falls_back_with_the_eliminations_witnesses(monkeypatch):
    """Ver_9 with the block (T3, T7) replaced by [[2, 1], [1, 5]]: det 9,
    Smith form (1, 9).  As planted it is not D D^T (a); with T7's Weyl row
    planted as 2 W7 + W3 it is, but that row breaks (b), and without (b)
    forward substitution would certify det 3.  Either way the block gets
    the elimination's det and minors and the Smith form's factors."""
    planted = [[2, 1], [1, 5]]
    real_row = digits.extended_decomposition_row
    for weyl_row_planted in (False, True):
        if weyl_row_planted:
            monkeypatch.setattr(
                digits, "extended_decomposition_row",
                lambda p, n, i: {7: 2, 3: 1} if (p, n, i) == (3, 2, 7) else real_row(p, n, i),
            )
        ctx, C, check = _stable_check_on_first_block(monkeypatch, planted)
        D = {s: digits.extended_decomposition_row(3, 2, s) for s in (3, 7)}
        product = [[sum(D[s].get(j, 0) * D[t].get(j, 0) for j in range(8)) for t in (3, 7)] for s in (3, 7)]
        assert (product == planted) == weyl_row_planted
        assert catalog.block_certificate(ctx, (3, 7)) is None
        record = ctx.solved[0]
        assert (record.block, record.det, record.factors, record.minors) == ((3, 7), 9, (1, 9), (2, 9))
        assert not check.passed and check.witness == "block of T3: det 9, rank mod 3 1 of 2 rows"
        assert list(ctx.stable["invariant_factors"]) == smith_normal_form(C)[0]
        checks = _checks_on(monkeypatch, ctx)
        assert checks["cartan_symmetric_posdef"].passed
        assert not checks["det_per_block"].passed and checks["det_per_block"].witness == "block (3, 7)"


def test_a_block_whose_character_rows_differ_is_refused_and_falls_back(monkeypatch):
    """Ver_27 with one entry of the character route's rows planted off, in
    the first block: the certificate refuses that block alone, which gets
    one elimination and one Smith form, the true det, minors and factors.
    The routes check names the entry; every other check passes."""
    passes = _counted_passes(monkeypatch)
    ctx = catalog.CategoryContext(3, 3)
    block = ctx.blocks[0]
    s, t = block[:2]
    rows = {r: dict(row) for r, row in ctx.character_rows.items()}
    entry = rows[s].get(t, 0)
    rows[s][t] = rows[t][s] = entry + 1
    ctx.__dict__["character_rows"] = digits.read_only_rows(rows)
    assert [catalog.block_certificate(ctx, b) is None for b in ctx.blocks] == [b == block for b in ctx.blocks]
    checks = _checks_on(monkeypatch, ctx)
    C = ctx.block_cartan(block)
    minors, d = minors_and_det(C)
    record = ctx.solved[0]
    assert (record.block, record.det, record.minors) == (block, d, tuple(minors))
    assert list(record.factors) == smith_normal_form(C)[0]
    assert d == expected_block_det(3, 3, list(block)) and all(r.minors is None for r in ctx.solved[1:])
    assert sorted(name for name, _ in passes) == ["minors_and_det", "smith_normal_form"]
    assert [name for name, c in checks.items() if not c.passed] == ["cartan_routes_agree"]
    routes = f"(T{s}, T{t}): descendant {entry}, kronecker {entry}, character {entry + 1}"
    assert checks["cartan_routes_agree"].witness == routes


def test_a_cold_build_sums_d_d_transpose_once(monkeypatch):
    """The routes check and the block certificates read one character route."""
    calls = Counter()
    real_character = catalog.cartan_character
    monkeypatch.setattr(catalog, "cartan_character", lambda p, n: calls.update([(p, n)]) or real_character(p, n))
    fresh = {(p, n): catalog.CategoryContext(p, n) for p, n in ((3, 3), (2, 7), (5, 2))}
    real = catalog.category
    monkeypatch.setattr(catalog, "category", lambda p, n: fresh.get((p, n)) or real(p, n))
    for p, n in fresh:
        assert build(p, n, samples=20).verification.all_passed, (p, n)
    assert calls == Counter(list(fresh))


def test_the_kronecker_rows_are_freed_once_the_routes_check_returns(monkeypatch):
    """No check after `cartan_routes_agree` runs with the Kronecker rows alive."""

    class Rows(dict):
        pass

    made, alive = [], []
    real_rows = digits.cartan_kronecker_rows
    real_witness = catalog._definiteness_witness

    def kronecker(p, n):
        rows = Rows(real_rows(p, n))
        made.append(weakref.ref(rows))
        return rows

    def witness(ctx):
        alive.append(made[0]() is not None)
        return real_witness(ctx)

    monkeypatch.setattr(digits, "cartan_kronecker_rows", kronecker)
    monkeypatch.setattr(catalog, "_definiteness_witness", witness)
    assert verify_all(3, 3).all_passed
    assert len(made) == 1 and alive == [False]


def test_an_fpdim_value_planted_1e_15_off_fails_the_category_dimension_check(monkeypatch):
    """The check allows the error its two values carry, under 1e-48 at
    Ver_9, where a fixed tolerance of 1e-9 let this value pass.  The plant
    is a multiple of 2^-TABLE_BITS, as every value of the context is."""
    assert catalog.fpdim_category(catalog.CategoryContext(3, 2))[1] < Fraction(1, 10**48)
    ctx = catalog.CategoryContext(3, 2)
    values = list(ctx.fpdim_numeric)
    simple, projective = values[1]
    scale = 1 << cyclo.TABLE_BITS
    values[1] = (simple + Fraction(scale // 10**15, scale), projective)
    ctx.__dict__["fpdim_numeric"] = tuple(values)
    checks = _checks_on(monkeypatch, ctx)
    assert [name for name, c in checks.items() if not c.passed] == ["fpdim_category"]


def test_an_fpdim_value_off_the_dyadic_grid_is_named_not_floored(monkeypatch):
    """A value that is no multiple of 2^-TABLE_BITS cannot be summed
    exactly in the check's units: the check fails and names the value,
    where flooring it summed Ver_9's dimension to 29.53, not 38.47."""
    ctx = catalog.CategoryContext(3, 2)
    values = list(ctx.fpdim_numeric)
    simple, projective = values[1]
    values[1] = (simple + Fraction(1, 10**15), projective)
    ctx.__dict__["fpdim_numeric"] = tuple(values)
    with pytest.raises(PrecisionExceeded, match="L1 .* 2\\^-168$"):
        catalog.fpdim_category(ctx)
    checks = _checks_on(monkeypatch, ctx)
    assert [name for name, c in checks.items() if not c.passed] == ["fpdim_category"]
    assert checks["fpdim_category"].witness == "FPdim L1 at q is no multiple of 2^-168"


@pytest.mark.parametrize(
    "element, shift, error, failed",
    [
        ("L", "q", NotReal, ["cd_eq_p", "fpdim_category", "chebyshev_roots"]),
        ("L", "10^30", PrecisionExceeded, ["cd_eq_p", "fpdim_category", "chebyshev_roots"]),
        ("P", "q", NotReal, ["cd_eq_p", "fpdim_category"]),
        ("P", "10^30", PrecisionExceeded, ["cd_eq_p", "fpdim_category"]),
    ],
)
def test_an_fp_value_that_cannot_be_evaluated_fails_its_checks_and_never_raises(monkeypatch, element, shift, error, failed):
    """FPdim L_1 or FPdim P_1 of Ver_9 plus q (not real) or plus 10^30 (past
    the precision guard): the FP pass still compares every row, so C d = p
    names its row, and the category dimension check fails with the error
    evaluating that value raised, naming it.  verify_all returns, though
    the record's values cannot be formed."""
    ring = cyclo.context(3, 2)
    shift = ring.q_power(1) if shift == "q" else 10**30 * ring.one()
    ctx = catalog.CategoryContext(3, 2)
    if element == "L":
        values = list(ctx.fpdim_simples)
        values[1] = values[1] + shift
        ctx.__dict__["fpdim_simples"] = tuple(values)
    else:
        monkeypatch.setattr(cyclo, "fpdim_projective", _planted_projective({1}, shift))
    checks = _checks_on(monkeypatch, ctx)
    assert [name for name, c in checks.items() if not c.passed] == failed
    assert checks["cd_eq_p"].witness == "row 3" == f"row {_cd_witness_by_rows(ctx)}"
    witness = checks["fpdim_category"].witness
    assert witness.startswith(f"FPdim {element}1: ")
    with pytest.raises(error) as raised:
        ctx.fpdim_numeric
    assert str(raised.value) == witness
    if error is NotReal:
        assert witness == f"FPdim {element}1: imaginary part 0.34202 at q"
    else:
        assert witness.endswith("are too large to evaluate within 1.0e-25")


def test_corrupted_fpdim_fails_the_chebyshev_check(monkeypatch):
    """The recurrence runs at q + q^-1, so any other FPdim L_1 fails the
    lift comparison first, which names it."""
    one = cyclo.context(3, 2).one()
    for shift in (one, 2**40 * one):
        ctx = _fresh_context(3, 2, cartan_descendant(3, 2))
        values = list(ctx.fpdim_simples)
        values[1] = values[1] + shift
        ctx.__dict__["fpdim_simples"] = tuple(values)
        check = _checks_on(monkeypatch, ctx)["chebyshev_roots"]
        assert not check.passed and check.witness == "FPdim L_1 != q + q^-1"


@pytest.mark.parametrize(
    "shift, witness",
    [("q", "FPdim P1: imaginary part 0.34202 at q"),
     ("10^30", "FPdim P1: coefficients of absolute sum 1000000000000000000000000000007 are too large to evaluate within 1.0e-25")],
    ids=["q", "10^30"],
)
def test_a_build_with_an_fp_value_that_cannot_be_evaluated_exits_1_and_reads_back_warm(tmp_path, monkeypatch, shift, witness):
    """FPdim P_1 of Ver_9 plus q or plus 10^30: `verify` prints the failed
    checks and exits 1, where `build` raised and the command line took it
    for a usage error (exit 2).  The record holds the error's message in
    place of the decimal, and reads back warm with the same stdout."""
    ring = cyclo.context(3, 2)
    shift = ring.q_power(1) if shift == "q" else 10**30 * ring.one()
    monkeypatch.setattr(cyclo, "fpdim_projective", _planted_projective({1}, shift))
    args = ["verify", "-p", "3", "-n", "2", "--cache-dir", str(tmp_path)]
    catalog.category.cache_clear()
    try:
        cold = run_cli(args)
    finally:
        catalog.category.cache_clear()
    assert (cold.exit_code, cold.stderr) == (1, "")
    lines = cold.stdout.splitlines()
    assert [line for line in lines if "FAIL" in line] == [
        "cd_eq_p: FAIL (row 3)", f"fpdim_category: FAIL ({witness})", "FAILURES PRESENT"
    ]
    monkeypatch.undo()

    def refuse(*args, **kwargs):
        raise AssertionError("the record was rebuilt")

    monkeypatch.setattr(catalog, "build", refuse)
    warm = run_cli(args)
    assert (warm.exit_code, warm.stdout, warm.stderr) == (1, cold.stdout, "")
    entry = cli.load_or_build(3, 2, str(tmp_path), 100, 0)["fpdim"][1]
    assert entry["projective_numeric"] == witness
    assert entry["simple_numeric"] == cli._nstr(cyclo.fpdim_simple(3, 2, 1).numeric_real())


def test_check_seconds_are_filled_and_stay_out_of_equality_and_the_payload():
    report = verify_all(3, 2)
    assert all(c.seconds >= 0 for c in report.checks) and sum(c.seconds for c in report.checks) > 0
    first = report.checks[0]
    assert first == catalog.Check(first.name, first.passed, first.witness, seconds=-1.0)
    payload = cli.category_payload(build(3, 2), 100, 0)
    assert all(entry.keys() == {"name", "passed", "witness"} for entry in payload["verification"]["checks"])


def test_pairs_that_name_no_category_are_refused():
    # verify_all(3, 0) raised TypeError; the block dets of a "Ver_16" and
    # the stable ring of a "Ver_9" at p = 9 were once returned.
    for call in (
        lambda: verify_all(3, 0),
        lambda: catalog.category(4, 2).block_dets,
        lambda: catalog.category(9, 1).stable,
        lambda: catalog.category(1, 3),
        lambda: catalog.category(5, -1),
    ):
        with pytest.raises(InvalidCategory):
            call()


def _cd_witness_by_rows(ctx):
    """C d = p row by row in Cyclo arithmetic, the way `verify_cd_eq_p` once
    ran, with FPdim P formed here by `cyclo.fpdim_projective`: the
    projective of the first offending row, or None."""
    dims = [ctx.fpdim_simples[ctx.simple_of_proj[s]] for s in ctx.rows]
    for a, s in enumerate(ctx.rows):
        lhs = cyclo.context(ctx.p, ctx.n).zero()
        for b, c in enumerate(ctx.cartan[a]):
            if c:
                lhs = lhs + int(c) * dims[b]
        if lhs != cyclo.fpdim_projective(ctx.p, ctx.n, ctx.simple_of_proj[s]):
            return s
    return None


def _planted_projective(labels, shift):
    """`cyclo.fpdim_projective` with `shift` added to FPdim P_i for each i in
    `labels`: a wrong FPdim P planted where it is formed."""
    real = cyclo.fpdim_projective
    return lambda p, n, i: real(p, n, i) + shift if i in labels else real(p, n, i)


@pytest.mark.parametrize(
    "p, n, field, corrupt",
    [
        # T25 lies in the first block and T8 in the fifth, so a scan in
        # block order meets T25 (or T9, its block's first row) first.
        (3, 3, "fpdim_simples", [25, 8]),
        (3, 3, "fpdim_projectives", [25, 8]),
        # A wrong Cartan entry inside the block (T3, T7).
        (3, 2, "cartan", [(1, 5, 2)]),
        # An entry between the blocks of T2 and T3: one block of all rows.
        (3, 2, "cartan", [(0, 1, 1)]),
    ],
)
def test_cd_eq_p_names_the_first_offending_row_in_row_order(monkeypatch, p, n, field, corrupt):
    C = cartan_descendant(p, n)
    if field == "cartan":
        for a, b, entry in corrupt:
            C[a, b] = C[b, a] = entry
    ctx = _fresh_context(p, n, C)
    one = cyclo.context(p, n).one()
    if field == "fpdim_simples":
        values = list(ctx.fpdim_simples)
        for s in corrupt:
            i = ctx.simple_of_proj[s]
            values[i] = values[i] + one
        ctx.__dict__[field] = tuple(values)
    elif field == "fpdim_projectives":
        planted = _planted_projective({ctx.simple_of_proj[s] for s in corrupt}, one)
        monkeypatch.setattr(cyclo, "fpdim_projective", planted)
    expected = _cd_witness_by_rows(ctx)
    assert expected is not None
    checks = _checks_on(monkeypatch, ctx)
    assert catalog.verify_cd_eq_p(ctx) == (False, expected)
    assert not checks["cd_eq_p"].passed
    assert checks["cd_eq_p"].witness == f"row {expected}"
    if field != "cartan":
        assert expected == 8 and ctx.solve_blocks[0][-1] == 25
    elif corrupt[0][2] == 1:
        assert ctx.solve_blocks == (tuple(ctx.rows),)


def test_cd_eq_p_is_exact_at_any_entry_size(monkeypatch):
    """The product is summed in Python integers, so an entry beyond int64
    inside the block (T3, T7) is a wrong entry like any other: the check
    fails at its first row, and verify_all returns."""
    C = cartan_descendant(3, 2)
    C[1, 5] = C[5, 1] = 2**70
    ctx = _fresh_context(3, 2, C)
    checks = _checks_on(monkeypatch, ctx)
    assert catalog.verify_cd_eq_p(ctx) == (False, 3) == (False, _cd_witness_by_rows(ctx))
    assert not checks["cd_eq_p"].passed
    assert checks["cd_eq_p"].witness == "row 3"
    assert checks["cartan_block_diagonal"].passed


def test_cd_eq_p_forms_no_dense_block(monkeypatch):
    """The check reads the Cartan rows: with dense blocks made to raise it
    still passes."""

    def refuse(self, block):
        raise AssertionError("C d = p formed a dense Cartan block")

    monkeypatch.setattr(catalog.CategoryContext, "block_cartan", refuse)
    catalog.category.cache_clear()
    try:
        for p, n in ((3, 3), (2, 5), (7, 2)):
            assert catalog.verify_cd_eq_p(catalog.category(p, n)) == (True, None), (p, n)
    finally:
        catalog.category.cache_clear()


@pytest.mark.parametrize("entry", [3, 2**70])
def test_entry_that_is_no_power_of_two_fails_its_check(monkeypatch, entry):
    # Ver_9 rows are T2..T7 and (T3, T7) is a block, so rows 1 and 5 stay
    # block diagonal; the witness is the first offence in row-major order.
    C = cartan_descendant(3, 2)
    C[1, 5] = C[5, 1] = entry
    checks = _checks_on(monkeypatch, _fresh_context(3, 2, C))
    assert not checks["entries_powers_of_two"].passed
    assert checks["entries_powers_of_two"].witness == "entry at (1, 5)"
    assert checks["cartan_block_diagonal"].passed


def test_a_build_reads_no_dense_cartan_matrix(monkeypatch):
    """Every check reads the Cartan rows: with the dense views made to raise,
    a cold build still passes every check and its payload is written."""

    def refuse(*args):
        raise AssertionError("a build step read a dense Cartan matrix")

    monkeypatch.setattr(digits, "cartan_descendant", refuse)
    monkeypatch.setattr(digits, "cartan_kronecker", refuse)
    monkeypatch.setattr(catalog.CategoryContext, "cartan", property(refuse))
    monkeypatch.setattr(catalog.CategoryContext, "block_cartan", refuse)
    catalog.category.cache_clear()
    try:
        for p, n in ((3, 3), (2, 5), (7, 2)):
            data = build(p, n)
            assert data.verification.all_passed, (p, n, [(c.name, c.witness) for c in data.verification.failed()])
            cli.category_payload(data, 100, 0)
    finally:
        catalog.category.cache_clear()


def test_routes_check_names_the_first_differing_entry(monkeypatch):
    """A route that differs is named at its first differing entry in label
    order, with each route's value there."""
    rows = {s: dict(row) for s, row in digits.cartan_kronecker_rows(3, 3).items()}
    assert (rows[9][25], rows[21][13]) == (1, 1)
    rows[21][13] = 5
    rows[9][25] = 3
    monkeypatch.setattr(digits, "cartan_kronecker_rows", lambda p, n: digits.read_only_rows(rows))
    check = {c.name: c for c in verify_all(3, 3).checks}["cartan_routes_agree"]
    assert not check.passed
    assert check.witness == "(T9, T25): descendant 1, kronecker 3, character 1"


# Every category with at most 300 simples, p = 2 included.
UP_TO_300_SIMPLES = [
    (p, n)
    for p in range(2, 302)
    if is_prime(p)
    for n in range(1, 10)
    if p ** (n - 1) * (p - 1) <= 300
]


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(UP_TO_300_SIMPLES))
def test_cartan_rows_and_ext1_edges_on_every_category_up_to_300_simples(pn):
    p, n = pn
    labels = digits.projective_range(p, n)
    routes = [
        digits.cartan_descendant_rows(p, n),
        digits.cartan_kronecker_rows(p, n),
        catalog.cartan_character(p, n),
    ]
    assert routes[0] == routes[1] == routes[2], pn
    rows = routes[0]
    assert sorted(rows) == list(labels)
    assert all(c and rows[t][s] == c for s, row in rows.items() for t, c in row.items()), pn
    owner = {s: b for b, block in enumerate(digits.block_partition(p, n)) for s in block}
    assert all(owner[s] == owner[t] for s, row in rows.items() for t in row), pn
    C = digits.cartan_descendant(p, n)
    assert (C == digits.cartan_kronecker(p, n)).all()
    assert (C == np.array([[rows[s].get(t, 0) for t in labels] for s in labels], dtype=object)).all()
    if p > 2:
        k = p ** (n - 1) * (p - 1)
        scalar = tuple((a, b) for a in range(k) for b in range(a + 1, k) if digits.ext1(p, n, a, b))
        assert digits.ext1_edges(p, n) == scalar, pn


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(UP_TO_300_SIMPLES), st.sampled_from(["fpdim_simples", "fpdim_projectives"]), st.data())
def test_cd_eq_p_on_every_category_up_to_300_simples(pn, field, data):
    """C d = p holds on every category up to 300 simples, and one FPdim L_t
    or FPdim P_i raised by a power of q fails it at the row the Cyclo
    reference names.  FPdim P is planted where it is formed."""
    p, n = pn
    ctx = catalog.CategoryContext(p, n)
    assert catalog.verify_cd_eq_p(ctx) == (True, None), pn
    i = data.draw(st.integers(0, len(ctx.simples) - 1), label="simple")
    e = data.draw(st.integers(0, 2 * p**n - 1), label="exponent")
    shift = cyclo.context(p, n).q_power(e)
    # A second context sharing the first one's fills, all but the FP pass.
    ctx2 = catalog.CategoryContext(p, n)
    ctx2.__dict__.update((k, v) for k, v in vars(ctx).items() if k != "fp_pass")
    planted = cyclo.fpdim_projective
    if field == "fpdim_simples":
        values = list(ctx.fpdim_simples)
        values[i] = values[i] + shift
        ctx2.__dict__[field] = tuple(values)
    else:
        planted = _planted_projective({i}, shift)
    with mock.patch.object(cyclo, "fpdim_projective", planted):
        expected = _cd_witness_by_rows(ctx2)
        assert expected is not None
        assert catalog.verify_cd_eq_p(ctx2) == (False, expected), (pn, field, i, e)
