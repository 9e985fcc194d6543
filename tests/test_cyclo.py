import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verkit.cyclo import (
    GUARD_BITS,
    TABLE_BITS,
    CycloContext,
    CycloInt,
    IntPoly,
    _poly_mod,
    chebyshev_at,
    chebyshev_Q,
    context,
    dim_simple,
    fpdim_category_closed_form,
    fpdim_projective,
    fpdim_simple,
    nstr,
    qint,
)
from verkit import catalog, cyclo
from verkit.digits import descendants, simple_range, steinberg_label, to_digits
from verkit.errors import InvalidCategory, NotReal, OutOfRange, PrecisionExceeded, ShapeMismatch
from verkit.tilting import chebyshev_s

PAIRS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)]
SMALL = [
    (p, n)
    for p in range(2, 126)
    if all(p % d for d in range(2, p))
    for n in range(1, 8)
    if p**n <= 125
]
UP_TO_343 = [
    (p, n)
    for p in range(2, 344)
    if all(p % d for d in range(2, p))
    for n in range(1, 9)
    if p**n <= 343
]
UP_TO_729 = [
    (p, n)
    for p in range(2, 730)
    if all(p % d for d in range(2, p))
    for n in range(1, 11)
    if p**n <= 729
]
TERMS = st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-50, 50)), max_size=20)


def mpf(x: Fraction) -> mpmath.mpf:
    """A value of `numeric` as an mpf, exactly: its denominator is a power of two."""
    with mpmath.workprec(max(x.numerator.bit_length(), 1)):
        return mpmath.mpf(x.numerator) / x.denominator


def mpc(value: tuple[Fraction, Fraction]) -> mpmath.mpc:
    """The (real, imaginary) pair of `numeric` as an mpc, exactly."""
    re, im = map(mpf, value)
    with mpmath.workprec(max(re.man.bit_length(), im.man.bit_length(), 1)):
        return mpmath.mpc(re, im)


def unfolded_reduction(ctx, terms) -> tuple[int, ...]:
    """Sum of c * q^e, each q^e the monomial x^(e mod 2p^n) reduced modulo Phi."""
    order = 2 * ctx.p**ctx.n
    total = [0] * ctx.degree
    for e, c in terms:
        mono = [0] * (e % order) + [1]
        total = [t + c * r for t, r in zip(total, _poly_mod(mono, ctx.modulus))]
    return tuple(total)


def test_modulus_construction():
    assert context(3, 2).modulus == (1, 0, 0, -1, 0, 0, 1)
    assert context(2, 3).modulus == (1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert context(5, 1).modulus == (1, -1, 1, -1, 1)
    for p, n in PAIRS:
        ctx = context(p, n)
        assert len(ctx.modulus) == ctx.degree + 1
        assert ctx.modulus[-1] == 1


def test_qint_edge_cases():
    assert qint(3, 2, 0) == context(3, 2).zero()
    assert qint(3, 2, 1) == context(3, 2).one()
    for p, n in PAIRS:
        assert not qint(p, n, p**n), (p, n)  # [p^n] vanishes
    with pytest.raises(OutOfRange):
        qint(3, 2, -1)


def test_qint_numeric():
    with mpmath.workdps(40):
        v = mpf(qint(3, 2, 2).numeric_real())
        assert abs(v - 2 * mpmath.cospi(mpmath.mpf(1) / 9)) < mpmath.mpf("1e-30")
        for p, n, m in ((5, 2, 7), (2, 4, 3), (7, 1, 4)):
            got = mpf(qint(p, n, m).numeric_real())
            expect = mpmath.sinpi(mpmath.mpf(m) / p**n) / mpmath.sinpi(mpmath.mpf(1) / p**n)
            assert abs(got - expect) < mpmath.mpf("1e-25")


def test_ring_axioms_randomized():
    rng = random.Random(11)
    ctx = context(3, 2)
    elems = [ctx.q_power(rng.randrange(18)) + ctx.from_int(rng.randrange(-3, 4)) for _ in range(8)]
    for _ in range(60):
        a, b, c = rng.sample(elems, 3)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_an_integer_element_hashes_as_the_integer_it_equals():
    for p, n in ((3, 2), (2, 3)):
        ctx = context(p, n)
        for c in (0, 1, -1, 7, 2**70):
            assert ctx.from_int(c) == c and hash(ctx.from_int(c)) == hash(c)
        assert {1: "x"}.get(ctx.one()) == "x"
        assert {ctx.one(), 1} == {1} and len({ctx.one(), 1, ctx.zero(), 0}) == 2
        # Elements that are no integer stay apart from every integer.
        assert ctx.q_power(1) not in {0, 1, -1}
        assert len({ctx.q_power(1), ctx.q_power(2), ctx.q_power(1)}) == 2


def test_quantum_integer_recurrence():
    for p, n in ((3, 2), (5, 2), (2, 3)):
        two = qint(p, n, 2)
        for a in range(1, p**n):
            assert qint(p, n, a) * two == qint(p, n, a + 1) + qint(p, n, a - 1)


def test_fpdim_simple_examples():
    assert fpdim_simple(3, 2, 0) == 1
    assert fpdim_simple(3, 2, 3) == 1
    for p, n in ((3, 2), (5, 2), (2, 3)):
        assert fpdim_simple(p, n, 1) == qint(p, n, 2)
    with pytest.raises(OutOfRange):
        fpdim_simple(3, 2, 6)


def test_fpdim_simple_real():
    for p, n in ((3, 2), (5, 2), (2, 4), (3, 3)):
        for i in simple_range(p, n):
            assert fpdim_simple(p, n, i).is_real()


def test_fpdim_projective_examples():
    assert fpdim_projective(3, 2, 2) == qint(3, 2, 3)
    assert fpdim_projective(3, 2, 0) == qint(3, 2, 5) + qint(3, 2, 1)
    assert fpdim_projective(2, 2, 0) == qint(2, 2, 3) + qint(2, 2, 1)


def test_dim_simple():
    assert dim_simple(3, 2, 0) == (1, 1)
    assert dim_simple(3, 2, 4) == (4, 1)
    assert dim_simple(3, 2, 5) == (6, 0)


def test_cd_eq_p_exact():
    for p, n in PAIRS:
        ok, witness = catalog.verify_cd_eq_p(catalog.category(p, n))
        assert ok, (p, n, witness)


def test_chebyshev_polynomials():
    assert chebyshev_Q(2, 1) == IntPoly([0, 1])
    assert chebyshev_Q(3, 1) == IntPoly([-1, 0, 1])


def test_chebyshev_roots():
    for p, n in PAIRS:
        if p**n == 2:
            continue
        x = fpdim_simple(p, n, 1)
        assert not chebyshev_Q(p, n)(x), (p, n)
        assert chebyshev_Q(p, n - 1)(x), (p, n)


# Horner on chebyshev_Q's coefficients, which grow like 2^(p^n), takes
# 8.5 s at Ver_337 alone, so level one stops at the primes below 128.
HORNER_PAIRS = [(p, n) for p, n in UP_TO_343 if (n >= 2 or p < 128) and p**n > 2]


def test_chebyshev_recurrence_equals_horner():
    """At the two-term element q + q^-1, which FPdim L_1 is."""
    for p, n in HORNER_PAIRS:
        x = fpdim_simple(p, n, 1)
        assert x == context(p, n).element([(1, 1), (-1, 1)]), (p, n)
        at_level, below = chebyshev_at(context(p, n), p**n - 1, p ** (n - 1) - 1)
        assert at_level == chebyshev_Q(p, n)(x) and not at_level, (p, n)
        assert below == chebyshev_Q(p, n - 1)(x) and below, (p, n)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_chebyshev_recurrence_equals_horner_at_any_element(data):
    """Any indices up to 2p^n, in any order and repeated, at q + q^-1 of
    any of the pairs: each S_m equal to Horner on chebyshev_s(m)."""
    p, n = data.draw(st.sampled_from(PAIRS))
    indices = data.draw(st.lists(st.integers(0, 2 * p**n), max_size=4))
    ring = context(p, n)
    x = ring.element([(1, 1), (-1, 1)])
    got = chebyshev_at(ring, *indices)
    assert got == tuple(IntPoly(chebyshev_s(m))(x) for m in indices)
    assert all(isinstance(v, CycloInt) and v.ctx is ring for v in got)


def test_chebyshev_recurrence_refuses_overflow_and_negative_indices():
    """Negative indices are refused.  Nothing overflows: the recurrence runs
    on Python integers, which pass 2^63 from S_32 on."""
    ring = context(3, 2)
    x = ring.element([(1, 1), (-1, 1)])
    assert chebyshev_at(ring) == ()
    assert chebyshev_at(ring, 0, 1) == (ring.one(), x)
    with pytest.raises(OutOfRange):
        chebyshev_at(ring, -1)
    with pytest.raises(OutOfRange):
        chebyshev_at(ring, 3, -2)
    # [m+1]_q has period 2p^n = 18 in m, so S_1000 = S_10.
    assert chebyshev_at(ring, 1000, 10) == 2 * (IntPoly(chebyshev_s(10))(x),)


def test_chebyshev_guard_raises_under_python_O():
    """The Chebyshev check, its lift comparison and its refusal of a
    negative index hold under -O, which strips asserts."""
    code = (
        "from verkit import catalog, cyclo\n"
        "from verkit.errors import OutOfRange\n"
        "ring = cyclo.context(3, 2)\n"
        "checks = {c.name: c for c in catalog.verify_all(3, 2, samples=5).checks}\n"
        "if not checks['chebyshev_roots'].passed:\n"
        "    raise SystemExit(checks['chebyshev_roots'].witness)\n"
        "if cyclo.chebyshev_at(ring, 8, 2) != (ring.zero(), cyclo.fpdim_simple(3, 2, 2)):\n"
        "    raise SystemExit('S_8, S_2 at q + q^-1')\n"
        "ctx = catalog.CategoryContext(3, 2)\n"
        "values = list(ctx.fpdim_simples)\n"
        "values[1] = values[1] + ring.one()\n"
        "ctx.__dict__['fpdim_simples'] = tuple(values)\n"
        "real = catalog.category\n"
        "catalog.category = lambda p, n: ctx if (p, n) == (3, 2) else real(p, n)\n"
        "checks = {c.name: c for c in catalog.verify_all(3, 2, samples=5).checks}\n"
        "if checks['chebyshev_roots'].witness != 'FPdim L_1 != q + q^-1':\n"
        "    raise SystemExit(checks['chebyshev_roots'].witness)\n"
        "try:\n"
        "    cyclo.chebyshev_at(ring, -1)\n"
        "except OutOfRange:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('no OutOfRange')\n"
    )
    src = os.path.dirname(os.path.dirname(cyclo.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr + done.stdout


def test_fpdim_category():
    for p, n in PAIRS:
        total, _ = catalog.fpdim_category(catalog.category(p, n))
        closed = fpdim_category_closed_form(p, n)
        assert abs(mpf(total) - mpf(closed)) < mpmath.mpf("1e-9"), (p, n)
    with mpmath.workdps(30):
        assert abs(mpf(fpdim_category_closed_form(2, 1)) - 1) < mpmath.mpf("1e-25")
        assert abs(mpf(fpdim_category_closed_form(3, 1)) - 2) < mpmath.mpf("1e-25")


def test_numeric_identities_guard_modulus():
    # Exact relations also hold numerically: wrong modulus would break this.
    with mpmath.workdps(40):
        for p, n in ((3, 2), (5, 2), (2, 4)):
            lhs = (qint(p, n, 3) * qint(p, n, 4)).numeric_real()
            rhs = (qint(p, n, 3).numeric_real()) * (qint(p, n, 4).numeric_real())
            assert abs(mpf(lhs) - mpf(rhs)) < mpmath.mpf("1e-20")


def test_guards_are_explicit_errors():
    ctx = context(3, 2)
    with pytest.raises(ShapeMismatch):
        CycloInt(ctx, (1, 0))
    with pytest.raises(NotReal):
        ctx.q_power(1).numeric_real()
    assert qint(3, 2, 2).numeric_real() > 0


@settings(deadline=None)
@given(st.sampled_from(SMALL), TERMS)
def test_element_matches_unfolded_reduction_and_numeric_sum(pn, terms):
    ctx = context(*pn)
    x = ctx.element(terms)
    assert x.coeffs == unfolded_reduction(ctx, terms)
    with mpmath.workdps(40):
        expect = mpmath.mpc(0)
        for e, c in terms:
            expect += c * mpmath.expjpi(mpmath.mpf(e) / pn[0] ** pn[1])
        assert abs(mpc(x.numeric()) - expect) < mpmath.mpf("1e-20")


@settings(deadline=None)
@given(st.sampled_from(SMALL), TERMS, TERMS)
def test_conjugate_is_a_multiplicative_involution(pn, s, t):
    ctx = context(*pn)
    a, b = ctx.element(s), ctx.element(t)
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    with mpmath.workdps(40):
        assert abs(mpc(a.conjugate().numeric()) - mpmath.conj(mpc(a.numeric()))) < mpmath.mpf("1e-20")


def polyval_oracle(x: CycloInt) -> mpmath.mpc:
    """x evaluated by Horner's rule at q = expjpi(1/p^n), at 60 digits."""
    with mpmath.workdps(60):
        q = mpmath.expjpi(mpmath.mpf(1) / x.ctx.p**x.ctx.n)
        return mpmath.polyval([mpmath.mpf(c) for c in reversed(x.coeffs)], q)


@settings(deadline=None)
@given(st.sampled_from(SMALL), TERMS, TERMS)
def test_numeric_matches_polyval_oracle(pn, s, t):
    ctx = context(*pn)
    for x in (ctx.element(s), ctx.element(s) * ctx.element(t)):
        got, expect = mpc(x.numeric()), polyval_oracle(x)
        with mpmath.workdps(60):
            assert abs(got.real - expect.real) < mpmath.mpf("1e-30")
            assert abs(got.imag - expect.imag) < mpmath.mpf("1e-30")


def test_power_table_is_filled_on_first_use():
    ctx = CycloContext(5, 2)
    assert ctx._table is None
    value = ctx.element([(1, 1), (-1, 1)]).numeric_real()
    cos, sin = ctx._table
    assert len(cos) == len(sin) == ctx.degree
    assert cos[0] == 2**TABLE_BITS and sin[0] == 0
    with mpmath.workdps(40):
        assert abs(mpf(value) - 2 * mpmath.cospi(mpmath.mpf(1) / 25)) < mpmath.mpf("1e-30")


def test_numeric_refuses_coefficients_beyond_its_error_bound():
    ctx = context(3, 2)
    with pytest.raises(PrecisionExceeded):
        (10**30 * ctx.one()).numeric()
    assert abs(mpf((10**20 * ctx.one()).numeric_real()) - 10**20) < mpmath.mpf("1e-25")


def test_fpdims_equal_their_term_by_term_definitions():
    # FPdim L_i as the product of quantum integers and FPdim P_i as the sum
    # of [b] expanded term by term, on every label of every p^n <= 343.
    for p, n in UP_TO_343:
        ctx = context(p, n)
        for i in simple_range(p, n):
            product = ctx.one()
            for k, d in enumerate(to_digits(i, p, n), start=1):
                product = product * qint(p, n, d + 1, n - k)
            assert fpdim_simple(p, n, i) == product, (p, n, i)
            bs = descendants(steinberg_label(p, n, i) + 1, p, n)
            terms = [(b - 1 - 2 * k, 1) for b in bs for k in range(b)]
            assert fpdim_projective(p, n, i) == ctx.element(terms), (p, n, i)


def test_context_refuses_a_pair_that_names_no_category():
    # (3, 0) raised TypeError and (4, 2) AssertionError from the modulus check.
    for p, n in ((3, 0), (3, -1), (4, 2), (1, 1), (0, 2), (9, 1)):
        with pytest.raises(InvalidCategory):
            context(p, n)


def test_qint_refuses_a_negative_exponent():
    with pytest.raises(OutOfRange):
        qint(3, 2, 2, t=-1)
    assert qint(3, 2, 2, t=1) == context(3, 2).element([(3, 1), (-3, 1)])


def mpmath_power_table(p: int, n: int, degree: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """round(2^TABLE_BITS cospi(j/p^n)) and the same for sinpi, j < degree,
    by mpmath at TABLE_BITS + GUARD_BITS bits."""
    with mpmath.workprec(TABLE_BITS + GUARD_BITS):
        angles = [mpmath.mpf(j) / p**n for j in range(degree)]
        return tuple(
            tuple(int(mpmath.nint(mpmath.ldexp(f(a), TABLE_BITS))) for a in angles)
            for f in (mpmath.cospi, mpmath.sinpi)
        )


def test_power_table_equals_mpmaths_rounded_table():
    for p, n in UP_TO_729:
        ctx = CycloContext(p, n)
        assert ctx.power_table() == mpmath_power_table(p, n, ctx.degree), (p, n)


def test_power_table_refuses_a_modulus_that_does_not_vanish_at_q():
    ctx = CycloContext(3, 2)
    ctx.modulus = (1, 0, 0, 1, 0, 0, 1)  # x^6 + x^3 + 1 vanishes at exp(2 i pi/9), not at q
    with pytest.raises(AssertionError, match="does not vanish"):
        ctx.power_table()
    assert ctx._table is None


def test_closed_form_is_within_1e_30_of_mpmath_at_60_digits():
    for p, n in UP_TO_729 + [(2, 11), (3, 7), (43, 2)]:
        got = fpdim_category_closed_form(p, n)
        assert (2**TABLE_BITS) % got.denominator == 0
        with mpmath.workdps(60):
            expect = p**n / (2 * mpmath.sinpi(mpmath.mpf(1) / p**n) ** 2)
            assert abs(mpf(got) - expect) < mpmath.mpf("1e-30"), (p, n)
        with mpmath.workdps(80):  # the stated bound, 2^-TABLE_BITS
            expect = p**n / (2 * mpmath.sinpi(mpmath.mpf(1) / p**n) ** 2)
            assert abs(mpf(got) - expect) <= mpmath.mpf(2) ** -TABLE_BITS, (p, n)


def near_a_decimal_carry(k: int, sign: int) -> Fraction:
    """The multiple of 2^-200 nearest to sign * (10 - 5 * 10^-k), 9.99...95."""
    return sign * Fraction(round(Fraction(10 ** (k + 1) - 5, 10**k) * 2**200), 2**200)


DYADIC = st.one_of(
    st.builds(
        lambda m, e: Fraction(m) * Fraction(2) ** e,
        st.integers(-(2**140), 2**140),
        st.integers(-400, 200),
    ),
    st.builds(
        lambda k, sign, e: near_a_decimal_carry(k, sign) * Fraction(2) ** e,
        st.integers(0, 30),
        st.sampled_from((1, -1)),
        st.integers(-4, 4),
    ),
    st.builds(lambda k, sign: sign * Fraction(10**k - 5), st.integers(1, 40), st.sampled_from((1, -1))),
)


@settings(deadline=None, max_examples=2000)
@given(DYADIC, st.integers(1, 25))
def test_nstr_equals_mpmath_nstr_on_dyadic_rationals(x, dps):
    assert nstr(x, dps) == mpmath.nstr(mpf(x), dps)


def test_nstr_carries_and_zero():
    carry = 10 - Fraction(1, 2**20)  # 9.99999904...
    assert nstr(carry, 5) == mpmath.nstr(mpf(carry), 5) == "10.0"
    assert nstr(-carry / 2**40, 3) == mpmath.nstr(mpf(-carry / 2**40), 3) == "-9.09e-12"
    assert nstr(Fraction(-99995), 4) == mpmath.nstr(mpmath.mpf(-99995), 4) == "-1.0e+5"
    assert nstr(Fraction(0), 20) == mpmath.nstr(mpmath.mpf(0), 20) == "0.0"


def test_nstr_refuses_a_value_it_cannot_print_as_mpmath_does():
    with pytest.raises(OutOfRange):
        nstr(Fraction(1, 3), 5)
    with pytest.raises(OutOfRange):
        nstr(Fraction(2) ** 4000, 5)


def test_nstr_equals_mpmath_nstr_on_every_fpdim_up_to_343():
    for p, n in UP_TO_343:
        for i in simple_range(p, n):
            for x in (fpdim_simple(p, n, i), fpdim_projective(p, n, i)):
                value = x.numeric_real()
                assert nstr(value, 20) == mpmath.nstr(mpf(value), 20), (p, n, i)
