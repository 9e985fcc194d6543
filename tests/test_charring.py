import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verkit import charring
from verkit.charring import (
    SymChar,
    dim_at_one,
    frobenius_twist,
    inner,
    mul,
    weyl_char,
    weyl_expand,
)


def random_char(rng, top=12):
    """Random symmetric integer character supported in [-top, top]."""
    coeffs = {}
    for _ in range(rng.randrange(1, 6)):
        w = rng.randrange(0, top)
        c = rng.randrange(-4, 5)
        coeffs[w] = coeffs.get(w, 0) + c
        coeffs[-w] = coeffs[w]
    return SymChar(coeffs)


def test_weyl_char_base_cases():
    assert weyl_char(0).coeffs == {0: 1}
    assert weyl_char(1).coeffs == {-1: 1, 1: 1}
    assert weyl_char(3).coeffs == {3: 1, 1: 1, -1: 1, -3: 1}


def test_weyl_char_rejects_negative():
    with pytest.raises(ValueError):
        weyl_char(-1)


def test_mul_examples():
    assert mul(weyl_char(1), weyl_char(1)).coeffs == {-2: 1, 0: 2, 2: 1}
    assert mul(weyl_char(1), SymChar({})) == SymChar({})
    for m in range(1, 9):
        assert mul(weyl_char(1), weyl_char(m)) == weyl_char(m - 1) + weyl_char(m + 1)


def test_mul_commutative():
    rng = random.Random(1)
    for _ in range(50):
        a, b = random_char(rng), random_char(rng)
        assert mul(a, b) == mul(b, a)


def test_frobenius_twist():
    assert frobenius_twist(SymChar({1: 1, -1: 1}), 3).coeffs == {3: 1, -3: 1}
    assert frobenius_twist(SymChar({0: 7}), 5).coeffs == {0: 7}
    assert frobenius_twist(weyl_char(2), 2).coeffs == {4: 1, 0: 1, -4: 1}


def test_weyl_expand_examples():
    assert weyl_expand(weyl_char(3)) == {3: 1}
    assert weyl_expand(mul(weyl_char(1), weyl_char(1))) == {0: 1, 2: 1}


def test_weyl_expand_round_trip():
    rng = random.Random(2)
    for _ in range(60):
        a = random_char(rng)
        expansion = weyl_expand(a)
        rebuilt = SymChar({})
        for m, c in expansion.items():
            rebuilt = rebuilt + c * weyl_char(m)
        assert rebuilt == a


def test_weyl_expand_reports_negative_parts():
    a = weyl_char(4) - 3 * weyl_char(2)
    assert weyl_expand(a) == {4: 1, 2: -3}


def test_inner_orthonormal():
    for m in range(6):
        for k in range(6):
            assert inner(weyl_char(m), weyl_char(k)) == int(m == k)


def test_inner_symmetric_and_positive():
    rng = random.Random(3)
    for _ in range(40):
        a, b = random_char(rng), random_char(rng)
        assert inner(a, b) == inner(b, a)
        assert inner(a, a) >= 0
        if a:
            assert inner(a, a) > 0


def test_dim_at_one():
    for m in range(8):
        assert dim_at_one(weyl_char(m)) == m + 1
    assert dim_at_one(SymChar({})) == 0


@settings(deadline=None)
@given(st.dictionaries(st.integers(0, 40), st.integers(-5, 5), max_size=6))
def test_weyl_expand_recovers_any_weyl_combination(mults):
    a = SymChar({})
    for m, c in mults.items():
        a = a + c * weyl_char(m)
    assert weyl_expand(a) == {m: c for m, c in mults.items() if c}


def greedy_weyl_expand(a):
    """The top-down greedy `weyl_expand` used to run: read the top weight m,
    subtract that multiple of weyl_char(m), repeat.  It returns only on a
    symmetric character."""
    out = {}
    rest = dict(a.coeffs)
    while rest:
        m = max(rest)
        c = rest[m]
        out[m] = c
        for w in range(-m, m + 1, 2):
            r = rest.get(w, 0) - c
            if r:
                rest[w] = r
            else:
                rest.pop(w, None)
    return out


@settings(deadline=None, max_examples=300)
@given(st.dictionaries(st.integers(0, 60), st.integers(-6, 6), max_size=12))
@example({5: 2, 2: -3, 0: 1, 1: -1})
def test_weyl_expand_equals_the_greedy_on_symmetric_characters(half):
    a = SymChar({**half, **{-w: c for w, c in half.items()}})
    # Same coefficients in the same order, top weight first.
    assert list(weyl_expand(a).items()) == list(greedy_weyl_expand(a).items())


def test_weyl_expand_refuses_a_character_that_is_not_symmetric():
    # The greedy looped forever on these: it left a term at a negative top
    # weight m, whose range(-m, m + 1, 2) is empty.  Run in a child process
    # so that a hang fails the test at its timeout.
    code = (
        "from verkit.charring import SymChar, inner, weyl_char, weyl_expand\n"
        "from verkit.errors import NegativeLeadingCoefficient\n"
        "for a in (SymChar({1: 1}), SymChar({3: 1, -1: 1})):\n"
        "    for call in (lambda: weyl_expand(a), lambda: inner(weyl_char(1), a)):\n"
        "        try:\n"
        "            call()\n"
        "        except NegativeLeadingCoefficient:\n"
        "            continue\n"
        "        raise SystemExit(f'no NegativeLeadingCoefficient on {a}')\n"
    )
    src = os.path.dirname(os.path.dirname(charring.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr + done.stdout
