"""Exact arithmetic in Z[q], q = exp(i*pi/p^n) a primitive 2p^n-th root of unity.

Elements live in Z[x]/(Phi(x)) where Phi is the cyclotomic polynomial of
order 2p^n:

    Phi(x) = x^((p-1)p^(n-1)) - x^((p-2)p^(n-1)) + ... - x^(p^(n-1)) + 1   (p odd)
    Phi(x) = x^(2^n) + 1                                                  (p = 2)

The modulus is constructed directly and then self-checked two ways: it must
divide x^(p^n) + 1 exactly (so q^(p^n) = -1 in the ring), and, when the
power table is filled, it must vanish numerically at q.  Every element is
reduced modulo Phi once, by `CycloContext.reduce`, the one reduction loop,
from a list of at most p^n coefficients: `CycloContext.element` folds each
exponent into [0, p^n) by that relation, and `CycloInt.__mul__` folds its
product the same way.  Each context lists the modulus's nonzero lower
terms once, and the reduction takes all the top coefficients off in one
step with them.  The module holds the ring, the FP
dimension of each object and the closed form of the category dimension;
the identities over a whole category (`C d = p`, the category dimension)
are checked where the category's quantities are held, by substitution in
this ring, and nothing is ever solved for.
The Chebyshev check confirms that FPdim L_1 is the two-term element
q + q^-1 and then runs S_m = x S_(m-1) - S_(m-2) at that x in Z[q, q^-1]
(`chebyshev_at`): one Python integer per S_m, and only the S_m asked for
are reduced modulo Phi.  Horner's rule on the coefficients of
`chebyshev_Q`, which grow like 2^(p^n), is the test suite's oracle.  The
module loads neither numpy nor `linalg`.
Quantum integers are

    [m]_(q^s) = sum_{k=0}^{m-1} q^(s(m-1-2k)),

and the dimension of the simple object with digit string i_1...i_n is the
product of [i_k + 1] at q^(p^(n-k)), formed from its weights by one
`element` call.  Each projective dimension, a sum of [b], is formed from
its multiplicity profile, already folded, and reduced once.

The numeric embedding is the last step, and it too is exact integer
arithmetic.  Each context fills, on first use, a table of cos(pi j/p^n) and
sin(pi j/p^n) for j < deg Phi, rounded to integers at scale 2^TABLE_BITS:
powers of cos + i sin of pi/p^n in fixed point, with pi from Machin's
formula and the two functions from their Taylor series, each carried with
guard bits past the table's.  An element's value at q is then two integer
dot products with that table, returned as Fractions of denominator
2^TABLE_BITS; each part is within (sum |c_j| + 1) * 2^-TABLE_BITS of the
true value, and an element for which that bound is not below NUMERIC_TOL is
refused.  `nstr` prints such a dyadic value to a given number of
significant digits, rounding exactly as mpmath's `nstr` does, so the
decimal strings of the record keep mpmath's form without mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress, cycle
from operator import mul, sub

from .digits import check_pn, check_simple, descendants, steinberg_label, to_digits
from .errors import NotReal, OutOfRange, PrecisionExceeded, ShapeMismatch
from .tilting import chebyshev_s

NUMERIC_TOL = Fraction(1, 10**25)
GUARD_BITS = 32
# 136 bits carry 40 significant digits (mpmath's dps_to_prec(40)).
TABLE_BITS = 136 + GUARD_BITS
# (w + 1) * 2^-TABLE_BITS < NUMERIC_TOL exactly when w + 1 < _WEIGHT_LIMIT.
_WEIGHT_LIMIT = math.ceil(NUMERIC_TOL * 2**TABLE_BITS)


class IntPoly:
    """Integer polynomial in one variable, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs})"

    def __call__(self, x: "CycloInt") -> "CycloInt":
        acc = x.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + x.ctx.from_int(c)
        return acc


class CycloContext:
    """Per-(p, n) context holding the reduction modulus and, once filled, the
    integer table of q's powers; the modulus is immutable.

    The modulus's nonzero lower terms are listed once, at construction, as
    `_tail`: each term m x^j spread over the `_gap` positions j, ..., j +
    gap - 1, where gap is the distance from its highest lower term to its
    degree.  The terms sit gap apart from x^0 (every k p^(n-1) for odd p,
    x^0 alone for p = 2), so the spreads tile [0, degree) and `reduce`
    takes the top coefficients off in one step.
    """

    __slots__ = ("p", "n", "degree", "modulus", "_gap", "_tail", "_table")

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        if p == 2:
            self.degree = 2**n
            modulus = [0] * (self.degree + 1)
            modulus[0] = modulus[self.degree] = 1
        else:
            self.degree = (p - 1) * p ** (n - 1)
            modulus = [0] * (self.degree + 1)
            for k in range(p):
                modulus[k * p ** (n - 1)] = (-1) ** k
        self.modulus = tuple(modulus)
        lower = [(j, m) for j, m in enumerate(modulus[: self.degree]) if m]
        self._gap = self.degree - lower[-1][0]
        self._tail = tuple(m for _, m in lower for _ in range(self._gap))
        self._table = None
        self._self_check([j for j, _ in lower])

    def _self_check(self, lower: list[int]) -> None:
        # The lower terms tile [0, degree), so `reduce` is exact modulo the
        # modulus; then x * (x^(p^n - 1) reduced), reduced, must be -1:
        # modulus | x^(p^n) + 1, the relation `element` folds by.
        half = self.p**self.n
        if lower != list(range(0, self.degree, self._gap)):
            raise AssertionError(f"modulus for (p={self.p}, n={self.n}) has lower terms at {lower}")
        top = self.reduce([0] * (half - 1) + [1])
        if self.reduce((0,) + top) != (-1,) + (0,) * (self.degree - 1):
            raise AssertionError(f"modulus for (p={self.p}, n={self.n}) does not divide x^{half} + 1")

    def reduce(self, poly) -> tuple[int, ...]:
        """poly (ascending) modulo the modulus, as `degree` coefficients;
        poly has at most degree + gap of them, which is p^n for odd p and
        2^(n+1) for p = 2.

        With gap = degree - (highest lower term), x^(degree + t) for t < gap
        is minus the sum of m x^(j + t) over the lower terms m x^j, and
        none of those reaches x^degree.  So the top coefficients T come off
        at once: coefficient r loses `_tail`[r] T[r mod gap].
        """
        deg, gap = self.degree, self._gap
        rem, top = list(poly[:deg]), list(poly[deg:])
        if len(top) > gap:
            raise ShapeMismatch(f"{len(poly)} coefficients to reduce in a ring of degree {deg}")
        rem += [0] * (deg - len(rem))
        if any(top):
            top += [0] * (gap - len(top))
            rem[:] = map(sub, rem, map(mul, self._tail, cycle(top)))
        return tuple(rem)

    def power_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """round(2^TABLE_BITS cos(pi j/p^n)) and the same for sin, j < degree.

        Filled on first use from the powers of cos + i sin of pi/p^n, each
        within 2^-GUARD_BITS of a unit before it is rounded; a concurrent
        fill computes the same table.  The fill checks that the modulus
        vanishes at q, by the integer dot product `numeric` takes: within
        NUMERIC_TOL in each part.
        """
        if self._table is None:
            cos, sin = _powers(self.p**self.n, self.degree + 1)
            re = sum(map(mul, self.modulus, cos))
            im = sum(map(mul, self.modulus, sin))
            if max(abs(re), abs(im)) >= _WEIGHT_LIMIT:
                raise AssertionError(f"modulus for (p={self.p}, n={self.n}) does not vanish at q")
            self._table = (cos[: self.degree], sin[: self.degree])
        return self._table

    def zero(self) -> "CycloInt":
        return CycloInt(self, (0,) * self.degree)

    def one(self) -> "CycloInt":
        return self.from_int(1)

    def from_int(self, c: int) -> "CycloInt":
        return CycloInt(self, (c,) + (0,) * (self.degree - 1))

    def element(self, terms) -> "CycloInt":
        """The element sum of c * q^e over the pairs (e, c), for any integers e.

        q^(kp^n + r) = (-1)^k q^r folds every exponent into [0, p^n), so the
        sum is one list of length p^n, reduced modulo Phi once.
        """
        half = self.p**self.n
        folded = [0] * half
        for e, c in terms:
            k, r = divmod(e, half)
            folded[r] += -c if k % 2 else c
        return CycloInt(self, self.reduce(folded))

    def q_power(self, e: int) -> "CycloInt":
        """The element q^e for any integer e."""
        return self.element([(e, 1)])


@lru_cache(maxsize=None)
def context(p: int, n: int) -> CycloContext:
    """The one ring of Ver_{p^n}; a (p, n) that names no category raises InvalidCategory."""
    check_pn(p, n)
    return CycloContext(p, n)


class CycloInt:
    """Element of Z[x]/Phi, fully reduced; treated as immutable.  `weight`
    is sum |c_j| over its coefficients, summed once, as it is formed."""

    __slots__ = ("ctx", "coeffs", "weight")

    def __init__(self, ctx: CycloContext, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != ctx.degree:
            raise ShapeMismatch(f"{len(coeffs)} coefficients for a ring of degree {ctx.degree}")
        self.ctx = ctx
        self.coeffs = coeffs
        self.weight = sum(map(abs, compress(coeffs, coeffs)))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == self.ctx.from_int(other)
        return (
            isinstance(other, CycloInt)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        # An integer's element hashes as the integer, which it equals.
        return hash(self.coeffs if any(self.coeffs[1:]) else self.coeffs[0])

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"CycloInt(p={self.ctx.p}, n={self.ctx.n}, {list(self.coeffs)})"

    def __add__(self, other: "CycloInt") -> "CycloInt":
        return CycloInt(self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloInt") -> "CycloInt":
        return CycloInt(self.ctx, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloInt":
        return CycloInt(self.ctx, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "CycloInt":
        return CycloInt(self.ctx, tuple(scalar * a for a in self.coeffs))

    def __mul__(self, other: "CycloInt") -> "CycloInt":
        ctx = self.ctx
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        prod = [0] * (2 * ctx.degree - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in right:
                    prod[i + j] += a * b
        # q^(p^n + r) = -q^r, and 2 degree - 1 < 2 p^n: one fold suffices.
        half = ctx.p**ctx.n
        folded, high = prod[:half], prod[half:]
        folded[: len(high)] = map(sub, folded, high)
        return CycloInt(ctx, ctx.reduce(folded))

    def conjugate(self) -> "CycloInt":
        """Image under q -> q^(-1)."""
        return self.ctx.element((-e, c) for e, c in enumerate(self.coeffs))

    def is_real(self) -> bool:
        return self == self.conjugate()

    def numeric(self) -> tuple[Fraction, Fraction]:
        """Value at q = exp(i pi / p^n) as (real, imaginary), each within
        NUMERIC_TOL.

        Two integer dot products of the nonzero coefficients with the
        context's table, divided exactly by 2^TABLE_BITS.  Each table entry
        is within one unit of its scaled value, so the error is below
        (`weight` + 1) * 2^-TABLE_BITS.
        """
        coeffs, weight = self.coeffs, self.weight
        nonzero = list(compress(coeffs, coeffs))
        if weight + 1 >= _WEIGHT_LIMIT:
            raise PrecisionExceeded(
                f"coefficients of absolute sum {weight} are too large to evaluate within 1.0e-25"
            )
        cos, sin = self.ctx.power_table()
        re = sum(map(mul, nonzero, compress(cos, coeffs)))
        im = sum(map(mul, nonzero, compress(sin, coeffs)))
        return Fraction(re, 1 << TABLE_BITS), Fraction(im, 1 << TABLE_BITS)

    def numeric_real(self) -> Fraction:
        re, im = self.numeric()
        if abs(im) >= NUMERIC_TOL:
            raise NotReal(f"imaginary part {nstr(im, 5)} at q")
        return re


def _arctan_inverse(x: int, bits: int) -> int:
    """2^bits arctan(1/x), x >= 2, within two units per term of its series."""
    power = (1 << bits) // x  # 2^bits / x^(2k+1)
    total, k, x2 = power, 1, x * x
    while power:
        power //= x2
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        k += 1
    return total


def _cos_sin(N: int, bits: int) -> tuple[int, int]:
    """2^bits cos(pi/N) and 2^bits sin(pi/N), N >= 2, each within 2^8 units.

    pi by Machin's formula, pi/4 = 4 arctan(1/5) - arctan(1/239), at 16
    more bits, so within one unit; then the Taylor series of cos and sin at
    pi/N <= pi/2, summed until a term truncates to zero (under 80 terms at
    up to 300 bits), each term within a few units of its true value.
    """
    work = bits + 16
    pi = (16 * _arctan_inverse(5, work) - 4 * _arctan_inverse(239, work)) >> 16
    theta = pi // N
    cos, sin = 0, 0
    term, k = 1 << bits, 0  # 2^bits theta^k / k!
    while term:
        if k % 4 == 0:
            cos += term
        elif k % 4 == 1:
            sin += term
        elif k % 4 == 2:
            cos -= term
        else:
            sin -= term
        k += 1
        term = (term * theta >> bits) // k
    return cos, sin


def _powers(N: int, count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """round(2^TABLE_BITS cos(pi j/N)) and the same for sin, j < count.

    The powers of cos + i sin of pi/N are taken in fixed point with
    2 GUARD_BITS + bitlen(count) bits past TABLE_BITS: each step adds at
    most the start's error plus two units, so after `count` steps every
    power is within 2^-(2 GUARD_BITS - 9) of a table unit before rounding.
    """
    extra = 2 * GUARD_BITS + count.bit_length()
    bits = TABLE_BITS + extra
    c, s = _cos_sin(N, bits)
    half = 1 << (extra - 1)
    re, im = 1 << bits, 0
    cos, sin = [], []
    for _ in range(count):
        cos.append((re + half) >> extra)
        sin.append((im + half) >> extra)
        re, im = (re * c - im * s) >> bits, (re * s + im * c) >> bits
    return tuple(cos), tuple(sin)


def nstr(x: Fraction, dps: int) -> str:
    """x to dps >= 1 significant digits, exactly as `mpmath.nstr(x, dps)`
    prints the same value.

    x must have a power-of-two denominator, as every value of `numeric`
    has, and lie within 2^3500 of one (mpmath goes another way beyond).
    The digits of |x| are truncated at dps + 3 (at a binary precision
    chosen as mpmath chooses it), rounded half up at dps, and stripped of
    trailing zeros; an exponent between -max(dps // 3, 5) and dps is
    written out as leading or trailing zeros.
    """
    a, k = abs(x.numerator), x.denominator.bit_length() - 1
    if x.denominator != 1 << k:
        raise OutOfRange(f"{x} is not a dyadic rational")
    if not a:
        return "0.0"
    if abs(a.bit_length() - k) > 3500:
        raise OutOfRange(f"{x} is beyond 2^3500 or below 2^-3500")
    sign = "-" if x < 0 else ""
    # mpmath's to_digits_exp(x, dps + 3): |x| in binary fixed point at
    # fixprec bits (truncated), then floor(|x| 10^fixdps).
    bitprec = int((dps + 3) * math.log(10, 2)) + 10
    fixprec = max(bitprec + k - a.bit_length(), 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    fixed = a << (fixprec - k) if fixprec >= k else a >> (k - fixprec)
    digits = str(fixed * 10**fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    # mpmath's to_str: round half up at dps digits, a carry past the first
    # digit raising the exponent.
    if len(digits) > dps and digits[dps] in "56789":
        kept = digits[:dps].rstrip("9")
        if kept:
            digits = kept[:-1] + str(int(kept[-1]) + 1) + "0" * (dps - len(kept))
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            digits += "0" * (split - dps)
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return sign + digits
    return sign + digits + ("e+" if exponent > 0 else "e") + str(exponent)


def qint(p: int, n: int, m: int, t: int = 0) -> CycloInt:
    """Quantum integer [m] at q^(p^t), m >= 0 and t >= 0."""
    if m < 0 or t < 0:
        raise OutOfRange(f"quantum integer index and exponent must be >= 0, got m={m}, t={t}")
    step = p**t
    return context(p, n).element((step * (m - 1 - 2 * k), 1) for k in range(m))


def fpdim_simple(p: int, n: int, i: int) -> CycloInt:
    """FPdim(L_i) = product over digits of [i_k + 1] at q^(p^(n-k)), formed as
    the sum of q^e over e = sum_k p^(n-k) (i_k - 2 j_k), 0 <= j_k <= i_k."""
    check_simple(p, n, i)
    weights = [0]
    for k, d in enumerate(to_digits(i, p, n), start=1):
        weights = [w + p ** (n - k) * (d - 2 * j) for w in weights for j in range(d + 1)]
    return context(p, n).element((e, 1) for e in weights)


def fpdim_projective(p: int, n: int, i: int) -> CycloInt:
    """FPdim of the projective cover of L_i: the sum of [b] over its
    descendants b, from its multiplicity profile.

    The b share one parity, so q^e has multiplicity #{b : b > |e|} at every
    e of the other parity with |e| < max b, and none elsewhere.  One sweep
    over a = |e|, up through the b in order, fills that profile: a run of
    one multiplicity between neighbouring b.  The multiplicity at a goes in
    at exponent a and at -a, where q^-a = -q^(p^n - a); every b is below
    p^n, so that is the whole fold, and the list of length p^n is reduced
    modulo Phi once.
    """
    bs = sorted(descendants(steinberg_label(p, n, i) + 1, p, n))
    top, half = bs[-1], p**n
    profile = [0] * top  # profile[a]: the multiplicity of q^a and of q^-a
    a = (top - 1) % 2
    for k, b in enumerate(bs):
        profile[a:b:2] = [len(bs) - k] * ((b - a + 1) // 2)
        a = b + 1
    folded = profile + [0] * (half - top)
    folded[half - top + 1 :] = map(sub, folded[half - top + 1 :], profile[:0:-1])
    ring = context(p, n)
    return CycloInt(ring, ring.reduce(folded))


def dim_simple(p: int, n: int, i: int) -> tuple[int, int]:
    """Categorical dimension of L_i: product of (digit+1), with its residue mod p."""
    check_simple(p, n, i)
    d = 1
    for digit in to_digits(i, p, n):
        d *= digit + 1
    return d, d % p


def chebyshev_Q(p: int, n: int) -> IntPoly:
    """Chebyshev polynomial whose roots include 2cos(pi/p^n): S at index p^n - 1."""
    return IntPoly(chebyshev_s(p**n - 1))


def chebyshev_at(ring: CycloContext, *indices: int) -> tuple[CycloInt, ...]:
    """S_m(q + q^-1) for each m in `indices` (m >= 0), in that order, reduced.

    Runs S_0 = 1, S_1 = x, S_m = x S_(m-1) - S_(m-2) at x = q + q^-1 in
    Z[q, q^-1], on the polynomials P_m = q^m S_m of degree 2m:
    P_m = (q^2 + 1) P_(m-1) - q^2 P_(m-2).  Each P_m is one Python integer,
    its value at q = 2, with one bit per coefficient: evaluation is a ring
    homomorphism, so these integers follow the recurrence exactly and a
    product by q^2 is a shift by two bits.  One bit holds a coefficient
    because each is 0 or 1: S_m(q + q^-1) = [m+1]_q, so P_m = 1 + q^2 + ...
    + q^(2m), and the bits of the value are its coefficients.  Only the
    requested S_m are read back, bit j as the coefficient of q^(j - m), and
    reduced modulo Phi by `CycloContext.element`.
    """
    if any(m < 0 for m in indices):
        raise OutOfRange(f"Chebyshev indices must be >= 0, got {indices}")
    found, older, cur = {}, 0, 1  # P_(m-1), from P_(-1) = 0, and P_m from P_0 = 1
    for m in range(max(indices, default=0) + 1):
        if m in indices:
            bits = bin(cur)[:1:-1]
            found[m] = ring.element((j - m, 1) for j, b in enumerate(bits) if b == "1")
        older, cur = cur, (cur << 2) + cur - (older << 2)
    return tuple(found[m] for m in indices)


def fpdim_category_closed_form(p: int, n: int) -> Fraction:
    """p^n / (2 sin^2(pi / p^n)), within 2^-TABLE_BITS: the nearest multiple
    of 2^-TABLE_BITS to N 4^w / (2 s^2), with s = 2^w sin(pi/N) within
    2^8 units at w = TABLE_BITS + GUARD_BITS + 4 bitlen(N), N = p^n.

    With sin(pi/N) >= 2/N, the value is at most N^3/8 and s at least
    2^(w+1)/N, so s's relative error 2^8 N / 2^(w+1) moves the value by
    less than 3 * 2^8 N^4 / 2^(w+4) < 2^-(TABLE_BITS+1); rounding adds at
    most as much again.
    """
    N = p**n
    bits = TABLE_BITS + GUARD_BITS + 4 * N.bit_length()
    _, s = _cos_sin(N, bits)
    num, den = N << (2 * bits + TABLE_BITS), 2 * s * s
    return Fraction((2 * num + den) // (2 * den), 1 << TABLE_BITS)
