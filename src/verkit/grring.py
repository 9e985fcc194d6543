"""The Grothendieck ring of Ver_{p^n} on the basis of simple classes.

Fusion of two simples peels the least significant digits m, r of the labels
and reduces to the category one level down:

* m + r < p:   (sum of L_k, |m-r| <= k <= m+r)         * lift(L_a' L_b')
* m + r >= p:  (sum over |m-r| <= k <= 2(p-2)-m-r
                + sum over 2(p-1)-m-r <= k <= p-1 of (2 - [k = p-1]) L_k)
                                                        * lift(L_a' L_b')
               + (sum over p <= k <= m+r of L_{k-p})    * lift(V L_a' L_b')

with all k of parity m+r, V the class of the two-dimensional object one
level down, and lift the label map j -> j*p induced by the inclusion of
Ver_{p^(n-1)}.  The base level n=1 is the classical truncated fusion

    L_i L_j = sum of L_k, |i-j| <= k <= min(i+j, 2(p-2)-i-j), k = i+j mod 2.

At p=2 the only subtlety is that V vanishes one level above the base (the
two-dimensional object of Ver_2 is zero), which kills the third term; the
exact Frobenius-Perron character on the ring is an isomorphism onto a ring
of cyclotomic integers, so the fusion here is completely pinned down by the
cyclotomic identities checked in the test suite.

Every product (`*`, `fuse_simples`, the class-table fill, the fusion check)
applies this rule bilinearly to sparse {label: coeff} dicts, one level at a
time, with no memo of products.  Level two adds its level-one products
inline, one base range per pair of terms.  Multiplication by V is a linear
map (`_times_v`), the same rule with x = L_1: a term of lowest digit
m < p-1 moves to m-1 and m+1, and m = p-1 gives 2 L_{p-2} plus V carried
one level down.  The low digits of each digit pair are read from a table
built once per p (`_digit_rule`, p^2 short tuples); the category bound
keeps p <= 47 wherever n >= 2.

Elements of different rings never mix: `+`, `-` and `*` refuse an operand of
another Ver_{p^n} with ShapeMismatch, and one that is no GrElement with
TypeError; the only scalars are integers.  For odd p the tilting classes [T_m]
are read from a per-category table (`CategoryContext.tilting_classes`) of
read-only sparse rows, filled bottom-up once.  The tilting-route check
compares two independent sides of the ring map: the truncated tensor
decomposition of T_i (x) T_j from tilting characters, summed as one integer
combination of table rows, against [T_i] * [T_j] multiplied out by the
fusion rule above, both on the sparse rows, in Python integers.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from itertools import compress

from .digits import (
    check_pn,
    check_simple,
    projective_range,
    simple_of_projective,
    simple_range,
    steinberg_label,
)
from .errors import (
    NegativeLeadingCoefficient,
    OutOfRange,
    ShapeMismatch,
    UnsupportedPrime,
    _decimal,
)


class GrElement:
    """Integer vector over the simple-object basis of Gr(Ver_{p^n})."""

    __slots__ = ("p", "n", "coeffs")

    def __init__(self, p: int, n: int, coeffs):
        self.p = p
        self.n = n
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != p ** (n - 1) * (p - 1):
            raise ShapeMismatch(f"{len(self.coeffs)} coefficients for Gr(Ver_{{{p}^{n}}})")

    @classmethod
    def zero(cls, p: int, n: int) -> "GrElement":
        return cls(p, n, (0,) * (p ** (n - 1) * (p - 1)))

    @classmethod
    def from_sparse(cls, p: int, n: int, terms) -> "GrElement":
        """The element of the {label: coefficient} mapping `terms`."""
        c = [0] * (p ** (n - 1) * (p - 1))
        for k, ck in terms.items():
            c[k] = ck
        return cls(p, n, c)

    @classmethod
    def basis(cls, p: int, n: int, i: int) -> "GrElement":
        check_simple(p, n, i)
        c = [0] * (p ** (n - 1) * (p - 1))
        c[i] = 1
        return cls(p, n, c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GrElement)
            and (self.p, self.n, self.coeffs) == (other.p, other.n, other.coeffs)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        terms = " + ".join(
            (f"{c}*L{i}" if c != 1 else f"L{i}") for i, c in enumerate(self.coeffs) if c
        )
        return f"GrElement(p={self.p}, n={self.n}, {terms or '0'})"

    def _same_ring(self, other: "GrElement") -> None:
        if (self.p, self.n) != (other.p, other.n):
            raise ShapeMismatch(
                f"operands in Gr(Ver_{{{self.p}^{self.n}}}) and Gr(Ver_{{{other.p}^{other.n}}})"
            )

    def __add__(self, other: "GrElement") -> "GrElement":
        if not isinstance(other, GrElement):
            return NotImplemented
        self._same_ring(other)
        return GrElement(self.p, self.n, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GrElement") -> "GrElement":
        if not isinstance(other, GrElement):
            return NotImplemented
        self._same_ring(other)
        return GrElement(self.p, self.n, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar: int) -> "GrElement":
        try:
            scalar = operator.index(scalar)
        except TypeError:
            return NotImplemented
        return GrElement(self.p, self.n, (scalar * a for a in self.coeffs))

    def __mul__(self, other: "GrElement") -> "GrElement":
        if not isinstance(other, GrElement):
            return NotImplemented
        self._same_ring(other)
        x, y = (dict(compress(enumerate(e.coeffs), e.coeffs)) for e in (self, other))
        return GrElement.from_sparse(self.p, self.n, _product(self.p, self.n, x, y))

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def support(self) -> list[int]:
        return [i for i, c in enumerate(self.coeffs) if c]


def base_fusion(p: int, i: int, j: int) -> list[int]:
    """Constituents of L_i L_j in the semisimple base category Ver_p."""
    for label in (i, j):
        if not 0 <= label <= p - 2:
            raise OutOfRange(f"label {_decimal(label)} outside [0, {p - 2}]")
    top = min(i + j, 2 * (p - 2) - i - j)
    return list(range(abs(i - j), top + 1, 2))


@lru_cache(maxsize=None)
def _digit_rule(p: int) -> tuple[tuple[tuple[tuple[tuple[int, int], ...], int], ...], ...]:
    """The rule's low digits per digit pair, built once per p: entry [m][r]
    is ((k, coefficient) pairs of the first term of L_m L_r, m + r).
    Read only for n >= 2, where the category bound keeps p <= 47.
    """
    rule = []
    for m in range(p):
        row = []
        for r in range(p):
            s = m + r
            terms = [(k, 1) for k in range(abs(m - r), (s if s < p else 2 * (p - 2) - s) + 1, 2)]
            if s >= p:
                terms += [(k, 2 - (k == p - 1)) for k in range(2 * (p - 1) - s, p, 2)]
            row.append((tuple(terms), s))
        rule.append(tuple(row))
    return tuple(rule)


def _times_v(p: int, n: int, w: dict[int, int]) -> dict[int, int]:
    """w * V on a sparse {label: coeff} dict: the rule above with x = L_1.

    A term of lowest digit m < p-1 moves to m-1 and m+1; m = p-1 gives
    2 L_{p-2} plus V carried one level down.  Level one is the base rule,
    and V of Ver_2 is zero.
    """
    out: dict[int, int] = {}
    if n == 1:
        for i, c in w.items():
            if i:
                out[i - 1] = out.get(i - 1, 0) + c
            if i <= p - 3:
                out[i + 1] = out.get(i + 1, 0) + c
        return {k: c for k, c in out.items() if c}
    carry: dict[int, int] = {}
    for a, c in w.items():
        j, m = divmod(a, p)
        if m < p - 1:
            if m:
                out[a - 1] = out.get(a - 1, 0) + c
            out[a + 1] = out.get(a + 1, 0) + c
        else:
            out[a - 1] = out.get(a - 1, 0) + 2 * c
            carry[j] = carry.get(j, 0) + c
    if carry:
        for j, c in _times_v(p, n - 1, carry).items():
            out[j * p] = out.get(j * p, 0) + c
    return {k: c for k, c in out.items() if c}


def _product(p: int, n: int, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """x * y on sparse {label: coeff} dicts, x = sum lift(X_m) L_m by lowest digit.

    Each digit pair (m, r) adds X_m Y_r, one level down, times its digits
    from `_digit_rule`; those of one digit sum m + r >= p are summed first
    and multiplied by V once.  At level two, X_m Y_r is one base range per
    pair of terms.
    """
    out: dict[int, int] = {}
    top = 2 * (p - 2)
    if n == 1:
        for i, ci in x.items():
            for j, cj in y.items():
                c = ci * cj
                for k in range(abs(i - j), min(i + j, top - i - j) + 1, 2):
                    out[k] = out.get(k, 0) + c
        return {k: c for k, c in out.items() if c}
    rule = _digit_rule(p)
    by_sum: dict[int, dict[int, int]] = {}  # m + r >= p -> sum of X_m Y_r
    if n == 2:
        ys = [(divmod(b, p), cb) for b, cb in y.items()]
        for a, ca in x.items():
            i, m = divmod(a, p)
            row = rule[m]
            for (j, r), cb in ys:
                c = ca * cb
                terms, s = row[r]
                ks = range(abs(i - j), min(i + j, top - i - j) + 1, 2)
                for k in ks:
                    for t, ct in terms:
                        out[k * p + t] = out.get(k * p + t, 0) + c * ct
                if s >= p:
                    acc = by_sum.setdefault(s, {})
                    for k in ks:
                        acc[k] = acc.get(k, 0) + c
    else:
        xs, ys = {}, {}  # lowest digit m -> X_m, r -> Y_r
        for z, groups in ((x, xs), (y, ys)):
            for a, c in z.items():
                j, m = divmod(a, p)
                groups.setdefault(m, {})[j] = c
        for m, xm in xs.items():
            row = rule[m]
            for r, yr in ys.items():
                w = _product(p, n - 1, xm, yr)
                terms, s = row[r]
                for j, cj in w.items():
                    for t, ct in terms:
                        out[j * p + t] = out.get(j * p + t, 0) + cj * ct
                if s >= p:
                    acc = by_sum.setdefault(s, {})
                    for j, cj in w.items():
                        acc[j] = acc.get(j, 0) + cj
    for s, acc in by_sum.items():
        for j, cj in _times_v(p, n - 1, acc).items():
            for k in range(j * p + (s - p) % 2, j * p + s - p + 1, 2):
                out[k] = out.get(k, 0) + cj
    return {k: c for k, c in out.items() if c}


def fuse_simples(p: int, n: int, a: int, b: int) -> GrElement:
    """The product [L_a][L_b] in Gr(Ver_{p^n})."""
    return GrElement.basis(p, n, a) * GrElement.basis(p, n, b)


def projective_class(p: int, n: int, i: int) -> GrElement:
    """[P_i] read off a Cartan column: sum of c_{t, s(i)} [L(t)]."""
    from .catalog import category

    s = steinberg_label(p, n, i)
    cat = category(p, n)
    cartan, rows = cat.cartan, cat.rows
    col = rows.index(s)
    out = [0] * (p ** (n - 1) * (p - 1))
    for a, t in enumerate(rows):
        c = int(cartan[a, col])
        if c:
            out[simple_of_projective(p, n, t)] += c
    return GrElement(p, n, out)


def tilting_class(p: int, n: int, m: int) -> GrElement:
    """[T_m] in the simple basis, for odd p: row m of the context's table.

    The table (`CategoryContext.tilting_classes`) applies [T_m] = L_m for
    m <= p-1, [T_m] = 2 L_{2p-2-m} + L_m for p <= m <= 2p-2, and above that
    [T_{a+pb}] = [T_a] * lift([T_b]) with the second factor read from the
    table one level down.
    """
    from .catalog import category

    check_pn(p, n)
    if p == 2:
        raise UnsupportedPrime("tilting classes in the simple basis need odd p")
    if not 0 <= m <= p**n - 2:
        raise OutOfRange(f"tilting index {_decimal(m)} outside [0, {p**n - 2}]")
    return GrElement.from_sparse(p, n, category(p, n).tilting_classes[m])


def check_samples(samples: int) -> None:
    """Refuse a sample count below one: a check of no pairs proves nothing."""
    if samples < 1:
        raise OutOfRange(f"samples must be >= 1, got {samples}")


def check_ring_hom_fusion(p: int, n: int, samples: int = 100, seed: int = 0) -> dict:
    """Compare tilting tensor decompositions against simple-basis fusion.

    For sampled (i, j) the class of the truncated decomposition of
    T_i (x) T_j must equal [T_i] * [T_j] expanded by the fusion rule.
    Both sides read the class table as sparse rows of Python integers, so
    the arithmetic is exact at any size: the left side is one integer
    combination of the rows that the decomposition names, the right side
    one product of rows i and j.
    Exhaustive when the number of pairs is at most `samples`.
    """
    from .catalog import category
    from .tilting import tensor_decompose, truncate

    if p == 2:
        raise UnsupportedPrime("the tilting-route consistency check needs odd p")
    check_samples(samples)
    top = p**n - 1
    all_pairs = top * top
    if all_pairs <= samples:
        pairs = [(i, j) for i in range(top) for j in range(top)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(top), rng.randrange(top)) for _ in range(samples)]
    rows = category(p, n).tilting_classes
    for i, j in pairs:
        left: dict[int, int] = {}
        for m, c in truncate(p, n, tensor_decompose(p, i, j)).mults.items():
            for k, ck in rows[m].items():
                left[k] = left.get(k, 0) + c * ck
        if {k: c for k, c in left.items() if c} != _product(p, n, rows[i], rows[j]):
            return {"pairs_checked": len(pairs), "passed": False, "counterexample": (i, j)}
    return {"pairs_checked": len(pairs), "passed": True, "counterexample": None}


def simple_projective_labels(p: int, n: int) -> set[int]:
    """Simple labels whose projective cover is the simple itself.

    These are the covers T_s with s+1 divisible by p^(n-1); block size alone
    does not decide this at p=2, where the smallest non-semisimple blocks
    also have one member.
    """
    return {
        simple_of_projective(p, n, s)
        for s in projective_range(p, n)
        if (s + 1) % p ** (n - 1) == 0
    }


def fold_order(p: int, n: int) -> list[int]:
    """The simples whose projective classes a fold peels, in peeling order:
    every simple that is not projective, largest projective cover first."""
    singles = simple_projective_labels(p, n)
    return sorted(
        (i for i in simple_range(p, n) if i not in singles),
        key=lambda i: -steinberg_label(p, n, i),
    )


def peel_projectives(v: GrElement, classes) -> tuple[dict[int, int], dict[int, int]]:
    """The greedy loop of `fold_projectives` over (label, coefficients) pairs.

    Peels each class in the order given as often as it fits below what is
    left; returns the leftover simples and the peeled multiplicities.
    """
    if not v.is_effective():
        raise NegativeLeadingCoefficient("fold_projectives expects an effective class")
    leftover = list(v.coeffs)
    peeled: dict[int, int] = {}
    for i, cls in classes:
        while all(l >= c for l, c in zip(leftover, cls)):
            leftover = [l - c for l, c in zip(leftover, cls)]
            peeled[i] = peeled.get(i, 0) + 1
            if not any(leftover):
                break
    return {i: c for i, c in enumerate(leftover) if c}, peeled


def fold_projectives(p: int, n: int, v: GrElement):
    """Display split of an effective class: simples plus projective classes.

    Peels classes of non-simple projectives greedily, largest highest weight
    first (`fold_order`, `peel_projectives`); what remains is reported
    through the simple-object slot (for products of simples in Ver_{p^2}
    this leftover is an actual direct sum of simples).  Simple projectives
    are never peeled; they print as L_i, which is how the worked tables
    write them.  The remainder slot reports any non-effective leftover and
    stays empty for effective inputs.
    """
    classes = ((i, projective_class(p, n, i).coeffs) for i in fold_order(p, n))
    simples, peeled = peel_projectives(v, classes)
    return simples, peeled, GrElement.zero(p, n)
