"""Assembly and cross-validation of one category Ver_{p^n}.

`category(p, n)` is the context of one category: each quantity that several
callers need is computed there once, on first use.  `build` collects
everything the rest of the package computes - decomposition
and Cartan matrices by independent routes, blocks, Steinberg labels, the
values of the Frobenius-Perron dimensions, Ext^1 adjacency and the stable
Grothendieck ring - into a single record, and `verify_all` runs every
consistency check as a named entry of a VerificationReport, with the
seconds each took.  Checks collect failures instead of aborting so a
regression produces a full differential report.  One context pass,
`fp_pass`, is the only place either FP dimension is formed: `C d = p`
(`verify_cd_eq_p`) and the category dimension with its error bound
(`fpdim_category`) read what it keeps, and only FPdim L_1 outlives it.

Each Cartan route gives read-only sparse rows {T label: {T label: nonzero
entry}}; the checks read the descendant route's, and the block certificate
the character route's, summed once per category, so a passing build forms
no k x k array.  The Cartan matrix is block diagonal, one block per block
of the category, and the exact linear algebra runs block by block.  Each
solve block has one record, `SolveBlock`: its determinant and Smith
factors.  `block_certificate` proves from the block's tilting characters
that it is positive definite with Smith form diag(1, ..., 1, p, ..., p);
only a block it does not certify gets one fraction-free elimination
(leading minors and det) and `smith_normal_form`.  The stable ring, the
Cartan cokernel (Z/p)^(p^(n-1)-1), joins the records' factors;
`stable_rank_mod_p` checks that form on every block and p^(n-1) - 1 factors
p in all.  The check `cartan_block_diagonal` licenses the per-block work:
it runs first, and when it fails the same code runs on one block of all
rows, the full matrix.

The records are `typing.NamedTuple`s (`SolveBlock`, `FPPass`,
`CategoryData`) and two plain classes (`Check`, `VerificationReport`), so
the module loads no `dataclasses` (nor `inspect`, which that imports).
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from . import digits
from .errors import NotReal, PrecisionExceeded, UnsupportedPrime, VerkitError, check_category, check_pn
from .errors import is_prime  # re-exported
from .linalg import (
    definiteness_witness,
    det,
    minors_and_det,
    smith_normal_form,
)

if TYPE_CHECKING:
    import numpy as np

    from . import cyclo

INVARIANT_SERIES_DEPTH = 12


class SolveBlock(NamedTuple):
    """The exact linear algebra of the Cartan submatrix on one solve block:
    its determinant and Smith factors.  `minors` is None for a block that
    `block_certificate` certifies, else the leading minors up to the first
    zero one from the `minors_and_det` pass that gave the determinant."""

    block: tuple[int, ...]
    det: int
    factors: tuple[int, ...]
    minors: tuple[int, ...] | None = None


class FPPass(NamedTuple):
    """What `CategoryContext.fp_pass` keeps: the Cartan rows where C d = p
    fails, in pass order, per simple label the real values of (FPdim L,
    FPdim P) or the error evaluating one raised, their weights, and FPdim L_1."""

    offending: tuple[int, ...]
    values: tuple[tuple[Fraction | VerkitError, Fraction | VerkitError], ...]
    weights: tuple[tuple[int, int], ...]
    fpdim_l1: cyclo.CycloInt | None


def _real_value(name: str, x: cyclo.CycloInt) -> Fraction | VerkitError:
    """x's real value, or the error evaluating it raised, naming FPdim `name`."""
    try:
        return x.numeric_real()
    except (NotReal, PrecisionExceeded) as exc:
        return type(exc)(f"FPdim {name}: {exc}")


class CategoryContext:
    """Quantities of Ver_{p^n} shared by several callers, each computed on first use.

    Values are shared process-wide, so they are immutable (tuples indexed by
    simple label, read-only mappings and arrays) and fills are idempotent.
    `rows` lists the projective highest weights in Cartan row order.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.simples = digits.simple_range(p, n)
        self.rows = digits.projective_range(p, n)

    @cached_property
    def proj_of_simple(self) -> tuple[int, ...]:
        return tuple(digits.steinberg_label(self.p, self.n, i) for i in self.simples)

    @cached_property
    def simple_of_proj(self) -> Mapping[int, int]:
        p, n = self.p, self.n
        return MappingProxyType({s: digits.simple_of_projective(p, n, s) for s in self.rows})

    @cached_property
    def cartan_rows(self) -> Mapping[int, Mapping[int, int]]:
        """The descendant route's Cartan rows, which every check reads."""
        return digits.cartan_descendant_rows(self.p, self.n)

    @cached_property
    def character_rows(self) -> Mapping[int, Mapping[int, int]]:
        """The character route's Cartan rows, D D^T (`cartan_character`)."""
        return cartan_character(self.p, self.n)

    @cached_property
    def cartan(self) -> np.ndarray:
        """Read-only dense view of `cartan_rows` over `rows`; no check reads it."""
        cartan = digits.dense_matrix(self.cartan_rows, self.rows)
        cartan.flags.writeable = False
        return cartan

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(b) for b in digits.block_partition(self.p, self.n))

    def block_cartan(self, block) -> np.ndarray:
        """Cartan submatrix on the given projectives, from `cartan_rows`."""
        return digits.dense_matrix(self.cartan_rows, block)

    @cached_property
    def block_dets(self) -> Mapping[tuple[int, ...], int]:
        """Each block's Cartan determinant: read from its record when it is
        a solve block, else by `det`."""
        solved = {r.block: r.det for r in self.solved}
        return MappingProxyType(
            {b: solved[b] if b in solved else det(self.block_cartan(b)) for b in self.blocks}
        )

    @cached_property
    def block_diagonal_witness(self) -> str:
        """"" when the blocks partition the Cartan rows and every entry off
        the blocks is zero; otherwise the first offence found."""
        owner: dict[int, int] = {}
        for b, block in enumerate(self.blocks):
            for s in block:
                if s not in self.rows:
                    return f"T{s} of block {b} is no Cartan row"
                if s in owner:
                    return f"T{s} lies in blocks {owner[s]} and {b}"
                owner[s] = b
        missing = [s for s in self.rows if s not in owner]
        if missing:
            return f"T{missing[0]} lies in no block"
        off = self.first_entry(lambda s, t, c: owner[s] != owner[t])
        return "" if off is None else "nonzero off-block entry at ({}, {})".format(*off)

    def first_entry(self, offends) -> tuple[int, int] | None:
        """Positions in `rows` of the first nonzero Cartan entry c at (T_s,
        T_t), row-major, with offends(s, t, c); None if there is none."""
        pos = {s: a for a, s in enumerate(self.rows)}
        for a, s in enumerate(self.rows):
            cols = [pos[t] for t, c in self.cartan_rows[s].items() if offends(s, t, c)]
            if cols:
                return a, min(cols)
        return None

    @cached_property
    def solve_blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks that definiteness, det_total and the stable ring run
        on: the category's blocks when the Cartan matrix is block
        diagonal over them, else one block of all rows."""
        if self.block_diagonal_witness:
            return (tuple(self.rows),)
        return self.blocks

    @cached_property
    def solved(self) -> tuple[SolveBlock, ...]:
        """One record per solve block: from `block_certificate`, or from one
        elimination and `smith_normal_form` for a block it does not certify."""
        p, records = self.p, []
        for b in self.solve_blocks:
            r = block_certificate(self, b)
            if r is None:
                C = self.block_cartan(b)
                minors, d = minors_and_det(C)
                records.append(SolveBlock(b, d, tuple(smith_normal_form(C)[0]), tuple(minors)))
            else:
                records.append(SolveBlock(b, p**r, (1,) * (len(b) - r) + (p,) * r))
        return tuple(records)

    @cached_property
    def fp_pass(self) -> FPPass:
        """The one pass over the FP dimensions, and the only place either is
        formed.  Solve block by solve block, each simple forms FPdim L and
        lists its nonzero terms for the block; each row T_s forms FPdim P of
        its simple and compares it with the row's sum of c_st FPdim L_t in
        Python integers.  Each keeps its value and weight, and only FPdim L_1
        (`chebyshev_roots` reads it) outlives the pass."""
        from . import cyclo

        degree = cyclo.context(self.p, self.n).degree
        offending, found, l1 = [], {}, None
        for block in self.solve_blocks:
            terms = {}
            for t in block:
                i = self.simple_of_proj[t]
                fs = cyclo.fpdim_simple(self.p, self.n, i)
                terms[t] = [(e, fs.coeffs[e]) for e in compress(range(degree), fs.coeffs)]
                found[i] = _real_value(f"L{i}", fs), fs.weight
                if i == 1:
                    l1 = fs
            for s in block:
                row = [0] * degree
                for t, c in self.cartan_rows[s].items():
                    for e, d in terms[t]:
                        row[e] += c * d
                i = self.simple_of_proj[s]
                fp = cyclo.fpdim_projective(self.p, self.n, i)
                if tuple(row) != fp.coeffs:
                    offending.append(s)
                xs, ws = found[i]
                found[i] = (xs, _real_value(f"P{i}", fp)), (ws, fp.weight)
        values, weights = zip(*(found[i] for i in self.simples))
        return FPPass(tuple(offending), values, weights, l1)

    @cached_property
    def ext1_edges(self) -> tuple[tuple[int, int], ...] | None:
        """Pairs a < b of simples with Ext^1(L_a, L_b) != 0; None at p=2."""
        return None if self.p == 2 else digits.ext1_edges(self.p, self.n)

    @cached_property
    def tilting_classes(self) -> tuple[Mapping[int, int], ...]:
        """[T_m] in the simple basis as row m, m < p^n - 1, for odd p: a
        read-only {label: coefficient} of its nonzero coefficients.

        Filled bottom-up: rows m <= 2p-2 are L_m and 2 L_{2p-2-m} + L_m;
        each later row m = a + p*b (a in [p-1, 2p-2]) is one sparse product
        (`grring._product`) of row a and the lift of row b of the table one
        level down.
        """
        from . import grring

        p, n = self.p, self.n
        if p == 2:
            raise UnsupportedPrime("tilting classes in the simple basis need odd p")
        head = [{m: 1, 2 * p - 2 - m: 2} if m >= p else {m: 1} for m in range(2 * p - 1)]
        rows = head[: p**n - 1]
        if n >= 2:
            below = category(p, n - 1).tilting_classes
            for m in range(2 * p - 1, p**n - 1):
                a, b = digits.donkin_split(p, m)
                lifted = {j * p: c for j, c in below[b].items()}
                rows.append(grring._product(p, n, head[a], lifted))
        return tuple(MappingProxyType(row) for row in rows)

    @cached_property
    def stable(self) -> Mapping[str, object]:
        """The Cartan cokernel: its order and invariant factors.

        The solve blocks' factors joined and sorted, zeros last.  On
        block-diagonal input whose block factors merge into a divisibility
        chain these are the invariant factors of the whole matrix; they do
        when every block has the form diag(1, ..., 1, p, ..., p), which
        `verify_all` checks.
        """
        factors = sorted((f for r in self.solved for f in r.factors), key=lambda f: (f == 0, f))
        order = math.prod(abs(f) for f in factors)
        return MappingProxyType({"order": order, "invariant_factors": tuple(factors)})


@lru_cache(maxsize=None)
def category(p: int, n: int) -> CategoryContext:
    """The one context of Ver_{p^n}; constructing it computes nothing.

    A (p, n) that names no category raises InvalidCategory.
    """
    check_pn(p, n)
    return CategoryContext(p, n)


class Check:
    """One named check.  `seconds` is the wall time it took; it takes no
    part in equality and is not written to the cache payload."""

    __slots__ = ("name", "passed", "witness", "seconds")

    def __init__(self, name: str, passed: bool, witness: str = "", seconds: float = 0.0):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.seconds = seconds

    def __eq__(self, other) -> bool:
        if not isinstance(other, Check):
            return NotImplemented
        return (self.name, self.passed, self.witness) == (other.name, other.passed, other.witness)

    def __repr__(self) -> str:
        return f"Check(name={self.name!r}, passed={self.passed!r}, witness={self.witness!r}, seconds={self.seconds!r})"


class VerificationReport:
    """Checks in the order they ran.  Each check's seconds run from the
    previous `add` (or the report's creation) to its own, so they include
    whatever context quantity it was the first to need."""

    def __init__(self, checks: list[Check] | None = None):
        self.checks = [] if checks is None else checks
        self._mark = time.perf_counter()

    def __eq__(self, other) -> bool:
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return self.checks == other.checks

    def __repr__(self) -> str:
        return f"VerificationReport(checks={self.checks!r})"

    def add(self, name: str, passed: bool, witness: str = "") -> None:
        now = time.perf_counter()
        self.checks.append(Check(name, bool(passed), witness, now - self._mark))
        self._mark = now

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


class CategoryData(NamedTuple):
    """The record of Ver_{p^n}; fields shared with its context are read-only.

    `decomposition` holds, per Cartan row T_i, the increasing Weyl columns j
    with d_ij = 1: those where j + 1 is a descendant of i + 1.  `cartan` is
    the context's `cartan_rows`.  Of the FP dimensions it holds the values,
    and in place of a value that cannot be evaluated the error naming it
    (`fp_pass`), so a build with such a value returns its failed checks.
    """

    p: int
    n: int
    simples: list[int]
    projectives: list[int]
    proj_of_simple: tuple[int, ...]
    simple_of_proj: Mapping[int, int]
    decomposition: tuple[tuple[int, ...], ...]
    cartan: Mapping[int, Mapping[int, int]]
    blocks: tuple[tuple[int, ...], ...]
    block_dets: dict[tuple[int, ...], int]
    dims: dict[int, int]
    fpdim_numeric: tuple[tuple[Fraction | VerkitError, Fraction | VerkitError], ...]
    ext1_edges: tuple[tuple[int, int], ...] | None
    stable: dict
    verification: VerificationReport


def cartan_character(p: int, n: int) -> Mapping[int, Mapping[int, int]]:
    """Cartan matrix through tilting characters, D D^T with D from Weyl rows,
    as read-only rows {T label: {T label: nonzero entry}}: summed per Weyl
    column over the rows that hold it, in Python integers; no block is
    assumed.  It shares no code with the descendant route, of like shape."""
    rows = digits.projective_range(p, n)
    holders: dict[int, list[tuple[int, int]]] = {}
    for s in rows:
        for j, c in digits.extended_decomposition_row(p, n, s).items():
            holders.setdefault(j, []).append((s, c))
    out: dict[int, dict[int, int]] = {s: {} for s in rows}
    for column in holders.values():
        for s, c in column:
            row = out[s]
            for t, d in column:
                row[t] = row.get(t, 0) + c * d
    return digits.read_only_rows(out)


def block_certificate(ctx: CategoryContext, block) -> int | None:
    """r when the Cartan submatrix C_b on `block` (read from the sparse
    `ctx.cartan_rows`) is certified positive definite with Smith form
    diag(1, ..., 1, p, ..., p), r copies of p; else None.

    D_b holds the Weyl rows (`extended_decomposition_row`) of the block's
    k tilting modules.  Its core D1 is the k columns labelled by the
    block's own rows; D2 is the r other columns.  The certificate checks:
      (a) C_b = D_b D_b^T: the block's part of `ctx.cartan_rows` equals
          that of `ctx.character_rows`, the D D^T of all Weyl rows;
      (b) D1 is unitriangular: row s has a 1 at column s and nothing at a
          larger label of the block;
      (c) M = D1^-1 D2, by forward substitution, has M^T M = (p-1) I_r.
    Then C_b = D1 (I_k + M M^T) D1^T with D1 unimodular, so C_b is positive
    definite, and det C_b = det(I_r + M^T M) = p^r (Sylvester).  Row and
    column operations reduce [[I_k, -M], [M^T, I_r]] both to
    diag(I_k + M M^T, I_r) and to diag(I_k, p I_r), so the Smith form of
    I_k + M M^T, and of C_b, has r factors p and k - r factors 1.  A label
    that is no Cartan row of Ver_{p^n} gives None.
    """
    p, members = ctx.p, set(block)
    for s in block:
        cartan, character = ctx.cartan_rows.get(s, {}), ctx.character_rows.get(s, {})
        if s not in ctx.character_rows or cartan != character and (
            {t: c for t, c in cartan.items() if t in members and c}
            != {t: c for t, c in character.items() if t in members and c}
        ):
            return None
    D = {s: digits.extended_decomposition_row(p, ctx.n, s) for s in block}
    M: dict[int, dict[int, int]] = {}
    for s in sorted(block):
        if D[s].get(s) != 1 or any(t > s for t in D[s] if t in members):
            return None
        row = {j: c for j, c in D[s].items() if j not in members}
        for t, c in D[s].items():
            if t in members and t != s:
                for j, m in M[t].items():
                    row[j] = row.get(j, 0) - c * m
        M[s] = {j: m for j, m in row.items() if m}
    gram: dict[tuple[int, int], int] = {}
    for row in M.values():
        for j, a in row.items():
            for i, b in row.items():
                gram[j, i] = gram.get((j, i), 0) + a * b
    others = {j for row in D.values() for j in row if j not in members}
    if {ji: v for ji, v in gram.items() if v} != {(j, j): p - 1 for j in others}:
        return None
    return len(others)


def block_size_classes(p: int, n: int) -> dict[int, int]:
    """Map trailing-zero count of i+1 to the expected size of such blocks."""
    classes = {n - 1: 1}
    for m in range(1, n):
        classes[n - 1 - m] = p ** (m - 1) * (p - 1)
    return classes


def expected_block_det(p: int, n: int, block: list[int]) -> int:
    """Determinant forced by the block's divisibility class."""
    _, tz, _ = digits.block_key(p, n, block[0])
    if tz == n - 1:
        return 1
    m = n - 1 - tz
    return p ** (p ** (m - 1))


def _definiteness_witness(ctx: CategoryContext) -> str:
    """`definiteness_witness` on each solve block that `block_certificate`
    did not prove positive definite, naming full-matrix rows."""
    for r in ctx.solved:
        if r.minors is None:
            continue
        rows = [ctx.rows.index(s) for s in r.block]
        why = definiteness_witness(ctx.block_cartan(r.block), rows, r.minors)
        if why:
            return why
    return ""


def _stable_witness(ctx: CategoryContext) -> str:
    """Why the solve blocks' factors do not give the stable ring
    (Z/p)^(p^(n-1)-1), or "".

    Each solve block must have the Smith form diag(1, ..., 1, p, ..., p),
    and p^(n-1) - 1 factors must be p in all.  A block that fails is named
    with its det and its rank mod p, the number of its factors prime to p.
    """
    p, n = ctx.p, ctx.n
    for r in ctx.solved:
        if not set(r.factors) <= {1, p}:
            rank = sum(f % p != 0 for f in r.factors)
            return f"block of T{r.block[0]}: det {r.det}, rank mod {p} {rank} of {len(r.block)} rows"
    count = sum(r.factors.count(p) for r in ctx.solved)
    if count != p ** (n - 1) - 1:
        return f"{count} invariant factors equal to {p}"
    return ""


def _routes_witness(routes: Mapping[str, Mapping[int, Mapping[int, int]]]) -> str:
    """"" when every route gives the same Cartan rows; else the first entry,
    in label order, where they differ, and each route's value there."""
    rows = list(routes.values())
    if all(r == rows[0] for r in rows):
        return ""
    for s in sorted(set().union(*rows)):
        found = [r.get(s, {}) for r in rows]
        for t in sorted(set().union(*found)):
            values = [row.get(t, 0) for row in found]
            if len(set(values)) > 1:
                return f"(T{s}, T{t}): " + ", ".join(f"{name} {v}" for name, v in zip(routes, values))
    return ""


def _block_rows(ctx: CategoryContext, block) -> tuple[list[int], list[dict[int, int]]]:
    """The block's labels, sorted, and each one's Cartan row restricted to
    the block, as {position in that order: nonzero entry}."""
    labels = sorted(block)
    at = {s: a for a, s in enumerate(labels)}
    return labels, [{at[t]: c for t, c in ctx.cartan_rows.get(s, {}).items() if t in at and c} for s in labels]


def _first_difference(want: list[dict[int, int]], rows: list[dict[int, int]]) -> tuple[int, int] | None:
    """(a, b) of the first entry, row-major, where two lists of rows
    {column: entry} differ; None when they agree."""
    for a, (x, y) in enumerate(zip(want, rows)):
        if x != y:
            return a, min(b for b in x.keys() | y.keys() if x.get(b, 0) != y.get(b, 0))
    return None


def _same_class_witness(ctx: CategoryContext) -> str:
    """"" when the blocks of each divisibility class (size and expected det:
    at p = 2 the semisimple blocks and the smallest non-semisimple ones both
    have one member) have one Cartan block under the sorted-label map: the
    a-th smallest label of the class's first block goes to the a-th smallest
    of each other one, and the mapped rows of `ctx.cartan_rows`, restricted
    to their blocks, are equal.  That is stricter than equality up to some
    permutation, and needs no dense block and no search.  Else the first
    differing entry in label order, with both T labels and both values."""
    classes: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for b in ctx.blocks:
        classes.setdefault((len(b), expected_block_det(ctx.p, ctx.n, b)), []).append(b)
    for first, *others in classes.values():
        labels, want = _block_rows(ctx, first)
        for other in others:
            mapped, rows = _block_rows(ctx, other)
            found = _first_difference(want, rows)
            if found:
                a, b = found
                return f"(T{labels[a]}, T{labels[b]}) {want[a].get(b, 0)} vs (T{mapped[a]}, T{mapped[b]}) {rows[a].get(b, 0)}"
    return ""


def _brauer_line_witness(ctx: CategoryContext) -> str:
    """"" when every block of p - 1 members and determinant p has the Cartan
    block of the Brauer line: in sorted-label order, row a is exactly
    {a: 2, a +- 1: 1}.  Else the first offending block and its first wrong
    entry in label order."""
    p = ctx.p
    line = [{b: 2 - abs(a - b) for b in range(max(a - 1, 0), min(a + 2, p - 1))} for a in range(p - 1)]
    for block in ctx.blocks:
        if len(block) == p - 1 and expected_block_det(p, ctx.n, block) == p:
            labels, rows = _block_rows(ctx, block)
            found = _first_difference(line, rows)
            if found:
                a, b = found
                return f"block {list(block)}: (T{labels[a]}, T{labels[b]}) {rows[a].get(b, 0)}, not {line[a].get(b, 0)}"
    return ""


def verify_cd_eq_p(ctx: CategoryContext) -> tuple[bool, int | None]:
    """Check C * (FPdim of simples) = (FPdim of projectives), exactly, as
    the FP pass (`fp_pass`) compared them, row by row.  Returns (True, None)
    or (False, the offending projective of the first offending Cartan row)."""
    offending = ctx.fp_pass.offending
    return not offending, min(offending, key=ctx.rows.index, default=None)


def fpdim_category(ctx: CategoryContext) -> tuple[Fraction, Fraction]:
    """The sum of FPdim(L_i) * FPdim(P_i) over all simples, from the values
    and weights the FP pass kept (`fp_pass`), exactly; and the error it and
    `cyclo.fpdim_category_closed_form` carry: when the FP dimensions are
    right, the two differ by at most that bound.

    Let x_i, y_i be FPdim L_i and FPdim P_i, and x'_i, y'_i the context's
    values.  By `CycloInt.numeric`, |x'_i - x_i| < a_i and |y'_i - y_i| < b_i,
    where a_i is 2^-TABLE_BITS times one more than the absolute sum of the
    coefficients of FPdim L_i, and b_i the same for FPdim P_i.  Then

        |x'_i y'_i - x_i y_i| <= |x'_i| |y'_i - y_i| + |y_i| |x'_i - x_i|
                              <= |x'_i| b_i + (|y'_i| + b_i) a_i,

    so the sum is within E = sum_i |x'_i| b_i + |y'_i| a_i + a_i b_i of
    sum_i x_i y_i = p^n / (2 sin^2(pi/p^n)), and the closed form is within
    2^-TABLE_BITS of that value.  The bound is E + 2^-TABLE_BITS.  Both
    are summed exactly in units of 2^-(2 TABLE_BITS).  The first value the
    pass could not evaluate raises its error; one that is no multiple of
    2^-TABLE_BITS raises PrecisionExceeded naming its simple.
    """
    from .cyclo import TABLE_BITS

    fp = ctx.fp_pass
    for v in chain.from_iterable(fp.values):
        if isinstance(v, VerkitError):
            raise v
    scale = 1 << TABLE_BITS
    total, error = 0, scale
    for i, values, weights in zip(ctx.simples, fp.values, fp.weights):
        for name, v in zip("LP", values):
            if scale % v.denominator:
                raise PrecisionExceeded(f"FPdim {name}{i} at q is no multiple of 2^-{TABLE_BITS}")
        x, y = (v.numerator * (scale // v.denominator) for v in values)
        a, b = (w + 1 for w in weights)
        total += x * y
        error += abs(x) * b + abs(y) * a + a * b
    return Fraction(total, scale * scale), Fraction(error, scale * scale)


def verify_all(p: int, n: int, samples: int = 100, seed: int = 0) -> VerificationReport:
    """Run every consistency check; a failing check never raises.

    A sample count below one raises OutOfRange before any check runs.
    """
    from . import cyclo, grring, tilting

    grring.check_samples(samples)
    report = VerificationReport()
    ctx = category(p, n)

    # Definiteness, det_total and the stable ring run on ctx.solve_blocks,
    # which are the category's blocks only when this check passes.
    witness = ctx.block_diagonal_witness
    report.add("cartan_block_diagonal", not witness, witness)

    witness = _routes_witness({"descendant": ctx.cartan_rows, "kronecker": digits.cartan_kronecker_rows(p, n),
                               "character": ctx.character_rows})
    report.add("cartan_routes_agree", not witness, witness)

    witness = _definiteness_witness(ctx)
    report.add("cartan_symmetric_posdef", not witness, witness)

    powers = {2**m for m in range(n)}
    bad = ctx.first_entry(lambda s, t, c: c not in powers)
    report.add("entries_powers_of_two", bad is None, "" if bad is None else "entry at ({}, {})".format(*bad))

    unit = ctx.proj_of_simple[0]
    entry = ctx.cartan_rows[unit].get(unit, 0)
    report.add("unit_diagonal_entry", entry == 2 ** (n - 1), f"got {entry}")

    simples = list(digits.simple_range(p, n))
    report.add("simple_count", len(simples) == p ** (n - 1) * (p - 1))

    blocks = ctx.blocks
    report.add("block_count", len(blocks) == n * (p - 1), f"got {len(blocks)}")

    sizes = sorted(len(b) for b in blocks)
    expected_sizes = sorted(
        size for size in block_size_classes(p, n).values() for _ in range(p - 1)
    )
    report.add("block_sizes", sizes == expected_sizes, f"got {sizes}")

    witness = _same_class_witness(ctx)
    report.add("same_size_blocks_identical", not witness, witness)

    # Level one has no non-semisimple block of p - 1 members and no smaller
    # category, and Ver_2 no simple L_1: the report omits those checks.
    if n >= 2:
        witness = _brauer_line_witness(ctx)
        report.add("p2_nonsemisimple_block_is_brauer_line", not witness, witness)

    report.add("det_total", math.prod(r.det for r in ctx.solved) == p ** (p ** (n - 1) - 1))

    bad_blocks = [b for b, d in ctx.block_dets.items() if d != expected_block_det(p, n, list(b))]
    report.add("det_per_block", not bad_blocks, "" if not bad_blocks else f"block {bad_blocks[0]}")

    witness = _stable_witness(ctx)
    report.add("stable_rank_mod_p", not witness, witness)

    ok, row = verify_cd_eq_p(ctx)
    report.add("cd_eq_p", ok, "" if ok else f"row {row}")

    try:
        total, error = fpdim_category(ctx)
    except (NotReal, PrecisionExceeded) as exc:
        passed, witness = False, str(exc)
    else:
        closed = cyclo.fpdim_category_closed_form(p, n)
        passed, witness = abs(total - closed) <= error, f"|{cyclo.nstr(total, 15)} - {cyclo.nstr(closed, 15)}|"
    report.add("fpdim_category", passed, witness)

    if p**n > 2:
        # FPdim L_1 must be q + q^-1; then S_(p^n - 1) and S_(p^(n-1) - 1) at
        # that two-term element, by their recurrence in Python integers.
        ring = cyclo.context(p, n)
        if ctx.fp_pass.fpdim_l1 != ring.element([(1, 1), (-1, 1)]):
            witness = "FPdim L_1 != q + q^-1"
        else:
            at_level, below = cyclo.chebyshev_at(ring, p**n - 1, p ** (n - 1) - 1)
            if at_level:
                witness = f"S_{p**n - 1}(FPdim L_1) != 0"
            else:
                witness = "" if below else f"S_{p ** (n - 1) - 1}(FPdim L_1) = 0"
        report.add("chebyshev_roots", not witness, witness)

    depth = INVARIANT_SERIES_DEPTH
    report.add(
        "invariants_series",
        tilting.invariant_dims(p, n, depth) == tilting.series_fn(p, n, depth),
    )

    # The Ext^1 digit rule and the tilting-route check need odd p; at p = 2
    # the report lists neither.
    if p > 2:
        asym = [(a, b) for a, b in ctx.ext1_edges if not digits.ext1(p, n, a, b) == digits.ext1(p, n, b, a) == 1]
        report.add("ext1_symmetric", not asym, "({},{})".format(*asym[0]) if asym else "")
        key = [digits.block_key(p, n, s) for s in ctx.proj_of_simple]
        across = [(a, b) for a, b in ctx.ext1_edges if key[a] != key[b]]
        report.add("ext1_within_blocks", not across, "({},{})".format(*across[0]) if across else "")

    bij = all(ctx.simple_of_proj[ctx.proj_of_simple[i]] == i for i in simples) and all(
        ctx.proj_of_simple[ctx.simple_of_proj[s]] == s for s in ctx.rows
    )
    report.add("steinberg_bijection", bij)

    if n >= 2:
        covers = all(
            ctx.proj_of_simple[p * i] == 2 * p - 2 + p * digits.steinberg_label(p, n - 1, i)
            for i in digits.simple_range(p, n - 1)
        )
        report.add("covers_compat", covers)

    if p > 2:
        res = grring.check_ring_hom_fusion(p, n, samples=samples, seed=seed)
        report.add(
            "fusion_consistency",
            res["passed"],
            "" if res["passed"] else f"pair {res['counterexample']}",
        )

    return report


def build(p: int, n: int, samples: int = 100, seed: int = 0) -> CategoryData:
    """Assemble the full CategoryData record for Ver_{p^n}."""
    from . import cyclo

    check_category(p, n)
    ctx = category(p, n)
    simples = list(ctx.simples)
    # First, so that each check's seconds include the context quantities it
    # is the first to need.
    verification = verify_all(p, n, samples=samples, seed=seed)
    return CategoryData(
        p=p,
        n=n,
        simples=simples,
        projectives=list(ctx.rows),
        proj_of_simple=ctx.proj_of_simple,
        simple_of_proj=ctx.simple_of_proj,
        decomposition=tuple(
            tuple(sorted(b - 1 for b in digits.descendants(i + 1, p, n))) for i in ctx.rows
        ),
        cartan=ctx.cartan_rows,
        blocks=ctx.blocks,
        block_dets=dict(ctx.block_dets),
        dims={i: cyclo.dim_simple(p, n, i)[0] for i in simples},
        fpdim_numeric=ctx.fp_pass.values,
        ext1_edges=ctx.ext1_edges,
        stable={"order": ctx.stable["order"], "invariant_factors": list(ctx.stable["invariant_factors"])},
        verification=verification,
    )
