"""Assembly and cross-validation of one category Ver_{p^n}.

`category(p, n)` is the context of one category: each quantity that several
callers need is computed there once, on first use.  `build` collects
everything the rest of the package computes - decomposition
and Cartan matrices by independent routes, blocks, Steinberg labels, exact
and numeric Frobenius-Perron dimensions, Ext^1 adjacency and the stable
Grothendieck ring - into a single record, and `verify_all` runs every
consistency check as a named entry of a VerificationReport.  Checks collect
failures instead of aborting so a regression produces a full differential
report.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import mpmath
import numpy as np

from . import cyclo, digits, grring, tilting
from .errors import BoundExceeded, InvalidCategory, UnsupportedPrime
from .linalg import (
    definiteness_witness,
    det,
    is_positive_definite,
    permutation_equivalent,
    smith_normal_form,
)

DEFAULT_BOUND = 2000
INVARIANT_SERIES_DEPTH = 12
FPDIM_TOLERANCE = mpmath.mpf("1e-9")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_category(p: int, n: int, bound: int = DEFAULT_BOUND) -> None:
    """Refuse a (p, n) that names no category, or one above the build bound."""
    if not is_prime(p):
        raise InvalidCategory(f"{p} is not a prime")
    if n < 1:
        raise InvalidCategory(f"level must be >= 1, got {n}")
    count = p ** (n - 1) * (p - 1)
    if count > bound:
        raise BoundExceeded(f"{count} simple objects exceeds the bound {bound}")


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
    def cartan(self) -> np.ndarray:
        cartan = digits.cartan_descendant(self.p, self.n)
        cartan.flags.writeable = False
        return cartan

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(b) for b in digits.block_partition(self.p, self.n))

    def block_cartan(self, block) -> np.ndarray:
        """Cartan submatrix on the given projectives."""
        idx = [self.rows.index(s) for s in block]
        return self.cartan[np.ix_(idx, idx)]

    @cached_property
    def block_dets(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType({b: int(det(self.block_cartan(b))) for b in self.blocks})

    @cached_property
    def fpdim_simples(self) -> tuple[cyclo.CycloInt, ...]:
        return tuple(cyclo.fpdim_simple(self.p, self.n, i) for i in self.simples)

    @cached_property
    def fpdim_projectives(self) -> tuple[cyclo.CycloInt, ...]:
        return tuple(cyclo.fpdim_projective(self.p, self.n, i) for i in self.simples)

    @cached_property
    def fpdim_numeric(self) -> tuple[tuple[mpmath.mpf, mpmath.mpf], ...]:
        """Real values of (FPdim L_i, FPdim P_i), indexed by simple label."""
        return tuple(
            (fs.numeric_real(), fp.numeric_real())
            for fs, fp in zip(self.fpdim_simples, self.fpdim_projectives)
        )

    @cached_property
    def ext1_edges(self) -> tuple[tuple[int, int], ...] | None:
        """Pairs a < b of simples with Ext^1(L_a, L_b) != 0; None at p=2."""
        if self.p == 2:
            return None
        k = len(self.simples)
        return tuple(
            (a, b) for a in range(k) for b in range(a + 1, k) if digits.ext1(self.p, self.n, a, b)
        )

    @cached_property
    def tilting_classes(self) -> np.ndarray:
        """[T_m] in the simple basis as row m, m < p^n - 1, for odd p.

        Filled bottom-up: rows m <= 2p-2 are L_m and 2 L_{2p-2-m} + L_m;
        each later row m = a + p*b (a in [p-1, 2p-2]) is one GrElement
        product of row a and the lift of row b of the table one level down.
        """
        p, n = self.p, self.n
        if p == 2:
            raise UnsupportedPrime("tilting classes in the simple basis need odd p")
        table = np.zeros((p**n - 1, len(self.simples)), dtype=np.int64)
        for m in range(min(2 * p - 1, p**n - 1)):
            table[m, m] = 1
            if m >= p:
                table[m, 2 * p - 2 - m] = 2
        if n >= 2:
            below = category(p, n - 1).tilting_classes
            for m in range(2 * p - 1, p**n - 1):
                r = m % p
                a = p - 1 if r == p - 1 else p + r
                b = (m - a) // p
                low = grring.lift(grring.GrElement(p, n - 1, below[b].tolist()))
                table[m] = (grring.GrElement(p, n, table[a].tolist()) * low).coeffs
        table.flags.writeable = False
        return table

    @cached_property
    def stable(self) -> Mapping[str, object]:
        """Smith normal form of the Cartan matrix: order, invariant_factors, U, V."""
        factors, U, V = smith_normal_form(self.cartan)
        order = 1
        for f in factors:
            order *= abs(f)
        U.flags.writeable = V.flags.writeable = False
        stable = {"order": order, "invariant_factors": tuple(factors), "U": U, "V": V}
        return MappingProxyType(stable)


@lru_cache(maxsize=None)
def category(p: int, n: int) -> CategoryContext:
    """The one context of Ver_{p^n}; constructing it computes nothing."""
    return CategoryContext(p, n)


@dataclass
class Check:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, witness: str = "") -> None:
        self.checks.append(Check(name, bool(passed), witness))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


@dataclass
class CategoryData:
    """The record of Ver_{p^n}; fields shared with its context are read-only."""

    p: int
    n: int
    simples: list[int]
    projectives: list[int]
    proj_of_simple: tuple[int, ...]
    simple_of_proj: Mapping[int, int]
    decomposition: np.ndarray
    cartan: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    block_dets: dict[tuple[int, ...], int]
    dims: dict[int, int]
    fpdim_simples: tuple[cyclo.CycloInt, ...]
    fpdim_projectives: tuple[cyclo.CycloInt, ...]
    fpdim_numeric: tuple[tuple[mpmath.mpf, mpmath.mpf], ...]
    ext1_edges: tuple[tuple[int, int], ...] | None
    stable: dict
    verification: VerificationReport


def cartan_character(p: int, n: int) -> np.ndarray:
    """Cartan matrix through tilting characters: D D^T with D from Weyl rows."""
    rows = list(digits.projective_range(p, n))
    cols = p**n - 1
    D = np.zeros((len(rows), cols), dtype=object)
    for a, i in enumerate(rows):
        for j, c in digits.extended_decomposition_row(p, n, i).items():
            D[a, j] = c
    return D @ D.T


def block_size_classes(p: int, n: int) -> dict[int, int]:
    """Map trailing-zero count of i+1 to the expected size of such blocks."""
    classes = {n - 1: 1}
    for m in range(1, n):
        classes[n - 1 - m] = p ** (m - 1) * (p - 1)
    return classes


def expected_block_det(p: int, n: int, block: list[int]) -> int:
    """Determinant forced by the block's divisibility class."""
    a = block[0] + 1
    tz = 0
    while a % p == 0:
        a //= p
        tz += 1
    if tz == n - 1:
        return 1
    m = n - 1 - tz
    return p ** (p ** (m - 1))


def block_cartan_dets(p: int, n: int) -> dict[tuple[int, ...], int]:
    """Exact determinant of each block's Cartan submatrix."""
    return dict(category(p, n).block_dets)


def stable_gr(p: int, n: int) -> dict:
    """Additive invariants of the stable Grothendieck ring: Cartan cokernel."""
    return dict(category(p, n).stable)


def _brauer_line(size: int) -> np.ndarray:
    M = np.zeros((size, size), dtype=object)
    for i in range(size):
        M[i, i] = 2
        if i + 1 < size:
            M[i, i + 1] = M[i + 1, i] = 1
    return M


def verify_all(p: int, n: int, samples: int = 100, seed: int = 0) -> VerificationReport:
    """Run every consistency check; a failing check never raises.

    A sample count below one raises OutOfRange before any check runs.
    """
    grring.check_samples(samples)
    report = VerificationReport()
    ctx = category(p, n)
    rows = ctx.rows
    cartan = ctx.cartan

    routes_char = cartan_character(p, n)
    routes_kron = digits.cartan_kronecker(p, n)
    agree = (cartan == routes_char).all() and (cartan == routes_kron).all()
    report.add("cartan_routes_agree", agree, "" if agree else "routes disagree")

    posdef = is_positive_definite(cartan)
    report.add("cartan_symmetric_posdef", posdef, "" if posdef else definiteness_witness(cartan))

    powers = {0} | {2**m for m in range(n)}
    bad = [(i, j) for i in range(len(rows)) for j in range(len(rows)) if int(cartan[i, j]) not in powers]
    report.add("entries_powers_of_two", not bad, "" if not bad else f"entry at {bad[0]}")

    unit = ctx.rows.index(ctx.proj_of_simple[0])
    report.add(
        "unit_diagonal_entry",
        int(cartan[unit, unit]) == 2 ** (n - 1),
        f"got {int(cartan[unit, unit])}",
    )

    simples = list(digits.simple_range(p, n))
    report.add("simple_count", len(simples) == p ** (n - 1) * (p - 1))

    blocks = ctx.blocks
    report.add("block_count", len(blocks) == n * (p - 1), f"got {len(blocks)}")

    sizes = sorted(len(b) for b in blocks)
    expected_sizes = sorted(
        size for size in block_size_classes(p, n).values() for _ in range(p - 1)
    )
    report.add("block_sizes", sizes == expected_sizes, f"got {sizes}")

    # Group by divisibility class, not raw size: at p=2 the semisimple
    # blocks and the smallest non-semisimple ones both have one member.
    same = True
    witness = ""
    by_size: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for b in blocks:
        by_size.setdefault((len(b), expected_block_det(p, n, b)), []).append(b)
    for size, group in by_size.items():
        first = group[0]
        ref = ctx.block_cartan(first)
        for other in group[1:]:
            if permutation_equivalent(ref, ctx.block_cartan(other)) is None:
                same = False
                witness = f"blocks {list(first)} vs {list(other)}"
    report.add("same_size_blocks_identical", same, witness)

    if n >= 2:
        ok = True
        witness = ""
        for block in blocks:
            if expected_block_det(p, n, block) == p and len(block) == p - 1:
                if (ctx.block_cartan(block) != _brauer_line(p - 1)).any():
                    ok = False
                    witness = f"block {list(block)}"
        report.add("p2_nonsemisimple_block_is_brauer_line", ok, witness)
    else:
        report.add("p2_nonsemisimple_block_is_brauer_line", True, "no such blocks at n=1")

    report.add("det_total", det(cartan) == p ** (p ** (n - 1) - 1))

    dets = block_cartan_dets(p, n)
    bad_blocks = [b for b, d in dets.items() if d != expected_block_det(p, n, list(b))]
    report.add("det_per_block", not bad_blocks, "" if not bad_blocks else f"block {bad_blocks[0]}")

    ok, wit = cyclo.verify_cd_eq_p(p, n)
    report.add("cd_eq_p", ok, "" if ok else f"row {wit}")

    total = cyclo.fpdim_category(p, n)
    closed = cyclo.fpdim_category_closed_form(p, n)
    report.add(
        "fpdim_category",
        abs(total - closed) < FPDIM_TOLERANCE,
        f"|{mpmath.nstr(total, 15)} - {mpmath.nstr(closed, 15)}|",
    )

    if p**n > 2:
        x = ctx.fpdim_simples[1]
        at_level = cyclo.chebyshev_Q(p, n)(x)
        below = cyclo.chebyshev_Q(p, n - 1)(x)
        report.add("chebyshev_roots", (not at_level) and bool(below))
    else:
        report.add("chebyshev_roots", True, "no two-dimensional generator in Ver_2")

    depth = INVARIANT_SERIES_DEPTH
    report.add(
        "invariants_series",
        tilting.invariant_dims(p, n, depth) == tilting.series_fn(p, n, depth),
    )

    if p > 2:
        # The context holds Ext^1(L_a, L_b) for a < b; compare Ext^1(L_b, L_a).
        forward = set(ctx.ext1_edges)
        asym = [
            (a, b)
            for a in simples
            for b in simples[a:]
            if digits.ext1(p, n, b, a) != ((a, b) in forward)
        ]
        report.add("ext1_symmetric", not asym, "({},{})".format(*asym[0]) if asym else "")
        key = [digits.block_key(p, n, s) for s in ctx.proj_of_simple]
        across = [(a, b) for a, b in ctx.ext1_edges if key[a] != key[b]]
        report.add("ext1_within_blocks", not across, "({},{})".format(*across[0]) if across else "")
    else:
        report.add("ext1_symmetric", True, "p=2 rule not implemented here")
        report.add("ext1_within_blocks", True, "p=2 rule not implemented here")

    bij = all(ctx.simple_of_proj[ctx.proj_of_simple[i]] == i for i in simples) and all(
        ctx.proj_of_simple[ctx.simple_of_proj[s]] == s for s in rows
    )
    report.add("steinberg_bijection", bij)

    if n >= 2:
        covers = all(
            ctx.proj_of_simple[p * i] == 2 * p - 2 + p * digits.steinberg_label(p, n - 1, i)
            for i in digits.simple_range(p, n - 1)
        )
        report.add("covers_compat", covers)
    else:
        report.add("covers_compat", True, "no smaller category at n=1")

    if p > 2:
        res = grring.check_ring_hom_fusion(p, n, samples=samples, seed=seed)
        report.add(
            "fusion_consistency",
            res["passed"],
            "" if res["passed"] else f"pair {res['counterexample']}",
        )
    else:
        report.add("fusion_consistency", True, "tilting-route check needs odd p")

    return report


def build(
    p: int,
    n: int,
    bound: int = DEFAULT_BOUND,
    samples: int = 100,
    seed: int = 0,
) -> CategoryData:
    """Assemble the full CategoryData record for Ver_{p^n}."""
    check_category(p, n, bound)
    grring.check_samples(samples)
    ctx = category(p, n)
    simples = list(ctx.simples)
    stable = stable_gr(p, n)
    return CategoryData(
        p=p,
        n=n,
        simples=simples,
        projectives=list(ctx.rows),
        proj_of_simple=ctx.proj_of_simple,
        simple_of_proj=ctx.simple_of_proj,
        decomposition=digits.decomposition_matrix(p, n),
        cartan=ctx.cartan,
        blocks=ctx.blocks,
        block_dets=block_cartan_dets(p, n),
        dims={i: cyclo.dim_simple(p, n, i)[0] for i in simples},
        fpdim_simples=ctx.fpdim_simples,
        fpdim_projectives=ctx.fpdim_projectives,
        fpdim_numeric=ctx.fpdim_numeric,
        ext1_edges=ctx.ext1_edges,
        stable={"order": stable["order"], "invariant_factors": list(stable["invariant_factors"])},
        verification=verify_all(p, n, samples=samples, seed=seed),
    )
