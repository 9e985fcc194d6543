"""Correctness oracles, run after the timed sections.

The fusion oracle does its own cyclotomic arithmetic: an element of Z[q],
q = exp(i pi / p^n), is an integer vector of length N = p^n with q^N = -1,
and two elements are equal when their difference vanishes modulo the
cyclotomic polynomial Phi_{2p^n}.  Projective classes come from the
Kronecker-route Cartan matrix, which the code under test does not use for
folding.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import simple_count


def _digits(a: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        a, d = divmod(a, p)
        out.append(d)
    return out[::-1]


class FusionOracle:
    def __init__(self, p: int, n: int):
        from verkit import digits

        self.p, self.n = p, n
        self.N = N = p**n
        k = simple_count(p, n)
        if p == 2:
            self.phi = {0: 1}  # Phi = x^N + 1: vectors mod x^N + 1 are reduced
            self.deg = N
        else:
            step = p ** (n - 1)
            self.phi = {j * step: (-1) ** j for j in range(p)}
            self.deg = (p - 1) * step
        self.factors = [self._qdim_factors(i) for i in range(k)]
        self.fpdim = np.zeros((k, N), dtype=np.int64)
        for i in range(k):
            v = np.zeros(N, dtype=np.int64)
            v[0] = 1
            for f in self.factors[i]:
                v = self._mul_sparse(v, f)
            self.fpdim[i] = v
        cartan = digits.cartan_kronecker(p, n)
        offset = p ** (n - 1) - 1
        cols = [digits.steinberg_label(p, n, i) - offset for i in range(k)]
        # proj[i, j] = multiplicity of L_j in P_i = c_{s(j), s(i)}
        self.proj = np.array(
            [[int(cartan[cols[j], cols[i]]) for j in range(k)] for i in range(k)], dtype=np.int64
        )

    def _qdim_factors(self, i: int) -> list[list[int]]:
        """Exponents of q in each quantum integer [d_k + 1]_{q^(p^(n-k))}."""
        out = []
        for k, d in enumerate(_digits(i, self.p, self.n), start=1):
            s = self.p ** (self.n - k)
            m = d + 1
            out.append([s * (m - 1 - 2 * j) for j in range(m)])
        return out

    def _shift(self, v: np.ndarray, e: int) -> np.ndarray:
        """q^e * v, using q^N = -1."""
        N = self.N
        e %= 2 * N
        sign = 1
        if e >= N:
            e -= N
            sign = -1
        out = np.empty_like(v)
        out[e:] = v[: N - e]
        out[:e] = -v[N - e :]
        return sign * out

    def _mul_sparse(self, v: np.ndarray, exponents: list[int]) -> np.ndarray:
        out = np.zeros_like(v)
        for e in exponents:
            out += self._shift(v, e)
        return out

    def _is_zero(self, v: np.ndarray) -> bool:
        r = [int(c) for c in v]
        for top in range(self.N - 1, self.deg - 1, -1):
            c = r[top]
            if c:
                for e, s in self.phi.items():
                    r[top - self.deg + e] -= c * s
                r[top] = 0
        return not any(r[: self.deg])

    def check(self, a: int, b: int, vector, simples: dict, peeled: dict) -> str | None:
        """None when the fusion result is right, else the reason."""
        k = len(self.factors)
        c = np.array(vector, dtype=np.int64)
        if c.shape != (k,) or (c < 0).any():
            return "fused vector has the wrong length or a negative entry"
        lhs = self.fpdim[a]
        for f in self.factors[b]:
            lhs = self._mul_sparse(lhs, f)
        if not self._is_zero(lhs - c @ self.fpdim):
            return "FPdim(L_a) FPdim(L_b) != sum c_k FPdim(L_k)"
        rebuilt = np.zeros(k, dtype=np.int64)
        for i, m in simples.items():
            if m <= 0:
                return f"non-positive simple multiplicity at L{i}"
            rebuilt[i] += m
        for i, m in peeled.items():
            if m <= 0:
                return f"non-positive projective multiplicity at P{i}"
            rebuilt += m * self.proj[i]
        if (rebuilt != c).any():
            return "folded simples and projectives do not rebuild the fused vector"
        return None


def dumps(doc) -> str:
    """The CLI's JSON serialization."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def check_rung(p: int, n: int, cold: dict, warm: dict, file_before: bytes, file_after: bytes) -> str | None:
    ver = cold.get("verification", {})
    if not ver.get("all_passed"):
        failed = [c["name"] for c in ver.get("checks", []) if not c["passed"]]
        return f"verification failed: {failed}"
    if (cold.get("p"), cold.get("n")) != (p, n):
        return f"payload is for p={cold.get('p')}, n={cold.get('n')}"
    if len(cold["simples"]) != simple_count(p, n):
        return f"{len(cold['simples'])} simples"
    if cold["stable"]["order"] != p ** (p ** (n - 1) - 1):
        return f"stable order {cold['stable']['order']}"
    if dumps(cold).encode() != file_before:
        return "cache file differs from the cold payload"
    if file_after != file_before or dumps(warm).encode() != file_before:
        return "warm re-read differs from the cold file"
    return None


class CliOracle:
    """The document each command prints, rebuilt from library calls.

    Matrix entries come from the Kronecker route and block determinants from
    their forced values, so they do not repeat the CLI's own computation.
    """

    def __init__(self, cache_dirs: dict, samples: int, seed: int):
        self.cache_dirs = cache_dirs
        self.samples = samples
        self.seed = seed
        self._memo: dict[tuple, str] = {}

    def stdout(self, p: int, n: int, args: list[str]) -> str:
        key = tuple(args)
        if key not in self._memo:
            from verkit.cli import SCHEMA_VERSION

            kind, payload = self._payload(p, n, args)
            self._memo[key] = dumps({"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload})
        return self._memo[key]

    def _payload(self, p: int, n: int, args: list[str]):
        from verkit import catalog, charring, cli, digits, grring, tilting

        command = args[0]
        opt = {args[i]: args[i + 1] for i in range(1, len(args) - 1) if args[i].startswith("-")}
        if command in ("report", "verify"):
            payload = cli.load_or_build(p, n, self.cache_dirs[(p, n)], self.samples, self.seed)
            if command == "report":
                return "category_report", payload
            return "verification", payload["verification"]
        if command == "fuse":
            a, b = int(opt["-a"]), int(opt["-b"])
            v = grring.fuse_simples(p, n, a, b)
            simples, projectives, _ = grring.fold_projectives(p, n, v)
            return "fusion_product", {
                "p": p,
                "n": n,
                "a": a,
                "b": b,
                "vector": list(v.coeffs),
                "folded": {
                    "simples": sorted(simples.items()),
                    "projectives": sorted(projectives.items()),
                    "text": cli.fold_text(p, n, v),
                },
            }
        if command == "cartan":
            cartan = digits.cartan_kronecker(p, n)
            offset = p ** (n - 1) - 1
            order = []
            for block in digits.block_partition(p, n):
                members = [digits.simple_of_projective(p, n, s) for s in block]
                if members[0] % 2 == 0:
                    order.extend(sorted(members))
            idx = [digits.steinberg_label(p, n, i) - offset for i in order]
            labels = [f"L{i}" for i in order]
            entries = [[int(cartan[r, c]) for c in idx] for r in idx]
            return "matrix", {"rows": labels, "cols": labels, "entries": entries}
        if command == "blocks":
            blocks = [
                {
                    "projectives": list(block),
                    "simples": [digits.simple_of_projective(p, n, s) for s in block],
                    "size": len(block),
                    "det": catalog.expected_block_det(p, n, block),
                }
                for block in digits.block_partition(p, n)
            ]
            return "block_report", {"p": p, "n": n, "blocks": blocks}
        if command == "invariants":
            depth = int(opt["-M"])
            series = tilting.series_fn(p, n, depth)
            return "series", {
                "p": p,
                "n": n,
                "M": depth,
                "tensor_route": series,
                "series_route": series,
                "equal": True,
            }
        if command == "tilting":
            m = int(opt["-m"])
            char = tilting.tilting_char(p, m)
            return "tilting_module", {
                "p": p,
                "n": n,
                "m": m,
                "weyl_factors": sorted(digits.extended_decomposition_row(p, n, m).items()),
                "dim": charring.dim_at_one(char),
                "projective": m in digits.projective_range(p, n),
                "character": sorted(char.coeffs.items()),
            }
        raise ValueError(f"no oracle for {command}")
