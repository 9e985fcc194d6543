"""The record views print what the library computes.

`cartan`, `decomp`, `blocks`, `ext1`, `fuse` and `table` read the verified
record of their category.  Each document here is rebuilt from
`catalog.category`, `digits.decomposition_matrix` and
`grring.fold_projectives` instead, and the command's stdout must equal it
in json and in text.  The block-sparse record itself, read back from its
file, must expand to the same matrices and hold the same FP values.
"""

import functools
import json
import random

import pytest

from conftest import run_cli
from verkit import catalog, cli, digits, grring

CATEGORIES = [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (5, 3)]


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@pytest.fixture()
def cached_classes(monkeypatch):
    """`fold_projectives` unchanged, with each projective class computed once."""
    monkeypatch.setattr(grring, "projective_class", functools.cache(grring.projective_class))


def _matrix(rows, cols, M) -> dict:
    return {"rows": rows, "cols": cols, "entries": [[int(v) for v in row] for row in M.tolist()]}


def _cartan(p, n, even_only):
    cat = catalog.category(p, n)
    if not even_only:
        labels = [f"T{i}" for i in cat.rows]
        return _matrix(labels, labels, cat.cartan)
    order = []
    for block in cat.blocks:
        members = [cat.simple_of_proj[s] for s in block]
        if members[0] % 2 == 0:
            order.extend(sorted(members))
    labels = [f"L{i}" for i in order]
    return _matrix(labels, labels, cat.block_cartan([cat.proj_of_simple[i] for i in order]))


def _fold(p, n, v) -> str:
    simples, projectives, _ = grring.fold_projectives(p, n, v)
    parts = [f"{c if c > 1 else ''}L{i}" for i, c in sorted(simples.items())]
    parts += [f"{c if c > 1 else ''}P{i}" for i, c in sorted(projectives.items())]
    return " + ".join(parts) if parts else "0"


def _expected(p, n, args):
    """(kind, payload, text) of the command named by args."""
    command = args[0]
    if command == "cartan":
        payload = _cartan(p, n, "--even-only" in args)
        return "matrix", payload, "\n".join(cli._render_matrix(payload))
    if command == "decomp":
        payload = _matrix(
            [f"T{i}" for i in digits.projective_range(p, n)],
            [f"W{j}" for j in range(p**n - 1)],
            digits.decomposition_matrix(p, n),
        )
        return "matrix", payload, "\n".join(cli._render_matrix(payload))
    cat = catalog.category(p, n)
    if command == "blocks":
        blocks = [
            {
                "projectives": list(block),
                "simples": [cat.simple_of_proj[s] for s in block],
                "size": len(block),
                "det": cat.block_dets[block],
            }
            for block in cat.blocks
        ]
        text = "\n".join(
            f"size {b['size']}, det {b['det']}: "
            + ", ".join(f"T{s} (L{i})" for s, i in zip(b["projectives"], b["simples"]))
            for b in blocks
        )
        return "block_report", {"p": p, "n": n, "blocks": blocks}, text
    if command == "ext1":
        edges = [list(e) for e in cat.ext1_edges]
        text = "\n".join(f"L{a} -- L{b}" for a, b in edges) or "no extensions"
        return "ext1", {"p": p, "n": n, "edges": edges}, text
    if command == "fuse":
        a, b = int(args[2]), int(args[4])
        v = grring.fuse_simples(p, n, a, b)
        simples, projectives, _ = grring.fold_projectives(p, n, v)
        payload = {
            "p": p,
            "n": n,
            "a": a,
            "b": b,
            "vector": list(v.coeffs),
            "folded": {
                "simples": [list(kv) for kv in sorted(simples.items())],
                "projectives": [list(kv) for kv in sorted(projectives.items())],
                "text": _fold(p, n, v),
            },
        }
        text = f"L{a} (x) L{b} = {payload['folded']['text']}\nvector {tuple(v.coeffs)}"
        return "fusion_product", payload, text
    assert command == "table" and args[1:] == ["--even-only"]
    labels = [i for i in cat.simples if i % 2 == 0]
    cells = [
        [
            {"vector": list(v.coeffs), "text": _fold(p, n, v)}
            for v in (grring.fuse_simples(p, n, a, b) for b in labels)
        ]
        for a in labels
    ]
    grid = [[""] + [f"L{b}" for b in labels]]
    grid += [[f"L{a}"] + [cell["text"] for cell in row] for a, row in zip(labels, cells)]
    text = "\n".join(cli._grid(grid))
    return "fusion_table", {"p": p, "n": n, "labels": labels, "cells": cells}, text


def _commands(p, n):
    k = (p - 1) * p ** (n - 1)
    rng = random.Random(100 * p + n)
    out = [["cartan"], ["cartan", "--even-only"], ["decomp"], ["blocks"], ["table", "--even-only"]]
    if p > 2:
        out.append(["ext1"])
    for _ in range(3):
        out.append(["fuse", "-a", str(rng.randrange(k)), "-b", str(rng.randrange(k))])
    return out


@pytest.mark.parametrize("p, n", CATEGORIES, ids=lambda v: str(v))
def test_every_view_prints_the_library_document(cache, cached_classes, p, n):
    for args in _commands(p, n):
        kind, payload, text = _expected(p, n, args)
        doc = {"schema_version": cli.SCHEMA_VERSION, "kind": kind, "payload": payload}
        wanted = {
            "json": json.dumps(doc, indent=2, sort_keys=True) + "\n",
            "text": text + "\n",
        }
        for fmt, body in wanted.items():
            argv = [*args, "-p", str(p), "-n", str(n), "--format", fmt, "--cache-dir", cache]
            result = run_cli(argv)
            assert result.exit_code == 0, (argv, result.output)
            assert result.output == body, argv


ROUND_TRIP = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)]


@pytest.mark.parametrize("p, n", ROUND_TRIP, ids=lambda v: str(v))
def test_the_block_sparse_record_holds_the_library_matrices(tmp_path, p, n):
    """The written record, read back, expands to the context's Cartan
    matrix and the descendant decomposition matrix, and holds the decimal
    values of each FPdim L_i and FPdim P_i and no exact FP dimension."""
    import numpy as np

    cold = cli.load_or_build(p, n, str(tmp_path), 100, 0)
    record = cli.load_or_build(p, n, str(tmp_path), 100, 0)
    assert record == cold
    cat = catalog.category(p, n)
    rows = [f"T{i}" for i in cat.rows]
    assert record["cartan"]["rows"] == rows
    full = np.zeros((len(rows), len(rows)), dtype=object)
    for block, M in zip(record["blocks"], record["cartan"]["blocks"], strict=True):
        idx = [rows.index(f"T{s}") for s in block["projectives"]]
        assert np.array(M).shape == (len(idx), len(idx))
        full[np.ix_(idx, idx)] = M
    assert (full == cat.cartan).all()

    dec = record["decomposition"]
    assert dec["rows"] == rows and dec["weyl_count"] == p**n - 1
    D = digits.decomposition_matrix(p, n)
    assert dec["support"] == [np.flatnonzero(row).tolist() for row in D]

    assert [e["label"] for e in record["fpdim"]] == list(cat.simples)
    for entry, (xs, xp) in zip(record["fpdim"], cat.fp_pass.values, strict=True):
        assert entry.keys() == {"label", "simple_numeric", "projective_numeric"}
        assert (entry["simple_numeric"], entry["projective_numeric"]) == (cli._nstr(xs), cli._nstr(xp))
