"""Command-line front end.

Most commands are views of one verified record per Ver_{p^n}: the payload
of its CategoryData, read from the JSON cache (`load_or_build`) or, on a
miss, built, verified and written there first.  The record is block-sparse
(`category_payload`): the Cartan matrix one block at a time and the
decomposition matrix by the support of each row, in flat int lists, and
the FP dimensions by their decimal values only.  `report`, `verify`, `cartan`,
`decomp`, `blocks` and `ext1` print parts of the record, and the views
expand the matrices again as they print them; `fuse` and `table` multiply
simples themselves and fold the products with the projective classes read
from the record's Cartan blocks.  `--cache-dir`,
`--samples` and `--rng-seed` select the record.  `tilting` and
`invariants` print quantities the record does not hold and compute them.
Each command returns a deterministic document; the table `COMMANDS` at
the end records it with its formats and its own options, and `main`
parses the arguments with argparse, streams the document in json, csv or
text form and sets the exit code.  Text tables use the L_i / P_i / T_m
notation of the printed tables so golden diffs stay readable; only the
matrix commands (`cartan`, `decomp`) offer csv, so any other command
refuses it before any work.  Exit codes: 0 success, 1 verification failure,
2 usage error: a refused argument, category or format, or a file that
cannot be written, printed as the usage line and one `Error:` line on
stderr.

Import policy: this module imports only the standard library (argparse
among it, no click) and `errors` at the top; `tempfile` is imported by
`_atomic_write`, so only a build or `--output` loads it.  Each command
imports the modules it uses in its body, and `load_or_build` imports
`catalog` only on a cache miss, so a warm record view loads neither
`cyclo` nor `catalog`.  No command loads numpy unless a build refuses a
Cartan block: `digits` and `linalg` import it only inside the functions
that return or take arrays.  The record's decimal strings come from
`cyclo.nstr`, which `_nstr` imports only after a build, so no warm command
loads the formatter, and no module loads mpmath.
`catalog.build` is read as a module attribute at call time, so a
replacement (a test double, a tracing wrapper) is what runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import TYPE_CHECKING, NoReturn

from .errors import OutOfRange, UnsupportedPrime, VerkitError, check_category

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    from . import catalog, grring

SCHEMA_VERSION = 3
# Part of every cache file name; raised whenever the payload of a category
# changes (new or renamed checks included), so files of an older payload are
# rebuilt.
CACHE_VERSION = 7
NUMERIC_DIGITS = 20


# ---------------------------------------------------------------------------
# serialization


_encode_str = json.encoder.encode_basestring_ascii  # json.dumps's escaping


def _json_chunks(obj, depth: int = 0) -> Iterator[str]:
    """Chunks of json.dumps(obj, indent=2, sort_keys=True), in order.

    For dicts with str keys, lists, tuples, str, int, bool and None (the
    payloads hold no floats); anything else raises TypeError.  A list of plain ints is one chunk, so a
    matrix row or a coefficient vector costs one join, where the standard
    library's indenting encoder (pure Python) yields each number, comma and
    newline apart.
    """
    if isinstance(obj, str):
        yield _encode_str(obj)
    elif obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, int):
        yield int.__repr__(obj)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = "\n" + "  " * (depth + 1)
        close = "\n" + "  " * depth + "]"
        if set(map(type, obj)) == {int}:
            yield "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + close
            return
        sep = "[" + inner
        for v in obj:
            yield sep
            yield from _json_chunks(v, depth + 1)
            sep = "," + inner
        yield close
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = "\n" + "  " * (depth + 1)
        sep = "{" + inner
        for key, v in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield sep + _encode_str(key) + ": "
            yield from _json_chunks(v, depth + 1)
            sep = "," + inner
        yield "\n" + "  " * depth + "}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _batches(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks joined into strings of about 2^18 characters (more only
    where one chunk is longer)."""
    batch: list[str] = []
    length = 0
    for chunk in chunks:
        batch.append(chunk)
        length += len(chunk)
        if length >= 1 << 18:
            yield "".join(batch)
            batch, length = [], 0
    if batch:
        yield "".join(batch)


def _nstr(x) -> str:
    from .cyclo import nstr

    return str(x) if isinstance(x, VerkitError) else nstr(x, NUMERIC_DIGITS)


def category_payload(data: catalog.CategoryData, samples: int, seed: int) -> dict:
    """The record of one category, block-sparse, its matrices in flat int lists.

    - "cartan": the T labels of the rows, in row order, and one square
      matrix per entry of "blocks", in that order, indexed in that block's
      "projectives" order.  Entries between two blocks are not stored; they
      are 0 when `cartan_block_diagonal` passes.
    - "decomposition": the T labels of the rows, the number of Weyl columns
      (p^n - 1) and, per row, the increasing columns j with d_ij = 1.
    - "fpdim": per simple L_i, the decimal values of FPdim L_i and
      FPdim P_i, or the message of the error evaluating one raised.  The
      exact FPdim L_i follows from the label (`cyclo.fpdim_simple`), so the
      record holds no exact FP dimension.

    The views expand the matrices on read (`_cartan_entries`, `decomp`).
    """
    p, n = data.p, data.n
    rows = [f"T{i}" for i in data.projectives]
    fpdim = [
        {"label": i, "simple_numeric": _nstr(xs), "projective_numeric": _nstr(xp)}
        for i, (xs, xp) in zip(data.simples, data.fpdim_numeric)
    ]
    cartan_blocks = [[[data.cartan[s].get(t, 0) for t in block] for s in block] for block in data.blocks]
    return {
        "p": p,
        "n": n,
        "schema_version": SCHEMA_VERSION,
        "simples": data.simples,
        "steinberg": [[i, data.proj_of_simple[i]] for i in data.simples],
        "dims": [[i, data.dims[i]] for i in data.simples],
        "decomposition": {
            "rows": rows,
            "weyl_count": p**n - 1,
            "support": [list(support) for support in data.decomposition],
        },
        "cartan": {"rows": rows, "blocks": cartan_blocks},
        "blocks": [
            {
                "projectives": list(block),
                "simples": [data.simple_of_proj[s] for s in block],
                "size": len(block),
                "det": data.block_dets[block],
            }
            for block in data.blocks
        ],
        "fpdim": fpdim,
        "stable": data.stable,
        "ext1": None if data.ext1_edges is None else [list(e) for e in data.ext1_edges],
        "verification": {
            "samples": samples,
            "seed": seed,
            "all_passed": data.verification.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in data.verification.checks
            ],
        },
    }


# ---------------------------------------------------------------------------
# cache


def _cache_dir(explicit: str | None) -> str:
    if explicit:
        return explicit
    env = os.environ.get("VERKIT_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(xdg, "verkit")


def _cache_path(cache_dir: str, p: int, n: int) -> str:
    return os.path.join(cache_dir, f"verpn_{p}_{n}_v{CACHE_VERSION}.json")


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to `path` through a temporary file;
    a failed write leaves no file and raises VerkitError naming `path`.

    They are joined in batches of about 256 kB (`_batches`): a large
    category's document is tens of megabytes, and the standard library's
    encoder chunks of it, held all at once, took about 800 MB at Ver_2187.
    """
    import tempfile  # only a build or --output writes a file

    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                for batch in _batches(chunks):
                    handle.write(batch)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise VerkitError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _ints(value) -> bool:
    """A list of ints (bools, which json reads from true and false, are not)."""
    return isinstance(value, list) and set(map(type, value)) <= {int}


def _pairs(value) -> bool:
    return isinstance(value, list) and all(_ints(v) and len(v) == 2 for v in value)


def _dicts_with(value, **fields) -> bool:
    """A list of dicts, each holding every named field with a value of its type."""
    return _list_of(value, dict) and all(
        all(isinstance(d.get(k), kind) for k, kind in fields.items()) for d in value
    )


def _cartan_fits(cartan, blocks: list[dict]) -> bool:
    """The Cartan matrix as the record stores it: row labels and one square
    int matrix per block, of the block's size, and nothing else; the blocks'
    projectives, as T labels, are the rows."""
    return (
        isinstance(cartan, dict)
        and cartan.keys() == {"rows", "blocks"}
        and _list_of(cartan["rows"], str)
        and _list_of(cartan["blocks"], list)
        and len(cartan["blocks"]) == len(blocks)
        and all(
            _ints(b["projectives"])
            and b["size"] == len(b["projectives"]) == len(M)
            and all(_ints(row) and len(row) == len(M) for row in M)
            for b, M in zip(blocks, cartan["blocks"])
        )
        and sorted(f"T{s}" for b in blocks for s in b["projectives"]) == sorted(cartan["rows"])
    )


def _support_fits(decomposition, weyl_count: int) -> bool:
    """The decomposition matrix as the record stores it: row labels, the
    Weyl column count and one list of columns in [0, weyl_count) per row."""
    return (
        isinstance(decomposition, dict)
        and decomposition.keys() == {"rows", "weyl_count", "support"}
        and _list_of(decomposition["rows"], str)
        and type(decomposition["weyl_count"]) is int
        and decomposition["weyl_count"] == weyl_count
        and _list_of(decomposition["support"], list)
        and len(decomposition["support"]) == len(decomposition["rows"])
        and all(_ints(s) and (not s or 0 <= min(s) and max(s) < weyl_count) for s in decomposition["support"])
    )


def _record_fits(payload: dict, p: int, n: int, samples: int, seed: int) -> bool:
    """Whether a cached payload is the record of this request and holds
    every key a command reads, with the type the command reads it as.
    Its verdict `all_passed` must be the conjunction of its checks.

    The views look labels up across keys, so the simples must be the
    category's labels in order; the steinberg pairs, FP dimensions and
    dims must name them in that order, the steinberg pairs the Cartan rows
    by their covers; every block must list some of them, and each Ext^1
    pair two, the smaller first.  The stored matrices must have the shapes
    the views expand (`_cartan_fits`, `_support_fits`), and each FPdim entry
    its two decimal values as strings.
    """
    verification = payload.get("verification")
    if not (
        isinstance(verification, dict)
        and payload.get("schema_version") == SCHEMA_VERSION
        and payload.get("p") == p
        and payload.get("n") == n
        and verification.get("samples") == samples
        and verification.get("seed") == seed
        and type(verification.get("all_passed")) is bool
        and _dicts_with(verification.get("checks"), name=str, passed=bool, witness=str)
        and verification["all_passed"] == all(c["passed"] for c in verification["checks"])
    ):
        return False
    simples, steinberg, blocks = (payload.get(k) for k in ("simples", "steinberg", "blocks"))
    ext1, stable, fpdim, dims = (payload.get(k) for k in ("ext1", "stable", "fpdim", "dims"))
    if not (
        _ints(simples)
        and _pairs(steinberg)
        and _dicts_with(blocks, projectives=list, simples=list, size=int, det=int)
        and _cartan_fits(payload.get("cartan"), blocks)
        and _support_fits(payload.get("decomposition"), p**n - 1)
        and _dicts_with(fpdim, label=int, simple_numeric=str, projective_numeric=str)
        and _pairs(dims)
        and isinstance(stable, dict)
        and isinstance(stable.get("order"), int)
        and (ext1 is None if p == 2 else _pairs(ext1))
    ):
        return False
    known = set(simples)
    return (
        simples == list(range((p - 1) * p ** (n - 1)))
        and [i for i, _ in steinberg] == simples
        and [entry["label"] for entry in fpdim] == simples
        and [i for i, _ in dims] == simples
        and (ext1 is None or all(0 <= a < b < len(simples) for a, b in ext1))
        and set(payload["cartan"]["rows"]) == {f"T{s}" for _, s in steinberg}
        and all(b["simples"] and _ints(b["simples"]) and known >= set(b["simples"]) for b in blocks)
    )


def load_or_build(p: int, n: int, cache_dir: str | None, samples: int, seed: int) -> dict:
    """Cached category payload; rebuilt unless it is for this (p, n) and
    these knobs and holds what the commands read (`_record_fits`)."""
    path = _cache_path(_cache_dir(cache_dir), p, n)
    if os.path.exists(path):
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):  # JSON and UTF-8 decode errors are ValueErrors
            payload = None
        if isinstance(payload, dict) and _record_fits(payload, p, n, samples, seed):
            return payload
    from . import catalog

    data = catalog.build(p, n, samples=samples, seed=seed)
    payload = category_payload(data, samples, seed)
    _atomic_write(path, chain(_json_chunks(payload), ["\n"]))
    return payload


# ---------------------------------------------------------------------------
# output


def _csv_lines(matrix: dict) -> Iterator[str]:
    yield "," + ",".join(matrix["cols"])
    for label, row in zip(matrix["rows"], matrix["entries"]):
        yield label + "," + ",".join(map(str, row))


def _emit(doc: dict, fmt: str, output: str | None, render) -> None:
    """Stream the document in `fmt` to `output` or stdout, in batches
    (`_batches`): json from the writer, csv and text a line at a time,
    the text lines from `render(payload)`.  Stdout is flushed before it
    returns, so a reader that closed the pipe raises BrokenPipeError here."""
    if fmt == "json":
        chunks = chain(_json_chunks(doc), ["\n"])
    else:
        lines = _csv_lines(doc["payload"]) if fmt == "csv" else render(doc["payload"])
        chunks = (line + "\n" for line in lines)
    if output:
        _atomic_write(os.path.abspath(output), chunks)
    else:
        for batch in _batches(chunks):
            sys.stdout.write(batch)
        sys.stdout.flush()


def _aligned(rows: Iterable[list[str]], widths: list[int]) -> Iterator[str]:
    for row in rows:
        yield "  ".join(map(str.rjust, row, widths))


def _grid(rows: list[list[str]]) -> Iterator[str]:
    """The rows right-aligned in columns as wide as their widest cell."""
    return _aligned(rows, [max(map(len, column)) for column in zip(*rows)])


def _fold_text(simples: dict[int, int], projectives: dict[int, int]) -> str:
    parts = [f"{c if c > 1 else ''}L{i}" for i, c in sorted(simples.items())]
    parts += [f"{c if c > 1 else ''}P{i}" for i, c in sorted(projectives.items())]
    return " + ".join(parts) if parts else "0"


def fold_text(p: int, n: int, v: grring.GrElement) -> str:
    """Render a class the way the worked tables do: simples then projectives."""
    from . import grring

    simples, projectives, _ = grring.fold_projectives(p, n, v)
    return _fold_text(simples, projectives)


def _cartan_entries(record: dict, labels: list[str]) -> list[list[int]]:
    """The dense Cartan submatrix on the rows named by `labels` (T labels),
    expanded from the record's blocks; an entry between two blocks is 0."""
    cartan = record["cartan"]
    where = {}  # T label: (block index, its row in the block, position)
    for b, (block, M) in enumerate(zip(record["blocks"], cartan["blocks"])):
        for pos, s in enumerate(block["projectives"]):
            where[f"T{s}"] = (b, M[pos], pos)
    columns: dict[int, list[tuple[int, int]]] = {}
    for c, label in enumerate(labels):
        b, _, pos = where[label]
        columns.setdefault(b, []).append((c, pos))
    entries = []
    for label in labels:
        b, row, _ = where[label]
        full = [0] * len(labels)
        for c, pos in columns[b]:
            full[c] = row[pos]
        entries.append(full)
    return entries


def _cartan_matrix(record: dict) -> dict:
    """The record's Cartan matrix, dense, over its rows in row order."""
    rows = record["cartan"]["rows"]
    return {"rows": rows, "cols": rows, "entries": _cartan_entries(record, rows)}


def _fold_classes(p: int, n: int, record: dict) -> list[tuple[int, list[int]]]:
    """The classes `grring.fold_projectives` peels, in its order, read from
    the record: [P_i] is the column of the cover T_s of L_i in its own
    Cartan block, with row T_t counted at the simple whose cover T_t is."""
    from . import grring

    cover = dict(record["steinberg"])
    simple_at = {s: i for i, s in cover.items()}
    column = {}  # cover: (its block's matrix, the block's rows as simples, position)
    for block, M in zip(record["blocks"], record["cartan"]["blocks"]):
        at = [simple_at[s] for s in block["projectives"]]
        for c, s in enumerate(block["projectives"]):
            column[s] = (M, at, c)
    classes = []
    for i in grring.fold_order(p, n):
        M, at, c = column[cover[i]]
        cls = [0] * len(cover)
        for t, row in zip(at, M):
            cls[t] += row[c]
        classes.append((i, cls))
    return classes


# ---------------------------------------------------------------------------
# command registry and parser


class _Parser(argparse.ArgumentParser):
    """A parser that takes `--help` (no `-h`) and no abbreviated option."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str) -> NoReturn:
        """A usage error: the usage line and one `Error:` line on stderr, exit 2."""
        self.print_usage(sys.stderr)
        self.exit(2, f"Error: {message}\n")


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Run the command named in `args` (by default sys.argv[1:]) and raise
    SystemExit: 0 on success, 1 on a failed verification, 2 on a usage error.

    Only the command argparse will run gets its options: the first argument
    that names a command, since the top-level parser takes no values.  When
    that is the first argument, no other command is reachable, so only its
    parser is built; otherwise (`--help`, an unknown command) every
    command's is, for the listing and the choices.
    """
    args = sys.argv[1:] if args is None else list(args)
    named = next((a for a in args if a in COMMANDS), None)
    parser = _Parser(
        prog=prog_name, description="Exact invariants of the symmetric tensor categories Ver_{p^n}."
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    built = [named] if args[:1] == [named] else COMMANDS
    for name in built:
        command, formats, own = COMMANDS[name]
        doc = command.__doc__
        sub = commands.add_parser(name, help=doc, description=doc)
        if name != named:
            continue
        sub.add_argument("-p", dest="prime", type=int, required=True, help="Prime p.")
        sub.add_argument("-n", dest="level", type=int, required=True, help="Level n >= 1.")
        sub.add_argument(
            "--format", dest="fmt", choices=formats, default="text", help="(default: %(default)s)"
        )
        sub.add_argument("--output", help="Write the document here, not to stdout.")
        sub.add_argument("--cache-dir", help="(default: $VERKIT_CACHE_DIR, else <XDG cache>/verkit)")
        sub.add_argument("--samples", type=int, default=100, help="(default: %(default)s)")
        sub.add_argument("--rng-seed", dest="seed", type=int, default=0, help="(default: %(default)s)")
        for flag, kwargs in own:
            sub.add_argument(flag, **kwargs)
    options = vars(parser.parse_args(args))
    name, fmt, output = options.pop("command"), options.pop("fmt"), options.pop("output")
    try:
        check_category(options["prime"], options["level"])
        kind, payload, render, passed = COMMANDS[name][0](**options)
        doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}
        _emit(doc, fmt, output, render)
    except VerkitError as exc:
        commands.choices[name].error(str(exc))
    except BrokenPipeError:
        # The reader left (`verkit ... | head`): exit 1 with no traceback, as
        # click did, and point stdout at devnull so the exit flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1) from None
    raise SystemExit(0 if passed else 1)


def _check_lines(checks: list[dict]) -> Iterator[str]:
    for c in checks:
        yield f"{c['name']}: " + ("pass" if c["passed"] else f"FAIL ({c['witness']})")


def report(prime, level, cache_dir, samples, seed):
    """Full category report; exit 1 when a verification check fails."""
    payload = load_or_build(prime, level, cache_dir, samples, seed)

    def render(pl: dict) -> Iterator[str]:
        yield f"Ver_{{{prime}^{level}}}: {len(pl['simples'])} simple objects"
        yield ""
        yield "correspondence (simple <-> projective cover):"
        steinberg = pl["steinberg"]
        yield from _grid([[f"L{i}" for i, _ in steinberg], [f"T{s}" for _, s in steinberg]])
        yield ""
        yield "cartan matrix:"
        yield from _render_matrix(_cartan_matrix(pl))
        yield ""
        yield "blocks:"
        for b in pl["blocks"]:
            members = ", ".join(f"T{s}" for s in b["projectives"])
            yield f"  size {b['size']}, det {b['det']}: {members}"
        yield ""
        yield "fpdims of simples:"
        for entry in pl["fpdim"]:
            yield f"  L{entry['label']}: {entry['simple_numeric']}"
        yield ""
        yield f"stable Grothendieck ring: order {pl['stable']['order']}"
        yield ""
        yield "verification:"
        for line in _check_lines(pl["verification"]["checks"]):
            yield "  " + line

    return "category_report", payload, render, payload["verification"]["all_passed"]


def fuse(prime, level, cache_dir, samples, seed, label_a, label_b):
    """Tensor product of two simples, raw vector plus folded presentation."""
    from . import grring

    v = grring.fuse_simples(prime, level, label_a, label_b)
    record = load_or_build(prime, level, cache_dir, samples, seed)
    simples, projectives = grring.peel_projectives(v, _fold_classes(prime, level, record))
    payload = {
        "p": prime,
        "n": level,
        "a": label_a,
        "b": label_b,
        "vector": list(v.coeffs),
        "folded": {
            "simples": [list(kv) for kv in sorted(simples.items())],
            "projectives": [list(kv) for kv in sorted(projectives.items())],
            "text": _fold_text(simples, projectives),
        },
    }

    def render(pl: dict) -> Iterator[str]:
        yield f"L{label_a} (x) L{label_b} = {pl['folded']['text']}"
        yield f"vector {tuple(pl['vector'])}"

    return "fusion_product", payload, render, True


def table(prime, level, cache_dir, samples, seed, even_only):
    """Full tensor table of simple objects."""
    from . import grring

    record = load_or_build(prime, level, cache_dir, samples, seed)
    classes = _fold_classes(prime, level, record)
    labels = [i for i in record["simples"] if not even_only or i % 2 == 0]
    cells = []
    for a in labels:
        row = []
        for b in labels:
            v = grring.fuse_simples(prime, level, a, b)
            simples, projectives = grring.peel_projectives(v, classes)
            row.append({"vector": list(v.coeffs), "text": _fold_text(simples, projectives)})
        cells.append(row)
    payload = {"p": prime, "n": level, "labels": labels, "cells": cells}

    def render(pl: dict) -> Iterator[str]:
        rows = [["", *(f"L{b}" for b in pl["labels"])]]
        rows += [[f"L{a}", *(c["text"] for c in row)] for a, row in zip(pl["labels"], pl["cells"])]
        return _grid(rows)

    return "fusion_table", payload, render, True


def _render_matrix(pl: dict) -> Iterator[str]:
    """The matrix as a grid, a row at a time: a column is as wide as its
    label or its longest entry, which is its largest or its smallest."""
    entries = pl["entries"]
    widths = [max(map(len, pl["rows"]))]
    widths += [
        max(len(label), len(str(max(column))), len(str(min(column))))
        for label, column in zip(pl["cols"], zip(*entries))
    ]
    yield from _aligned([["", *pl["cols"]]], widths)
    yield from _aligned(([r, *map(str, row)] for r, row in zip(pl["rows"], entries)), widths)


def cartan(prime, level, cache_dir, samples, seed, even_only):
    """Cartan matrix (use --even-only for the even-part block order)."""
    record = load_or_build(prime, level, cache_dir, samples, seed)
    if not even_only:
        return "matrix", _cartan_matrix(record), _render_matrix, True
    # The blocks whose first simple is even, each in label order.
    order = [i for b in record["blocks"] if b["simples"][0] % 2 == 0 for i in sorted(b["simples"])]
    cover = dict(record["steinberg"])
    labels = [f"L{i}" for i in order]
    entries = _cartan_entries(record, [f"T{cover[i]}" for i in order])
    payload = {"rows": labels, "cols": labels, "entries": entries}
    return "matrix", payload, _render_matrix, True


def decomp(prime, level, cache_dir, samples, seed):
    """Decomposition matrix (tilting rows, Weyl columns)."""
    stored = load_or_build(prime, level, cache_dir, samples, seed)["decomposition"]
    weyl_count = stored["weyl_count"]
    entries = []
    for support in stored["support"]:
        row = [0] * weyl_count
        for j in support:
            row[j] = 1
        entries.append(row)
    payload = {"rows": stored["rows"], "cols": [f"W{j}" for j in range(weyl_count)], "entries": entries}
    return "matrix", payload, _render_matrix, True


def blocks(prime, level, cache_dir, samples, seed):
    """Block partition with sizes and Cartan determinants."""
    record = load_or_build(prime, level, cache_dir, samples, seed)
    payload = {"p": prime, "n": level, "blocks": record["blocks"]}

    def render(pl: dict) -> Iterator[str]:
        for b in pl["blocks"]:
            members = ", ".join(f"T{s} (L{i})" for s, i in zip(b["projectives"], b["simples"]))
            yield f"size {b['size']}, det {b['det']}: {members}"

    return "block_report", payload, render, True


def ext1(prime, level, cache_dir, samples, seed):
    """Ext^1 adjacency between simples (odd p only)."""
    if prime == 2:
        raise UnsupportedPrime("Ext^1 adjacency is only computed for odd p")
    edges = load_or_build(prime, level, cache_dir, samples, seed)["ext1"]
    payload = {"p": prime, "n": level, "edges": edges}

    def render(pl: dict) -> Iterator[str]:
        if not pl["edges"]:
            yield "no extensions"
        for a, b in pl["edges"]:
            yield f"L{a} -- L{b}"

    return "ext1", payload, render, True


def invariants(prime, level, cache_dir, samples, seed, depth):
    """Invariant dimensions in tensor powers, by both routes."""
    if depth < 0:
        raise OutOfRange("M must be >= 0")
    from . import tilting

    tensor_route = tilting.invariant_dims(prime, level, depth)
    series_route = tilting.series_fn(prime, level, depth)
    payload = {
        "p": prime,
        "n": level,
        "M": depth,
        "tensor_route": tensor_route,
        "series_route": series_route,
        "equal": tensor_route == series_route,
    }

    def render(pl: dict) -> Iterator[str]:
        yield f"tensor route: {pl['tensor_route']}"
        yield f"series route: {pl['series_route']}"
        yield f"equal: {pl['equal']}"

    return "series", payload, render, payload["equal"]


def tilting_cmd(prime, level, cache_dir, samples, seed, index):
    """Weyl factors, dimension and character of one tilting module."""
    if not 0 <= index <= prime**level - 2:
        raise OutOfRange(f"tilting index must lie in [0, {prime**level - 2}]")
    from . import digits, tilting
    from .charring import dim_at_one

    char = tilting.tilting_char(prime, index)
    factors = digits.extended_decomposition_row(prime, level, index)
    payload = {
        "p": prime,
        "n": level,
        "m": index,
        "weyl_factors": [list(kv) for kv in sorted(factors.items())],
        "dim": dim_at_one(char),
        "projective": index in digits.projective_range(prime, level),
        "character": [list(kv) for kv in sorted(char.coeffs.items())],
    }

    def render(pl: dict) -> Iterator[str]:
        factors = " + ".join(f"{c if c > 1 else ''}W{j}" for j, c in pl["weyl_factors"])
        status = "projective" if pl["projective"] else "not projective"
        yield f"T{pl['m']} = {factors}, dim {pl['dim']}, {status} in Ver_{{{prime}^{level}}}"

    return "tilting_module", payload, render, True


def verify(prime, level, cache_dir, samples, seed):
    """Run the verification suite; exit 1 on any failure."""
    payload = load_or_build(prime, level, cache_dir, samples, seed)["verification"]

    def render(pl: dict) -> Iterator[str]:
        yield from _check_lines(pl["checks"])
        yield "all passed" if pl["all_passed"] else "FAILURES PRESENT"

    return "verification", payload, render, payload["all_passed"]


# Each command by name: (function, its --format choices, its own options as
# (flag, `add_argument` keywords)).  The command takes the shared options
# and its own, and returns (kind, payload, render, passed).  `main` runs the
# category guard, writes the document of that kind in the chosen format
# (`_emit`; `render` yields the text lines), then exits with 1 unless it
# passed.  A refused (p, n), format or file exits with 2.
_TEXT, _MATRIX = ["json", "text"], ["json", "csv", "text"]
_EVEN_ONLY = ("--even-only", dict(action="store_true"))
COMMANDS: dict[str, tuple] = {
    "report": (report, _TEXT, ()),
    "fuse": (fuse, _TEXT, (("-a", dict(dest="label_a", type=int, required=True)),
                           ("-b", dict(dest="label_b", type=int, required=True)))),
    "table": (table, _TEXT, (_EVEN_ONLY,)),
    "cartan": (cartan, _MATRIX, (_EVEN_ONLY,)),
    "decomp": (decomp, _MATRIX, ()),
    "blocks": (blocks, _TEXT, ()),
    "ext1": (ext1, _TEXT, ()),
    "invariants": (invariants, _TEXT, (("-M", dict(dest="depth", type=int, default=12,
                                                    help="(default: %(default)s)")),)),
    "tilting": (tilting_cmd, _TEXT, (("-m", dict(dest="index", type=int, required=True)),)),
    "verify": (verify, _TEXT, ()),
}


if __name__ == "__main__":
    main(prog_name="python -m verkit.cli")
