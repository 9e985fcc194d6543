"""Cold frontier builds and cache records: build time, per-check seconds,
record bytes, warm re-reads and peak RSS.

    python tools/frontier.py --tree parent=../old --tree change=. --out BENCH.json

Each (category, tree) pair runs `cli.load_or_build(p, n)` on an empty cache
directory once in a fresh Python process whose PYTHONPATH is the tree's
src/, then once more on the written file in a second fresh process.  Each
child imports what it times before its clock starts, so the seconds exclude
imports, and reports its own peak RSS from getrusage.

The cold child times `catalog.build` inside `load_or_build` (the command
line reads it as a module attribute at call time) and records:
  - build_s, and peak_rss_mb when the build returns;
  - uncertified_blocks: the solve blocks that `catalog.block_certificate`
    refused, each of which ran an elimination;
  - record_s: the cold `load_or_build` seconds beyond `catalog.build`, the
    payload's assembly and the file's write;
  - record_bytes, and record_peak_rss_mb when the file is written.
The warm child records warm_read_s and warm_peak_rss_mb of the re-read, and
warm_hit: whether it served the file without loading `catalog`.
Per-check seconds come from `Check.seconds` and are null for a tree whose
checks do not record them.  `verify_all` runs first in `build` and its
checks compute the context quantities they need (the stable ring and the FP
dimensions among them), so `outside_checks_s` is the rest: the context
set-up before `verify_all` and the record's assembly after it (the
decomposition supports, the simples' dimensions, values the checks already
cached).
The rungs climb to the 2500-simple bound: Ver_343, Ver_729, Ver_1024,
Ver_1331, Ver_1849, Ver_1999, Ver_2048, Ver_2187, Ver_2197, Ver_2209,
Ver_2401, Ver_2477, Ver_3125 (2500 simples) and Ver_4096; then past it,
Ver_6561 (4374 simples) and Ver_8192 (4096).  For a rung past a tree's
bound, each child raises `errors.DEFAULT_BOUND` to the rung's simple
count, so every tree builds every rung; the bound of the library itself
is unchanged.  A child that raises leaves its last stderr line as the
row's `error`.  Runs go one at a time, rungs in order; the tree order
alternates from rung to rung, and each rung's row records it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile

RUNGS = [
    (7, 3), (3, 6), (2, 10), (11, 3), (43, 2), (1999, 1), (2, 11), (3, 7),
    (13, 3), (47, 2), (7, 4), (2477, 1), (5, 5), (2, 12), (3, 8), (2, 13),
]

# In the child only: a rung past the build bound raises it to its own size.
PREAMBLE = """
import json, os, resource, sys, time
from verkit import errors
p, n, cache = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
errors.DEFAULT_BOUND = max(errors.DEFAULT_BOUND, p ** (n - 1) * (p - 1))
"""

COLD = PREAMBLE + """
from verkit import catalog, cli, cyclo

def mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

built = {}
build = catalog.build

def timed_build(*args, **kwargs):
    t0 = time.perf_counter()
    data = build(*args, **kwargs)
    built.update(s=time.perf_counter() - t0, mb=mb(), data=data)
    return data

catalog.build = timed_build
t0 = time.perf_counter()
cli.load_or_build(p, n, cache, 100, 0)
total_s = time.perf_counter() - t0
data, build_s = built["data"], built["s"]
checks = data.verification.checks
timed = all(hasattr(c, "seconds") for c in checks)
print(json.dumps({
    "build_s": round(build_s, 3),
    "all_passed": data.verification.all_passed,
    "check_s": {c.name: round(c.seconds, 4) for c in checks} if timed else None,
    "outside_checks_s": round(build_s - sum(c.seconds for c in checks), 3) if timed else None,
    "peak_rss_mb": built["mb"],
    "uncertified_blocks": sum(r.minors is not None for r in catalog.category(p, n).solved),
    "record_s": round(total_s - build_s, 3),
    "record_bytes": sum(os.path.getsize(os.path.join(cache, f)) for f in os.listdir(cache)),
    "record_peak_rss_mb": mb(),
}))
"""

WARM = PREAMBLE + """
from verkit import cli
t0 = time.perf_counter()
cli.load_or_build(p, n, cache, 100, 0)
warm_s = time.perf_counter() - t0
print(json.dumps({
    "warm_read_s": round(warm_s, 3),
    "warm_peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "warm_hit": "verkit.catalog" not in sys.modules,
}))
"""


def _child(code: str, src: str, *args) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True
    )
    if done.returncode:
        return {"error": done.stderr.strip().splitlines()[-1:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_one(src: str, p: int, n: int) -> dict:
    """The cold child's row, then the warm child's on the file it wrote."""
    with tempfile.TemporaryDirectory() as cache:
        row = _child(COLD, src, p, n, cache)
        if "error" not in row:
            row.update(_child(WARM, src, p, n, cache))
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", action="append", required=True, help="label=path of a checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree)
    results = []
    for index, (p, n) in enumerate(RUNGS):
        order = list(trees)[:: -1 if index % 2 else 1]
        row = {"category": f"Ver_{p**n}", "p": p, "n": n, "order": order}
        for label in order:
            row[label] = run_one(os.path.join(os.path.abspath(trees[label]), "src"), p, n)
            print(f"Ver_{p**n} {label}: {json.dumps(row[label])}", file=sys.stderr, flush=True)
        results.append(row)
    doc = {
        "what": (
            "cold cli.load_or_build per category (catalog.build, then the record written), "
            "then a warm re-read; one fresh process each, imports excluded; "
            "trees in each rung's `order`, alternating by rung"
        ),
        "bound": (
            "a rung past a tree's build bound (errors.DEFAULT_BOUND) raises it "
            "to its own simple count, in its child processes only"
        ),
        "date": datetime.date.today().isoformat(),
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor() or None,
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "trees": list(trees),
        "rungs": results,
    }
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
