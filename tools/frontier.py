"""Cold frontier builds: build time, per-check seconds and peak RSS.

    python tools/frontier.py --tree parent=../old --tree change=. --out BENCH.json

Each (category, tree) pair runs `catalog.build(p, n)` once in a fresh
Python process whose PYTHONPATH is the tree's src/.  The child imports
verkit.catalog before the clock starts, so the build time excludes imports,
and it reports its own peak RSS from getrusage.  Per-check seconds come from
`Check.seconds` and are null for a tree whose checks do not record them.
`verify_all` runs first in `build` and its checks compute the context
quantities they need (the stable ring and the FP dimensions among them), so
`outside_checks_s` is the rest: the context set-up before `verify_all` and
the record's assembly after it (the decomposition matrix, the simples'
dimensions, values the checks already cached).
The rungs climb toward the 2000-simple bound: Ver_343, Ver_729, Ver_1024,
Ver_1331, Ver_1849, Ver_2048 and Ver_2187.  Runs go one at a time, rungs in
order, trees alternating.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

RUNGS = [(7, 3), (3, 6), (2, 10), (11, 3), (43, 2), (2, 11), (3, 7)]

CHILD = """
import json, resource, sys, time
from verkit import catalog
p, n = int(sys.argv[1]), int(sys.argv[2])
t0 = time.perf_counter()
data = catalog.build(p, n)
build_s = time.perf_counter() - t0
checks = data.verification.checks
timed = all(hasattr(c, "seconds") for c in checks)
print(json.dumps({
    "build_s": round(build_s, 3),
    "all_passed": data.verification.all_passed,
    "check_s": {c.name: round(c.seconds, 4) for c in checks} if timed else None,
    "outside_checks_s": round(build_s - sum(c.seconds for c in checks), 3) if timed else None,
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}))
"""


def run_one(src: str, p: int, n: int) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(p), str(n)], env=env, capture_output=True, text=True
    )
    if done.returncode:
        return {"error": done.stderr.strip().splitlines()[-1:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", action="append", required=True, help="label=path of a checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree)
    results = []
    for p, n in RUNGS:
        row = {"category": f"Ver_{p**n}", "p": p, "n": n}
        for label, path in trees.items():
            row[label] = run_one(os.path.join(os.path.abspath(path), "src"), p, n)
            print(f"Ver_{p**n} {label}: {json.dumps(row[label])}", file=sys.stderr, flush=True)
        results.append(row)
    doc = {
        "what": "cold catalog.build per category, one fresh process each, imports excluded",
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
