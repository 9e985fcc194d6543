"""Inputs of the three workloads, generated from the seed alone.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  `tiny` selects small categories for the
benchmark's own self-test.
"""

from __future__ import annotations

import os
import random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

NAMES = ["build_ladder", "fusion_queries", "cli_session"]

# build_ladder: cold load_or_build per rung, then a warm re-read per rung.
# p = 2 and odd p, large p at small n, and deep n.  Ver_343 is left out: it
# takes minutes, longer than a run may last.
RUNGS = [(2, 6), (3, 4), (7, 2), (2, 7), (5, 3)]
TINY_RUNGS = [(2, 3), (3, 2), (5, 2)]
BUILD_SAMPLES = 100

# fusion_queries: fuse_simples + fold_projectives, round-robin over these.
FUSION_CATEGORIES = [(2, 7), (5, 3), (7, 3)]
TINY_FUSION_CATEGORIES = [(2, 4), (3, 2), (5, 2)]
REPEAT_PROBABILITY = 0.5

# cli_session: warm invocations of `python -m verkit.cli` on small categories.
CLI_CATEGORIES = [(3, 3), (7, 2), (3, 4)]
TINY_CLI_CATEGORIES = [(3, 2), (5, 2)]
CLI_COMMANDS = ["report", "verify", "fuse", "cartan", "blocks", "invariants", "tilting"]
SESSION_LENGTH = 4096  # invocations generated; a run uses a prefix


def check_origin() -> str:
    """Fail unless the imported verkit is the checkout's own src/verkit."""
    import verkit

    path = os.path.realpath(verkit.__file__)
    if not path.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"verkit imported from {path}, not from {SRC}")
    return path


def simple_count(p: int, n: int) -> int:
    return p ** (n - 1) * (p - 1)


def rungs(tiny: bool) -> list[tuple[int, int]]:
    return TINY_RUNGS if tiny else RUNGS


def fusion_stream(seed: int, count: int, tiny: bool) -> list[tuple[int, int, int, int]]:
    """`count` queries (p, n, a, b), categories in round-robin order.

    With probability REPEAT_PROBABILITY a query repeats a pair already asked
    of its category in this stream; otherwise it is a fresh uniform pair.
    """
    rng = random.Random(seed)
    cats = TINY_FUSION_CATEGORIES if tiny else FUSION_CATEGORIES
    asked: dict[tuple[int, int], list[tuple[int, int]]] = {c: [] for c in cats}
    out = []
    for i in range(count):
        p, n = cats[i % len(cats)]
        history = asked[(p, n)]
        if history and rng.random() < REPEAT_PROBABILITY:
            a, b = rng.choice(history)
        else:
            k = simple_count(p, n)
            a, b = rng.randrange(k), rng.randrange(k)
            history.append((a, b))
        out.append((p, n, a, b))
    return out


def repeat_share(queries) -> float:
    seen = set()
    repeats = 0
    for q in queries:
        repeats += q in seen
        seen.add(q)
    return repeats / len(queries) if queries else 0.0


def cli_categories(tiny: bool) -> list[tuple[int, int]]:
    return TINY_CLI_CATEGORIES if tiny else CLI_CATEGORIES


def cli_args(command: str, p: int, n: int, rng: random.Random) -> list[str]:
    """verkit arguments of one invocation, without the cache options."""
    args = [command, "-p", str(p), "-n", str(n), "--format", "json"]
    if command == "fuse":
        k = simple_count(p, n)
        args += ["-a", str(rng.randrange(k)), "-b", str(rng.randrange(k))]
    elif command == "cartan":
        args.append("--even-only")
    elif command == "invariants":
        args += ["-M", "12"]
    elif command == "tilting":
        args += ["-m", str(rng.randrange(p**n - 1))]
    return args


def cli_session(seed: int, count: int, tiny: bool) -> list[tuple[int, int, list[str]]]:
    """`count` invocations (p, n, args).

    Every block of len(commands) * len(categories) invocations holds each
    (command, category) pair once, in a seeded order, so the mix is the same
    for every seed and only the order and the labels vary.
    """
    rng = random.Random(seed)
    cats = cli_categories(tiny)
    combos = [(c, cat) for c in CLI_COMMANDS for cat in cats]
    out = []
    while len(out) < count:
        block = combos[:]
        rng.shuffle(block)
        for command, (p, n) in block:
            out.append((p, n, cli_args(command, p, n, rng)))
    return out[:count]
