"""One measured segment of a workload, in a fresh interpreter.

    python worker.py setup  --workload W --seed S --work DIR --out FILE
    python worker.py build  --seed S --work DIR --out FILE [--trace] [--tamper]
    python worker.py fusion --seed S (--seconds T | --count N) --out FILE [--trace] [--tamper]

`run.py` starts these with the checkout's src on PYTHONPATH.  Every segment
starts with cold in-process memos, as a user's process does.  Each writes
one JSON result to FILE: per-operation latencies, failures found by the
checks (made after the timed section), and spans when traced.  Untraced
segments sample the host speed every SAMPLE_PERIOD_S (hostspeed.py) and
report latencies normalised to the reference speed, and raw ones beside
them.  `--tamper` corrupts the first result before it is checked, for the
self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import workloads
from hostspeed import HostSpeed
from spans import Tracer, instrument

# A query stream long enough for any run length: queries take >= 1 ms.
STREAM_PER_SECOND = 1000
# Host-speed samples take about 5 ms: 2 % of the time at this period.
SAMPLE_PERIOD_S = 0.25


class Clock:
    """Interval timing; with a HostSpeed, also net of and normalised by it."""

    def __init__(self, sampled: bool):
        self.speed = HostSpeed() if sampled else None

    def start(self) -> None:
        if self.speed:
            self.speed.sample()
            self.speed.start_periodic(SAMPLE_PERIOD_S)

    def stop(self) -> None:
        if self.speed:
            self.speed.stop_periodic()
            self.speed.sample()

    def raw(self, t0: float, t1: float) -> float:
        return self.speed.net(t0, t1) if self.speed else t1 - t0

    def normalised(self, t0: float, t1: float) -> float:
        return self.speed.normalise(t0, t1) if self.speed else t1 - t0


def setup(args) -> dict:
    """Imports and inputs of a workload; the parent times spawn to `imported`.

    The parent normalises that start by the start probe; the input phase,
    from `imported` to `ready`, is normalised here by the burst.
    """
    from verkit import cli  # every workload imports it; the import is part of set-up

    imported = time.perf_counter()
    clock = Clock(sampled=True)
    clock.start()
    origin = workloads.check_origin()
    # build_ladder's only input is the fixed list of rungs.
    if args.workload == "fusion_queries":
        workloads.fusion_stream(args.seed, int(args.seconds * STREAM_PER_SECOND), args.tiny)
    elif args.workload == "cli_session":
        workloads.cli_session(args.seed, workloads.SESSION_LENGTH, args.tiny)
        for p, n in workloads.cli_categories(args.tiny):
            cache_dir = os.path.join(args.work, f"cache_{p}_{n}")
            os.makedirs(cache_dir)
            cli.load_or_build(p, n, cache_dir, workloads.BUILD_SAMPLES, args.seed)
    ready = time.perf_counter()
    clock.stop()
    return {"imported": imported, "ready": ready, "inputs_s": clock.normalised(imported, ready), "verkit": origin}


def _file_state(cache_dir: str) -> tuple[bytes, tuple]:
    names = [e for e in os.listdir(cache_dir) if e.endswith(".json")]
    if len(names) != 1:
        return b"", (len(names),)
    path = os.path.join(cache_dir, names[0])
    st = os.stat(path)
    with open(path, "rb") as handle:
        return handle.read(), (st.st_ino, st.st_size, st.st_mtime_ns)


def build(args) -> dict:
    """Cold load_or_build of every rung into a fresh cache dir, then warm re-reads."""
    from verkit import cli

    from checks import check_rung

    workloads.check_origin()
    rungs = workloads.rungs(args.tiny)
    tracer = Tracer() if args.trace else None
    restore = instrument(tracer) if tracer else None
    clock = Clock(sampled=not tracer)
    clock.start()
    start = time.perf_counter()
    if tracer:
        tracer.open("bench.section", start=start)
    cold, warm, cold_t, warm_t, files = [], [], [], [], []
    for p, n in rungs:
        cache_dir = os.path.join(args.work, f"rung_{p}_{n}")
        os.makedirs(cache_dir)
        if tracer:
            tracer.open("bench.rung", tag=f"{p}_{n}")
        t0 = time.perf_counter()
        cold.append(cli.load_or_build(p, n, cache_dir, workloads.BUILD_SAMPLES, args.seed))
        t1 = time.perf_counter()
        if tracer:
            tracer.close(t1)
        cold_t.append((t0, t1))
        files.append(_file_state(cache_dir))
    for p, n in rungs:
        cache_dir = os.path.join(args.work, f"rung_{p}_{n}")
        if tracer:
            tracer.open("bench.reread", tag=f"{p}_{n}")
        t0 = time.perf_counter()
        warm.append(cli.load_or_build(p, n, cache_dir, workloads.BUILD_SAMPLES, args.seed))
        t1 = time.perf_counter()
        if tracer:
            tracer.close(t1)
        warm_t.append((t0, t1))
    end = time.perf_counter()
    clock.stop()
    if tracer:
        tracer.close(end)
        restore()
    if args.tamper:
        warm[0] = dict(warm[0], simples=warm[0]["simples"][:-1])
    failures = []
    for i, (p, n) in enumerate(rungs):
        before, state_before = files[i]
        after, state_after = _file_state(os.path.join(args.work, f"rung_{p}_{n}"))
        if state_after != state_before:
            after = b"<rewritten>"
        why = check_rung(p, n, cold[i], warm[i], before, after)
        if why:
            failures.append(f"Ver_{p**n}: {why}")
    return {
        "latencies": [clock.normalised(*t) for t in cold_t],
        "raw_latencies": [clock.raw(*t) for t in cold_t],
        "warm_s": [clock.raw(*t) for t in warm_t],
        "tags": [f"{p}_{n}" for p, n in rungs],
        "section_s": clock.raw(start, end),
        "failures": failures,
        "trace": tracer.dump() if tracer else None,
    }


def fusion(args) -> dict:
    """fuse_simples + fold_projectives over the seeded stream."""
    from verkit import grring

    from checks import FusionOracle

    workloads.check_origin()
    count = args.count or int(args.seconds * STREAM_PER_SECOND)
    stream = workloads.fusion_stream(args.seed, count, args.tiny)
    tracer = Tracer() if args.trace else None
    restore = instrument(tracer) if tracer else None
    times, results = [], []
    clock = Clock(sampled=not tracer)
    clock.start()
    start = time.perf_counter()
    deadline = start + args.seconds if not args.count else float("inf")
    if tracer:
        tracer.open("bench.section", start=start)
    for p, n, a, b in stream:
        if tracer:
            tracer.open("bench.query", tag=f"{p}_{n}")
        t0 = time.perf_counter()
        v = grring.fuse_simples(p, n, a, b)
        simples, peeled, _ = grring.fold_projectives(p, n, v)
        t1 = time.perf_counter()
        if tracer:
            tracer.close(t1)
        times.append((t0, t1))
        results.append((v.coeffs, simples, peeled))
        if t1 >= deadline:
            break
    end = time.perf_counter()
    clock.stop()
    if tracer:
        tracer.close(end)
        restore()
    asked = stream[: len(results)]
    if args.tamper:
        vec, simples, peeled = results[0]
        results[0] = ((vec[0] + 1,) + vec[1:], simples, peeled)
    oracles: dict[tuple[int, int], FusionOracle] = {}
    first: dict[tuple, tuple] = {}
    failures = []
    for (p, n, a, b), res in zip(asked, results):
        key = (p, n, a, b)
        if key in first:
            why = None if res == first[key] else "repeated query gave another result"
        else:
            if (p, n) not in oracles:
                oracles[(p, n)] = FusionOracle(p, n)
            why = oracles[(p, n)].check(a, b, *res)
            if why is None:
                first[key] = res
        if why:
            failures.append(f"Ver_{p**n} L{a} x L{b}: {why}")
    return {
        "latencies": [clock.normalised(*t) for t in times],
        "raw_latencies": [clock.raw(*t) for t in times],
        "tags": [f"{p}_{n}" for p, n, _, _ in asked],
        "section_s": clock.raw(start, end),
        "repeat_share": workloads.repeat_share(asked),
        "failures": failures,
        "trace": tracer.dump() if tracer else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "build", "fusion"])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--work")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    result = {"setup": setup, "build": build, "fusion": fusion}[args.mode](args)
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
