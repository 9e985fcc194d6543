"""verkit benchmark: one workload, one seed, one fresh process tree.

    python3 perfbench/run.py --workload {build_ladder,fusion_queries,cli_session}
                             --seed N --seconds T --trace {0,1}

Run from anywhere; the checkout is the directory above this file, and its
src/verkit is what gets measured (it is put on PYTHONPATH and checked).
Scratch files live in .perfbench/ under the checkout and are removed at the
end; traced runs leave their spans in .perfbench/traces/.  At most one child
process is alive at a time.

Workloads (closed loop, one client each):
  build_ladder    cold cli.load_or_build of Ver_64, Ver_81, Ver_49, Ver_128,
                  Ver_125 into fresh cache dirs, then a warm re-read of each,
                  in a fresh worker process per pass.  An operation is a rung.
  fusion_queries  grring.fuse_simples + grring.fold_projectives over a seeded
                  stream, round-robin over Ver_128, Ver_125, Ver_343, about
                  half of the queries repeating an earlier pair.  An
                  operation is a query.
  cli_session     `python -m verkit.cli` subprocesses, a seeded mix of seven
                  commands on Ver_27, Ver_49, Ver_81 with a cache primed
                  during set-up.  An operation is an invocation.

End-to-end metrics (--trace 0), the same five on every workload:
  setup_s      median over several set-ups, each in a fresh process: start,
               imports, input generation and, for cli_session, cache priming
  peak_rss_mb  largest peak RSS of the measured processes
  op_p50_ms    median operation latency; op_p90_ms its 90th percentile
  ops_per_s    operations per second of operation latency (1 / mean)
Times are normalised to a reference host speed (hostspeed.py): each is
scaled by a fixed probe's reference time over the probe's time sampled
around it.  The probe is a burst of Python work for builds and queries (in
the worker, between and inside operations), and a Python start importing
numpy, mpmath and click for set-ups and CLI invocations (before each).  The
raw p50, fail_frac, and the per-workload names build_s, queries_per_s and
cli_p50_ms are printed above the JSON line.

With --trace 1 the run measures one block untraced and the same block traced,
and prints per-layer metrics from spans around verkit's public functions
(spans.py) and a layer x rung (or category) table in milliseconds.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  Exit code: 0 when every check passed, 1 when one failed, 2 when
the checkout has no src/verkit.  --tiny (small categories) and --tamper
(corrupt the first result) exist for the benchmark's self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostspeed import REF_START_S, HostSpeed, start_probe  # noqa: E402
from spans import MODULES, Tracer, analyse  # noqa: E402

START = time.perf_counter()
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever its children do
SETUP_REPEATS = {"build_ladder": 5, "fusion_queries": 5, "cli_session": 5}

# An untraced build_ladder run makes BUILD_PASSES passes over the ladder, each
# in a fresh process so memos start cold, and keeps each rung's best
# normalised time; a pass takes 11-17 s.  The other workloads run one block
# for the whole run.  Traced runs measure one block untraced and the same
# block traced.
BUILD_PASSES = 2

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
]

PER_LAYER = (
    [(f"{m}.self_s", "s") for m in MODULES]
    + [
        ("unattributed_s", "s"),
        ("traced_wall_s", "s"),
        ("trace_overhead_s", "s"),
        ("linalg.is_positive_definite_s", "s"),
        ("linalg.det_s", "s"),
        ("linalg.det_calls", "count"),
        ("linalg.det_k3", "count"),
        ("linalg.smith_normal_form_s", "s"),
        ("linalg.permutation_equivalent_s", "s"),
        ("cyclo.verify_cd_eq_p_s", "s"),
        ("cyclo.fpdim_category_s", "s"),
        ("cyclo.fpdim_simple_calls", "count"),
        ("cyclo.fpdim_projective_calls", "count"),
        ("cyclo.qint_calls", "count"),
        ("catalog.build_s", "s"),
        ("catalog.verify_all_s", "s"),
        ("catalog.cartan_character_s", "s"),
        ("catalog.stable_gr_s", "s"),
        ("catalog.block_cartan_dets_s", "s"),
        ("catalog.checks_failed", "count"),
        ("digits.cartan_descendant_s", "s"),
        ("digits.cartan_descendant_calls", "count"),
        ("digits.cartan_kronecker_s", "s"),
        ("digits.steinberg_label_calls", "count"),
        ("tilting.tilting_char_calls", "count"),
        ("tilting.tensor_decompose_calls", "count"),
        ("tilting.invariant_dims_s", "s"),
        ("charring.weyl_expand_calls", "count"),
        ("charring.mul_calls", "count"),
        ("grring.fold_projectives_s", "s"),
        ("grring.fuse_simples_calls", "count"),
        ("grring.projective_class_calls", "count"),
        ("grring.tilting_class_calls", "count"),
        ("grring.check_ring_hom_fusion_s", "s"),
        ("cli.interpreter_s", "s"),
        ("cli.import_s", "s"),
        ("cli.command_s", "s"),
        ("cli.load_or_build_s", "s"),
        ("cli.category_payload_s", "s"),
        ("cli.cache_bytes_written", "B"),
        ("cli.cache_bytes_read", "B"),
        ("cli.cache_hit_ratio", "ratio"),
    ]
    + [(f"rung.{p}_{n}.build_s", "s") for p, n in workloads.RUNGS]
)


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts children one at a time; records wall time and peak RSS of each."""

    def __init__(self, work: str):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = workloads.SRC
        for var, sub in (("TMPDIR", "tmp"), ("XDG_CACHE_HOME", "xdg"), ("VERKIT_CACHE_DIR", "xdg")):
            self.env[var] = os.path.join(work, sub)
            os.makedirs(self.env[var], exist_ok=True)
        self.count = 0
        self.start_speed = HostSpeed(start_probe(self.env, workloads.ROOT), REF_START_S, window=1.0)

    def normalised(self, child: dict) -> float:
        """A CLI child's wall time at the reference speed, from samples around it."""
        return (child["end"] - child["start"]) * self.start_speed.scale(child["start"], child["end"])

    def run(self, argv: list[str]) -> dict:
        self.count += 1
        out_path = os.path.join(self.work, f"child{self.count}.out")
        err_path = os.path.join(self.work, f"child{self.count}.err")
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - START))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=workloads.ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as out, open(err_path, "rb") as err:
            stdout, stderr = out.read(), err.read()
        os.unlink(out_path)
        os.unlink(err_path)
        return {
            "code": proc.returncode,
            "stdout": stdout,
            "stderr": stderr,
            "start": start,
            "end": end,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }

    def worker(self, mode: str, args, extra: list[str]) -> tuple[dict, dict]:
        """Run worker.py and return (its JSON result, the child record)."""
        out = os.path.join(self.work, f"result{self.count + 1}.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--seed", str(args.seed)]
        argv += ["--out", out] + extra + (["--tiny"] if args.tiny else [])
        child = self.run(argv)
        if child["code"] != 0 or not os.path.exists(out):
            raise ChildFailed(f"worker {mode} exited {child['code']}: {child['stderr'].decode()[-2000:]}")
        with open(out) as handle:
            result = json.load(handle)
        os.unlink(out)
        return result, child


def setup_times(runner: Runner, args) -> tuple[list[float], str]:
    """Set the workload up SETUP_REPEATS times, each in a fresh process.

    A set-up is interpreter start, imports and input generation, plus cache
    priming for cli_session; the first set-up's primed caches are kept.
    The start of each, up to verkit imported, is normalised by the start
    probe sampled before and after it, as it does what the probe does; the
    worker normalises the input phase after it by the burst.
    """
    intervals = []
    for k in range(2 if args.tiny else SETUP_REPEATS[args.workload]):
        work = os.path.join(runner.work, f"setup{k}")
        os.makedirs(work)
        extra = ["--workload", args.workload, "--work", work, "--seconds", str(args.seconds)]
        runner.start_speed.sample()
        result, child = runner.worker("setup", args, extra)
        intervals.append((child["start"], result["imported"], result["ready"], result["inputs_s"]))
    runner.start_speed.sample()
    scale = runner.start_speed.scale
    times = [(imp - t0) * scale(t0, ready) + inputs for t0, imp, ready, inputs in intervals]
    return times, os.path.join(runner.work, "setup0")


# ---------------------------------------------------------------------------
# workloads: each returns latencies, failures, peak RSS and, traced, spans


def best_of(blocks: list[list[float]]) -> list[float]:
    return [min(column) for column in zip(*blocks)]


def run_build(runner: Runner, args, trace: Tracer | None) -> dict:
    """A block is a pass over the ladder in a fresh worker; an operation a rung."""
    blocks, raw, failures, rss, warm, sections = [], [], [], [], [], []
    for k in range(1 if trace else BUILD_PASSES):
        work = os.path.join(runner.work, f"pass{k}")
        os.makedirs(work)
        tamper = ["--tamper"] if args.tamper and k == 0 else []
        result, child = runner.worker("build", args, ["--work", work] + tamper)
        shutil.rmtree(work)
        blocks.append(result["latencies"])
        raw.append(result["raw_latencies"])
        failures += result["failures"]
        rss.append(child["rss_mb"])
        warm += result["warm_s"]
        sections.append(result["section_s"])
    lat = best_of(blocks)
    out = {"latencies": lat, "raw": best_of(raw), "failures": failures, "rss": rss, "attempted": len(warm)}
    out["info"] = [("build_s", sum(lat), f"sum over rungs of the best of {len(blocks)} cold builds")]
    out["info"] += [(f"rung_s[{tag}]", t, "cold build") for tag, t in zip(result["tags"], lat)]
    out["info"].append(("warm_read_ms", 1e3 * statistics.median(warm), f"median of {len(warm)} re-reads"))
    if trace:
        out["untraced_wall"] = sections[0]
        work = os.path.join(runner.work, "traced")
        os.makedirs(work)
        result, child = runner.worker("build", args, ["--work", work, "--trace"])
        out["failures"] += result["failures"]
        out["attempted"] += len(result["warm_s"])
        trace.adopt(result["trace"])
    return out


def run_fusion(runner: Runner, args, trace: Tracer | None) -> dict:
    """One block, a prefix of the query stream, in a fresh worker."""
    budget = args.seconds / 2 if trace else args.seconds
    extra = ["--seconds", str(budget)] + (["--tamper"] if args.tamper else [])
    result, child = runner.worker("fusion", args, extra)
    lat = result["latencies"]
    count = str(len(lat))
    out = {
        "latencies": lat,
        "raw": result["raw_latencies"],
        "failures": result["failures"],
        "rss": [child["rss_mb"]],
        "attempted": len(lat),
        "info": [
            ("queries", len(lat), "round-robin over the categories"),
            ("repeat_share", result["repeat_share"], "queries repeating an earlier (p, n, a, b)"),
            ("queries_per_s", len(lat) / sum(lat), "= ops_per_s"),
        ],
    }
    for tag in sorted(set(result["tags"]), key=_size):
        vals = [t for t, g in zip(lat, result["tags"]) if g == tag]
        out["info"].append((f"p50_ms[{tag}]", 1e3 * statistics.median(vals), f"{len(vals)} queries"))
    if trace:
        out["untraced_wall"] = result["section_s"]
        traced, _ = runner.worker("fusion", args, ["--count", count, "--trace"])
        out["failures"] += traced["failures"]
        out["attempted"] += len(traced["latencies"])
        trace.adopt(traced["trace"])
    return out


def _session(runner: Runner, args, calls, cache_dirs, trace: Tracer | None, budget: float) -> dict:
    """Invoke the CLI once per call until the budget is spent (or all calls)."""
    records = []
    begin = time.perf_counter()
    if trace:
        trace.open("bench.section", start=begin)
    for p, n, cli_args in calls:
        cli_args = cli_args + ["--cache-dir", cache_dirs[(p, n)], "--rng-seed", str(args.seed)]
        if trace:
            trace_file = os.path.join(runner.work, "probe.json")
            argv = [sys.executable, os.path.join(HERE, "cli_probe.py"), trace_file] + cli_args
        else:
            argv = [sys.executable, "-m", "verkit.cli"] + cli_args
            runner.start_speed.sample()
        child = runner.run(argv)
        child["call"] = (p, n, cli_args)
        records.append(child)
        if trace:
            trace.open("bench.invocation", tag=f"{p}_{n}", start=child["start"])
            if os.path.exists(trace_file):
                with open(trace_file) as handle:
                    dump = json.load(handle)
                os.unlink(trace_file)
                trace.add("cli.interpreter", child["start"], dump["start"])
                trace.adopt(dump)
                trace.add("cli.interpreter", dump["end"], child["end"])
            else:
                child["code"] = child["code"] or "no trace"
            trace.close(child["end"])
        if budget and child["end"] - begin >= budget:
            break
    if trace:
        trace.close(records[-1]["end"])
    else:
        runner.start_speed.sample()
    return {"records": records, "wall": runner.start_speed.net(begin, records[-1]["end"])}


def _cache_state(cache_dirs: dict) -> dict:
    state = {}
    for d in cache_dirs.values():
        for name in sorted(os.listdir(d)):
            path = os.path.join(d, name)
            with open(path, "rb") as handle:
                state[path] = (os.stat(path).st_mtime_ns, handle.read())
    return state


def run_cli(runner: Runner, args, trace: Tracer | None, primed: str) -> dict:
    """One block, a prefix of the invocation list; the cache is primed in set-up."""
    sys.path.insert(0, workloads.SRC)
    cache_dirs = {
        (p, n): os.path.join(primed, f"cache_{p}_{n}") for p, n in workloads.cli_categories(args.tiny)
    }
    before = _cache_state(cache_dirs)
    calls = workloads.cli_session(args.seed, workloads.SESSION_LENGTH, args.tiny)
    budget = args.seconds / 2 if trace else args.seconds
    first = _session(runner, args, calls, cache_dirs, None, budget)
    calls = calls[: len(first["records"])]
    records = list(first["records"])
    if trace:
        records += _session(runner, args, calls, cache_dirs, trace, 0)["records"]
    if args.tamper:
        records[0]["stdout"] += b" "

    from checks import CliOracle

    workloads.check_origin()
    oracle = CliOracle(cache_dirs, workloads.BUILD_SAMPLES, args.seed)
    failures = []
    first_report: dict = {}
    for rec in records:
        p, n, cli_args = rec["call"]
        label = " ".join(cli_args[:5])
        if rec["code"] != 0:
            failures.append(f"{label}: exit {rec['code']}: {rec['stderr'].decode()[-500:]}")
            continue
        if rec["stdout"] != oracle.stdout(p, n, cli_args[:-4]).encode():
            failures.append(f"{label}: stdout differs from the library's document")
            continue
        if cli_args[0] == "report" and first_report.setdefault((p, n), rec["stdout"]) != rec["stdout"]:
            failures.append(f"{label}: warm report output changed")
    if _cache_state(cache_dirs) != before:
        failures.append("session: the primed cache files changed")
    lat = [runner.normalised(r) for r in first["records"]]
    mix: dict = {}
    for p, n, cli_args in calls:
        mix[cli_args[0]] = mix.get(cli_args[0], 0) + 1
    out = {
        "latencies": lat,
        "failures": failures,
        "raw": [r["end"] - r["start"] for r in first["records"]],
        "rss": [r["rss_mb"] for r in first["records"]],
        "attempted": len(records) + 1,  # every invocation, and the cache check
        "info": [
            ("invocations", len(lat), " ".join(f"{c}={k}" for c, k in sorted(mix.items()))),
            ("cli_p50_ms", 1e3 * statistics.median(lat), "= op_p50_ms"),
        ],
    }
    if trace:
        out["untraced_wall"] = first["wall"]
    return out


# ---------------------------------------------------------------------------
# metrics and output


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setup: list[float], res: dict) -> tuple[dict, dict]:
    lat = res["latencies"]
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(res["rss"]),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * _p90(lat),
        "ops_per_s": len(lat) / sum(lat),
    }
    samples = {
        "setup_s": f"median of {len(setup)} set-ups",
        "peak_rss_mb": f"max over {len(res['rss'])} measured processes",
        "op_p50_ms": f"{len(lat)} operations",
        "op_p90_ms": f"{len(lat)} operations",
        "ops_per_s": f"{len(lat)} operations / their summed latency",
    }
    return values, samples


def per_layer(trace: Tracer, untraced_wall: float) -> tuple[dict, dict]:
    an = analyse(trace.spans)
    total_self = sum(an["module_self"].values())
    if an["nesting_error"] > 1e-3 or abs(total_self - an["wall"]) > 1e-6 * max(1.0, an["wall"]):
        raise RuntimeError(
            f"spans do not nest: error {an['nesting_error']:.6f} s, "
            f"self sum {total_self:.6f} s vs wall {an['wall']:.6f} s"
        )
    counts = trace.counts
    values = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = an["module_self"].get(name[: -len(".self_s")], 0.0)
        elif name.startswith("rung."):
            tag = name.split(".")[1]
            values[name] = an["by_group"].get(("bench.rung", tag), 0.0)
        elif unit == "s" and "." in name:
            values[name] = an["inclusive"].get(name[: -len("_s")], 0.0)
        elif unit in ("count", "B"):
            values[name] = counts.get(name, 0)
    calls = counts.get("cli.load_or_build_calls", 0)
    values["cli.cache_hit_ratio"] = counts.get("cli.cache_hits", 0) / calls if calls else 0.0
    values["unattributed_s"] = an["module_self"].get("bench", 0.0)
    values["traced_wall_s"] = an["wall"]
    values["trace_overhead_s"] = an["wall"] - untraced_wall
    return values, an


def layer_table(an: dict) -> str:
    """Milliseconds per layer (rows) and rung or category (columns).

    Rows are the inclusive time of each traced function, then each module's
    self time; columns are ordered by category size.
    """
    groups = sorted({tag for _, tag in an["by_group"] if tag}, key=_size)
    head = ["layer (ms)"]
    for tag in groups:
        p, n = _pn(tag)
        head.append(f"Ver_{p**n} (k={workloads.simple_count(p, n)})")
    rows = [head, ["---"] + ["---:"] * len(groups)]
    names = sorted({name for name, _ in an["by_group"]}, key=lambda s: (s.startswith("bench"), s))
    table = [(name, an["by_group"]) for name in names]
    table += [(f"{m} self", an["self_by_group"]) for m in MODULES + ["bench"]]
    for label, source in table:
        key = label.split()[0]
        cells = [source.get((key, tag), 0.0) for tag in groups]
        if any(cells):
            rows.append([label] + [f"{1e3 * c:.1f}" for c in cells])
    return "\n".join("| " + " | ".join(r) + " |" for r in rows)


def _pn(tag: str) -> tuple[int, int]:
    p, n = tag.split("_")
    return int(p), int(n)


def _size(tag: str) -> int:
    p, n = _pn(tag)
    return p**n


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="small categories, for the self-test")
    parser.add_argument("--tamper", action="store_true", help="corrupt the first result, for the self-test")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(workloads.SRC, "verkit", "__init__.py")):
        print(f"error: no verkit package under {workloads.SRC}", file=sys.stderr)
        return 2

    work = os.path.join(workloads.ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(work)
        setup, primed = setup_times(runner, args)
        trace = Tracer() if args.trace else None
        if args.workload == "build_ladder":
            res = run_build(runner, args, trace)
        elif args.workload == "fusion_queries":
            res = run_fusion(runner, args, trace)
        else:
            res = run_cli(runner, args, trace, primed)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if trace:
        values, an = per_layer(trace, res["untraced_wall"])
        units = dict(PER_LAYER)
        print(layer_table(an))
        print()
        for name, unit in PER_LAYER:
            print(f"  {name:34s} {_fmt(values[name]):>14s} {unit}")
        trace_dir = os.path.join(workloads.ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"), "w") as handle:
            json.dump(trace.dump(), handle)
    else:
        values, samples = end_to_end(setup, res)
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"  {name:14s} {values[name]:>12.6g} {unit:4s} ({samples[name]})")
        raw_p50 = 1e3 * statistics.median(res["raw"])
        print(f"  raw_p50_ms     {raw_p50:>12.6g}      (op_p50_ms before normalising to the reference speed)")
    for name, value, note in res["info"]:
        print(f"  {name:14s} {value:>12.6g}      ({note})")
    failed = len(res["failures"])
    print(f"  fail_frac      {failed / res['attempted']:>12.6g}      ({failed}/{res['attempted']} failed)")
    for msg in res["failures"][:10]:
        print(f"FAIL {msg}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
