"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 -m pytest perfbench/test_selftest.py -q

Every declared metric must be printed by name with its unit, a corrupted
result must count as a failure and fail the run, a directory without
src/verkit must be refused without a result, and host-speed normalisation
must take probe time out of an interval and scale it by the probes near it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import analyse  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=175)


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] is True and result["failed"] == 0
    spec = declared()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = [line.split() for line in proc.stdout.splitlines()[:-1]]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(words[:1] == [m["name"]] and words[2:3] == [m["unit"]] for words in printed), m
        if not trace:
            assert got["value"] > 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_a_tampered_result_fails_the_run(workload):
    proc = bench("--workload", workload, "--trace", "0", "--tiny", "--tamper")
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] == 1
    frac = [line.split()[1] for line in proc.stdout.splitlines() if line.split()[:1] == ["fail_frac"]]
    assert frac and float(frac[0]) == pytest.approx(1 / result["attempted"], rel=1e-4)


def test_a_directory_without_the_package_is_refused(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fusion_queries", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_depend_on_the_seed_only():
    assert workloads.fusion_stream(5, 600, False) == workloads.fusion_stream(5, 600, False)
    assert workloads.fusion_stream(5, 600, False) != workloads.fusion_stream(6, 600, False)
    assert workloads.cli_session(5, 50, False) == workloads.cli_session(5, 50, False)
    share = workloads.repeat_share(workloads.fusion_stream(5, 3000, False))
    assert 0.4 < share < 0.6


def test_self_times_and_unattributed_time_sum_to_the_wall():
    spans = [
        ["bench.section", 0.0, 10.0, None, None],
        ["catalog.build", 1.0, 9.0, 0, "3_2"],
        ["linalg.det", 2.0, 5.0, 1, None],
        ["linalg.det", 3.0, 4.0, 2, None],
    ]
    an = analyse(spans)
    assert an["wall"] == 10.0 and an["nesting_error"] == 0.0
    assert an["module_self"] == {"bench": 2.0, "catalog": 5.0, "linalg": 3.0}
    assert an["inclusive"]["linalg.det"] == 3.0  # the nested det is not counted twice
    assert an["by_group"][("linalg.det", "3_2")] == 3.0


def test_normalising_removes_probe_time_and_scales_by_nearby_probes():
    speed = HostSpeed(ref_s=0.005, window=0.5)
    # probes of 10 ms (a host at half speed) up to t = 3, then of 5 ms
    speed.starts = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
    speed.ends = [s + (0.010 if s <= 3.0 else 0.005) for s in speed.starts]
    assert speed.net(0.5, 2.5) == pytest.approx(2.0 - 0.020)
    assert speed.scale(0.5, 2.5) == pytest.approx(0.5)
    assert speed.normalise(0.5, 2.5) == pytest.approx(0.99)
    assert speed.normalise(10.5, 10.6) == pytest.approx(0.1)
    # nothing within the window: the nearest probes on each side decide
    assert speed.scale(6.0, 6.1) == pytest.approx(0.005 / 0.0075)


def test_a_long_interval_follows_a_speed_change_inside_it():
    speed = HostSpeed(ref_s=0.005, window=0.5)
    # a probe every 0.25 s: 10 ms (half speed) before t = 5, then 5 ms
    speed.starts = [k / 4 for k in range(41)]
    speed.ends = [s + (0.010 if s < 5.0 else 0.005) for s in speed.starts]
    slow = 4.0 - 16 * 0.010  # net time in [1, 5)
    fast = 4.0 - 16 * 0.005  # net time in [5, 9]; the probe at 9 starts at the end
    assert speed.net(1.0, 9.0) == pytest.approx(slow + fast)
    assert speed.normalise(1.0, 9.0) == pytest.approx(0.5 * slow + fast, rel=0.02)
