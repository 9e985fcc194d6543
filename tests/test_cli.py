import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from verkit import cli


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.setenv("VERKIT_CACHE_DIR", str(tmp_path / "cache"))
    return run_cli


def invoke(runner, *args):
    result = runner(args)
    return result


def test_report_text(runner):
    result = invoke(runner, "report", "-p", "3", "-n", "2")
    assert result.exit_code == 0
    assert "6 simple objects" in result.output
    assert "cartan matrix" in result.output
    assert "all" not in result.output.lower() or "FAIL" not in result.output


def test_report_json_shape(runner):
    result = invoke(runner, "report", "-p", "3", "-n", "2", "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema_version"] == 3
    assert doc["kind"] == "category_report"
    payload = doc["payload"]
    assert payload["p"] == 3 and payload["n"] == 2
    assert len(payload["simples"]) == 6
    assert payload["cartan"]["rows"] == ["T2", "T3", "T4", "T5", "T6", "T7"]
    assert payload["cartan"]["blocks"] == [[[2, 1], [1, 2]], [[2, 1], [1, 2]], [[1]], [[1]]]
    assert payload["decomposition"]["support"] == [[2], [1, 3], [0, 4], [5], [4, 6], [3, 7]]
    assert payload["decomposition"]["weyl_count"] == 8
    assert all("projective_coeffs" not in entry for entry in payload["fpdim"])
    assert payload["verification"]["all_passed"] is True


def test_report_rejects_non_prime(runner):
    result = invoke(runner, "report", "-p", "99", "-n", "1")
    assert result.exit_code == 2
    assert "not a prime" in result.output


def test_report_rejects_bad_level(runner):
    assert invoke(runner, "report", "-p", "3", "-n", "0").exit_code == 2


def test_every_command_refuses_a_category_above_the_bound(runner):
    result = invoke(runner, "fuse", "-p", "3", "-n", "9", "-a", "0", "-b", "0")
    assert result.exit_code == 2
    assert "13122 simple objects exceeds the bound 2500" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "-p", "3", "-n", "3000000"], "more than 2^64 simple objects exceeds the bound 2500"),
        (["fuse", "-p", "3", "-n", "100000000", "-a", "0", "-b", "0"], "more than 2^64 simple objects"),
        (["verify", "-p", "1000000000000000003", "-n", "1"], "1000000000000000002 simple objects"),
    ],
    ids=["verify_huge_level", "fuse_huge_level", "verify_huge_prime"],
)
def test_huge_categories_are_refused_at_once(tmp_path, args, message):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "VERKIT_CACHE_DIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, "-m", "verkit.cli", *args], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 2, done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0], done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert os.listdir(tmp_path) == []


def _script(*args: str, cache) -> subprocess.CompletedProcess:
    """`python -m verkit.cli <args>` with VERKIT_CACHE_DIR set to `cache`."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "VERKIT_CACHE_DIR": str(cache)}
    return subprocess.run(
        [sys.executable, "-m", "verkit.cli", *args], env=env, capture_output=True, text=True, timeout=60
    )


def _usage_error(done: subprocess.CompletedProcess) -> str:
    """The one `Error:` line of a usage error: exit 2, nothing on stdout, no traceback."""
    assert done.returncode == 2, done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
    return errors[0]


@pytest.mark.parametrize(
    "args, message",
    [
        ([], "COMMAND"),
        (["verify", "-n", "2"], "-p"),
        (["verify", "-p", "3", "-n", "two"], "'two'"),
        (["verify", "-p", "3", "-n", "2", "--no-such-option"], "--no-such-option"),
        (["report", "-p", "3", "-n", "2", "--format", "csv"], "'csv'"),
    ],
    ids=["no_command", "missing_p", "non_integer_n", "unknown_option", "report_csv"],
)
def test_a_usage_error_prints_one_error_line_and_writes_nothing(tmp_path, args, message):
    assert message in _usage_error(_script(*args, cache=tmp_path))
    assert os.listdir(tmp_path) == []


def test_an_output_that_cannot_be_written_exits_2_and_leaves_no_file(tmp_path):
    (tmp_path / "out").mkdir()
    target = str(tmp_path / "out")
    done = _script("verify", "-p", "3", "-n", "2", "--output", target, cache=tmp_path / "cache")
    assert f"cannot write {target}: " in _usage_error(done)
    assert sorted(os.listdir(tmp_path)) == ["cache", "out"]
    assert os.listdir(tmp_path / "out") == []
    assert os.listdir(tmp_path / "cache") == [f"verpn_3_2_v{cli.CACHE_VERSION}.json"]


def test_a_cache_that_cannot_be_written_exits_2(tmp_path):
    """The cache directory lies under a regular file, so no file can be
    made there (a test of permissions would pass when run as root)."""
    (tmp_path / "file").write_text("")
    cache = tmp_path / "file" / "cache"
    done = _script("verify", "-p", "3", "-n", "2", "--cache-dir", str(cache), cache=tmp_path / "unused")
    assert f"cannot write {cache}{os.sep}verpn_3_2_v" in _usage_error(done)
    assert sorted(os.listdir(tmp_path)) == ["file"]


def test_a_reader_that_closes_the_pipe_ends_the_command_quietly(tmp_path):
    """`verkit table ... | head -c 10`: exit 1, as under click, and nothing on stderr."""
    args = ["table", "-p", "3", "-n", "4", "--format", "json", "--cache-dir", str(tmp_path)]
    assert run_cli(args).exit_code == 0  # primes the cache
    src = os.path.dirname(os.path.dirname(cli.__file__))
    child = subprocess.Popen(
        [sys.executable, "-m", "verkit.cli", *args],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.read(10) == b"{\n  \"kind\""  # of a document far larger than a pipe holds
    child.stdout.close()
    assert child.wait(timeout=60) == 1
    assert child.stderr.read() == b""
    child.stderr.close()


def test_main_raises_system_exit_with_the_exit_code(tmp_path, capsys):
    args = ["verify", "-p", "3", "-n", "2", "--cache-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as passed:
        cli.main(args=args, prog_name="verkit")
    assert passed.value.code == 0
    target = tmp_path / f"verpn_3_2_v{cli.CACHE_VERSION}.json"
    record = json.loads(target.read_text())
    record["verification"]["checks"][0]["passed"] = False
    record["verification"]["all_passed"] = False
    target.write_text(json.dumps(record))
    with pytest.raises(SystemExit) as failed:
        cli.main(args=args, prog_name="verkit")
    assert failed.value.code == 1
    assert "FAILURES PRESENT" in capsys.readouterr().out


SHARED_OPTIONS = ["--help", "-p", "-n", "--format", "--output", "--cache-dir", "--samples", "--rng-seed"]
OWN_OPTIONS = {
    "fuse": ["-a", "-b"],
    "table": ["--even-only"],
    "cartan": ["--even-only"],
    "invariants": ["-M"],
    "tilting": ["-m"],
}


def _names(text: str, option: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text) is not None


def test_help_names_every_command_and_option():
    top = run_cli(["--help"])
    assert top.exit_code == 0 and top.stderr == ""
    assert all(_names(top.stdout, command) for command in cli.COMMANDS), top.stdout
    for command in cli.COMMANDS:
        shown = run_cli([command, "--help"])
        assert shown.exit_code == 0 and shown.stderr == "", shown.output
        for option in SHARED_OPTIONS + OWN_OPTIONS.get(command, []):
            assert _names(shown.stdout, option), (command, option)
        assert "(default: 100)" in shown.stdout and "(default: 0)" in shown.stdout
        assert ("(default: 12)" in shown.stdout) == (command == "invariants")


def test_help_before_a_command_still_lists_all_ten_commands():
    # A call whose first argument names a command builds only that parser;
    # `--help verify` names one later, and the listing must not shrink to it.
    top = run_cli(["--help"])
    shown = run_cli(["--help", "verify"])
    assert shown == top
    listed = [m[1] for m in re.finditer(r"^    (\S+)", shown.stdout, re.MULTILINE)]
    assert listed == list(cli.COMMANDS), shown.stdout


def test_report_correspondence_table(runner):
    result = invoke(runner, "report", "-p", "3", "-n", "3")
    assert result.exit_code == 0
    line_l = next(l for l in result.output.splitlines() if l.strip().startswith("L0"))
    line_t = next(l for l in result.output.splitlines() if l.strip().startswith("T16"))
    assert line_l.split()[:5] == ["L0", "L1", "L2", "L3", "L4"]
    assert line_t.split()[0] == "T16"


def test_fuse_examples(runner):
    result = invoke(runner, "fuse", "-p", "3", "-n", "2", "-a", "2", "-b", "2")
    assert result.exit_code == 0
    assert "L2 + P0" in result.output
    assert "(2, 0, 1, 0, 1, 0)" in result.output
    result = invoke(runner, "fuse", "-p", "5", "-n", "2", "-a", "15", "-b", "10")
    assert "= L5" in result.output
    result = invoke(runner, "fuse", "-p", "3", "-n", "2", "-a", "0", "-b", "5")
    assert "= L5" in result.output


def test_fuse_folds_its_product_once(runner, monkeypatch):
    from verkit import grring

    folds = []

    def counted(v, classes, _orig=grring.peel_projectives):
        folds.append((v.p, v.n))
        return _orig(v, classes)

    monkeypatch.setattr(grring, "peel_projectives", counted)
    for fmt in ("json", "text"):
        folds.clear()
        result = invoke(runner, "fuse", "-p", "3", "-n", "3", "-a", "4", "-b", "7", "--format", fmt)
        assert result.exit_code == 0, result.output
        assert folds == [(3, 3)]


def test_fuse_label_out_of_range(runner):
    assert invoke(runner, "fuse", "-p", "3", "-n", "2", "-a", "0", "-b", "6").exit_code == 2


def test_table_matches_fuse(runner):
    result = invoke(runner, "table", "-p", "3", "-n", "2", "--format", "json")
    doc = json.loads(result.output)
    assert doc["payload"]["labels"] == [0, 1, 2, 3, 4, 5]
    cell = doc["payload"]["cells"][2][2]
    assert cell["vector"] == [2, 0, 1, 0, 1, 0]
    assert cell["text"] == "L2 + P0"


def test_table_even_only(runner):
    result = invoke(runner, "table", "-p", "3", "-n", "2", "--even-only", "--format", "json")
    doc = json.loads(result.output)
    assert doc["payload"]["labels"] == [0, 2, 4]


def test_cartan_csv(runner):
    result = invoke(runner, "cartan", "-p", "3", "-n", "2", "--format", "csv")
    lines = result.output.strip().splitlines()
    assert lines[0] == ",T2,T3,T4,T5,T6,T7"
    assert lines[1] == "T2,1,0,0,0,0,0"
    assert len(lines) == 7


def test_cartan_even_only_is_52_table(runner):
    result = invoke(runner, "cartan", "-p", "3", "-n", "3", "--even-only", "--format", "json")
    doc = json.loads(result.output)
    payload = doc["payload"]
    assert payload["rows"] == ["L0", "L4", "L6", "L10", "L12", "L16", "L2", "L14", "L8"]
    assert payload["entries"][0] == [4, 2, 0, 1, 2, 1, 0, 0, 0]


def test_decomp_output(runner):
    result = invoke(runner, "decomp", "-p", "3", "-n", "2", "--format", "json")
    doc = json.loads(result.output)
    assert doc["payload"]["rows"][0] == "T2"
    assert doc["payload"]["cols"][0] == "W0"
    assert invoke(runner, "decomp", "-p", "3", "-n", "2", "--even-only").exit_code == 2


def test_blocks_output(runner):
    result = invoke(runner, "blocks", "-p", "3", "-n", "2", "--format", "json")
    doc = json.loads(result.output)
    blocks = doc["payload"]["blocks"]
    assert {tuple(b["projectives"]): b["det"] for b in blocks} == {
        (3, 7): 3,
        (4, 6): 3,
        (2,): 1,
        (5,): 1,
    }


def test_ext1_output(runner):
    result = invoke(runner, "ext1", "-p", "3", "-n", "2", "--format", "json")
    doc = json.loads(result.output)
    assert doc["payload"]["edges"] == [[0, 4], [1, 3]]
    assert invoke(runner, "ext1", "-p", "2", "-n", "3").exit_code == 2


def test_invariants_output(runner):
    result = invoke(runner, "invariants", "-p", "3", "-n", "2", "-M", "6")
    assert result.exit_code == 0
    assert "equal: True" in result.output


def test_tilting_output(runner):
    result = invoke(runner, "tilting", "-p", "3", "-n", "2", "-m", "3")
    assert "T3 = W1 + W3" in result.output
    assert "projective" in result.output


def test_verify_exit_code(runner):
    result = invoke(runner, "verify", "-p", "3", "-n", "2")
    assert result.exit_code == 0
    assert "all passed" in result.output


def test_json_roundtrip_flag(runner):
    """Every command's JSON parses back to its document; the former
    `--check-roundtrip` flag is refused as an unknown option."""
    extra = {"fuse": ["-a", "1", "-b", "1"], "tilting": ["-m", "2"], "invariants": ["-M", "4"]}
    kinds = {
        "report": "category_report",
        "verify": "verification",
        "cartan": "matrix",
        "decomp": "matrix",
        "blocks": "block_report",
        "ext1": "ext1",
        "fuse": "fusion_product",
        "table": "fusion_table",
        "invariants": "series",
        "tilting": "tilting_module",
    }
    assert set(cli.COMMANDS) == set(kinds)
    for command in cli.COMMANDS:
        for p in ("2", "3"):
            if command == "ext1" and p == "2":
                continue
            args = [command, "-p", p, "-n", "2", "--format", "json"]
            result = invoke(runner, *args, *extra.get(command, []))
            assert result.exit_code == 0, (command, p, result.output)
            doc = json.loads(result.output)
            assert doc["schema_version"] == cli.SCHEMA_VERSION and doc["kind"] == kinds[command]
            refused = invoke(runner, *args, "--check-roundtrip", *extra.get(command, []))
            assert refused.exit_code == 2 and "--check-roundtrip" in refused.output


def test_a_failed_check_in_a_valid_record_is_printed_and_exits_1(tmp_path):
    """`report` and `verify` print a record whose check failed, in every
    format they offer, and exit with 1."""
    from verkit.cli import _record_fits

    cache = str(tmp_path)
    runner = run_cli
    assert invoke(runner, "verify", "-p", "3", "-n", "2", "--cache-dir", cache).exit_code == 0
    target = tmp_path / f"verpn_3_2_v{cli.CACHE_VERSION}.json"
    record = json.loads(target.read_text())
    check = record["verification"]["checks"][3]
    check.update(passed=False, witness="planted witness")
    record["verification"]["all_passed"] = False
    assert _record_fits(record, 3, 2, 100, 0)
    planted = json.dumps(record, indent=2, sort_keys=True) + "\n"
    target.write_text(planted)
    status = f"{check['name']}: FAIL (planted witness)"
    views = [
        ("report", "category_report", record, "  " + status),
        ("verify", "verification", record["verification"], status),
    ]
    for command, kind, payload, line in views:
        args = [command, "-p", "3", "-n", "2", "--cache-dir", cache]
        text = invoke(runner, *args)
        assert text.exit_code == 1, text.output
        assert line in text.output.splitlines()
        doc = invoke(runner, *args, "--format", "json")
        assert doc.exit_code == 1, doc.output
        assert json.loads(doc.output) == {"schema_version": 3, "kind": kind, "payload": payload}
    assert "FAILURES PRESENT" in text.output
    assert target.read_text() == planted


def test_invariants_exits_1_when_the_routes_disagree(runner, monkeypatch):
    from verkit import tilting

    monkeypatch.setattr(tilting, "series_fn", lambda p, n, depth: [0] * (depth + 1))
    text = invoke(runner, "invariants", "-p", "3", "-n", "2", "-M", "4")
    assert text.exit_code == 1 and text.output.endswith("equal: False\n"), text.output
    doc = invoke(runner, "invariants", "-p", "3", "-n", "2", "-M", "4", "--format", "json")
    assert doc.exit_code == 1 and json.loads(doc.output)["payload"]["equal"] is False


@pytest.mark.parametrize(
    "command, fmt",
    [("cartan", "json"), ("cartan", "csv"), ("cartan", "text"), ("report", "json"),
     ("report", "text")],
)
def test_output_file_holds_the_stdout_bytes(runner, tmp_path, command, fmt):
    args = [command, "-p", "5", "-n", "2", "--format", fmt]
    shown = invoke(runner, *args)
    assert shown.exit_code == 0, shown.output
    target = tmp_path / "out" / "doc.txt"
    written = invoke(runner, *args, "--output", str(target))
    assert written.exit_code == 0 and written.output == ""
    assert target.read_bytes() == shown.stdout_bytes


def test_verify_refuses_fewer_than_one_sample(runner):
    for samples in ("-1", "0"):
        result = invoke(runner, "verify", "-p", "3", "-n", "2", "--samples", samples)
        assert result.exit_code == 2, result.output
        assert "samples" in result.output


def test_csv_rejected_for_non_matrix(runner):
    assert invoke(runner, "fuse", "-p", "3", "-n", "2", "-a", "1", "-b", "1", "--format", "csv").exit_code == 2


def test_csv_report_is_refused_before_any_work(tmp_path, monkeypatch):
    monkeypatch.setenv("VERKIT_CACHE_DIR", str(tmp_path / "cache"))
    for command in ("report", "verify"):
        result = invoke(run_cli, command, "-p", "3", "-n", "2", "--format", "csv")
        assert result.exit_code == 2 and "csv" in result.output
    assert not (tmp_path / "cache").exists()


def test_deterministic_output(runner):
    a = invoke(runner, "report", "-p", "3", "-n", "2", "--format", "json").output
    b = invoke(runner, "report", "-p", "3", "-n", "2", "--format", "json").output
    assert a == b


def test_cache_warm_equals_cold(tmp_path, monkeypatch):
    monkeypatch.setenv("VERKIT_CACHE_DIR", str(tmp_path / "fresh"))
    runner = run_cli
    cold = invoke(runner, "report", "-p", "2", "-n", "3", "--format", "json").output
    cache_file = tmp_path / "fresh" / f"verpn_2_3_v{cli.CACHE_VERSION}.json"
    assert cache_file.exists()
    warm = invoke(runner, "report", "-p", "2", "-n", "3", "--format", "json").output
    assert cold == warm


def test_cache_file_is_indented_json_written_in_batches(tmp_path):
    """The cache file is the sorted, indented JSON of the payload, byte for
    byte, though the writer joins the encoder's chunks a batch at a time."""
    from verkit.cli import _atomic_write, load_or_build

    payload = load_or_build(3, 3, str(tmp_path), 100, 0)
    written = (tmp_path / f"verpn_3_3_v{cli.CACHE_VERSION}.json").read_text()
    assert written == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    chunks = [f"{i}," for i in range(200_000)]  # more than three batches
    _atomic_write(str(tmp_path / "chunks.txt"), iter(chunks))
    assert (tmp_path / "chunks.txt").read_text() == "".join(chunks)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["chunks.txt", f"verpn_3_3_v{cli.CACHE_VERSION}.json"]


def test_cache_file_for_another_category_is_rebuilt(tmp_path):
    """A cache file for another category, valid JSON of the wrong shape, or
    bytes that are not UTF-8, is a miss: the command rebuilds and overwrites
    it."""
    cache = tmp_path / "cache"
    runner = run_cli
    assert invoke(runner, "report", "-p", "5", "-n", "2", "--cache-dir", str(cache)).exit_code == 0
    target = cache / f"verpn_3_2_v{cli.CACHE_VERSION}.json"
    other = (cache / f"verpn_5_2_v{cli.CACHE_VERSION}.json").read_text()
    mine = {**json.loads(other), "p": 3}
    stale = [
        other,
        "[1, 2]\n",
        "7\n",
        json.dumps({**mine, "verification": [1, 2]}),
        json.dumps({**mine, "verification": 7}),
        b"\xff\xfe{",
    ]
    for command in ("report", "verify"):
        for text in stale:
            if isinstance(text, bytes):
                target.write_bytes(text)
            else:
                target.write_text(text)
            result = invoke(runner, command, "-p", "3", "-n", "2", "--cache-dir", str(cache))
            assert result.exit_code == 0, (command, text[:20], result.output)
            if command == "report":
                assert "6 simple objects" in result.output
            rebuilt = json.loads(target.read_text())
            assert rebuilt["p"] == 3 and isinstance(rebuilt["verification"], dict)


def _drop(*path):
    """Delete the key at the end of `path`."""

    def mutate(record):
        *head, last = path
        for k in head:
            record = record[k]
        del record[last]

    return mutate


def _set(path, value):
    def mutate(record):
        *head, last = path
        for k in head:
            record = record[k]
        record[last] = value

    return mutate


def _pop(path):
    """Drop the last item of the list at `path`."""

    def mutate(record):
        for k in path:
            record = record[k]
        record.pop()

    return mutate


def _dense_cartan(record):
    """The Cartan matrix in the dense shape of the previous record."""
    rows = record["cartan"]["rows"]
    entries = [[0] * len(rows) for _ in rows]
    at = {label: r for r, label in enumerate(rows)}
    for block, M in zip(record["blocks"], record["cartan"]["blocks"]):
        idx = [at[f"T{s}"] for s in block["projectives"]]
        for r, row in zip(idx, M):
            for c, v in zip(idx, row):
                entries[r][c] = v
    record["cartan"] = {"rows": rows, "cols": rows, "entries": entries}


def _planted_failure(record):
    """A failing first check under a verdict that all passed."""
    record["verification"]["checks"][0].update(passed=False, witness="planted")
    assert record["verification"]["all_passed"] is True


@pytest.mark.parametrize(
    "command, mutate",
    [
        ("cartan", _drop("cartan")),
        ("blocks", _drop("blocks")),
        ("cartan", _set(["cartan", "entries"], 7)),
        ("cartan", _set(["cartan", "rows", 0], "T0")),
        ("blocks", _set(["blocks", 0], {"size": 2})),
        ("fuse", _set(["steinberg", 1], [1])),
        pytest.param("fuse", _set(["steinberg", 1], 5), id="fuse-int-pair"),
        ("ext1", _set(["ext1"], None)),
        pytest.param("ext1", _set(["ext1", 0], 1), id="ext1-int-pair"),
        ("decomp", _set(["decomposition", "support", 0, 0], "1")),
        pytest.param("cartan", _set(["cartan", "blocks", 0], [[2]]), id="cartan-block-row-count"),
        pytest.param("cartan", _pop(["cartan", "blocks"]), id="cartan-block-missing"),
        pytest.param("fuse", _pop(["cartan", "blocks"]), id="fuse-cartan-block-missing"),
        pytest.param("decomp", _set(["decomposition", "support", 1, 0], 26), id="decomp-support-too-large"),
        pytest.param("decomp", _set(["decomposition", "support", 1, 0], -1), id="decomp-support-negative"),
        pytest.param("report", _drop("fpdim", 4, "projective_numeric"), id="report-fpdim-projective-missing"),
        pytest.param("report", _set(["fpdim", 4, "projective_numeric"], 1.5), id="report-fpdim-projective-not-a-string"),
        pytest.param("report", _pop(["fpdim"]), id="report-fpdim-entry-missing"),
        pytest.param("report", _set(["fpdim", 1, "label"], 5), id="report-fpdim-relabelled"),
        pytest.param("report", _drop("dims"), id="report-dims-missing"),
        pytest.param("report", _set(["dims", 0], [0]), id="report-dims-not-a-pair"),
        pytest.param("report", _set(["dims", 2, 0], 7), id="report-dims-relabelled"),
        pytest.param("ext1", _set(["ext1", 0], [0, 999]), id="ext1-label-out-of-range"),
        pytest.param("ext1", _set(["ext1", 0], [5, 1]), id="ext1-pair-reversed"),
        pytest.param("cartan", _dense_cartan, id="cartan-dense-entries"),
        pytest.param("table", _dense_cartan, id="table-dense-entries"),
        pytest.param("verify", _planted_failure, id="verify-verdict-disagrees-with-a-check"),
        pytest.param("report", _planted_failure, id="report-verdict-disagrees-with-a-check"),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_a_record_that_lacks_what_a_view_reads_is_rebuilt(tmp_path, command, mutate):
    """A file that matches the request but lacks a key a command reads, or
    holds it with the wrong type or shape (a Cartan block too few or of the
    wrong size, a Weyl column out of range, an FPdim value missing or not a
    string, FP dimensions or dims that are not the simples' in order, an Ext^1
    pair that is not two simples, smaller first, the dense Cartan matrix of the previous record, a verdict that all
    passed over a failing check), is a miss: the command
    prints its cold output and rewrites the file."""
    runner = run_cli
    args = [command, "-p", "3", "-n", "3", "--cache-dir", str(tmp_path)]
    if command == "fuse":
        args += ["-a", "4", "-b", "7"]
    if command == "table":
        args += ["--even-only"]
    cold = invoke(runner, *args)
    assert cold.exit_code == 0, cold.output
    target = tmp_path / f"verpn_3_3_v{cli.CACHE_VERSION}.json"
    written = target.read_text()
    record = json.loads(written)
    mutate(record)
    target.write_text(json.dumps(record))
    warm = invoke(runner, *args)
    assert warm.exit_code == 0, warm.output
    assert warm.output == cold.output
    assert target.read_text() == written


def test_warm_report_computes_nothing(tmp_path, monkeypatch):
    """Nor does any other warm record view."""
    from verkit import catalog

    runner = run_cli
    args = ["-p", "3", "-n", "3", "--cache-dir", str(tmp_path / "cache")]
    commands = [["report"], ["verify"], ["cartan"], ["cartan", "--even-only"], ["decomp"],
                ["blocks"], ["ext1"], ["fuse", "-a", "4", "-b", "7"], ["table", "--even-only"]]
    cold = [invoke(runner, *cmd, *args).output for cmd in commands]

    def refuse(*args, **kwargs):
        raise AssertionError("a warm run computed a category quantity")

    monkeypatch.setattr(catalog, "build", refuse)
    monkeypatch.setattr(catalog, "category", refuse)
    warm = [invoke(runner, *cmd, *args).output for cmd in commands]
    assert warm == cold


def test_cache_dir_flag_overrides_env(tmp_path, monkeypatch):
    monkeypatch.setenv("VERKIT_CACHE_DIR", str(tmp_path / "envdir"))
    runner = run_cli
    result = runner(
        ["report", "-p", "2", "-n", "2", "--cache-dir", str(tmp_path / "flagdir"), "--format", "json"],
    )
    assert result.exit_code == 0
    assert (tmp_path / "flagdir" / f"verpn_2_2_v{cli.CACHE_VERSION}.json").exists()
    assert not (tmp_path / "envdir").exists()


def test_output_file(tmp_path, monkeypatch):
    monkeypatch.setenv("VERKIT_CACHE_DIR", str(tmp_path / "cache"))
    runner = run_cli
    target = tmp_path / "out.json"
    result = runner(["cartan", "-p", "3", "-n", "2", "--format", "json", "--output", str(target)])
    assert result.exit_code == 0
    doc = json.loads(target.read_text())
    assert doc["kind"] == "matrix"


def test_cache_file_of_the_previous_payload_is_not_read(tmp_path):
    """A file under the previous cache name, valid for this request but
    written before the payload gained checks, is never served."""
    cache = tmp_path / "cache"
    runner = run_cli
    assert invoke(runner, "report", "-p", "3", "-n", "2", "--cache-dir", str(cache)).exit_code == 0
    current = cache / f"verpn_3_2_v{cli.CACHE_VERSION}.json"
    old = json.loads(current.read_text())
    old["simples"] = [0]
    current.unlink()
    (cache / f"verpn_3_2_v{cli.CACHE_VERSION - 1}.json").write_text(json.dumps(old))
    result = invoke(runner, "report", "-p", "3", "-n", "2", "--cache-dir", str(cache))
    assert result.exit_code == 0, result.output
    assert "6 simple objects" in result.output
    names = {c["name"] for c in json.loads(current.read_text())["verification"]["checks"]}
    assert {"cartan_block_diagonal", "stable_rank_mod_p"} <= names


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63 - 5, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**63) + 5)
    | st.text()
    | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "é", "Ver_{3^2}", "\u2028", "\U0001f600"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(), max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=30,
)


@settings(deadline=None, max_examples=300)
@given(JSON_VALUES)
def test_json_writer_is_byte_identical_to_json_dumps(obj):
    assert "".join(cli._json_chunks(obj)) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_writer_refuses_keys_that_are_not_str_and_unknown_types():
    for obj in ({1: 2}, {"a": {None: 1}}, [object()], {"a": {1, 2}}, [1.5]):
        with pytest.raises(TypeError):
            "".join(cli._json_chunks(obj))


class _Writes(list):
    """A stdout that keeps each write."""

    write = list.append

    def flush(self) -> None:
        pass


def test_json_stdout_is_streamed_in_batches(monkeypatch):
    """--format json writes a large document a batch at a time, and the
    batches join to json.dumps of it."""
    doc = {"kind": "matrix", "payload": {"entries": [[i] for i in range(40_000)]}}
    writes = _Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    cli._emit(doc, "json", None, None)
    assert len(writes) >= 2
    assert "".join(writes) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_text_and_csv_stdout_are_streamed_in_batches(monkeypatch):
    """A large matrix leaves a batch at a time in text and csv as well, and
    the streamed text grid equals the grid of every cell's string."""
    labels = [f"T{i}" for i in range(300)]
    entries = [[i * j - 500 for j in range(300)] for i in range(300)]
    matrix = {"rows": labels, "cols": labels, "entries": entries}
    cells = [["", *labels]] + [[r, *map(str, row)] for r, row in zip(labels, entries)]
    writes = _Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    for fmt, sep in (("text", None), ("csv", ",")):
        writes.clear()
        cli._emit({"payload": matrix}, fmt, None, cli._render_matrix)
        assert len(writes) >= 2
        lines = "".join(writes).split("\n")
        assert lines.pop() == "" and len(lines) == 301
        assert [[int(v) for v in line.split(sep)[1:]] for line in lines[1:]] == entries
    assert lines[0] == "," + ",".join(labels)
    assert list(cli._render_matrix(matrix)) == list(cli._grid(cells))
