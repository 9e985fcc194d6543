"""What a call loads: each case runs in a fresh interpreter, because this
one has loaded numpy and every verkit module already."""

import json
import os
import subprocess
import sys

import pytest

import verkit
from conftest import run_cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(verkit.__file__)))

# Runs the command named by argv in this interpreter, then prints which of
# numpy, mpmath, click, tempfile and the verkit modules it loaded.  What the
# interpreter loaded before it (a site hook may load tempfile) is not counted.
PROBE = """
import json, sys
started = set(sys.modules)
import verkit.cli
try:
    verkit.cli.main(args=sys.argv[1:], prog_name="verkit")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "loaded": sorted(
    m for m in set(sys.modules) - started
    if m in ("numpy", "mpmath", "click", "tempfile") or m.startswith("verkit")
)}))
"""


def _loaded(args: list[str]) -> set[str]:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0, done.stdout
    return set(result["loaded"])


@pytest.fixture(scope="module")
def primed(tmp_path_factory):
    """A cache directory holding Ver_27."""
    cache = str(tmp_path_factory.mktemp("cache"))
    result = run_cli(["report", "-p", "3", "-n", "3", "--cache-dir", cache])
    assert result.exit_code == 0, result.output
    return cache


@pytest.mark.parametrize("command", ["report", "verify"])
def test_a_warm_cached_command_loads_neither_numpy_nor_mpmath(primed, command):
    loaded = _loaded([command, "-p", "3", "-n", "3", "--format", "json", "--cache-dir", primed])
    assert not loaded & {"numpy", "mpmath"}, loaded


@pytest.mark.parametrize(
    "args",
    [
        ["cartan", "--even-only"],
        ["blocks"],
        ["fuse", "-a", "3", "-b", "5"],
        ["tilting", "-m", "7"],
        ["invariants", "-M", "12"],
    ],
    ids=lambda args: args[0],
)
def test_a_small_command_loads_neither_mpmath_nor_cyclo(primed, args):
    loaded = _loaded(args + ["-p", "3", "-n", "3", "--format", "json", "--cache-dir", primed])
    assert not loaded & {"mpmath", "verkit.cyclo"}, loaded


@pytest.mark.parametrize(
    "args", [["tilting", "-m", "7"], ["invariants", "-M", "12"]], ids=lambda args: args[0]
)
def test_the_computing_commands_load_neither_numpy_nor_mpmath(primed, args):
    # Tilting characters are Python integers; only a build loads numpy.
    loaded = _loaded(args + ["-p", "3", "-n", "3", "--format", "json", "--cache-dir", primed])
    assert not loaded & {"numpy", "mpmath"}, loaded


# A cold `verify` of Ver_27 and of Ver_64 into the cache directory argv[1],
# with mpmath made unimportable.
BLOCKED = """
import sys
sys.modules["mpmath"] = None
import verkit.cli
for p, n in ((3, 3), (2, 6)):
    try:
        verkit.cli.main(args=["verify", "-p", str(p), "-n", str(n), "--cache-dir", sys.argv[1]], prog_name="verkit")
    except SystemExit as exc:
        if exc.code:
            raise
"""


def test_a_cold_build_needs_no_mpmath(tmp_path, monkeypatch):
    from verkit import catalog, cli

    cache = str(tmp_path / "cache")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED, cache], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr + done.stdout

    def refuse(*args, **kwargs):
        raise AssertionError("the cache written without mpmath was rebuilt")

    monkeypatch.setattr(catalog, "build", refuse)
    for p, n in ((3, 3), (2, 6)):
        payload = cli.load_or_build(p, n, cache, 100, 0)
        assert payload["verification"]["all_passed"], (p, n)


def test_importing_tilting_loads_no_numpy():
    code = "import sys, verkit.tilting\nif 'numpy' in sys.modules:\n    raise SystemExit('numpy loaded')\n"
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["cartan", "--even-only"],
        ["decomp"],
        ["blocks"],
        ["ext1"],
        ["fuse", "-a", "3", "-b", "5"],
        ["table"],
        ["report"],
        ["verify"],
        ["invariants", "-M", "12"],
        ["tilting", "-m", "7"],
    ],
    ids=lambda args: args[0],
)
def test_a_warm_record_view_loads_neither_numpy_nor_mpmath(primed, args):
    """Nor click, nor tempfile (only a write loads it): every command, warm."""
    loaded = _loaded(args + ["-p", "3", "-n", "3", "--format", "json", "--cache-dir", primed])
    assert not loaded & {"numpy", "mpmath", "click", "tempfile", "verkit.catalog"}, loaded


def test_fuse_refuses_a_label_before_any_build(tmp_path):
    cache = tmp_path / "cache"
    args = ["fuse", "-p", "3", "-n", "3", "-a", "0", "-b", "18", "--cache-dir", str(cache)]
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *args], env=env, capture_output=True, text=True, timeout=120
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 2, done.stdout
    assert "verkit.catalog" not in result["loaded"]
    assert not cache.exists()


def test_package_exports_load_their_module_on_first_access():
    code = """
import sys
import verkit
assert [m for m in sys.modules if m.startswith("verkit.")] == [], sorted(sys.modules)
for name in verkit.__all__:
    obj = getattr(verkit, name)
    assert obj.__module__.startswith("verkit."), (name, obj.__module__)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
assert set(verkit.__all__) <= set(dir(verkit))
space = {}
exec("from verkit import *", space)
assert all(space[name] is getattr(verkit, name) for name in verkit.__all__)
try:
    verkit.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise SystemExit("an unknown name resolved")
"""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
