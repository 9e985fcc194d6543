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
    # Tilting characters are Python integers, so these load no numpy.
    loaded = _loaded(args + ["-p", "3", "-n", "3", "--format", "json", "--cache-dir", primed])
    assert not loaded & {"numpy", "mpmath"}, loaded


# Cold commands into the cache directory argv[1] with the module argv[2]
# made unimportable: each further argument is "command p n".
BLOCKED = """
import sys
sys.modules[sys.argv[2]] = None
import verkit.cli
for spec in sys.argv[3:]:
    command, p, n = spec.split()
    try:
        verkit.cli.main(args=[command, "-p", p, "-n", n, "--cache-dir", sys.argv[1]], prog_name="verkit")
    except SystemExit as exc:
        if exc.code:
            raise
"""


def _cold_without(blocked: str, specs: list[str], cache: str, monkeypatch) -> None:
    """Run the cold commands with `blocked` unimportable, then read each
    record back warm in this process, failing if it is rebuilt."""
    from verkit import catalog, cli

    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED, cache, blocked, *specs],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr + done.stdout

    def refuse(*args, **kwargs):
        raise AssertionError(f"the cache written without {blocked} was rebuilt")

    monkeypatch.setattr(catalog, "build", refuse)
    for spec in specs:
        p, n = map(int, spec.split()[1:])
        payload = cli.load_or_build(p, n, cache, 100, 0)
        assert payload["verification"]["all_passed"], (p, n)


def test_a_cold_build_needs_no_mpmath(tmp_path, monkeypatch):
    _cold_without("mpmath", ["verify 3 3", "verify 2 6"], str(tmp_path / "cache"), monkeypatch)


def test_a_cold_build_whose_blocks_are_certified_needs_no_numpy(tmp_path, monkeypatch):
    """Every block of these is certified, and the Chebyshev check runs on
    Python integers, so neither a cold `verify` nor a cold `report` imports
    numpy; only a refused block, the dense views and `fold_projectives` do."""
    specs = ["verify 3 3", "verify 2 6", "verify 7 1", "report 5 2"]
    _cold_without("numpy", specs, str(tmp_path / "cache"), monkeypatch)


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
