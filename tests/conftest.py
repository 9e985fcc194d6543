"""The in-process command-line runner the tests share."""

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from verkit.cli import main


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def run_cli(args: list[str]) -> CliResult:
    """`verkit <args>` in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(args=list(args), prog_name="verkit")
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())
