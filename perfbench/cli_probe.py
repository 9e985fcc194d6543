"""Traced stand-in for `python -m verkit.cli`.

    python cli_probe.py TRACE_FILE <verkit arguments>

Imports verkit.cli, wraps the package's entry points with spans, runs the
same click command, and writes the spans to TRACE_FILE before exiting with
the command's exit code.  Its stdout is the command's stdout.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import verkit.cli  # noqa: E402

IMPORTED = time.perf_counter()

from spans import Tracer, instrument  # noqa: E402


def main() -> None:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append(["cli.import", START, IMPORTED, None, None])
    instrument(tracer)
    tracer.open("cli.command")
    code = 0
    try:
        verkit.cli.main(args=argv, prog_name="verkit")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.close()
        sys.stdout.flush()
    dump = tracer.dump()
    dump["end"] = time.perf_counter()
    dump["start"] = START
    with open(trace_file, "w") as handle:
        json.dump(dump, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
