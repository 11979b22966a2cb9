"""Write the golden CLI outputs: for each command below, its exit code,
stderr and stdout, run in process through `realbott.cli.main`, in one file
under tests/golden.  Each `elapsed_ms` value reads `*`, as it changes from
run to run; nothing else is stripped.  `test_goldens.py` reruns the same
commands and compares whole files byte for byte.

    PYTHONPATH=src python tests/make_goldens.py

rewrites every golden.  Run it only for a change that means to alter an
output, and say in CHANGES.md which goldens changed and why.
"""

import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from realbott import cli
from realbott.fixtures import default_fixture_dir

GOLDEN = Path(__file__).resolve().parent / "golden"

#: The views of each packaged fixture: golden directory and argv before the file.
VIEWS = {
    "check": ["check"],
    "check-json": ["check", "--format", "json"],
    "sw": ["sw"],
    "sw-numbers": ["sw", "--numbers"],
    "sw-json": ["sw", "--format", "json"],
    "digraph": ["digraph"],
}

ZERO_21 = [[0] * 21] * 21

#: (name, argv, stdin, environment) of each refusal: exit 2 and one error line.
REFUSALS = [
    ("file-and-matrix", ["check", "spin4_0.txt", "--matrix", "01;00"], None, {}),
    ("no-input", ["check"], None, {}),
    ("max-n-not-int", ["enumerate", "-n", "3"], None, {"BOTT_MAX_N": "x"}),
    ("json-without-rows", ["check", "-"], '{"n": 2}', {}),
    ("cycle", ["check", "-"], "0 1\n1 0\n", {}),
    ("diagonal", ["check", "-"], "1 0\n0 0\n", {}),
    ("not-binary", ["sw", "--matrix", "02;00"], None, {}),
    ("ragged", ["digraph", "--matrix", "011;00;000"], None, {}),
    ("parsing-cap-text", ["check", "-"], "\n".join(["0 " * 21] * 21), {}),
    ("parsing-cap-json", ["sw", "-"], json.dumps({"n": 21, "rows": ZERO_21}), {}),
    ("dimension", ["enumerate", "-n", "0"], None, {}),
    ("exhaustive-cap", ["enumerate", "-n", "8"], None, {}),
    ("sampling-cap", ["enumerate", "-n", "21", "--mode", "sample", "--count", "2"], None, {}),
    ("threads-minus-one", ["enumerate", "-n", "3", "--threads", "-1"], None, {}),
]


def commands() -> list[tuple[str, list[str], str | None, dict[str, str]]]:
    """(name, argv, stdin, environment) of every golden command; its golden
    is tests/golden/<name>.txt."""
    data = default_fixture_dir()
    cases = [(f"{view}/{path.stem}", [*options, str(path)], None, {})
             for view, options in VIEWS.items() for path in sorted(data.glob("*.txt"))]
    cases += [(f"enumerate/n{n}-{fmt}", ["enumerate", "-n", str(n), "--format", fmt], None, {})
              for n in (4, 5) for fmt in ("text", "json", "csv")]
    cases += [(f"verify-paper/{fmt}", ["verify-paper", "--format", fmt], None, {})
              for fmt in ("text", "json")]
    return cases + [(f"refusals/{name}", *case) for name, *case in REFUSALS]


#: An elapsed_ms value in text, JSON or the CSV row under its header.
ELAPSED = re.compile(r'(elapsed_ms=|"elapsed_ms": |elapsed_ms\n.*,)[0-9.e-]+')


def run(argv: list[str], stdin: str | None, env: dict[str, str]) -> str:
    """The golden text of one command: exit code, stderr, then stdout.  It
    runs with `env` added to the environment and no other BOTT_MAX_N."""
    environ = {k: v for k, v in os.environ.items() if k != "BOTT_MAX_N"} | env
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, environ, clear=True), \
            mock.patch("sys.stdin", io.StringIO(stdin or "")), \
            redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = f"exit {code}\n--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}"
    return ELAPSED.sub(r"\1*", text)


if __name__ == "__main__":
    for stale in GOLDEN.rglob("*.txt"):
        stale.unlink()
    for name, argv, stdin, env in commands():
        path = GOLDEN / f"{name}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(run(argv, stdin, env).encode("utf-8"))
    print(f"{len(commands())} goldens in {GOLDEN}", file=sys.stderr)
