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


def ones(n: int) -> str:
    """The --matrix rows of the n x n matrix with every entry above the diagonal 1."""
    return ";".join("0" * (i + 1) + "1" * (n - 1 - i) for i in range(n))


#: The cycle 1 -> 2 -> ... -> 20 -> 1, and the path 20 -> 19 -> ... -> 1 in general form.
CYCLE_20 = ";".join("".join(str(int(j == (i + 1) % 20)) for j in range(20)) for i in range(20))
REVERSAL_20 = ";".join("".join(str(int(j == i - 1)) for j in range(20)) for i in range(20))
GENERAL_17 = (
    "00100001000101000;10000101011100011;00000000000000000;00100000000001000;"
    "00100010000000000;00000000000000000;00000000001000001;00100000101001110;"
    "00010000000001000;10000000101100000;00100100000100001;00000000000000000;"
    "00100001001000100;00000000000000000;00000000000000000;00100100000101000;"
    "00100000000001000"
)
NORMALIZED_17 = (
    "00011010010111100;00100000000000010;00000000010000100;00001001010001000;"
    "00000010000001011;00000010011000010;00000001011100011;00000000100000001;"
    "00000000000000011;00000000000011110;00000000000000000;00000000000011011;"
    "00000000000000000;00000000000000000;00000000000000011;00000000000000000;"
    "00000000000000000"
)
#: A direct sum of spin blocks, riffled by a permutation that keeps it
#: triangular, with zero rows 1 and 9 among its nonzero ones, which the
#: scans pass over; a second permutation makes it general.
RIFFLED = (
    "000000000000000000;000000000110000000;000100000000010000;000000000000011000;"
    "000000001000000001;000000100001000000;000000000001100000;000000001000000001;"
    "000000000000000000;000000000010000100;000000000000000000;000000000000000000;"
    "000000000000000000;000000000000000000;000000000000000000;000000000000000000;"
    "000000000000000000;000000000000000000"
)
RIFFLED_GENERAL = (
    "000000000000000000;001000001000000000;000000000000000000;000000000000000000;"
    "100000000000000010;000100000001000000;000000000000000000;000000100000100000;"
    "000000000000000000;000000010000100000;100010000000000000;000000000000000000;"
    "000000000000000000;000000000000000000;000001000001000000;000000000000000000;"
    "000000000000000000;001000001000000000"
)
#: A conjugate of a density-0.5 n = 20 matrix, orientable and not spin,
#: whose first failing pair (1,5) takes its Q = 1 from the edge 5 -> 1, and
#: its normalized form.
DENSE_GENERAL = (
    "00000100000000000100;10000100000000000000;00011100101100000101;10001000001000000100;"
    "10000101111000010100;00000000000000000000;11000100001000010100;01000100000100000100;"
    "11000010011000010000;00000110000100000100;11000000000000010100;00000000000000000000;"
    "10010101011100000100;00000100110010100100;00000100001010000100;11000100000000000100;"
    "10010101110010010101;00000000000000000000;01001100101011000001;10000100000110000000"
)
DENSE_NORMALIZED = (
    "00000101101001100011;00000111011100010111;00010110101001001010;00001010001100000011;"
    "00000010000001000011;00000010000000100110;00000001010101100111;00000000100001000101;"
    "00000000011101010111;00000000000000101011;00000000000111011100;00000000000010100011;"
    "00000000000001011111;00000000000000011101;00000000000000000000;00000000000000001111;"
    "00000000000000000110;00000000000000000011;00000000000000000000;00000000000000000000"
)

SAMPLE = ["enumerate", "--mode", "sample"]

#: (name, argv, stdin, environment) of each other command: inline and stdin
#: input, long matrices, small sweeps in every format and the caps.  Each
#: sweep is one run of at most BATCH indices, so none starts a pool.
CASES = [
    ("check-inline", ["check", "--matrix", "0110;0011;0000;0000"], None, {}),
    ("check-general", ["check", "--matrix", "00;10"], None, {}),
    ("check-cycle", ["check", "--matrix", "01;10"], None, {}),
    ("check-json-stdin", ["check", "-"], '{"n":2,"rows":[[0,1],[0,0]]}', {}),
    ("check-ragged-stdin", ["check", "-"], "0 1 1\n0 0\n", {}),
    ("check-utf8-comment", ["check", "-"],
     "# caf\u00e9 \u2014 \u03bb\n0 1 1 0\n0 0 1 1\n0 0 0 0\n0 0 0 0\n", {}),
    ("check-cycle-20", ["check", "--matrix", CYCLE_20], None, {}),
    ("check-reversal-20", ["check", "--matrix", REVERSAL_20], None, {}),
    ("check-general-17", ["check", "--matrix", GENERAL_17], None, {}),
    ("check-normalized-17", ["check", "--matrix", NORMALIZED_17], None, {}),
    ("check-dense-general-20", ["check", "--matrix", DENSE_GENERAL], None, {}),
    ("check-dense-normalized-20", ["check", "--matrix", DENSE_NORMALIZED], None, {}),
    ("check-riffled", ["check", "--matrix", RIFFLED], None, {}),
    ("check-riffled-general", ["check", "--matrix", RIFFLED_GENERAL], None, {}),
    ("sw-zero-3", ["sw", "--matrix", "000;000;000"], None, {}),
    ("sw-klein", ["sw", "--matrix", "01;00"], None, {}),
    ("sw-general", ["sw", "--matrix", "00;10"], None, {}),
    ("sw-json-klein", ["sw", "--format", "json", "--matrix", "01;00"], None, {}),
    ("sw-json-numbers-klein", ["sw", "--format", "json", "--numbers", "--matrix", "01;00"],
     None, {}),
    # 135 partitions, the longest prefix chains of any n <= 14
    ("sw-numbers-ones-14", ["sw", "--numbers", "--matrix", ones(14)], None, {}),
    ("digraph-edgeless", ["digraph", "--matrix", "00;00"], None, {}),
    # pairs (1,2) and (1,3) both fail; only the witness pair (1,2) is drawn red
    ("digraph-witness-pair", ["digraph", "--matrix", "010010;001100;000110;000000;000000;000000"],
     None, {}),
    # digraph_d with vertices 2 and 3 swapped: its witness pair (2,3) is
    # joined only by the edge u3 -> u2, so a dashed u2 -> u3 line is added
    ("digraph-reversed-witness-edge",
     ["digraph", "--matrix", "0000000;0001111;0101110;0000000;0000011;0000000;0000000"],
     None, {}),
    ("enumerate-n2-csv", ["enumerate", "-n", "2", "--threads", "1", "--format", "csv"], None, {}),
    ("enumerate-n3-json", ["enumerate", "-n", "3", "--threads", "1", "--format", "json"],
     None, {}),
    ("enumerate-n30", ["enumerate", "-n", "30"], None, {}),
    ("threads-minus-four", ["enumerate", "-n", "3", "--threads", "-4"], None, {}),
    ("sample-n3-json", [*SAMPLE, "-n", "3", "--count", "7", "--seed", "5", "--threads", "1",
                        "--format", "json"], None, {}),
    ("sample-n5-text", [*SAMPLE, "-n", "5", "--count", "40", "--seed", "11", "--threads", "1"],
     None, {}),
    ("sample-n5-json", [*SAMPLE, "-n", "5", "--count", "40", "--seed", "11", "--threads", "1",
                        "--format", "json"], None, {}),
    ("sample-n5-count-300-json", [*SAMPLE, "-n", "5", "--count", "300", "--seed", "9",
                                  "--threads", "1", "--format", "json"], None, {}),
    ("sample-count-zero", [*SAMPLE, "-n", "4", "--count", "0", "--seed", "1"], None, {}),
    # BOTT_MAX_N moves the exhaustive cap alone; the index space and the
    # sampling cap still refuse
    ("max-n-3", ["enumerate", "-n", "4", "--threads", "1"], None, {"BOTT_MAX_N": "3"}),
    ("max-n-5-sample-n6", [*SAMPLE, "-n", "6", "--count", "3", "--threads", "1"], None,
     {"BOTT_MAX_N": "5"}),
    ("max-n-8-sample-n8", [*SAMPLE, "-n", "8", "--count", "5", "--seed", "1", "--threads", "1"],
     None, {"BOTT_MAX_N": "8"}),
    ("max-n-12", ["enumerate", "-n", "12", "--threads", "1"], None, {"BOTT_MAX_N": "12"}),
    ("max-n-200000", ["enumerate", "-n", "200000"], None, {"BOTT_MAX_N": "200000"}),
    ("max-n-21-sample-n21", [*SAMPLE, "-n", "21", "--count", "1", "--threads", "1"], None,
     {"BOTT_MAX_N": "21"}),
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
    cases += [(f"cases/{name}", *case) for name, *case in CASES]
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
