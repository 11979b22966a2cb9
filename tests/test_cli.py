"""The CLI checks that a golden cannot make: each compares two runs,
watches a side effect (a --dot file, a process pool, a fresh interpreter),
reads a file or bytes made for it, also calls the library, or reads an
output too large to pin.  What one command prints for a fixed input is
pinned in tests/golden, by tests/make_goldens.py.  The single-command
checks still here are fragments of a fixture's, a refusal's or
verify-paper's golden, kept under their names for the suite's history."""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realbott
from realbott import NonBinary, NonSquare, enumeration, load_matrix, matrix_from_json
from realbott.cli import main
from realbott.fixtures import default_fixture_dir

from make_goldens import DENSE_NORMALIZED, NORMALIZED_17, RIFFLED, ones


def fixture_file(name):
    return str(default_fixture_dir() / f"{name}.txt")


class TestCheck:
    def test_spin_matrix_text(self, capsys):
        assert main(["check", fixture_file("spin4_5")]) == 0
        assert capsys.readouterr().out.strip() == "orientable=true spin=true"

    def test_not_spin_witness(self, capsys):
        assert main(["check", fixture_file("digraph_c")]) == 0
        out = capsys.readouterr().out
        assert "spin=false witness pair (1,2)" in out

    def test_json_format(self, capsys):
        assert main(["check", "--format", "json", fixture_file("digraph_d")]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["orientable"] is True and d["spin"] is False
        assert d["witness"] == {"kind": "pair", "j": 2, "k": 3, "P": 1, "Q": 0}

    @pytest.mark.parametrize("command", ["check", "sw", "digraph"])
    def test_non_utf8_file_exit_2(self, command, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff0 1\n0 0\n")
        with pytest.raises(NonBinary, match="not UTF-8"):
            load_matrix(bad)
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err

    def test_non_utf8_stdin_exit_2(self, capsys, monkeypatch):
        # a UTF-8 locale other than C decodes stdin strictly
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff0 1\n0 0\n"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["check", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err

    def test_missing_input_exit_2(self):
        assert main(["check"]) == 2

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ('{"rows": 5}', NonSquare, '"rows" must be a list of lists'),
            ('{"n":2,"rows":[null,null]}', NonSquare, '"rows" must be a list of lists'),
            ('{"n":"2","rows":[[0,1],[0,0]]}', NonSquare, '"n" must be an integer'),
            ('{"n":2,"rows":[[0,true],[0,0]]}', NonBinary, "entry True is not 0/1"),
            ('{"n":2,"rows":[[0,1.0],[0,0]]}', NonBinary, "entry 1.0 is not 0/1"),
            pytest.param('{"rows":' + "[" * 100000 + "]" * 100000 + "}",
                         NonSquare, "bad JSON matrix", id="deeply-nested"),
        ],
    )
    def test_bad_json_exit_2(self, text, error, message, capsys, monkeypatch):
        with pytest.raises(error):
            matrix_from_json(text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["check", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


#: Arbitrary bytes, text over the characters of both matrix formats, and
#: square 0/1 grids up to n = 7 (which `sw` answers at once) as text or
#: JSON.  A grid has zero diagonal, and half of them are strictly upper
#: triangular too: most others are cyclic.
_GRIDS = st.tuples(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(st.text("01", min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.booleans(),
).map(lambda g: [
    ("0" * (i + 1) if g[1] else r[:i] + "0") + r[i + 1:] for i, r in enumerate(g[0])
])
STDIN_BYTES = st.one_of(
    st.binary(max_size=64),
    st.text(alphabet='01 \t\n\r#;{}[],:"nrows-.e', max_size=64).map(str.encode),
    _GRIDS.map(lambda rows: "\n".join(rows).encode()),
    _GRIDS.map(lambda rows: json.dumps({"rows": [[int(c) for c in r] for r in rows]}).encode()),
)


class TestArbitraryStdin:
    # "strict" is stdin under a UTF-8 locale, "surrogateescape" under C/POSIX
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        data=STDIN_BYTES,
        command=st.sampled_from(["check", "sw", "digraph"]),
        errors=st.sampled_from(["strict", "surrogateescape"]),
    )
    def test_exit_code_contract(self, data, command, errors):
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
        with mock.patch("sys.stdin", stdin), redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()):
            code = main([command, "-"])
        assert code in (0, 1, 2)


class TestSw:
    def test_numbers_flag(self, capsys):
        assert main(["sw", "--numbers", fixture_file("digraph_c")]) == 0
        out = capsys.readouterr().out
        assert "all_sw_numbers_zero=true" in out
        assert "sw_number[w5] = 0" in out

    def test_classes_flag(self, capsys):
        path = fixture_file("reps_n3_1")
        outs = []
        for flags in ([], ["--classes"], ["--numbers", "--classes"], ["--numbers"]):
            assert main(["sw", *flags, path]) == 0
            outs.append(capsys.readouterr().out.splitlines())
        plain, classes, both, numbers = outs
        # --classes prints what the default prints; with --numbers the
        # classes w0..w3 come first, then the flags line, then the numbers
        assert classes == plain
        assert [line.split(" = ")[0] for line in plain[:4]] == ["w0", "w1", "w2", "w3"]
        assert plain[4] == numbers[0] == "orientable=true spin=true"
        assert both == plain + numbers[1:] and numbers[1].startswith("sw_number[")
        assert not any(line.startswith("w0 =") for line in numbers)

    def test_json_dense_at_parse_cap(self, capsys):
        assert main(["sw", "--format", "json", "--matrix", ones(20)]) == 0
        d = json.loads(capsys.readouterr().out)
        assert len(d["w"]) == 21 and "sw_numbers_all_zero" not in d


class TestDigraph:
    def test_dot_to_stdout(self, capsys):
        assert main(["digraph", fixture_file("digraph_a")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph {")
        assert out.count("->") == 6
        assert 'label="orientable=true spin=true";' in out

    def test_not_spin_label(self, capsys):
        assert main(["digraph", fixture_file("digraph_d")]) == 0
        assert 'label="orientable=true spin=false";' in capsys.readouterr().out

    def test_dot_file(self, tmp_path, capsys):
        target = tmp_path / "out.dot"
        assert main(["digraph", fixture_file("digraph_a"), "--dot", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("digraph {")


class TestEnumerate:
    def test_dim4_text(self, capsys):
        assert main(["enumerate", "-n", "4", "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"n=4 mode=exhaustive total=64 orientable=8 spin=8 "
                            r"mismatches=0 reference_ok=true elapsed_ms=\d+\.\d\n", out)

    def test_threads_help_states_batch(self, capsys):
        # the parser may not import `enumeration` (`check` must not load it),
        # so the run size is written in both places
        with pytest.raises(SystemExit):
            main(["enumerate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert re.search(r"one per run of (\d+) indices at most", help_text)[1] == str(
            enumeration.BATCH)


#: A JSON matrix whose "n" has more digits than `int()` reads from a string
#: by default (4300): `json.loads` refuses it with a plain ValueError.
HUGE_NUMBER_JSON = '{"n": 1' + "0" * 5000 + ', "rows": [[0]]}'


class TestVerifyPaper:
    def test_all_pass(self, capsys):
        assert main(["verify-paper"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
        assert "FAIL" not in out

    def test_json(self, capsys):
        assert main(["verify-paper", "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["all_ok"] is True

    def test_corrupted_fixture_exit_1(self, tmp_path, capsys):
        fixtures = tmp_path / "data"
        shutil.copytree(default_fixture_dir(), fixtures)
        (fixtures / "reps_n4_1.txt").write_text("0 1 0 0\n" + "0 0 0 0\n" * 3)
        assert main(["verify-paper", "--fixtures", str(fixtures)]) == 1
        out = capsys.readouterr().out
        assert "FAIL reps_n4_1" in out

    def test_digraph_fixture_with_another_matrix_exit_1(self, tmp_path, capsys):
        # digraph_c's file holds digraph_a's matrix: every digraph datum is named
        fixtures = tmp_path / "data"
        shutil.copytree(default_fixture_dir(), fixtures)
        shutil.copyfile(fixtures / "digraph_a.txt", fixtures / "digraph_c.txt")
        assert main(["verify-paper", "--fixtures", str(fixtures)]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith("FAIL digraph_c: ")
        assert failed[0].removeprefix("FAIL digraph_c: ").split("; ") == [
            "n=6 expected 5", "spin=True expected False", "witness=None expected pair (1, 2)",
            "out(1)=()", "out(2)=(5, 6)", "out(3)=(5, 6)", "out(4)=(5, 6)",
            "common(1,2)=0", "common(1,3)=0", "common(2,3)=2", "common(2,4)=2",
            "common(3,4)=2"]
        assert lines[-1] == "39 checks, 1 failures"

    def test_general_fixture_named_exit_2(self, tmp_path, capsys):
        # a conjugate of a Bott matrix parses, but the ring oracle needs the triangular form
        fixtures = tmp_path / "data"
        shutil.copytree(default_fixture_dir(), fixtures)
        (fixtures / "digraph_c.txt").write_text("0 0 0\n1 0 1\n0 0 0\n")
        assert main(["verify-paper", "--fixtures", str(fixtures)]) == 2
        path = fixtures / "digraph_c.txt"
        assert capsys.readouterr().err == (
            f"error: {path}: a fixture needs a strictly upper triangular matrix; "
            "normalize the general one first\n")

    def test_non_utf8_fixture_exit_2(self, tmp_path, capsys):
        fixtures = tmp_path / "data"
        shutil.copytree(default_fixture_dir(), fixtures)
        (fixtures / "reps_n4_1.txt").write_bytes(b"\xff0 1\n0 0\n")
        assert main(["verify-paper", "--fixtures", str(fixtures)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "reps_n4_1.txt: not UTF-8" in err
        assert err.count("reps_n4_1.txt") == 1

    def test_incomplete_spin4_list_exit_1(self, tmp_path, capsys):
        # eight spin matrices of size 4, but one twice: not the whole spin set
        fixtures = tmp_path / "data"
        shutil.copytree(default_fixture_dir(), fixtures)
        shutil.copyfile(fixtures / "spin4_0.txt", fixtures / "spin4_3.txt")
        assert main(["verify-paper", "--fixtures", str(fixtures)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL dimension-4 exhaustive sweep: orientable=8 spin=8 reference_ok=False"]

    def test_unparsable_fixture_named_exit_2(self, tmp_path, capsys):
        fixtures = tmp_path / "data"
        shutil.copytree(default_fixture_dir(), fixtures)
        (fixtures / "reps_n3_1.txt").write_text("0 1 x\n")
        assert main(["verify-paper", "--fixtures", str(fixtures)]) == 2
        path = fixtures / "reps_n3_1.txt"
        assert capsys.readouterr().err == f"error: {path}: line 1: bad character 'x'\n"

    def test_empty_dir_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["verify-paper", "--fixtures", str(empty)]) == 2

    def test_missing_dir_exit_2(self, tmp_path):
        assert main(["verify-paper", "--fixtures", str(tmp_path / "gone")]) == 2

    def test_huge_json_number_fixture_named_exit_2(self, tmp_path, capsys):
        fixtures = tmp_path / "data"
        shutil.copytree(default_fixture_dir(), fixtures)
        (fixtures / "reps_n3_1.txt").write_text(HUGE_NUMBER_JSON)
        assert main(["verify-paper", "--fixtures", str(fixtures)]) == 2
        path = fixtures / "reps_n3_1.txt"
        assert capsys.readouterr().err.startswith(f"error: {path}: bad JSON matrix: ")


class TestHugeJsonNumber:
    # the message after the prefix is Python's own and differs by version
    def test_file_exit_2(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(HUGE_NUMBER_JSON)
        code, out, err = cli_process("check", str(path))
        assert (code, out) == (2, b"")
        assert err.startswith(b"error: bad JSON matrix: ") and b"Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "sw"])
    def test_stdin_exit_2(self, command, capsys, monkeypatch):
        code, out, err = cli(capsys, monkeypatch, command, "-", stdin=HUGE_NUMBER_JSON)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad JSON matrix: ") and "Traceback" not in err


def cli(capsys, monkeypatch, *argv, stdin=None):
    """(exit code, stdout, stderr) of `main(argv)`, with `stdin` as text."""
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def cli_process(*argv, stdin=b""):
    """(exit code, stdout, stderr) as bytes of `python -m realbott argv` in a
    fresh interpreter, for argv and stdin bytes that only a process sees as
    a shell passes them."""
    src = str(Path(realbott.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "realbott", *argv], input=stdin,
                          capture_output=True, env={**os.environ, "PYTHONPATH": src})
    return done.returncode, done.stdout, done.stderr


class TestWorkflowChecks:
    """The end-to-end CLI checks, in process, with the commands, output and
    exit codes of the workflow lines they replace."""

    @pytest.mark.parametrize("argv, env_cap, fragments", [
        (["-n", "5", "--format", "json"], None, ['"total": 1024', '"mismatches": []']),
        (["-n", "4"], None, ["reference_ok=true"]),
        (["-n", "6", "--mode", "sample", "--count", "50", "--seed", "1"], "5", [" total=50 "]),
        # one sample sweep per decoder lane width (8, 16 and 32 bits)
        (["-n", "7", "--mode", "sample", "--count", "5000", "--seed", "3"], None,
         [" total=5000 orientable=82 spin=3 mismatches=0 "]),
        (["-n", "9", "--mode", "sample", "--count", "2000", "--seed", "4"], None,
         [" total=2000 ", " mismatches=0 "]),
        (["-n", "20", "--mode", "sample", "--count", "100", "--seed", "6"], None,
         [" total=100 ", " mismatches=0 "]),
    ], ids=["n5-json", "n4-reference", "sample-n6-env-cap", "sample-n7", "sample-n9",
            "sample-n20"])
    def test_one_run_sweeps(self, capsys, monkeypatch, no_pool, argv, env_cap, fragments):
        # the default --threads: each sweep is one run, so no pool starts
        if env_cap is not None:
            monkeypatch.setenv("BOTT_MAX_N", env_cap)
        code, out, _ = cli(capsys, monkeypatch, "enumerate", *argv)
        assert code == 0
        assert all(fragment in out for fragment in fragments), out

    @pytest.fixture
    def pool_of_two(self, monkeypatch):
        """Two cores, and the worker count of each process pool that starts."""
        started = []
        pool = enumeration.ProcessPoolExecutor

        def record(max_workers):
            started.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr("realbott.enumeration.ProcessPoolExecutor", record)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        return started

    # n = 6 is two runs of BATCH, so these sweeps share them among two workers
    def test_pool_csv_matches_serial(self, capsys, monkeypatch, pool_of_two):
        rows = []
        for threads in ("2", "1"):
            code, out, _ = cli(capsys, monkeypatch, "enumerate", "-n", "6", "--threads", threads,
                               "--format", "csv")
            assert code == 0
            rows.append([line.rsplit(",", 1)[0] for line in out.splitlines()])  # no elapsed_ms
        assert rows[0] == rows[1] and "6,32768,1024,176,0" in rows[1]
        assert pool_of_two == [2]

    def test_pool_default_threads(self, capsys, monkeypatch, pool_of_two):
        code, out, _ = cli(capsys, monkeypatch, "enumerate", "-n", "6")
        assert code == 0 and " total=32768 orientable=1024 spin=176 mismatches=0 " in out
        assert pool_of_two == [2]

    def test_pool_json(self, capsys, monkeypatch, pool_of_two):
        code, out, _ = cli(capsys, monkeypatch, "enumerate", "-n", "6", "--threads", "2",
                           "--format", "json")
        r = json.loads(out)
        assert code == 0 and r["mismatches"] == [], r
        assert (r["total"], r["orientable"], r["spin"]) == (32768, 1024, 176), r
        assert r["version"] == realbott.__version__, r
        assert (r["seed"], r["count"]) == (None, None), r
        assert pool_of_two == [2]

    def test_sw_numbers_vanish(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch, "sw", "--numbers", fixture_file("digraph_d"))
        assert code == 0 and "all_sw_numbers_zero=true" in out.splitlines()

    @pytest.mark.parametrize("argv, err", [
        (["enumerate", "-n", "3", "--threads", "-1"], None),
        (["enumerate", "-n", "0"], "error: dimension must be >= 1, got 0\n"),
        (["enumerate", "-n", "21", "--mode", "sample", "--count", "2"],
         "error: sampling: n=21 exceeds the cap 20\n"),
    ], ids=["threads-minus-one", "n-zero", "sampling-cap"])
    def test_enumerate_input_errors(self, capsys, monkeypatch, argv, err):
        code, _, got = cli(capsys, monkeypatch, *argv)
        assert code == 2
        assert err is None or got == err

    @pytest.mark.parametrize("stdin, err", [
        ("0 1\n1 0\n", "error: matrix digraph contains a directed cycle\n"),
        ("1 0\n0 0\n", "error: diagonal entry (1,1) is 1\n"),
    ], ids=["cycle", "diagonal"])
    def test_stdin_refusals(self, capsys, monkeypatch, stdin, err):
        assert cli(capsys, monkeypatch, "check", "-", stdin=stdin) == (2, "", err)

    @pytest.mark.parametrize("rows, flags", [
        (NORMALIZED_17, (True, False)),
        (ones(12), (False, False)),
        (RIFFLED, (True, True)),
        (DENSE_NORMALIZED, (True, False)),
    ], ids=["n17", "ones-n12", "riffled", "dense-n20"])
    def test_ring_and_closed_form_flags(self, capsys, monkeypatch, rows, flags):
        # sw's spin is null when not orientable
        code, out, _ = cli(capsys, monkeypatch, "sw", "--matrix", rows, "--format", "json")
        r = json.loads(out)
        assert code == 0 and (r["orientable"], r["spin"] is True) == flags
        code, out, _ = cli(capsys, monkeypatch, "check", "--matrix", rows, "--format", "json")
        r = json.loads(out)
        assert code == 0 and (r["orientable"], r["spin"]) == flags

    @pytest.mark.parametrize("stdin, line", [
        (b"0 1\r\n0 0\r\n", b"orientable=false spin=false witness row 1"),
        # a comment, a blank line, CRLF, a tab, a no-break space and a U+2028 break
        (b"# header\r\n\r\n0 1 1 0\r\n0\t0\xc2\xa01 1\xe2\x80\xa80 0 0 0\r\n0 0 0 0\n",
         b"orientable=true spin=true"),
        # the group and record separators break lines, the unit separator is an in-line space
        (b"0\x1f1\x1d0 0\x1e", b"orientable=false spin=false witness row 1"),
    ], ids=["crlf", "mixed-breaks", "separators"])
    def test_stdin_bytes(self, stdin, line):
        code, out, _ = cli_process("check", "-", stdin=stdin)
        assert code == 0 and line in out.splitlines()

    def test_lone_carriage_return_refused(self):
        assert cli_process("check", "-", stdin=b"0\r \n;")[0] == 2

    def test_non_utf8_argv_byte(self):
        # a byte that is not UTF-8 reaches argv as a lone surrogate: a bad character
        code, _, err = cli_process("check", "--matrix", b"0\xff;00")
        assert (code, err) == (2, b"error: line 1: bad character '\\udcff'\n")


if __name__ == "__main__":
    # the exhaustive n = 7 sweep over two workers, about 25 s on two cores: a CI step
    with redirect_stdout(io.StringIO()) as out:
        code = main(["enumerate", "-n", "7", "--threads", "2"])
    line = out.getvalue()
    assert code == 0 and " total=2097152 orientable=32768 spin=1482 mismatches=0 " in line, line
    print(line, end="")
