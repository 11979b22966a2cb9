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

    def test_inline_matrix(self, capsys):
        assert main(["check", "--matrix", "0110;0011;0000;0000"]) == 0
        assert "spin=true" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["check", "--format", "json", fixture_file("digraph_d")]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["orientable"] is True and d["spin"] is False
        assert d["witness"] == {"kind": "pair", "j": 2, "k": 3, "P": 1, "Q": 0}

    def test_general_matrix(self, capsys):
        assert main(["check", "--matrix", "00;10"]) == 0
        assert "orientable=false" in capsys.readouterr().out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 1\n0 0\n")
        assert main(["check", str(bad)]) == 2
        assert "row" in capsys.readouterr().err

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

    def test_cycle_exit_2(self):
        assert main(["check", "--matrix", "01;10"]) == 2

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

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"n":2,"rows":[[0,1],[0,0]]}'))
        assert main(["check", "-"]) == 0
        assert "orientable=false" in capsys.readouterr().out


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
    def test_zero_matrix_classes(self, capsys):
        assert main(["sw", "--matrix", "000;000;000"]) == 0
        out = capsys.readouterr().out
        assert "w1 = 0" in out and "w2 = 0" in out and "w3 = 0" in out

    def test_klein_first_class(self, capsys):
        assert main(["sw", "--matrix", "01;00"]) == 0
        assert "w1 = y1" in capsys.readouterr().out

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

    def test_json_schema(self, capsys):
        assert main(["sw", "--format", "json", "--numbers", "--matrix", "01;00"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["w"] == ["1", "y1", "0"]
        assert d["orientable"] is False
        assert d["spin"] is None
        assert d["sw_numbers_all_zero"] is True
        assert main(["sw", "--format", "json", "--matrix", "01;00"]) == 0
        assert "sw_numbers_all_zero" not in json.loads(capsys.readouterr().out)

    def test_json_dense_at_parse_cap(self, capsys):
        rows = ";".join("0" * (i + 1) + "1" * (19 - i) for i in range(20))
        assert main(["sw", "--format", "json", "--matrix", rows]) == 0
        d = json.loads(capsys.readouterr().out)
        assert len(d["w"]) == 21 and "sw_numbers_all_zero" not in d

    def test_general_matrix_rejected(self, capsys):
        assert main(["sw", "--matrix", "00;10"]) == 2
        assert capsys.readouterr().err == (
            "error: classes need a strictly upper triangular matrix; "
            "normalize the general one first\n"
        )


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

    def test_edgeless(self, capsys):
        assert main(["digraph", "--matrix", "00;00"]) == 0
        out = capsys.readouterr().out
        assert "u1;" in out and "u2;" in out and "->" not in out


class TestEnumerate:
    def test_dim4_text(self, capsys):
        assert main(["enumerate", "-n", "4", "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"n=4 mode=exhaustive total=64 orientable=8 spin=8 "
                            r"mismatches=0 reference_ok=true elapsed_ms=\d+\.\d\n", out)

    def test_sample_text(self, capsys):
        assert main(["enumerate", "-n", "5", "--mode", "sample", "--count", "40",
                     "--seed", "11", "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"n=5 mode=sample total=40 orientable=\d+ spin=\d+ "
                            r"mismatches=0 elapsed_ms=\d+\.\d\n", out)

    def test_dim3_json(self, capsys):
        assert main(["enumerate", "-n", "3", "--threads", "1", "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert (d["total"], d["orientable"], d["spin"]) == (8, 2, 2)
        assert d["mismatches"] == []

    def test_json_sampling_parameters(self, capsys):
        # seed and count apply to sample mode only
        assert main(["enumerate", "-n", "3", "--threads", "1", "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert (d["seed"], d["count"]) == (None, None)
        assert main(["enumerate", "-n", "3", "--mode", "sample", "--count", "7",
                     "--seed", "5", "--threads", "1", "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert (d["seed"], d["count"], d["total"]) == (5, 7, 7)

    def test_csv(self, capsys):
        assert main(["enumerate", "-n", "2", "--threads", "1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,total,orientable,spin,mismatches,elapsed_ms"
        assert lines[1].startswith("2,2,1,1,0,")

    def test_negative_threads_exit_2(self, capsys):
        assert main(["enumerate", "-n", "3", "--threads", "-4"]) == 2
        assert capsys.readouterr().err == "error: --threads must be >= 0, got -4\n"

    def test_cap_exit_2(self, capsys):
        assert main(["enumerate", "-n", "30"]) == 2

    def test_threads_help_states_batch(self, capsys):
        # the parser may not import `enumeration` (`check` must not load it),
        # so the run size is written in both places
        with pytest.raises(SystemExit):
            main(["enumerate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert re.search(r"one per run of (\d+) indices at most", help_text)[1] == str(
            enumeration.BATCH)

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BOTT_MAX_N", "3")
        assert main(["enumerate", "-n", "4", "--threads", "1"]) == 2
        monkeypatch.setenv("BOTT_MAX_N", "8")
        assert main(["enumerate", "-n", "8", "--mode", "sample", "--count", "5",
                      "--seed", "1", "--threads", "1"]) == 0

    def test_index_space_exit_2(self, capsys, monkeypatch):
        # n = 12 has 2^66 indices, more than a range can count
        monkeypatch.setenv("BOTT_MAX_N", "12")
        assert main(["enumerate", "-n", "12", "--threads", "1"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: exhaustive enumeration: n=12 has 73786976294838206464 matrices")

    def test_env_cap_is_exhaustive_only(self, capsys, monkeypatch):
        monkeypatch.setenv("BOTT_MAX_N", "5")
        assert main(["enumerate", "-n", "6", "--mode", "sample", "--count", "3",
                     "--threads", "1"]) == 0
        assert "total=3" in capsys.readouterr().out

    def test_ring_cap_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("BOTT_MAX_N", "21")
        assert main(["enumerate", "-n", "21", "--mode", "sample", "--count", "1",
                     "--threads", "1"]) == 2
        assert "exceeds the cap 20" in capsys.readouterr().err

    def test_sample_deterministic(self, capsys):
        argv = ["enumerate", "-n", "5", "--mode", "sample", "--count", "40",
                "--seed", "11", "--threads", "1", "--format", "json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert first == second


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


def rows_text(rows):
    return ";".join("".join(map(str, row)) for row in rows)


CYCLE_20 = rows_text([[int(j == (i + 1) % 20) for j in range(20)] for i in range(20)])
REVERSAL_20 = rows_text([[int(j == i - 1) for j in range(20)] for i in range(20)])
ONES_12 = ";".join("0" * (i + 1) + "1" * (11 - i) for i in range(12))
ONES_14 = ";".join("0" * (i + 1) + "1" * (13 - i) for i in range(14))
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


class TestWorkflowChecks:
    """The end-to-end CLI checks, in process, with the commands, output and
    exit codes of the workflow lines they replace."""

    def test_sample_json_parameters(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch, "enumerate", "-n", "5", "--mode", "sample",
                           "--count", "300", "--seed", "9", "--threads", "1", "--format", "json")
        r = json.loads(out)
        assert code == 0 and (r["seed"], r["count"], r["total"]) == (9, 300, 300), r

    @pytest.fixture
    def no_pool(self, monkeypatch):
        """Four cores, and a process pool that fails the test if it starts."""
        def refuse(max_workers):
            raise AssertionError(f"a pool of {max_workers} workers started")

        monkeypatch.setattr("realbott.enumeration.ProcessPoolExecutor", refuse)
        monkeypatch.setattr("os.cpu_count", lambda: 4)

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

    def test_sw_numbers_long_prefix_chains(self, capsys, monkeypatch, no_pool):
        # the all-ones n = 14 matrix has 135 partitions
        code, out, _ = cli(capsys, monkeypatch, "sw", "--numbers", "--matrix", ONES_14)
        lines = out.splitlines()
        assert code == 0 and sum(line.startswith("sw_number[") for line in lines) == 135
        assert "all_sw_numbers_zero=true" in lines

    def test_sw_numbers_vanish(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch, "sw", "--numbers", fixture_file("digraph_d"))
        assert code == 0 and "all_sw_numbers_zero=true" in out.splitlines()

    @pytest.mark.parametrize("argv, err", [
        (["enumerate", "-n", "3", "--threads", "-1"], None),
        (["enumerate", "-n", "0"], "error: dimension must be >= 1, got 0\n"),
        (["enumerate", "-n", "21", "--mode", "sample", "--count", "2"],
         "error: sampling: n=21 exceeds the cap 20\n"),
        (["enumerate", "-n", "4", "--mode", "sample", "--count", "0", "--seed", "1"], None),
    ], ids=["threads-minus-one", "n-zero", "sampling-cap", "count-zero"])
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

    def test_comment_holds_any_utf8(self, capsys, monkeypatch):
        text = "# caf\u00e9 \u2014 \u03bb\n0 1 1 0\n0 0 1 1\n0 0 0 0\n0 0 0 0\n"
        code, out, _ = cli(capsys, monkeypatch, "check", "-", stdin=text)
        assert code == 0 and "orientable=true spin=true" in out.splitlines()

    def test_twenty_cycle_refused_reversal_accepted(self, capsys, monkeypatch):
        code, _, err = cli(capsys, monkeypatch, "check", "--matrix", CYCLE_20)
        assert (code, err) == (2, "error: matrix digraph contains a directed cycle\n")
        assert cli(capsys, monkeypatch, "check", "--matrix", REVERSAL_20)[0] == 0

    @pytest.mark.parametrize("general, normalized, flags", [
        (GENERAL_17, NORMALIZED_17, "orientable=true spin=false"),
        (DENSE_GENERAL, DENSE_NORMALIZED, "orientable=true spin=false"),
    ], ids=["n17", "dense-n20"])
    def test_general_and_normalized_agree(self, capsys, monkeypatch, general, normalized,
                                          flags):
        fields = []
        for rows in (general, normalized):
            code, out, _ = cli(capsys, monkeypatch, "check", "--matrix", rows)
            assert code == 0
            fields.append(" ".join(out.split(" ")[:2]).rstrip("\n"))
        assert fields == [flags, flags]

    def test_dense_witness(self, capsys, monkeypatch):
        code, out, _ = cli(capsys, monkeypatch, "check", "--matrix", DENSE_GENERAL)
        assert code == 0
        assert "orientable=true spin=false witness pair (1,5) P=0 Q=1" in out.splitlines()

    @pytest.mark.parametrize("rows", [RIFFLED, RIFFLED_GENERAL], ids=["riffled", "general"])
    def test_riffled_spin_sum(self, capsys, monkeypatch, rows):
        code, out, _ = cli(capsys, monkeypatch, "check", "--matrix", rows)
        assert code == 0 and "orientable=true spin=true" in out.splitlines()

    @pytest.mark.parametrize("rows, flags", [
        (NORMALIZED_17, (True, False)),
        (ONES_12, (False, False)),
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
