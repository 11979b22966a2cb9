import io
import json
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realbott import NonBinary, NonSquare, load_matrix, matrix_from_json
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

    def test_empty_dir_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["verify-paper", "--fixtures", str(empty)]) == 2

    def test_missing_dir_exit_2(self, tmp_path):
        assert main(["verify-paper", "--fixtures", str(tmp_path / "gone")]) == 2
