"""The package's public names and what a start loads: each exported name
comes from its module on first access, and a CLI command imports only the
modules it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import realbott

#: The names `realbott` exports, by module.
EXPORTS = {
    "cohomology": [
        "RingElement", "SWProfile", "monomial_degree", "monomial_str", "multiply",
        "reduce_power_product", "reduce_square", "sw_number", "sw_partitions",
        "total_sw_class", "w1_formula", "w_top_minus_one", "wk_recursive",
    ],
    "criteria": [
        "PairTerms", "PairWitness", "RowWitness", "SpinVerdict",
        "fibre_chain_verdicts", "is_orientable", "is_spin", "is_spin_general",
        "pair_terms", "spin_by_pairs",
    ],
    "digraph": ["BottDigraph", "build_digraph", "common_out", "digraph_spin", "export_dot"],
    "enumeration": [
        "SweepReport", "VerificationReport", "enumerate_all", "evaluate_matrix",
        "sweep", "verify_fixture_suite", "verify_representatives",
    ],
    "errors": [
        "BadPartition", "BottError", "CyclicDigraph", "DiagonalNonzero",
        "DimensionMismatch", "DimensionTooLarge", "IndexOutOfRange", "NonBinary",
        "NonSquare",
    ],
    "fixtures": ["orientable_not_spin_family"],
    "matrix": [
        "BottMatrix", "GeneralBottMatrix", "Permutation", "conjugate",
        "delete_leading", "leading_submatrix", "load_matrix", "matrix_from_index",
        "matrix_from_json", "matrix_index", "normalize", "parse_matrix",
        "row_pair_matrix",
    ],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestPublicNames:
    def test_all_is_pinned(self):
        assert len(EXPORTED) == 58
        assert sorted(realbott.__all__) == sorted(name for _, name in EXPORTED)

    @pytest.mark.parametrize("module,name", EXPORTED)
    def test_name_is_its_modules_object(self, module, name):
        expected = getattr(importlib.import_module(f"realbott.{module}"), name)
        assert getattr(realbott, name) is expected

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from realbott import *", namespace)
        for _, name in EXPORTED:
            assert namespace[name] is getattr(realbott, name)
        assert set(realbott.__all__) <= set(dir(realbott))

    def test_version(self):
        assert realbott.__version__ == "0.1.0"

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="'realbott' has no attribute 'no_such_name'"):
            getattr(realbott, "no_such_name")


MARK = "-- modules --"


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code` against
    this checkout's package."""
    src = str(Path(realbott.__file__).resolve().parents[1])
    script = f"{code}\nimport sys\nprint({MARK!r}, *sys.modules, sep='\\n')"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    return set(out.stdout.rpartition(MARK)[2].split())


def cli_main(*argv: str) -> str:
    return f"import realbott.cli\nrealbott.cli.main({list(argv)!r})"


#: What `check` never runs: the ring, the sweeps, the fixtures, the
#: digraph and the process pool.
NOT_FOR_CHECK = {"realbott.cohomology", "realbott.enumeration", "realbott.fixtures",
                 "realbott.digraph", "concurrent.futures", "multiprocessing"}


class TestStartupImports:
    def test_package_alone_loads_no_submodule(self):
        assert not {m for m in loaded_after("import realbott") if m.startswith("realbott.")}

    @pytest.mark.parametrize("code", [
        "import realbott.cli\nrealbott.cli.build_parser()",
        cli_main("check", "--matrix", "0110;0011;0001;0000"),
    ], ids=["build_parser", "check"])
    def test_check_loads_only_its_modules(self, code):
        loaded = loaded_after(code)
        assert {"realbott.cli", "realbott.criteria", "realbott.matrix"} <= loaded
        assert not NOT_FOR_CHECK & loaded

    def test_decoder_loads_no_sweep(self):
        loaded = loaded_after("import realbott\nrealbott.matrix_from_index(6, 5)")
        assert "realbott.matrix" in loaded
        assert "realbott.enumeration" not in loaded

    def test_sw_loads_the_ring_only(self):
        loaded = loaded_after(cli_main("sw", "--matrix", "0110;0011;0001;0000"))
        assert "realbott.cohomology" in loaded
        assert "realbott.enumeration" not in loaded

    def test_serial_enumerate_loads_no_pool(self):
        loaded = loaded_after(cli_main("enumerate", "-n", "4", "--threads", "1"))
        assert "realbott.enumeration" in loaded
        assert "concurrent.futures.process" not in loaded
