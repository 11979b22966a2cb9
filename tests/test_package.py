"""The package's public names and what a start loads: each exported name
comes from its module on first access, every function that no other
package code calls has a recorded reason to stay, and a CLI command imports
only the modules it runs."""

import ast
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
        "RingElement", "SWProfile", "monomial_str", "multiply",
        "reduce_power_product", "reduce_square", "sw_number", "sw_partitions",
        "total_sw_class", "w1_formula", "w_top_minus_one", "wk_recursive",
    ],
    "criteria": [
        "PairTerms", "PairWitness", "RowWitness", "SpinVerdict",
        "fibre_chain_verdicts", "is_orientable", "is_spin", "is_spin_general",
        "pair_terms", "spin_by_pairs",
    ],
    "digraph": ["build_digraph", "common_out", "digraph_spin", "export_dot", "out_degree",
                "out_neighbours"],
    "enumeration": [
        "SweepReport", "VerificationReport", "enumerate_all", "evaluate_matrix",
        "sweep", "verify_fixture_suite",
    ],
    "errors": [
        "BadPartition", "BottError", "CyclicDigraph", "DiagonalNonzero",
        "DimensionMismatch", "DimensionTooLarge", "IndexOutOfRange", "NonBinary",
        "NonSquare",
    ],
    "fixtures": ["orientable_not_spin_family"],
    "matrix": [
        "BottMatrix", "GeneralBottMatrix", "Permutation", "conjugate",
        "delete_leading", "load_matrix", "matrix_from_index",
        "matrix_from_json", "matrix_index", "normalize", "parse_matrix",
        "row_pair_matrix",
    ],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestPublicNames:
    def test_all_is_pinned(self):
        assert len(EXPORTED) == 56
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


SRC = Path(realbott.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"

#: Each function or method of the package that no other code in it names,
#: with the kind of reason it stays and the reason.  What the CLI or a sweep
#: runs is named inside the package, so it never needs an entry here.
UNCALLED_IN_SRC = {
    "build_digraph": ("bench", "the enumerate workloads time it as the digraph layer"),
    "conjugate": ("criterion", "criteria 9 and 12 check conjugates"),
    "entry": ("criterion", "criterion 8 sums entry products for the pair counts"),
    "enumerate_all": ("criterion", "criteria 1, 2, 6, 7, 8, 11 and 12 run every matrix of an n"),
    "fibre_chain_verdicts": ("criterion", "criterion 12: the fibres keep the top's flags"),
    "from_lists": ("constructor", "a matrix from a 0/1 grid"),
    "identity": ("constructor", "the identity permutation"),
    "is_orientable": ("criterion", "criterion 12: orientable iff w_1 = 0"),
    "is_zero": ("criterion", "criterion 11 reads w_1, w_2 and w_3 = 0 with it"),
    "multiply": ("test reference", "the dense product; it and reduce_power_product check each other"),
    "normalize": ("criterion", "criterion 9 round-trips conjugates through it"),
    "out_degree": ("criterion", "criterion 8 reads N_k as an out-degree"),
    "pair_terms": ("criterion", "criterion 8 checks Q against C(N_k, 2)"),
    "reduce_power_product": ("criterion", "criterion 10: both rewrite orders agree"),
    "reduce_square": ("test reference", "reduce_power_product's squares are checked against it"),
    "row_pair_matrix": ("criterion", "criterion 12: spin iff every two-row extraction is"),
    "sw_number": ("bench", "the sw-numbers trace calls it once per partition"),
    "sw_partitions": ("bench", "the sw-numbers trace lists the partitions it asks for"),
    "to_text": ("bench", "check-batch writes its input texts with it"),
    "variable": ("constructor", "the generator y_i"),
    "w1_formula": ("criterion", "criterion 12: the w_1 formula equals the ring's w_1"),
    "w_top_minus_one": ("criterion", "criterion 6 checks it against the ring's w_{n-1}"),
    "wk_recursive": ("criterion", "criterion 6 checks it against the ring's w_k"),
    "zero": ("constructor", "BottMatrix.zero: the zero matrix of size n"),
}


def _named(paths) -> set[str]:
    """Every name and attribute name the files use."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _uncalled_in_src() -> tuple[set[str], set[str]]:
    """(functions and methods that no other package code names, the
    classmethods among all of them); special methods are left out, as the
    language calls them."""
    spans, named, classmethods = {}, [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                spans.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
                if any(isinstance(d, ast.Name) and d.id == "classmethod"
                       for d in node.decorator_list):
                    classmethods.add(node.name)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                named.append((name, path, node.lineno))
    called = {name for name, path, line in named if name in spans
              and not any(p == path and a <= line <= b for p, a, b in spans[name])}
    return set(spans) - called, classmethods


class TestEveryNameEarnsItsPlace:
    def test_uncalled_functions_are_the_listed_ones(self):
        # a new uncalled function needs an entry; one that the package now
        # calls, or that is gone, loses its entry
        assert _uncalled_in_src()[0] == set(UNCALLED_IN_SRC)

    def test_each_reason_holds(self):
        where = {
            "criterion": _named([TESTS / "test_acceptance.py"]),
            "test reference": _named(TESTS.glob("*.py")),
            "bench": _named(BENCH.glob("*.py")),
            "constructor": _uncalled_in_src()[1],
        }
        for name, (kind, reason) in UNCALLED_IN_SRC.items():
            assert name in where[kind], (name, kind, reason)

    def test_bench_imports_resolve(self):
        imported = []
        for path in sorted(BENCH.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module in (
                        "realbott", "realbott.enumeration"):
                    imported += [(node.module, alias.name) for alias in node.names]
        assert {"w1_formula", "is_spin_general", "index_space"} <= {n for _, n in imported}
        for module, name in imported:
            assert hasattr(importlib.import_module(module), name), (module, name)


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

    def test_one_run_sweeps_load_no_pool(self):
        # the default --threads on four cores: each sweep is one run of at most BATCH
        code = "\n".join(["import os", "os.cpu_count = lambda: 4",
                          cli_main("enumerate", "-n", "4"),
                          cli_main("enumerate", "-n", "5"),
                          cli_main("enumerate", "-n", "6", "--mode", "sample",
                                   "--count", "50", "--seed", "1")])
        loaded = loaded_after(code)
        assert "realbott.enumeration" in loaded
        assert "concurrent.futures.process" not in loaded
