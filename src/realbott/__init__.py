"""Orientability, spin structures and Stiefel-Whitney data of real Bott
manifolds, computed from their Bott matrices.

The package decides orientability and spin three independent ways (row
arithmetic, digraph combinatorics, two-row reduction), expands the full
mod-2 cohomology ring as a square-free monomial algebra to serve as the
brute-force oracle, and sweeps whole dimensions to cross-validate them.
"""

import importlib

__version__ = "0.1.0"

#: The module of each exported name.  `__getattr__` imports it on first
#: access (PEP 562), so `import realbott` loads no submodule.
_EXPORTS = {
    "cohomology": (
        "RingElement", "SWProfile", "multiply",
        "reduce_power_product", "reduce_square", "sw_number", "sw_partitions",
        "total_sw_class", "w1_formula", "w_top_minus_one", "wk_recursive",
    ),
    "criteria": (
        "PairTerms", "PairWitness", "RowWitness", "SpinVerdict",
        "fibre_chain_verdicts", "is_orientable", "is_spin", "is_spin_general",
        "pair_terms", "spin_by_pairs",
    ),
    "digraph": ("build_digraph", "common_out", "digraph_spin", "export_dot",
                "out_degree", "out_neighbours"),
    "enumeration": (
        "SweepReport", "VerificationReport", "enumerate_all", "evaluate_matrix",
        "sweep", "verify_fixture_suite",
    ),
    "errors": (
        "BadPartition", "BottError", "CyclicDigraph", "DiagonalNonzero",
        "DimensionMismatch", "DimensionTooLarge", "IndexOutOfRange", "NonBinary",
        "NonSquare",
    ),
    "fixtures": ("orientable_not_spin_family",),
    "matrix": (
        "BottMatrix", "GeneralBottMatrix", "Permutation", "conjugate",
        "delete_leading", "load_matrix", "matrix_from_index",
        "matrix_from_json", "matrix_index", "normalize", "parse_matrix",
        "row_pair_matrix",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
