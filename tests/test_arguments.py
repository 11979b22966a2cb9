"""The argument contract: a dimension is an int >= 1, an index an int in
1..n, and a pair two such ints j < k; a degree, a monomial mask and a ring
element's bits are ints, the bits non-negative.  2.0 and True compare
equal to 2 and 1 but are refused, each with a package error rather than a
bare TypeError, and every refusal for an int argument keeps the message of
its one owner in `realbott.matrix`.  A build of n rows refuses n above
`MAX_BUILD_N` before it allocates.  A sweep's `cap` and sample `seed` must
be ints too, the seed of any sign, and its `jobs` an int >= 1.  `multiply`
also refuses an element with variables beyond the matrix's own, and
`SWProfile` a general matrix, a matrix above the ring's cap or anything
else as its matrix.  `conjugate` refuses a permutation of another size,
the JSON reader anything but an object with rows, and the CLI both an
input file and --matrix, and a BOTT_MAX_N that is not an integer."""

import io
import os
from unittest import mock

import pytest

from realbott import (
    BadPartition,
    BottError,
    BottMatrix,
    DimensionMismatch,
    DimensionTooLarge,
    GeneralBottMatrix,
    IndexOutOfRange,
    NonBinary,
    NonSquare,
    Permutation,
    RingElement,
    SWProfile,
    common_out,
    conjugate,
    delete_leading,
    enumerate_all,
    matrix_from_index,
    matrix_from_json,
    multiply,
    orientable_not_spin_family,
    out_degree,
    out_neighbours,
    pair_terms,
    parse_matrix,
    reduce_power_product,
    reduce_square,
    row_pair_matrix,
    sw_number,
    sw_partitions,
    sweep,
    total_sw_class,
    wk_recursive,
)
from realbott.cli import build_parser
from realbott.cohomology import _ring_tables
from realbott.matrix import MAX_BUILD_N, _check_dimension, _check_index, index_space

C = BottMatrix.from_lists([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
Z21 = BottMatrix.zero(21)
#: An int with more digits than str() writes by default (4300), and how a
#: refusal shows it and its negative.
HUGE, SHOWN, NEGATIVE = 1 << 20000, "<int of 20001 bits>", "<negative int of 20001 bits>"
#: The first n above the build bound, and the end of each builder's refusal.
ABOVE, BOUND = MAX_BUILD_N + 1, f" exceeds the cap {MAX_BUILD_N}"


def command(*argv, stdin="", **env):
    """Run a CLI command with `stdin` and `env` but without `main`, so that
    a refusal raises its error."""
    args = build_parser().parse_args(argv)
    with mock.patch.dict(os.environ, env), mock.patch("sys.stdin", io.StringIO(stdin)):
        return args.func(args)


#: (id, call, error class, message fragment): each call is refused.
REFUSALS = [
    ("sweep-float-n", lambda: sweep(3.0), NonSquare, "dimension must be an int, got 3.0"),
    ("sweep-zero-n", lambda: sweep(0), NonSquare, "dimension must be >= 1, got 0"),
    ("sweep-float-count", lambda: sweep(3, "sample", count=2.5, seed=1), BottError,
     "requires a positive count"),
    ("sweep-bool-count", lambda: sweep(3, "sample", count=True, seed=1), BottError,
     "requires a positive count"),
    ("sweep-float-jobs", lambda: sweep(3, jobs=2.0), BottError, "jobs must be an int, got 2.0"),
    ("sweep-str-cap", lambda: sweep(3, cap="7"), BottError, "cap must be an int, got '7'"),
    ("sweep-bool-cap", lambda: sweep(3, cap=True), BottError, "cap must be an int, got True"),
    ("sweep-list-seed", lambda: sweep(3, "sample", count=5, seed=[1]), BottError,
     "seed must be an int, got [1]"),
    ("sweep-str-seed", lambda: sweep(3, "sample", count=5, seed="x"), BottError,
     "seed must be an int, got 'x'"),
    ("sweep-float-seed", lambda: sweep(3, "sample", count=5, seed=1.5), BottError,
     "seed must be an int, got 1.5"),
    ("sweep-bool-seed", lambda: sweep(3, "sample", count=5, seed=True), BottError,
     "seed must be an int, got True"),
    ("enumerate_all-float-n", lambda: next(enumerate_all(2.0)), NonSquare, "got 2.0"),
    ("zero-float-n", lambda: BottMatrix.zero(2.0), NonSquare, "dimension must be an int"),
    ("identity-float-n", lambda: Permutation.identity(2.0), NonSquare, "must be an int"),
    ("identity-zero-n", lambda: Permutation.identity(0), NonSquare, ">= 1, got 0"),
    ("index_space-float-n", lambda: index_space(2.0), NonSquare, "must be an int"),
    ("index_space-zero-n", lambda: index_space(0), NonSquare, ">= 1, got 0"),
    ("sw_partitions-float-n", lambda: sw_partitions(2.0), NonSquare, "must be an int"),
    ("sw_partitions-zero-n", lambda: sw_partitions(0), NonSquare, ">= 1, got 0"),
    ("permutation-float", lambda: Permutation((2, 1, 3))(1.0), IndexOutOfRange,
     "index 1.0 outside 1..3"),
    ("entry-float", lambda: C.entry(2.0, 3), IndexOutOfRange, "index 2.0 outside 1..3"),
    ("entry-bool", lambda: C.entry(True, 3), IndexOutOfRange, "index True outside 1..3"),
    ("reduce_square-float", lambda: reduce_square(C, 2.0), IndexOutOfRange, "index 2.0"),
    ("power_product-float", lambda: reduce_power_product(C, [2.0]), IndexOutOfRange,
     "index 2.0"),
    ("power_product-not-iterable", lambda: reduce_power_product(C, 5), IndexOutOfRange,
     "indices must be iterable, got 5"),
    ("out_degree-float", lambda: out_degree(C, 1.0), IndexOutOfRange, "vertex 1.0 outside 1..3"),
    ("out_neighbours-bool", lambda: out_neighbours(C, True), IndexOutOfRange,
     "vertex True outside 1..3"),
    ("wk_recursive-float", lambda: wk_recursive(C, 1.0), IndexOutOfRange,
     "degree 1.0 outside 1..3"),
    ("variable-float", lambda: RingElement.variable(2.0), IndexOutOfRange,
     "variable index 2.0 outside 1..20"),
    ("delete_leading-float", lambda: delete_leading(C, 1.0), IndexOutOfRange,
     "need 0 <= k < 3, got 1.0"),
    ("delete_leading-bool", lambda: delete_leading(C, False), IndexOutOfRange, "got False"),
    ("row_pair-bool", lambda: row_pair_matrix(C, True, 2), IndexOutOfRange,
     "need 1 <= j < k <= 3, got (True,2)"),
    ("row_pair-float", lambda: row_pair_matrix(C, 1.0, 2), IndexOutOfRange, "got (1.0,2)"),
    ("common_out-bool", lambda: common_out(C, True, 2), IndexOutOfRange, "got (True,2)"),
    ("common_out-float", lambda: common_out(C, 1, 2.0), IndexOutOfRange, "got (1,2.0)"),
    ("pair_terms-float", lambda: pair_terms(C, 1.5, 2), IndexOutOfRange, "got (1.5,2)"),
    ("family-float", lambda: orientable_not_spin_family(5.0), IndexOutOfRange,
     "family needs n >= 5, got 5.0"),
    ("from_masks-float", lambda: RingElement.from_masks([1.0]), IndexOutOfRange,
     "monomial mask 1.0 is not a product"),
    ("ring-element-float", lambda: RingElement(1.5), IndexOutOfRange,
     "ring element bitset must be an int, got 1.5"),
    ("ring-element-bool", lambda: RingElement(True), IndexOutOfRange,
     "ring element bitset must be an int, got True"),
    ("ring-element-minus-one", lambda: RingElement(-1), IndexOutOfRange,
     "ring element bitset -1 is negative"),
    ("ring-element-minus-six", lambda: RingElement(-6), IndexOutOfRange,
     "ring element bitset -6 is negative"),
    ("multiply-element-beyond", lambda: multiply(C, RingElement(1 << 8), RingElement(1)),
     DimensionMismatch, "monomial y4 uses variables beyond y3"),
    ("multiply-second-element-beyond", lambda: multiply(C, RingElement(1), RingElement(1 << 9)),
     DimensionMismatch, "monomial y1*y4 uses variables beyond y3"),
    # a profile holds a triangular matrix within the ring's cap
    ("profile-general", lambda: SWProfile(GeneralBottMatrix(2, (0, 1))), BottError,
     "classes need a strictly upper triangular matrix; normalize the general one first"),
    ("profile-not-a-matrix", lambda: SWProfile([[0, 1], [0, 0]]), BottError,
     "classes need a strictly upper triangular matrix"),
    ("profile-above-cap", lambda: SWProfile(Z21), DimensionTooLarge,
     "ring elements take 2^n bits; n=21 exceeds the cap 20"),
    # a permutation of another size, a JSON matrix that is no object with rows
    ("conjugate-other-size", lambda: conjugate(BottMatrix.zero(3), Permutation((2, 1))),
     IndexOutOfRange, "permutation on 1..2 vs matrix n=3"),
    ("json-list", lambda: matrix_from_json("[1]"), NonSquare,
     'JSON matrix needs an object with "n" and "rows"'),
    # the CLI's own refusals, each raised by its command before `main` makes it exit 2
    ("cli-file-and-matrix", lambda: command("check", "m.txt", "--matrix", "01;00"), BottError,
     "give either an input file or --matrix, not both"),
    ("cli-max-n-not-int", lambda: command("enumerate", "-n", "3", BOTT_MAX_N="x"), BottError,
     "BOTT_MAX_N must be an integer, got 'x'"),
    ("cli-json-without-rows", lambda: command("check", "-", stdin='{"n": 2}'), NonSquare,
     'JSON matrix needs an object with "n" and "rows"'),
    ("from_masks-not-iterable", lambda: RingElement.from_masks(5), IndexOutOfRange,
     "masks must be iterable, got 5"),
    # an int too long for str(): a JSON number past the limit is bad JSON, and
    # every refusal message shows the int by its bit length
    ("json-huge-number", lambda: matrix_from_json('{"n": 1' + "0" * 5000 + ', "rows": [[0]]}'),
     NonSquare, "bad JSON matrix: "),
    ("from_index-huge-index", lambda: matrix_from_index(3, HUGE), IndexOutOfRange,
     f"index {SHOWN} outside 0..2^3-1"),
    ("from_index-float-n-huge-index", lambda: matrix_from_index(3.0, HUGE), NonSquare,
     f"must be ints, got 3.0 and {SHOWN}"),
    ("from_index-huge-n", lambda: matrix_from_index(HUGE, 0), DimensionTooLarge,
     f"decoding: n={SHOWN} exceeds the cap 20"),
    ("entry-huge", lambda: C.entry(HUGE, 1), IndexOutOfRange, f"index {SHOWN} outside 1..3"),
    ("row_pair-huge", lambda: row_pair_matrix(C, 1, HUGE), IndexOutOfRange,
     f"need 1 <= j < k <= 3, got (1,{SHOWN})"),
    ("ring-element-huge-negative", lambda: RingElement(-HUGE), IndexOutOfRange,
     f"ring element bitset {NEGATIVE} is negative"),
    ("permutation-huge", lambda: Permutation((HUGE, 1)), BottError,
     f"not a bijection on 1..2: ({SHOWN}, 1)"),
    ("sweep-huge-negative-cap", lambda: sweep(3, cap=-HUGE), DimensionTooLarge,
     f"capped at n={NEGATIVE}, got n=3"),
    ("sweep-huge-n", lambda: sweep(HUGE), DimensionTooLarge, f"capped at n=7, got n={SHOWN}"),
    ("sweep-huge-n-and-cap", lambda: sweep(HUGE, cap=HUGE), DimensionTooLarge,
     f"n={SHOWN} has 2^<int of 39999 bits> matrices"),
    ("sweep-huge-negative-n", lambda: sweep(-HUGE), NonSquare,
     f"dimension must be >= 1, got {NEGATIVE}"),
    ("matrix-huge-n", lambda: BottMatrix(HUGE, ()), NonSquare, f"expected {SHOWN} rows, got 0"),
    ("from_lists-huge-entry", lambda: BottMatrix.from_lists([[0, HUGE], [0, 0]]), NonBinary,
     f"row 1: entry {SHOWN} is not 0/1"),
    ("json-dict-huge-n", lambda: matrix_from_json({"n": HUGE, "rows": [[0]]}), NonSquare,
     f'"n" is {SHOWN} but 1 rows given'),
    ("delete_leading-huge", lambda: delete_leading(C, HUGE), IndexOutOfRange,
     f"need 0 <= k < 3, got {SHOWN}"),
    ("from_masks-huge", lambda: RingElement.from_masks([HUGE]), IndexOutOfRange,
     f"monomial mask {SHOWN} is not a product of y1..y20"),
    ("sw_number-huge", lambda: sw_number(SWProfile(C), (HUGE, 0, 0)), BadPartition,
     f"weighted degree of ({SHOWN}, 0, 0) is not 3"),
    ("family-huge-negative", lambda: orientable_not_spin_family(-HUGE), IndexOutOfRange,
     f"family needs n >= 5, got {NEGATIVE}"),
    # every build of n rows is bounded before it allocates anything of size n
    ("zero-huge-n", lambda: BottMatrix.zero(HUGE), DimensionTooLarge, f"n={SHOWN}{BOUND}"),
    ("zero-above-bound", lambda: BottMatrix.zero(ABOVE), DimensionTooLarge, f"n={ABOVE}{BOUND}"),
    ("identity-huge-n", lambda: Permutation.identity(HUGE), DimensionTooLarge,
     f"n={SHOWN}{BOUND}"),
    ("identity-above-bound", lambda: Permutation.identity(ABOVE), DimensionTooLarge,
     f"n={ABOVE}{BOUND}"),
    ("index_space-huge-n", lambda: index_space(HUGE), DimensionTooLarge, f"n={SHOWN}{BOUND}"),
    ("index_space-above-bound", lambda: index_space(ABOVE), DimensionTooLarge,
     f"n={ABOVE}{BOUND}"),
    ("sw_partitions-huge-n", lambda: next(sw_partitions(HUGE)), DimensionTooLarge,
     f"n={SHOWN}{BOUND}"),
    ("sw_partitions-above-bound", lambda: next(sw_partitions(ABOVE)), DimensionTooLarge,
     f"n={ABOVE}{BOUND}"),
    ("family-huge-n", lambda: orientable_not_spin_family(HUGE), DimensionTooLarge,
     f"n={SHOWN}{BOUND}"),
    ("family-above-bound", lambda: orientable_not_spin_family(ABOVE), DimensionTooLarge,
     f"n={ABOVE}{BOUND}"),
    # the constructors count the rows first: `matrix-huge-n` above keeps its NonSquare
    ("matrix-above-bound", lambda: BottMatrix(ABOVE, (0,) * ABOVE), DimensionTooLarge,
     f"n={ABOVE}{BOUND}"),
    ("general-matrix-above-bound", lambda: GeneralBottMatrix(ABOVE, (0,) * ABOVE),
     DimensionTooLarge, f"n={ABOVE}{BOUND}"),
    # a sweep runs in at least one process
    ("sweep-zero-jobs", lambda: sweep(3, jobs=0), BottError, "jobs must be >= 1, got 0"),
    ("sweep-negative-jobs", lambda: sweep(3, jobs=-3), BottError, "jobs must be >= 1, got -3"),
]


@pytest.mark.parametrize("call, error, fragment", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_non_int_arguments_refused(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_profile_above_cap_builds_no_table():
    # the cap is checked before the flags read any table of that n
    before = _ring_tables.cache_info()
    for n in (21, 30):
        with pytest.raises(DimensionTooLarge, match=f"2\\^n bits; n={n} exceeds the cap 20$"):
            SWProfile(BottMatrix.zero(n))
    after = _ring_tables.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_build_bound_admits_its_own_n():
    assert index_space(MAX_BUILD_N).bit_length() == MAX_BUILD_N * (MAX_BUILD_N - 1) // 2 + 1
    assert Permutation.identity(MAX_BUILD_N).n == MAX_BUILD_N


def test_power_product_reads_a_generator_once():
    assert reduce_power_product(C, (i for i in [2, 2])) == reduce_power_product(C, [2, 2])
    assert str(reduce_power_product(C, iter([2, 2]))) == "y1*y2"


RING_CAP = (lambda: _check_dimension(21, "ring elements take 2^n bits; "),
            "ring elements take 2^n bits; n=21 exceeds the cap 20")

#: (id, public call, its owner's call, the whole message), all int arguments.
OWNED_MESSAGES = [
    ("index", lambda: C.entry(1, 4), lambda: _check_index(4, 3, "index"),
     "index 4 outside 1..3"),
    ("vertex", lambda: out_degree(C, 4), lambda: _check_index(4, 3, "vertex"),
     "vertex 4 outside 1..3"),
    ("degree", lambda: wk_recursive(C, 4), lambda: _check_index(4, 3, "degree"),
     "degree 4 outside 1..3"),
    ("variable-index", lambda: RingElement.variable(21),
     lambda: _check_index(21, 20, "variable index"), "variable index 21 outside 1..20"),
    ("dimension", lambda: sweep(0), lambda: _check_dimension(0),
     "dimension must be >= 1, got 0"),
    ("decoding-cap", lambda: matrix_from_index(21, 0), lambda: _check_dimension(21, "decoding: "),
     "decoding: n=21 exceeds the cap 20"),
    ("sampling-cap", lambda: sweep(21, "sample", count=2, seed=1),
     lambda: _check_dimension(21, "sampling: "), "sampling: n=21 exceeds the cap 20"),
    # both readers refuse in the one builder they end in
    ("parsing-cap-text", lambda: parse_matrix(Z21.to_text()),
     lambda: _check_dimension(21, "parsing: "), "parsing: n=21 exceeds the cap 20"),
    ("parsing-cap-json", lambda: matrix_from_json(Z21.to_json_dict()),
     lambda: _check_dimension(21, "parsing: "), "parsing: n=21 exceeds the cap 20"),
    # the ring's four entry points share one check
    ("ring-cap", lambda: total_sw_class(Z21), *RING_CAP),
    ("ring-cap-multiply", lambda: multiply(Z21, RingElement(1), RingElement(1)), *RING_CAP),
    ("ring-cap-wk_recursive", lambda: wk_recursive(Z21, 1), *RING_CAP),
    ("ring-cap-sw_number", lambda: sw_number(SWProfile(Z21), (0,) * 20 + (1,)), *RING_CAP),
]


@pytest.mark.parametrize("call, owner, message", [case[1:] for case in OWNED_MESSAGES],
                         ids=[case[0] for case in OWNED_MESSAGES])
def test_int_argument_messages_come_from_their_owner(call, owner, message):
    errors = []
    for f in (call, owner):
        with pytest.raises(BottError) as info:
            f()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1] == message


@pytest.mark.parametrize("grid, error", [
    ([[0] * 20 + [2]] + [[0] * 21] * 20, NonBinary),
    ([[0] * 21] * 20 + [[0] * 20], NonSquare),
    ([[0] * 22] * 21, NonSquare),
    ([[int(i == j == 0) for j in range(21)] for i in range(21)], DimensionTooLarge),
    ([[int(j == (i + 1) % 21) for j in range(21)] for i in range(21)], DimensionTooLarge),
], ids=["bad-entry", "ragged", "not-square", "diagonal", "cycle"])
def test_parse_cap_comes_after_the_grid_before_the_matrix(grid, error):
    # at n = 21 each reader reports a bad entry and the grid's shape before
    # the cap, and the cap before the diagonal or a cycle
    text = "\n".join(" ".join(map(str, row)) for row in grid)
    for read in (lambda: parse_matrix(text), lambda: matrix_from_json({"rows": grid})):
        with pytest.raises(error):
            read()
