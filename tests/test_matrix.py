import dataclasses
import heapq
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realbott import (
    BottError,
    BottMatrix,
    CyclicDigraph,
    DiagonalNonzero,
    DimensionTooLarge,
    GeneralBottMatrix,
    IndexOutOfRange,
    NonBinary,
    NonSquare,
    Permutation,
    conjugate,
    delete_leading,
    load_matrix,
    matrix_from_json,
    build_digraph,
    digraph_spin,
    enumerate_all,
    is_spin,
    matrix_from_index,
    normalize,
    parse_matrix,
    row_pair_matrix,
)
from realbott.enumeration import index_space
from realbott import matrix
from realbott.matrix import (MAX_SINGLE_N, _DROP_INLINE_SPACE, _acyclic, _topological_order,
                             _word_tables)
from realbott.fixtures import load_fixture, orientable_not_spin_family

from conftest import random_bott


def _reference_parse(text):
    """The per-character parser that parse_matrix replaced, kept as the
    reference for its results and error messages."""
    grid = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = []
        for token in stripped.split():
            for ch in token:
                if ch == "0":
                    row.append(0)
                elif ch == "1":
                    row.append(1)
                else:
                    raise NonBinary(f"line {lineno}: bad character {ch!r}")
        grid.append(row)
    if not grid:
        raise NonSquare("no matrix rows found")
    n = len(grid[0])
    for i, row in enumerate(grid, 1):
        if len(row) != n:
            raise NonSquare(f"row {i} has {len(row)} entries, expected {n}")
    if len(grid) != n:
        raise NonSquare(f"{len(grid)} rows of width {n}: matrix is not square")
    if n > MAX_SINGLE_N:
        raise DimensionTooLarge(f"parsing: n={n} exceeds the cap {MAX_SINGLE_N}")
    rows = tuple(sum(v << j for j, v in enumerate(row)) for row in grid)
    if all(rows[i] & ((2 << i) - 1) == 0 for i in range(n)):
        return BottMatrix(n, rows)
    return GeneralBottMatrix(n, rows)


def _upper(rows):
    return all(row & ((2 << i) - 1) == 0 for i, row in enumerate(rows))


def _reference_construct(n, rows, cls=None):
    """The per-row checks the constructors made before they shared the
    parsers' packed word, kept as the reference for the matrices, columns
    and errors of both: builds `cls`, by default the class the parsers pick
    (BottMatrix when `rows` is upper triangular), sorting a general
    digraph by `_heap_kahn` and reading its columns bit by bit."""
    if cls is None:
        cls = BottMatrix if _upper(rows) else GeneralBottMatrix
    try:
        if n < 1:
            raise NonSquare(f"dimension must be >= 1, got {n}")
        if len(rows) != n:
            raise NonSquare(f"expected {n} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if row & ~((1 << n) - 1):
                raise NonSquare(f"row {i + 1} has entries beyond column {n}")
        for i, row in enumerate(rows):
            low = row & ((2 << i) - 1)
            if cls is BottMatrix and low:
                raise DiagonalNonzero(f"entry ({i + 1},{low.bit_length()}) is on or below the diagonal")
            if (row >> i) & 1:
                raise DiagonalNonzero(f"diagonal entry ({i + 1},{i + 1}) is 1")
        if _heap_kahn(n, rows) is None:
            raise CyclicDigraph("matrix digraph contains a directed cycle")
    except BottError as exc:
        return type(exc), str(exc)
    return cls, n, tuple(rows), _in_masks(n, rows)


def _outcome(parse, text):
    try:
        M = parse(text)
    except BottError as exc:
        return type(exc), str(exc)
    return type(M), M.n, M.rows


# Whitespace that str.split() drops, line breaks that str.splitlines() adds
# (\x1c), comment and separator marks, and characters int(_, 2) would accept
# or that look like digits ("_", "+", "-", Arabic-Indic one), so the test
# pins the order of the checks as well as the results.  The parser reads
# UTF-8 bytes, so the alphabet also holds the seams where bytes and str
# differ: the breaks bytes.split() misses (\x1c-\x1e, \x85, \u2029), the
# ones it knows (\v, \f), the in-line \x1f, a lone surrogate and a
# two-byte letter.
_ALPHABET = "01 \t\r\n\x1c\xa0#;_+-\x00\u0661\x0b\x0c\x1d\x1e\x1f\x85\u2029\udcff\xe9"
_ANY_TEXT = st.text(alphabet=_ALPHABET, max_size=40)
_BITS = st.text(alphabet="01", min_size=1, max_size=6)
_LINE = st.lists(_BITS, min_size=1, max_size=4).flatmap(
    lambda tokens: st.sampled_from([" ", "", "\t", "\xa0 "]).map(lambda sep: sep.join(tokens))
)
_LINE_BREAK = st.sampled_from(["\n", "\r\n", "\x1c", "\r"])
# Mostly well-formed lines, so the width and square checks are reached.
_GRID_TEXT = st.builds(
    str.join,
    _LINE_BREAK,
    st.lists(st.one_of(_LINE, _ANY_TEXT, st.just("# note")), min_size=1, max_size=7),
)
# Square grids with a zero diagonal: upper triangular, general or cyclic.
_SQUARE_TEXT = st.integers(1, 5).flatmap(
    lambda n: st.builds(
        str.join,
        _LINE_BREAK,
        st.lists(
            st.lists(st.sampled_from("01"), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(lambda g: [" ".join("0" if i == j else v for j, v in enumerate(row))
                         for i, row in enumerate(g)]),
    )
)


# The pieces of the seeded reader texts: each in-line space the reader
# drops, each line break it splits at (CR LF as one), the comment mark and
# bad characters: two ASCII ones, a lone surrogate and a two-byte letter.
_PIECES = ["0", "1", " ", "\t", "\x1f", "\xa0", "\r\n", "\r", "\v", "\x1c", "\u2028", "#", "x", "2",
           "\x0c", "\x1d", "\x1e", "\x85", "\u2029", "\udcff", "\xe9"]
_BREAKS = ["\n", "\r\n", "\r", "\v", "\x1c", "\u2028", "\x0c", "\x1d", "\x1e", "\x85", "\u2029"]


def _seeded_text(rng):
    """Half free draws of `_PIECES`, half square grids with a zero diagonal,
    of n <= 4 or, one in ten, of n = 21..24 above the cap, spaced, broken
    and commented at random, one in four with a random piece inserted, so
    every check of the reader is reached."""
    if rng.random() < 0.5:
        return "".join(rng.choices(_PIECES, k=rng.randrange(24)))
    n = rng.randint(21, 24) if rng.random() < 0.1 else rng.randint(1, 4)
    lines = []
    for i in range(n):
        row = ["0" if i == j else rng.choice("01") for j in range(n)]
        lines.append("".join(c + rng.choice(["", "", " ", "\t", "\x1f", "\xa0"]) for c in row))
        if rng.random() < 0.25:
            lines.append(rng.choice(["", " \t", "#", "# x 2", "# \xe9 \u0661"]))
    text = "".join(line + rng.choice(_BREAKS) for line in lines)
    if rng.random() < 0.25:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_PIECES) + text[at:]
    return text


def _random_matrices(rng):
    """Random Bott matrices for n = 1..20, each with a conjugate of it that
    is not upper triangular (a GeneralBottMatrix) when one was drawn."""
    for n in range(1, 21):
        for _ in range(3):
            C = random_bott(rng, n)
            G = conjugate(C, Permutation(tuple(rng.sample(range(1, n + 1), n))))
            yield C
            if any(G.rows[i] & ((2 << i) - 1) for i in range(n)):
                yield G


class TestParse:
    def test_smallest_nonzero(self):
        m = parse_matrix("0 1\n0 0")
        assert isinstance(m, BottMatrix)
        assert m.n == 2
        assert m.entry(1, 2) == 1
        assert m.entry(2, 1) == 0

    def test_zero_grid(self):
        m = parse_matrix("\n".join(["0 0 0 0"] * 4))
        assert isinstance(m, BottMatrix)
        assert m.n == 4 and all(r == 0 for r in m.rows)

    def test_two_cycle_rejected(self):
        with pytest.raises(CyclicDigraph):
            parse_matrix("0 1\n1 0")

    def test_general_lower_triangular(self):
        m = parse_matrix("0 0\n1 0")
        assert isinstance(m, GeneralBottMatrix)
        assert m.entry(2, 1) == 1

    def test_ragged_rows(self):
        with pytest.raises(NonSquare):
            parse_matrix("0 1\n0 0 1")

    def test_not_square(self):
        with pytest.raises(NonSquare):
            parse_matrix("0 1\n0 0\n0 0")

    def test_bad_character(self):
        with pytest.raises(NonBinary):
            parse_matrix("0 x\n0 0")

    def test_diagonal_nonzero(self):
        with pytest.raises(DiagonalNonzero):
            parse_matrix("1 0\n0 0")

    def test_empty_input(self):
        with pytest.raises(NonSquare):
            parse_matrix("  \n# only a comment\n")

    def test_comments_and_blank_lines_ignored(self):
        m = parse_matrix("# header\n\n0 1\n# middle\n0 0\n")
        assert m.rows == (2, 0)

    def test_compact_tokens(self):
        assert parse_matrix("0110;0011;0000;0000".replace(";", "\n")).rows == \
            parse_matrix("0 1 1 0\n0 0 1 1\n0 0 0 0\n0 0 0 0").rows

    def test_dimension_cap(self):
        n = 25
        grid = "\n".join(" ".join("0" for _ in range(n)) for _ in range(n))
        with pytest.raises(DimensionTooLarge, match=r"^parsing: n=25 exceeds the cap 20$"):
            parse_matrix(grid)

    def test_round_trip_text(self, rng):
        for M in _random_matrices(rng):
            assert parse_matrix(M.to_text()) == M

    def test_json_round_trip(self, rng):
        for M in _random_matrices(rng):
            assert matrix_from_json(M.to_json_dict()) == M
            assert matrix_from_json(json.dumps(M.to_json_dict())) == M

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=st.one_of(_ANY_TEXT, _GRID_TEXT, _SQUARE_TEXT))
    def test_matches_per_character_reference(self, text):
        assert _outcome(parse_matrix, text) == _outcome(_reference_parse, text)

    def test_seeded_texts_match_line_reference(self):
        # the same class, rows and columns, or the same error and message
        rng = random.Random(2121)
        outcomes = set()
        for _ in range(4000):
            text = _seeded_text(rng)
            got = _outcome(parse_matrix, text)
            assert got == _outcome(_reference_parse, text), text
            if len(got) == 3:
                assert parse_matrix(text).columns() == _in_masks(got[1], got[2])
            outcomes.add(got[0])
        assert outcomes == {BottMatrix, GeneralBottMatrix, NonBinary, NonSquare,
                            DiagonalNonzero, CyclicDigraph, DimensionTooLarge}

    def test_inline_space_table(self):
        # exactly the whitespace str.split() drops that str.splitlines()
        # does not break at: one translate stands in for a per-line split
        inline = {c for c in map(chr, range(sys.maxunicode + 1))
                  if c.isspace() and len(("a" + c + "a").splitlines()) == 1}
        assert {chr(c) for c in _DROP_INLINE_SPACE} == inline
        assert set(_DROP_INLINE_SPACE.values()) == {None}

    def test_byte_tables(self):
        # the bytes path drops an ASCII character exactly when it is in-line
        # whitespace, and breaks a line at it exactly when str.splitlines()
        # does, which bytes.split() alone misses at \x1c-\x1e
        for c in range(128):
            ch = chr(c)
            inline = ch.isspace() and len(("a" + ch + "a").splitlines()) == 1
            kept = bytes([c]).translate(matrix._BREAKS, matrix._INLINE_BYTES)
            assert (kept == b"") == inline, hex(c)
            assert len((b"a" + kept + b"a").split()) == len(("a" + ch + "a").splitlines()), hex(c)
        # before encoding, each non-ASCII whitespace character is dropped or
        # made LF, as str.splitlines() treats it; nothing else is touched
        for c in range(128, sys.maxunicode + 1):
            if chr(c).isspace():
                breaks = len(("a" + chr(c) + "a").splitlines()) == 2
                assert matrix._ASCII_SPACE[c] == ("\n" if breaks else None), hex(c)
        assert all(chr(c).isspace() for c in matrix._ASCII_SPACE)

    @pytest.mark.parametrize("text, outcome", [
        # an error names its line as str.splitlines() numbers it, so CR,
        # space, LF is two breaks there
        ("0\r \n;", (NonBinary, "line 3: bad character ';'")),
        ("0 1\u20280 0", (BottMatrix, 2, (2, 0))),
        ("0 1\x850 0", (BottMatrix, 2, (2, 0))),
        ("0\x85\u2028x", (NonBinary, "line 3: bad character 'x'")),
        ("0\xa01\n0\x1f0", (BottMatrix, 2, (2, 0))),
        ("# x+y_\u0661 ;\n \xa0# 2\n0 1\n0 0", (BottMatrix, 2, (2, 0))),
        ("0 1\n# x\n0 x", (NonBinary, "line 3: bad character 'x'")),
        ("0 0 0\n0 0\n0 0 0 0", (NonSquare, "row 2 has 2 entries, expected 3")),
        ("0 0\n0 0\n0 0 0", (NonSquare, "row 3 has 3 entries, expected 2")),
        # a lone surrogate (argv, or stdin under surrogateescape) is a bad
        # character, not an encoding error; a comment may hold any letter
        ("0\udcff\n00", (NonBinary, "line 1: bad character '\\udcff'")),
        ("# \xe9\n0 1\n0 0", (BottMatrix, 2, (2, 0))),
    ])
    def test_whole_text_passes(self, text, outcome):
        assert _outcome(parse_matrix, text) == outcome
        assert _outcome(_reference_parse, text) == outcome

    def test_json_bad_shape(self):
        with pytest.raises(NonSquare):
            matrix_from_json({"n": 3, "rows": [[0, 1], [0, 0]]})

    @pytest.mark.parametrize("grid, message", [
        ([[], []], "row 1 has 0 entries, expected 2"),
        ([[0, 1, 0, 0], [0, 0]], "row 1 has 4 entries, expected 2"),
        ([[0, 1], [1]], "row 2 has 1 entries, expected 2"),
        ([[0, 1, 1], [0, 0], [0, 0, 0]], "row 2 has 2 entries, expected 3"),
    ], ids=["empty-rows", "long-first", "short-last", "short-middle"])
    def test_ragged_grid_refused(self, grid, message):
        # the same width rule and message for both classes and for JSON
        for build in (BottMatrix.from_lists, GeneralBottMatrix.from_lists,
                      lambda g: matrix_from_json({"rows": g})):
            with pytest.raises(NonSquare, match=f"^{message}$"):
                build(grid)

    @pytest.mark.parametrize("build", [
        BottMatrix.from_lists, lambda g: matrix_from_json({"rows": g}),
        # 21 rows, the first as wide as the grid
        lambda g: matrix_from_json({"rows": [g[0] + [0] * 19] + [g[1]] * 20}),
    ], ids=["from_lists", "json", "json-over-cap"])
    def test_bad_entry_named_with_its_row(self, build):
        # reported before a later row's width and before the size cap
        with pytest.raises(NonBinary, match=r"^row 1: entry 2 is not 0/1$"):
            build([[0, 2], [0]])

    def test_load_matrix_auto_detects_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"n": 2, "rows": [[0, 1], [0, 0]]}')
        assert load_matrix(p).rows == (2, 0)
        t = tmp_path / "m.txt"
        t.write_text("0 1\n0 0\n")
        assert load_matrix(t).rows == (2, 0)


class TestTrustedConstruction:
    """The decoder and the parsers build a BottMatrix without re-running
    the checks they have already made; the result must be indistinguishable
    from the validated one."""

    def _assert_same(self, M):
        V = BottMatrix(M.n, M.rows)
        assert type(M) is BottMatrix and type(M.rows) is tuple
        assert M == V and V == M
        assert (hash(M), repr(M)) == (hash(V), repr(V))
        assert M.columns() is M.columns()
        assert M.columns() == V.columns()

    def test_every_small_index(self):
        for n in range(1, 6):
            for index in range(index_space(n)):
                self._assert_same(matrix_from_index(n, index))

    def test_parsed_triangular(self, rng):
        for M in _random_matrices(rng):
            if isinstance(M, BottMatrix):
                self._assert_same(parse_matrix(M.to_text()))
                self._assert_same(matrix_from_json(M.to_json_dict()))

    def test_dimension_still_checked(self):
        with pytest.raises(NonSquare):
            matrix_from_index(0, 0)
        for data in ({"rows": []}, {"n": 0, "rows": []}):
            with pytest.raises(NonSquare, match=r"^dimension must be >= 1, got 0$"):
                matrix_from_json(data)


def _packed(parse, *args):
    """What the word path gives: the columns must be there before any call."""
    try:
        M = parse(*args)
    except BottError as exc:
        return type(exc), str(exc)
    cols = M.__dict__["_columns"]
    assert type(M.rows) is tuple and type(cols) is tuple
    assert all(type(v) is int for v in M.rows + cols)
    return type(M), M.n, M.rows, cols


class TestPackedWord:
    """The parsers read a grid into one word of m-bit lanes, and the
    constructors pack their rows into one; both must build the very
    matrices, columns and errors the per-row reference does."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.sampled_from([1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 20, 31, 32, 33]),
           seed=st.integers(0, 2**32), conjugated=st.booleans())
    def test_matches_validated_construction(self, n, seed, conjugated):
        rng = random.Random(seed)
        M = random_bott(rng, n)
        if conjugated:
            M = conjugate(M, Permutation(tuple(rng.sample(range(1, n + 1), n))))
        expected = _reference_construct(n, M.rows)
        if n > MAX_SINGLE_N:
            # the readers refuse it; the constructor still fills 32- and 64-bit lanes
            refused = (DimensionTooLarge, f"parsing: n={n} exceeds the cap {MAX_SINGLE_N}")
            assert _packed(parse_matrix, M.to_text()) == refused
            assert _packed(matrix_from_json, M.to_json_dict()) == refused
            assert _packed(expected[0], n, M.rows) == expected
            return
        assert _packed(parse_matrix, M.to_text()) == expected
        assert _packed(matrix_from_json, M.to_json_dict()) == expected

    @staticmethod
    def _grid_outcomes(n, rows):
        text = "\n".join(" ".join(str((row >> j) & 1) for j in range(n)) for row in rows)
        lists = [[(row >> j) & 1 for j in range(n)] for row in rows]
        expected = _reference_construct(n, rows)
        assert _packed(parse_matrix, text) == expected, rows
        assert _packed(matrix_from_json, {"n": n, "rows": lists}) == expected, rows

    def test_every_small_grid(self):
        # diagonal entries set or not, cyclic digraphs included
        for n in range(1, 4):
            for grid in range(1 << (n * n)):
                self._grid_outcomes(n, tuple((grid >> (i * n)) & ((1 << n) - 1)
                                             for i in range(n)))

    def test_sampled_grids_n4(self):
        rng = random.Random(4)
        for grid in rng.sample(range(1 << 16), 4000):
            self._grid_outcomes(4, tuple((grid >> (4 * i)) & 15 for i in range(4)))

    def test_constructors_match_reference(self):
        # both classes on every n <= 3 grid, and rows too wide or too many
        for n in range(1, 4):
            grids = [tuple((grid >> (i * n)) & ((1 << n) - 1) for i in range(n))
                     for grid in range(1 << (n * n))]
            grids += [(1 << n,) + (0,) * (n - 1), (0,) * (n + 1), (-1,) * n]
            for rows in grids:
                for cls in (BottMatrix, GeneralBottMatrix):
                    assert _packed(cls, n, rows) == _reference_construct(n, rows, cls), (cls, rows)

    def test_lanes_by_shifts(self):
        # bytes, struct's little-endian ints and the shift loop (m < 8 and
        # m = 128) each read the lanes that shifts and masks give
        rng = random.Random(8)
        cases = []
        for n in (2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65):
            m = 1 << (n - 1).bit_length()
            x = sum(rng.getrandbits(n) << i * m for i in range(n))
            cases.append((x, n, m, matrix._lanes(x, n, m)))
        # more lanes than bits per lane, as the decoder reads: 2n lanes of m
        for n in (5, 9, 16, 17, 20):
            m = max(8, 1 << (n - 1).bit_length())
            x = rng.getrandbits(2 * n * m)
            cases.append((x, 2 * n, m, matrix._lanes(x, 2 * n, m)))
        for x, k, m, lanes in cases:
            assert lanes == tuple((x >> i * m) & ((1 << m) - 1) for i in range(k))
            assert all(type(v) is int for v in lanes)

    def test_tables_keyed_by_width(self):
        texts = [random_bott(random.Random(n), n).to_text() for n in range(12, 21)]
        for text in texts:
            parse_matrix(text)
        misses = _word_tables.cache_info().misses
        for text in texts:
            parse_matrix(text)
        assert _word_tables.cache_info().misses == misses
        assert _word_tables.cache_info().maxsize is not None

    def test_import_builds_no_table(self):
        code = ("import realbott.cli, realbott.matrix as m; "
                "print(m._word_tables.cache_info().currsize)")
        src = str(Path(matrix.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "0\n"


class TestConstruction:
    def test_n_must_be_positive(self):
        with pytest.raises(NonSquare):
            BottMatrix(0, ())

    def test_circle_accepted(self):
        m = BottMatrix(1, (0,))
        assert m.n == 1

    def test_lower_entry_rejected(self):
        with pytest.raises(DiagonalNonzero):
            BottMatrix(2, (0, 1))

    def test_general_needs_zero_diagonal(self):
        with pytest.raises(DiagonalNonzero):
            GeneralBottMatrix(2, (1, 0))

    def test_general_needs_acyclic(self):
        with pytest.raises(CyclicDigraph):
            GeneralBottMatrix(3, (2, 4, 1))  # 1->2->3->1

    def test_general_is_not_bott(self):
        B = parse_matrix("0 0\n1 0")
        assert isinstance(B, GeneralBottMatrix)
        assert not isinstance(B, BottMatrix)

    def test_bott_is_a_general_matrix(self):
        # a strictly upper triangular matrix is general; equality still needs the same class
        assert issubclass(BottMatrix, GeneralBottMatrix)
        assert BottMatrix(2, (2, 0)) != GeneralBottMatrix(2, (2, 0))
        assert hash(BottMatrix(2, (2, 0))) == hash(BottMatrix(2, (2, 0)))
        assert repr(BottMatrix(2, (2, 0))) == "BottMatrix(n=2, rows=(2, 0))"

    def test_columns_transpose_rows(self, rng):
        # a BottMatrix and a GeneralBottMatrix conjugate of it
        for _ in range(50):
            n = rng.randint(1, 8)
            C = random_bott(rng, n)
            sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            for M in (C, conjugate(C, sigma)):
                cols = [
                    sum(bit << i for i, bit in enumerate(col))
                    for col in zip(*M.to_lists())
                ]
                # the stored columns are invisible to equality, hashing
                # and repr
                fresh = type(M)(M.n, M.rows)
                seen = (repr(M), hash(M))
                assert list(M.columns()) == cols
                assert M.columns() is M.columns()
                assert M == fresh and fresh == M
                assert (repr(M), hash(M)) == seen == (repr(fresh), hash(fresh))
                assert list(fresh.columns()) == cols

    def test_every_route_stores_columns(self, rng):
        C = random_bott(rng, 6)
        sigma = Permutation((3, 1, 6, 2, 5, 4))
        G = conjugate(C, sigma)
        built = [
            BottMatrix(C.n, C.rows),
            GeneralBottMatrix(G.n, G.rows),
            BottMatrix.from_lists(C.to_lists()),
            GeneralBottMatrix.from_lists(G.to_lists()),
            BottMatrix.zero(4),
            dataclasses.replace(C, rows=(0,) * 6),
            dataclasses.replace(G, n=2, rows=(0, 1)),
            G,
            normalize(G)[1],
            row_pair_matrix(C, 2, 4),
            delete_leading(C, 2),
            orientable_not_spin_family(7),
        ]
        for M in built:
            assert "_columns" in M.__dict__, M
            cols = tuple(sum(bit << i for i, bit in enumerate(col)) for col in zip(*M.to_lists()))
            assert M.__dict__["_columns"] == cols and M.columns() is M.__dict__["_columns"]

    @pytest.mark.parametrize("cls", [BottMatrix, GeneralBottMatrix])
    @pytest.mark.parametrize("n, rows, error", [
        # equal to an int dimension or mask, but neither one
        (True, (0,), NonSquare),
        (2.0, (2, 0), NonSquare),
        (2, (2.0, 0), NonBinary),
        (2, (0, False), NonBinary),
    ])
    def test_non_int_dimension_and_rows(self, cls, n, rows, error):
        with pytest.raises(error):
            cls(n, rows)

    @pytest.mark.parametrize("cls", [BottMatrix, GeneralBottMatrix])
    @pytest.mark.parametrize("rows", [5, None])
    def test_non_iterable_rows(self, cls, rows):
        with pytest.raises(NonSquare, match="rows must be iterable"):
            cls(2, rows)

    @pytest.mark.parametrize("n, index", [(True, 0), (2, True), (2.0, 1), (2, 1.0)])
    def test_index_decoder_takes_ints(self, n, index):
        with pytest.raises(NonSquare, match="must be ints"):
            matrix_from_index(n, index)

    @pytest.mark.parametrize("sigma", [5, None])
    def test_non_iterable_permutation(self, sigma):
        with pytest.raises(BottError, match="sigma must be iterable"):
            Permutation(sigma)

    def test_from_lists_non_iterable_grid(self):
        with pytest.raises(NonSquare, match="grid must be iterable"):
            BottMatrix.from_lists(None)

    def test_from_lists_non_iterable_row(self):
        with pytest.raises(NonBinary, match="row must be iterable"):
            BottMatrix.from_lists([5, 0])

    @pytest.mark.parametrize("grid", [[[0, 1.0], [0, 0]], [[0, True], [False, 0]]])
    def test_from_lists_entries_are_ints(self, grid):
        # refused as matrix_from_json refuses JSON 1.0 and true
        with pytest.raises(NonBinary):
            BottMatrix.from_lists(grid)

    @pytest.mark.parametrize("sigma", [(2.0, 1.0), (True,), (1, 2.0), (2, True)])
    def test_permutation_entries_are_ints(self, sigma):
        # equal to a bijection's entries, but they cannot index a row
        with pytest.raises(BottError):
            Permutation(sigma)

    def test_permutation_validation(self):
        with pytest.raises(BottError):
            Permutation((1, 1, 3))
        p = Permutation((2, 3, 1))
        assert p.inverse()(2) == 1
        assert Permutation.identity(3)(2) == 2


class TestNormalize:
    def test_identity_on_upper_triangular(self):
        m = parse_matrix("0 1\n0 0")
        sigma, C = normalize(m)
        assert sigma.sigma == (1, 2)
        assert C.rows == m.rows

    def test_forced_swap(self):
        m = parse_matrix("0 0\n1 0")
        sigma, C = normalize(m)
        assert sigma.sigma == (2, 1)
        assert C.entry(1, 2) == 1

    def test_round_trip_random(self, rng):
        for _ in range(300):
            n = rng.randint(1, 8)
            C = random_bott(rng, n)
            sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            B = conjugate(C, sigma)
            sigma2, C2 = normalize(B)
            assert conjugate(C2, sigma2).rows == B.rows

    def test_round_trip_exhaustive_small(self):
        # every acyclic matrix with n <= 5, generated as sigma-conjugates
        # of all upper triangular ones and deduplicated
        for n in range(1, 6):
            seen = set()
            uppers = [
                BottMatrix(n, rows)
                for rows in itertools.product(
                    *[
                        [m << (i + 1) for m in range(1 << (n - i - 1))]
                        for i in range(n)
                    ]
                )
            ]
            for perm in itertools.permutations(range(1, n + 1)):
                sigma = Permutation(perm)
                for C in uppers:
                    B = conjugate(C, sigma)
                    if B.rows in seen:
                        continue
                    seen.add(B.rows)
                    sigma2, C2 = normalize(B)
                    assert conjugate(C2, sigma2).rows == B.rows
            # sanity: count of labelled DAGs on n vertices
            assert len(seen) == {1: 1, 2: 3, 3: 25, 4: 543, 5: 29281}[n]

    def test_relabelling_matches_definitions(self):
        # checked entry by entry, not one operation against the other
        rng = random.Random(17)
        for n in range(1, 6):
            for C in enumerate_all(n):
                sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
                G = conjugate(C, sigma)
                _assert_conjugate(C, sigma, G)
                for B in (C, G):
                    _assert_normal_form(B, *normalize(B))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_conjugation_property(self, data, n):
        C = matrix_from_index(n, data.draw(st.integers(0, index_space(n) - 1)))
        sigma = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
        G = conjugate(C, sigma)
        _assert_conjugate(C, sigma, G)
        _assert_normal_form(G, *normalize(G))
        v = is_spin(C)
        for w in (is_spin(G), digraph_spin(build_digraph(G))):
            assert (w.orientable, w.spin) == (v.orientable, v.spin)

    def test_ties_broken_by_smallest_index(self):
        # vertices 1 and 2 both sources; 1 must come first
        m = GeneralBottMatrix(3, (4, 4, 0))  # edges 1->3, 2->3
        sigma, _ = normalize(m)
        assert sigma.sigma == (1, 2, 3)


def _heap_kahn(n, rows):
    """The heap-based Kahn sort that `_topological_order` replaced, kept as
    its reference: edge i -> j iff bit j of rows[i], the smallest ready
    vertex first; None when a cycle leaves vertices unsorted."""
    indeg = [sum((row >> j) & 1 for row in rows) for j in range(n)]
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in range(n):
            if (rows[i] >> j) & 1:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(ready, j)
    return order if len(order) == n else None


def _in_masks(n, rows):
    return tuple(sum(((rows[i] >> j) & 1) << i for i in range(n)) for j in range(n))


class TestTopologicalOrder:
    def test_every_small_grid(self):
        # every zero-diagonal 0/1 grid with n <= 4, cyclic ones included
        for n in range(1, 5):
            off = [(i, j) for i in range(n) for j in range(n) if i != j]
            cyclic = 0
            for bits in range(1 << len(off)):
                rows = [0] * n
                for t, (i, j) in enumerate(off):
                    rows[i] |= ((bits >> t) & 1) << j
                rows = tuple(rows)
                expected = _heap_kahn(n, rows)
                assert _topological_order(_in_masks(n, rows)) == expected, rows
                assert _acyclic(_in_masks(n, rows)) == (expected is not None), rows
                if expected is None:
                    cyclic += 1
                    with pytest.raises(CyclicDigraph):
                        GeneralBottMatrix(n, rows)
                else:
                    assert GeneralBottMatrix(n, rows).rows == rows
            # labelled DAGs on n vertices, the rest of the 2^(n(n-1)) grids cyclic
            assert (1 << len(off)) - cyclic == {1: 1, 2: 3, 3: 25, 4: 543}[n]

    def test_conjugates_of_every_small_matrix(self):
        rng = random.Random(23)
        for n in range(1, 6):
            for C in enumerate_all(n):
                G = conjugate(C, Permutation(tuple(rng.sample(range(1, n + 1), n))))
                for M in (C, G):
                    expected = _heap_kahn(n, M.rows)
                    assert _topological_order(M.columns()) == expected
                    assert _acyclic(M.columns()) == (expected is not None)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_matches_heap_kahn(self, data, n):
        # a random conjugate, with a few edges flipped so that some are cyclic
        C = matrix_from_index(n, data.draw(st.integers(0, index_space(n) - 1)))
        sigma = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
        rows = list(conjugate(C, sigma).rows)
        if n > 1:
            pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2))
            for i, j in data.draw(st.lists(pair, max_size=3)):
                rows[i] ^= 1 << (j + (j >= i))  # j skips the diagonal
        rows = tuple(rows)
        expected = _heap_kahn(n, rows)
        assert _topological_order(_in_masks(n, rows)) == expected
        assert _acyclic(_in_masks(n, rows)) == (expected is not None)

    @pytest.mark.parametrize("n", [20, 64, 100])
    def test_deep_walks(self, n):
        # a Hamiltonian cycle, the full strictly upper triangle, that triangle
        # with one path edge k -> k+1 reversed (still acyclic: it is the only
        # path from k to k+1) and with its longest edge 1 -> n reversed (a
        # cycle through every vertex), each relabelled: the walk goes n deep,
        # and the constructors take n up to MAX_BUILD_N, far past the parse cap
        rng = random.Random(n)
        full = tuple(((1 << n) - 1) ^ ((2 << i) - 1) for i in range(n))

        def reverse(i, j):
            rows = list(full)
            rows[i] ^= 1 << j
            rows[j] ^= 1 << i
            return tuple(rows)

        k = rng.randrange(n - 1)
        shapes = [tuple(1 << (i + 1) % n for i in range(n)), full,
                  reverse(k, k + 1), reverse(0, n - 1)]
        for shape in shapes:
            rows = matrix._relabel(shape, rng.sample(range(n), n))
            expected = _reference_construct(n, rows, GeneralBottMatrix)
            assert _packed(GeneralBottMatrix, n, rows) == expected
            if n <= MAX_SINGLE_N:
                text = "\n".join(" ".join(str(row >> j & 1) for j in range(n)) for row in rows)
                assert _packed(parse_matrix, text) == _reference_construct(n, rows)
        assert [_heap_kahn(n, shape) is None for shape in shapes] == [True, False, False, True]


def _assert_conjugate(C, sigma, G):
    """Entry (sigma(i), sigma(j)) of G is c_ij."""
    c, g, s = C.to_lists(), G.to_lists(), sigma.sigma
    for i in range(C.n):
        for j in range(C.n):
            assert g[s[i] - 1][s[j] - 1] == c[i][j], (C, sigma)


def _assert_normal_form(B, tau, C):
    """C is strictly upper triangular and b_{tau(i),tau(j)} = c_ij."""
    assert type(C) is BottMatrix
    assert all(row & ((2 << i) - 1) == 0 for i, row in enumerate(C.rows))
    _assert_conjugate(C, tau, B)


class TestSubmatrices:
    def test_row_pair_zero(self):
        z = BottMatrix.zero(4)
        assert row_pair_matrix(z, 1, 3).rows == (0, 0, 0, 0)

    def test_row_pair_keeps_two_rows(self):
        m = load_fixture("digraph_c")
        pair = row_pair_matrix(m, 1, 2)
        assert pair.rows[0] == m.rows[0]
        assert pair.rows[1] == m.rows[1]
        assert pair.rows[2] == pair.rows[3] == pair.rows[4] == 0

    def test_row_pair_last_pair_single_entry(self, rng):
        for _ in range(20):
            m = random_bott(rng, 6)
            pair = row_pair_matrix(m, 5, 6)
            # triangularity leaves at most the (5,6) entry
            assert pair.rows[4] in (0, 1 << 5)
            assert all(r == 0 for i, r in enumerate(pair.rows) if i != 4)

    def test_row_pair_bad_indices(self):
        z = BottMatrix.zero(3)
        with pytest.raises(IndexOutOfRange):
            row_pair_matrix(z, 2, 2)
        with pytest.raises(IndexOutOfRange):
            row_pair_matrix(z, 0, 2)

    def test_delete_leading_identity(self):
        m = load_fixture("digraph_c")
        assert delete_leading(m, 0) == m

    def test_delete_leading_family(self):
        m = orientable_not_spin_family(5)
        sub = delete_leading(m, 2)
        assert sub.n == 3
        assert sub.entry(1, 2) == 1 and sub.entry(1, 3) == 1
        assert sub.rows[1] == sub.rows[2] == 0

    def test_delete_leading_to_point(self):
        m = load_fixture("digraph_c")
        assert delete_leading(m, 4) == BottMatrix(1, (0,))
        with pytest.raises(IndexOutOfRange):
            delete_leading(m, 5)

    def test_submatrices_stay_valid(self, rng):
        for _ in range(100):
            m = random_bott(rng, rng.randint(2, 8))
            j = rng.randint(1, m.n - 1)
            k = rng.randint(j + 1, m.n)
            row_pair_matrix(m, j, k)  # constructor validates triangularity
            delete_leading(m, rng.randrange(m.n))

    def test_general_input_keeps_its_class(self, rng):
        for _ in range(50):
            n = rng.randint(2, 7)
            C = random_bott(rng, n)
            G = conjugate(C, Permutation(tuple(rng.sample(range(1, n + 1), n))))
            grid = G.to_lists()
            j = rng.randint(1, n - 1)
            k = rng.randint(j + 1, n)
            d = rng.randrange(n)
            pair = [row if i in (j - 1, k - 1) else [0] * n for i, row in enumerate(grid)]
            for sub, expected in [
                (row_pair_matrix(G, j, k), pair),
                (delete_leading(G, d), [row[d:] for row in grid[d:]]),
            ]:
                assert type(sub) is GeneralBottMatrix
                assert sub.to_lists() == expected
