"""Bott matrices and their permutation-conjugate relatives.

A Bott matrix is a strictly upper triangular binary n-by-n matrix.  The
general form drops triangularity and instead requires a zero diagonal and
an acyclic digraph; every such matrix is a permutation conjugate of a
strictly upper triangular one.

Rows are stored as int bitmasks: ``rows[i]`` has bit ``j`` set iff the
1-based entry ``c_{i+1,j+1}`` is 1.  All public methods and functions
speak 1-based indices; the 0-based masks are an internal convention that
the cohomology and digraph modules share.

The n(n-1)/2 free entries of a Bott matrix pack row-major into an integer
index (bit 0 is entry (1,2), then (1,3), ...): `matrix_index` encodes,
`matrix_from_index` decodes.

Every matrix is checked in one packed word: entry (i, j), 0-based, is
bit ``i*m + j``, m the smallest power of two >= n.  One AND with a mask
tests the triangle, one the diagonal, and a word transpose gives the
columns (`_check_word`).  The text parser reads a grid's bytes straight
into that word and the other constructors pack their rows into it, so
every matrix comes with ``columns()`` filled, read off in m-bit lanes; one
decoded from its index, by ORing words of `_decode_tables`, needs no check.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, TextIO, Union

from .errors import (
    BottError,
    CyclicDigraph,
    DiagonalNonzero,
    DimensionTooLarge,
    IndexOutOfRange,
    NonBinary,
    NonSquare,
)

#: Guard for parsed input.  Single-matrix checks stay cheap well beyond
#: this, but monomial masks and pair scans are tuned for small n.
MAX_SINGLE_N = 20
#: Most rows a build makes: `_word_tables` grows as n^2 (0.2 s at n = 1024).
MAX_BUILD_N = 1024


@dataclass(frozen=True)
class GeneralBottMatrix:
    """Binary matrix with zero diagonal whose digraph is acyclic, rows as
    bitmasks.  `_triangular` says whether the class refuses every entry
    below the diagonal or only a cycle."""

    _triangular = False
    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n, rows = self.n, tuple(_iterate(self.rows, NonSquare, "rows"))
        _check_dimension(n)
        if len(rows) != n:
            raise NonSquare(f"expected {_shown(n)} rows, got {len(rows)}")
        if n > MAX_BUILD_N:
            _check_size(n)
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            # 2.0 and True compare equal to 2 and 1 but are not masks
            if type(row) is not int:
                raise NonBinary(f"row {i + 1} is {row!r}, not an int bitmask")
            if row & ~full:
                raise NonSquare(f"row {i + 1} has entries beyond column {n}")
        m = 1 << (n - 1).bit_length()
        x = sum(row << i * m for i, row in enumerate(rows))
        self.__dict__.update(rows=rows, _columns=_check_word(x, n, m, self._triangular)[1])

    @classmethod
    def from_lists(cls, grid: Iterable[Iterable[int]]):
        rows = _grid_masks(grid)
        return cls(len(rows), rows)

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...], columns: tuple[int, ...]):
        """No checks: `rows` must be a tuple of n >= 1 masks that pass the
        class's checks, and `columns` their transpose."""
        self = object.__new__(cls)
        d = self.__dict__
        d["n"], d["rows"], d["_columns"] = n, rows, columns
        return self

    def entry(self, i: int, j: int) -> int:
        """Entry c_{i,j}, 1-based."""
        _check_index(i, self.n)
        _check_index(j, self.n)
        return (self.rows[i - 1] >> (j - 1)) & 1

    def columns(self) -> tuple[int, ...]:
        """Column masks, 0-based: bit i of entry j is set iff c_{i+1,j+1} = 1,
        i.e. the in-neighbours of vertex j.  Every construction stores them
        in the instance ``__dict__``, outside the dataclass fields, so
        equality, hashing and repr never see them: the constructors and the
        parsers from their word transpose, the index decoder from its
        tables.  Every spin route and the ring read this one tuple.
        """
        return self._columns

    def to_lists(self) -> list[list[int]]:
        return [[(row >> j) & 1 for j in range(self.n)] for row in self.rows]

    def to_text(self) -> str:
        return "\n".join(
            " ".join(str((row >> j) & 1) for j in range(self.n))
            for row in self.rows
        )

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rows": self.to_lists()}


class BottMatrix(GeneralBottMatrix):
    """Strictly upper triangular binary matrix: a general one, whose digraph
    is acyclic and whose diagonal is zero, by construction."""

    _triangular = True

    @classmethod
    def zero(cls, n: int) -> "BottMatrix":
        _check_size(n)
        return cls(n, (0,) * n)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n}; ``sigma[i-1]`` is the image of i."""

    sigma: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(_iterate(self.sigma, BottError, "sigma")))
        n = len(self.sigma)
        # 2.0 and True compare equal to 2 and 1 but cannot index a row
        ints = all(type(v) is int for v in self.sigma)
        if not ints or sorted(self.sigma) != list(range(1, n + 1)):
            raise BottError(f"not a bijection on 1..{n}: {_shown(self.sigma)}")

    @property
    def n(self) -> int:
        return len(self.sigma)

    def __call__(self, i: int) -> int:
        _check_index(i, self.n)
        return self.sigma[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.sigma, 1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _check_size(n)
        return cls(tuple(range(1, n + 1)))


def _shown(x) -> str:
    """repr(x) for a refusal message; an int too long for str() (see
    sys.get_int_max_str_digits()), alone or in a tuple, shows its bit length."""
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, tuple):
            return f"({', '.join(map(_shown, x))})"
        return f"<{'negative ' * (x < 0)}int of {x.bit_length()} bits>"


def _iterate(items, error: type[BottError], what: str):
    """iter(items), a non-iterable refused as `error`, not a bare TypeError."""
    try:
        return iter(items)
    except TypeError:
        raise error(f"{what} must be iterable, got {_shown(items)}") from None


def _check_dimension(n: int, capped: str | None = None) -> None:
    """Refuse n unless it is an int >= 1 and, when `capped` prefixes the
    reason the size is bounded, at most MAX_SINGLE_N.  This check and the
    four below refuse every argument that is not an int."""
    # 2.0 and True compare equal to 2 and 1 but are not dimensions or indices
    if type(n) is not int:
        raise NonSquare(f"dimension must be an int, got {n!r}")
    if n < 1:
        raise NonSquare(f"dimension must be >= 1, got {_shown(n)}")
    if capped is not None and n > MAX_SINGLE_N:
        raise DimensionTooLarge(f"{capped}n={_shown(n)} exceeds the cap {MAX_SINGLE_N}")


def _check_size(n: int) -> None:
    """`_check_dimension(n)`, then refuse n above MAX_BUILD_N before n rows are built."""
    _check_dimension(n)
    if n > MAX_BUILD_N:
        raise DimensionTooLarge(f"building: n={_shown(n)} exceeds the cap {MAX_BUILD_N}")


def _check_int(x: int, what: str) -> None:
    """Refuse a non-int (bool included), and a negative int."""
    if type(x) is not int:
        raise IndexOutOfRange(f"{what} must be an int, got {x!r}")
    if x < 0:
        raise IndexOutOfRange(f"{what} {_shown(x)} is negative")


def _check_index(i: int, n: int, what: str = "index") -> None:
    if type(i) is not int or not 1 <= i <= n:
        raise IndexOutOfRange(f"{what} {_shown(i)} outside 1..{n}")


def _check_pair(j: int, k: int, n: int) -> None:
    if type(j) is not int or type(k) is not int or not 1 <= j < k <= n:
        raise IndexOutOfRange(f"need 1 <= j < k <= {n}, got ({_shown(j)},{_shown(k)})")


def _require_triangular(C, needs: str) -> None:
    """Refuse a general matrix: only a triangular one has what `needs` names."""
    if not isinstance(C, BottMatrix):
        raise BottError(f"{needs} a strictly upper triangular matrix; "
                        "normalize the general one first")


def _grid_masks(grid: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """Row masks of a grid of n rows of n entries, each the int 0 or 1.
    Rows are checked in order, each for its width, then its entries."""
    grid = list(_iterate(grid, NonSquare, "grid"))
    masks = []
    for i, row in enumerate(grid, 1):
        row = list(_iterate(row, NonBinary, "a row"))
        if len(row) != len(grid):
            raise NonSquare(f"row {i} has {len(row)} entries, expected {len(grid)}")
        mask = 0
        for j, v in enumerate(row):
            # 1.0 and True compare equal to 1 but are not entries
            if type(v) is not int or v not in (0, 1):
                raise NonBinary(f"row {i}: entry {_shown(v)} is not 0/1")
            mask |= v << j
        masks.append(mask)
    return tuple(masks)


def _acyclic(cols: tuple[int, ...]) -> bool:
    """Whether the digraph with a zero diagonal whose in-neighbour masks are
    `cols` (a matrix's `columns()`) has no directed cycle.  A depth-first
    walk along the reversed edges, which close the same cycles, with an
    explicit stack of the frames it will return to: every back edge out of
    a vertex ends on the path that first reaches it, so one test per vertex
    finds a cycle in about 2n steps."""
    unseen = (1 << len(cols)) - 1
    while unseen:
        path = unseen & -unseen  # a new root
        unseen ^= path
        ins = cols[path.bit_length() - 1]
        stack = []
        while True:
            rest = ins & unseen
            if rest:
                low = rest & -rest
                c = cols[low.bit_length() - 1]
                if c & path:
                    return False
                unseen ^= low
                if c & unseen:  # else nothing is left to visit from it
                    stack.append((path, ins))
                    path |= low
                    ins = c
            elif stack:
                path, ins = stack.pop()
            else:
                break
    return True


def _topological_order(cols: tuple[int, ...]) -> list[int] | None:
    """Topological order, 0-based, of the digraph whose in-neighbour masks
    are `cols` (a matrix's `columns()`); None on a cycle.  Each step
    peels the smallest remaining vertex with no remaining in-neighbour, the
    vertex a Kahn sort with a min-heap of ready vertices would pop, so
    `normalize`, its one caller, picks a deterministic sigma."""
    left = (1 << len(cols)) - 1
    order: list[int] = []
    while left:
        rest = left
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if not cols[v] & left:
                break
            rest ^= low
        else:
            return None
        order.append(v)
        left ^= low
    return order


#: What str.split() splits on but str.splitlines() does not break at.
_DROP_INLINE_SPACE = str.maketrans("", "", "\t\x1f \xa0\u1680\u2000\u2001\u2002\u2003\u2004"
                                   "\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000")
#: The same split in bytes: drop those spaces, make LF of the breaks bytes.split() misses.
_ASCII_SPACE = {**_DROP_INLINE_SPACE, 0x85: "\n", 0x2028: "\n", 0x2029: "\n"}
_INLINE_BYTES, _BREAKS = b"\t\x1f ", bytes.maketrans(b"\x1c\x1d\x1e", b"\n\n\n")


def parse_matrix(text: str) -> GeneralBottMatrix:
    """Parse a 0/1 grid into a BottMatrix, or a GeneralBottMatrix when the
    grid is not upper triangular but still has zero diagonal and an acyclic
    digraph.

    Each line is one row: its non-whitespace characters, read left to right,
    are the entries, so "0 1 1 0", "0110" and "01 10" are the same row.
    Blank lines and lines whose first non-space character is '#' are
    ignored.  Errors are reported in this order: the first bad character of
    the first bad line, ragged rows, a non-square grid, n above MAX_SINGLE_N.

    It reads the text as UTF-8 bytes (a non-ASCII character that is not a
    space is bad outside a comment), splits them at line breaks, checks all
    rows at once in the packed word and walks the lines only to name a fault.
    """
    data = (text.encode() if text.isascii()
            else text.translate(_ASCII_SPACE).encode("utf-8", "surrogatepass"))
    grid = data.translate(_BREAKS, _INLINE_BYTES).split()
    if b"#" in data:
        grid = [bits for bits in grid if not bits.startswith(b"#")]
    n = len(grid[0]) if grid else 0
    m = 1 << (n - 1).bit_length()
    # only a square grid is padded: a ragged one could make m * len(grid) huge
    square = len(grid) == n and len(set(map(len, grid))) == 1
    word = (b"0" * (m - n)).join(grid) if square else b"".join(grid)
    # int(_, 2) alone would also take "_", "+" and "-"
    if word.translate(None, b"01"):
        for lineno, line in enumerate(text.splitlines(), 1):
            bits = line.translate(_DROP_INLINE_SPACE)
            bad = bits.lstrip("01")
            if bad and bits[0] != "#":
                raise NonBinary(f"line {lineno}: bad character {bad[0]!r}")
    if not grid:
        raise NonSquare("no matrix rows found")
    if not square:
        for i, bits in enumerate(grid, 1):
            if len(bits) != n:
                raise NonSquare(f"row {i} has {len(bits)} entries, expected {n}")
        raise NonSquare(f"{len(grid)} rows of width {n}: matrix is not square")
    return _matrix_from_word(int(word[::-1], 2), n, m)


def matrix_from_json(data: Union[str, dict]) -> GeneralBottMatrix:
    """Build a matrix from ``{"n": int, "rows": [[0,1,...], ...]}``, n <= MAX_SINGLE_N."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, or a too-long int
            raise NonSquare(f"bad JSON matrix: {exc}") from exc
    if not isinstance(data, dict) or "rows" not in data:
        raise NonSquare('JSON matrix needs an object with "n" and "rows"')
    rows = data["rows"]
    seq = (list, tuple)
    if not isinstance(rows, seq) or not all(isinstance(row, seq) for row in rows):
        raise NonSquare('"rows" must be a list of lists')
    n = data.get("n", len(rows))
    if type(n) is not int:
        raise NonSquare(f'"n" must be an integer, got {n!r}')
    if n != len(rows):
        raise NonSquare(f'"n" is {_shown(n)} but {len(rows)} rows given')
    _check_dimension(n)
    masks = _grid_masks(rows)
    m = 1 << (n - 1).bit_length()
    return _matrix_from_word(sum(row << i * m for i, row in enumerate(masks)), n, m)


def load_matrix(path) -> GeneralBottMatrix:
    """Read a matrix file, JSON or text grid (auto-detected)."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read_stream(fh, path)


def _read_stream(fh: TextIO, name) -> GeneralBottMatrix:
    """Read a text stream to the end and parse it as JSON when it starts
    with '{', else as a text grid; a decoding error becomes NonBinary."""
    try:
        text = fh.read()
    except UnicodeDecodeError as exc:
        raise NonBinary(f"{name}: not UTF-8 text: {exc}") from exc
    if text.lstrip().startswith("{"):
        return matrix_from_json(text)
    return parse_matrix(text)


@lru_cache(maxsize=8)
def _word_tables(m: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """Masks over an m-by-m word: the lower triangle with the diagonal, the
    diagonal, and (shift, mask) for each transpose step, which swaps entry
    (i, j) with (i + b, j - b) where bit b is set in j but not in i
    (Hacker's Delight, "transposing a bit matrix").  The masks span all m
    rows: on its way an entry can pass through rows n..m-1."""
    lower = sum(((2 << i) - 1) << i * m for i in range(m))
    diagonal = sum(1 << i * (m + 1) for i in range(m))
    steps = []
    b = m >> 1
    while b:
        in_row = sum(1 << j for j in range(m) if j & b)
        steps.append((b * (m - 1), in_row * sum(1 << i * m for i in range(m) if not i & b)))
        b >>= 1
    return lower, diagonal, tuple(steps)


@lru_cache(maxsize=64)
def _unpack_lanes(k: int, m: int):
    return struct.Struct("<%d%s" % (k, {8: "B", 16: "H", 32: "I", 64: "Q"}[m])).unpack


def _lanes(x: int, k: int, m: int) -> tuple[int, ...]:
    """The k lowest m-bit lanes of `x`, lane 0 first: its little-endian bytes
    read as `struct` ints at m = 8, 16, 32, 64, else by shifts."""
    if m in (8, 16, 32, 64):
        return _unpack_lanes(k, m)(x.to_bytes(k * m // 8, "little"))
    full = (1 << m) - 1
    return tuple([(x >> s) & full for s in range(0, k * m, m)])


def _check_word(x: int, n: int, m: int, triangular: bool) -> tuple[bool, tuple[int, ...]]:
    """Check the matrix whose entry (i, j) is bit i*m + j of `x`, each of the
    n rows an m-bit lane with nothing beyond column n, against the rules of a
    BottMatrix when `triangular` is set, else of a GeneralBottMatrix: the
    triangle, then the diagonal, then, on the columns and only when an
    entry lies below the diagonal, a walk for a cycle (`_acyclic`).
    Return whether it is upper triangular, and its columns."""
    lower, diagonal, steps = _word_tables(m)
    low = x & lower
    if triangular and low:
        # the first bad row and its highest bad column
        i = ((low & -low).bit_length() - 1) // m
        j = ((low >> i * m) & ((1 << m) - 1)).bit_length()
        raise DiagonalNonzero(f"entry ({i + 1},{j}) is on or below the diagonal")
    bad = x & diagonal
    if bad:
        i = ((bad & -bad).bit_length() - 1) // (m + 1)
        raise DiagonalNonzero(f"diagonal entry ({i + 1},{i + 1}) is 1")
    for s, mask in steps:
        t = (x ^ (x >> s)) & mask
        x ^= t ^ (t << s)
    cols = _lanes(x, n, m)
    if low and not _acyclic(cols):
        raise CyclicDigraph("matrix digraph contains a directed cycle")
    return not low, cols


def _matrix_from_word(x: int, n: int, m: int) -> GeneralBottMatrix:
    """The matrix whose entry (i, j) is bit i*m + j of `x`, each of the n
    rows an m-bit lane with nothing beyond column n; both readers end here,
    so it refuses n > MAX_SINGLE_N (`_check_dimension` is called only to raise)."""
    if n > MAX_SINGLE_N:
        _check_dimension(n, "parsing: ")
    upper, cols = _check_word(x, n, m, False)
    return (BottMatrix if upper else GeneralBottMatrix)._trusted(n, _lanes(x, n, m), cols)


@lru_cache(maxsize=8)
def _decode_tables(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Lane width m, max(8, the power of two >= n), and per byte of a packed
    index the words of its 2^8 values (fewer in a partial last byte), rows
    in m-bit lanes 0..n-1, columns in lanes n..2n-1; built by doubling per
    index bit.  About 1.1 MiB at n = 20, 4.6 MiB for n = 13..20."""
    m = max(8, 1 << (n - 1).bit_length())
    bits = [(1 << i * m + j) | (1 << (n + j) * m + i) for i in range(n) for j in range(i + 1, n)]
    tables = []
    for lo in range(0, len(bits), 8):
        table = [0]
        for bit in bits[lo:lo + 8]:
            table += [word | bit for word in table]
        tables.append(tuple(table))
    return m, tuple(tables)


def index_space(n: int) -> int:
    _check_size(n)
    return 1 << (n * (n - 1) // 2)


def matrix_from_index(n: int, index: int) -> BottMatrix:
    """The matrix packed as `index` in range(index_space(n)), for 1 <= n <=
    MAX_SINGLE_N, with `columns()` filled: one table word per index byte.
    `_check_dimension` is called only to raise; 8-bit lanes are read inline."""
    # 2.0 and True compare equal to 2 and 1 but are not a dimension or an index
    if type(n) is not int or type(index) is not int:
        raise NonSquare(f"dimension and index must be ints, got {_shown(n)} and {_shown(index)}")
    if not 1 <= n <= MAX_SINGLE_N:
        _check_dimension(n, "decoding: ")
    free = n * (n - 1) // 2
    if index < 0 or index >> free:
        raise IndexOutOfRange(f"index {_shown(index)} outside 0..2^{free}-1")
    m, tables = _decode_tables(n)
    x = 0
    for table, byte in zip(tables, index.to_bytes(len(tables), "little")):
        x |= table[byte]
    lanes = tuple(x.to_bytes(2 * n, "little")) if m == 8 else _lanes(x, 2 * n, m)
    return BottMatrix._trusted(n, lanes[:n], lanes[n:])


def matrix_index(C: BottMatrix) -> int:
    """Inverse of `matrix_from_index`; only strictly upper triangular
    matrices have an index."""
    _require_triangular(C, "a packed index needs")
    index = 0
    for i in reversed(range(C.n)):
        index = (index << (C.n - 1 - i)) | (C.rows[i] >> (i + 1))
    return index


def normalize(B: GeneralBottMatrix) -> tuple[Permutation, BottMatrix]:
    """Return (sigma, C) with ``b_{sigma(i),sigma(j)} = c_{i,j}`` and C
    strictly upper triangular.

    sigma comes from a topological sort of the digraph of B, ties broken
    by smallest original index, so the result is deterministic.
    """
    order = _topological_order(B.columns())  # not None: B was validated acyclic
    sigma = Permutation(tuple(v + 1 for v in order))
    return sigma, BottMatrix(B.n, _relabel(B.rows, [i - 1 for i in sigma.inverse().sigma]))


def conjugate(C: GeneralBottMatrix, sigma: Permutation) -> GeneralBottMatrix:
    """Conjugate by sigma: entry (sigma(i), sigma(j)) of the result equals
    entry (i, j) of C."""
    if sigma.n != C.n:
        raise IndexOutOfRange(f"permutation on 1..{sigma.n} vs matrix n={C.n}")
    return GeneralBottMatrix(C.n, _relabel(C.rows, [v - 1 for v in sigma.sigma]))


def _relabel(rows: tuple[int, ...], new: list[int]) -> tuple[int, ...]:
    """Rows of the matrix whose entry (new[i], new[j]) is entry (i, j) of
    `rows`, all 0-based: one step per set bit."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        mask = 0
        while row:
            low = row & -row
            mask |= 1 << new[low.bit_length() - 1]
            row ^= low
        out[new[i]] = mask
    return tuple(out)


def row_pair_matrix(C: GeneralBottMatrix, j: int, k: int) -> GeneralBottMatrix:
    """Matrix with rows j and k copied from C, all other rows zero.  This
    and the submatrix helper below return a matrix of C's class."""
    _check_pair(j, k, C.n)
    rows = [0] * C.n
    rows[j - 1] = C.rows[j - 1]
    rows[k - 1] = C.rows[k - 1]
    return type(C)(C.n, tuple(rows))


def delete_leading(C: GeneralBottMatrix, k: int) -> GeneralBottMatrix:
    """Trailing principal submatrix: drop the first k rows and columns."""
    if type(k) is not int or not 0 <= k < C.n:
        raise IndexOutOfRange(f"need 0 <= k < {C.n}, got {_shown(k)}")
    m = C.n - k
    return type(C)(m, tuple(C.rows[i + k] >> k for i in range(m)))
