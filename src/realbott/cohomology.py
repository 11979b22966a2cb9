"""Mod-2 cohomology of the bundle tower as a square-free monomial algebra.

The ring of an n-dimensional matrix C is generated over GF(2) by degree-one
classes y_1..y_n subject to

    y_i^2 = sum_{j<i, c_{j,i}=1} y_j * y_i .

For i < n this relation falls out of eliminating the first n projective
generators against the linear relations of the face ring; for i = n the
same elimination applies to the top pair: the relations y'_n * y_n = 0 and
y'_n = y_n + sum_{j<n} c_{j,n} y_j multiply out to exactly the rule above
with i = n.  So all n variables reduce uniformly and the 2^n square-free
monomials form the working basis (degree k has C(n,k) of them).

Representation: a *monomial* is an int bitmask, bit i-1 set iff y_i divides
it; square-free by construction, degree = popcount.  A *ring element* is one
dense GF(2) bitset, an int with bit m set iff monomial m is present, so
addition is XOR and pairing with the fundamental class y_1*...*y_n reads bit
2^n - 1.  An element of the n-dimensional ring takes 2^n bits, which bounds
the ring to n <= MAX_SINGLE_N (20, the parse cap): 128 KiB per element.

All SW data come from one product, by the total class w = prod_j (1 + the
sum of column j), through the one rewrite loop `_times` on the columns that
`_ring_columns` checks: the classes are w split by degree, and
a * w_i = (a * w) & degrees[d + i] for a homogeneous of degree d.

Two tables depend on n alone: the lanes that `_times` shifts through and the
degree masks that split the total class.  They are built on first use for
each n and then outlive the call, kept for the life of the process by
`_ring_tables`, a cache of at most 8 sizes.  One entry holds 2n+1 ints of up
to 2^n bits, 5.1 MiB at n = 20 and less than half as much for each size
below, so the cache never holds more than 9.6 MiB.

Reduction is confluent in practice: the tests check that both orders of
`reduce_power_product` agree, and that degree k pairs with degree n-k at
full rank on the monomials (Poincare duality, in the Wu-formula check).  The
default strategy rewrites the highest colliding index first, which
terminates because every substitution replaces an index pair (i,i) by (j,i)
with j < i, strictly lowering the descending-sorted index list
lexicographically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import BadPartition, BottError, DimensionMismatch, IndexOutOfRange
from .matrix import (MAX_SINGLE_N, BottMatrix, _check_dimension, _check_index, _check_int,
                     _iterate, _require_triangular, _shown)


def monomial_str(mask: int) -> str:
    """"y1*y3" style rendering; the empty monomial renders as "1"."""
    _check_int(mask, "monomial mask")
    return _monomial_strs([mask])[0]


def _monomial_strs(masks: list[int]) -> list[str]:
    """monomial_str of each non-negative mask, ten variables at a time: one
    name-table lookup per 10-bit chunk, no loop over the set bits."""
    out = [""] * len(masks)
    top = max(masks, default=0)
    offset = 0
    while top >> offset:
        names = _chunk_names(offset)
        out = [s + names[(m >> offset) & 1023] for s, m in zip(out, masks)]
        offset += 10
    return [s[1:] or "1" for s in out]


@lru_cache(maxsize=4)
def _chunk_names(offset: int) -> tuple[str, ...]:
    """names[c] renders the variables y_{offset+b+1} for the set bits b of
    the 10-bit chunk c, each with a leading '*'.  Built on first use: two
    tables cover every monomial of the ring (n <= 20)."""
    names = [""]
    for b in range(10):
        var = f"*y{offset + b + 1}"
        names += [name + var for name in names]
    return tuple(names)


def _monomials(bits: int) -> Iterator[int]:
    """Masks of the monomials present in a dense element, increasing; one
    scan of the binary string, so large elements cost no per-bit shifts."""
    s = bin(bits)[:1:-1]  # s[m] is bit m
    m = s.find("1")
    while m >= 0:
        yield m
        m = s.find("1", m + 1)


@lru_cache(maxsize=8)
def _ring_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(lanes, degrees) of the n-variable ring, shared by every matrix of
    size n (see the module docstring for the memory bound).

    lanes[k] has bit m set iff bit k of m is clear: a run of 2^k ones at
    each multiple of 2^(k+1) below 2^n, i.e. at each bit of `comb`.
    degrees[d] has bit m set iff m < 2^n has d set bits.
    """
    lanes = [0] * n
    comb = 1
    for k in reversed(range(n)):
        lanes[k] = (comb << (1 << k)) - comb
        comb |= comb << (1 << k)
    degrees = [1] + [0] * n
    for i in range(n):
        for d in range(i + 1, 0, -1):
            degrees[d] |= degrees[d - 1] << (1 << i)
    return tuple(lanes), tuple(degrees)


@dataclass(frozen=True)
class RingElement:
    """GF(2) sum of square-free monomials, kept in normal form as a dense
    bitset: bit m is set iff the monomial with mask m is present.  The repr
    prints the bits in hex, which has no digit limit, unlike decimal."""

    bits: int

    def __post_init__(self) -> None:
        _check_int(self.bits, "ring element bitset")

    def __repr__(self) -> str:
        return f"RingElement(bits={self.bits:#x})"

    @classmethod
    def variable(cls, i: int) -> "RingElement":
        """The generator y_i, 1-based."""
        _check_index(i, MAX_SINGLE_N, "variable index")
        return cls(1 << (1 << (i - 1)))

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "RingElement":
        bits = 0  # XOR-fold: repeated masks cancel
        for m in _iterate(masks, IndexOutOfRange, "masks"):
            if type(m) is not int or not 0 <= m < 1 << MAX_SINGLE_N:
                raise IndexOutOfRange(f"monomial mask {_shown(m)} is not a product of "
                                      f"y1..y{MAX_SINGLE_N}")
            bits ^= 1 << m
        return cls(bits)

    def __xor__(self, other: "RingElement") -> "RingElement":
        return RingElement(self.bits ^ other.bits)

    __add__ = __xor__

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return _monomials(self.bits)

    def is_zero(self) -> bool:
        return not self.bits

    def __str__(self) -> str:
        if not self.bits:
            return "0"
        ordered = sorted(self, key=int.bit_count)  # stable: masks stay increasing
        return "+".join(_monomial_strs(ordered))


def _times(E: int, factors: Iterable[int], keep: int, cols: Sequence[int],
           lanes: Sequence[int]) -> int:
    """E times each `col` of `factors` in turn: the sum of y_{j+1} over its
    bits j, plus 1 when `keep` is -1 (not when it is 0).  The callers check E.

    Walking k downward, X is what still has to be multiplied by y_{k+1}:
    E when bit k of `col` is set, plus what higher variables passed down in
    pending[k].  Monomials of X without y_{k+1} shift into place.  The rest
    meet y_{k+1}^2, and y_{k+1} * m = m * (column k+1's sum) for such m, so
    they pass down to the pending terms of that column's variables, all
    below k.  The map is GF(2)-linear, so merging pending terms is exact and
    one pass of O(n^2) big-int operations finishes each factor.  Only the k
    in `todo`, the bits of `col` and of each column passed down to, can have
    a nonzero X.  They are taken highest first, so clearing pending[k] on
    every read, even when X cancels to 0, leaves it zero for the next `col`.
    """
    pending = [0] * len(cols)
    for col in factors:
        out = E & keep
        if col and E:
            todo = col
            while todo:
                k = todo.bit_length() - 1
                bit = 1 << k  # y_{k+1}'s mask, and the shift that multiplies by it
                todo ^= bit
                X = pending[k] ^ E if col & bit else pending[k]
                pending[k] = 0
                if X:
                    lo = X & lanes[k]
                    out ^= lo << bit
                    if X != lo:
                        hi = X ^ lo
                        c = cols[k]
                        todo |= c
                        while c:
                            pending[(c & -c).bit_length() - 1] ^= hi
                            c &= c - 1
        E = out
    return E


def _product(cols: Sequence[int], a: int, b: int) -> int:
    """a * b: a times each variable of each monomial of b, summed."""
    lanes = _ring_tables(len(cols))[0]
    out = 0
    for m in _monomials(b):
        variables = [1 << k for k in range(m.bit_length()) if (m >> k) & 1]
        out ^= _times(a, variables, 0, cols, lanes)
    return out


def _ring_columns(C: BottMatrix) -> tuple[int, ...]:
    """C's column masks (bit j of cols[i] is entry (j+1, i+1)) once C is
    strictly upper triangular, as the ring reads each column above the
    diagonal only, and n is within the cap on 2^n-bit elements."""
    _require_triangular(C, "classes need")
    _check_dimension(C.n, "ring elements take 2^n bits; ")
    return C.columns()


def _check_element(C: BottMatrix, bits: int) -> None:
    if bits >> (1 << C.n):
        m = bits.bit_length() - 1
        raise DimensionMismatch(f"monomial {monomial_str(m)} uses variables beyond y{C.n}")


def reduce_square(C: BottMatrix, i: int) -> RingElement:
    """Normal form of y_i^2: the sum of y_j*y_i over every row j with a 1 in
    column i (only j < i on a BottMatrix).  Valid for every i up to n (see
    the module docstring for the top-variable case)."""
    _check_index(i, C.n)
    col = C.columns()[i - 1]
    bit = 1 << (i - 1)
    return RingElement.from_masks(
        (1 << j) | bit for j in range(C.n) if (col >> j) & 1
    )


def multiply(C: BottMatrix, a: RingElement, b: RingElement) -> RingElement:
    """Product in the quotient ring, in normal form."""
    cols = _ring_columns(C)
    _check_element(C, a.bits)
    _check_element(C, b.bits)
    return RingElement(_product(cols, a.bits, b.bits))


def reduce_power_product(
    C: BottMatrix, indices: Sequence[int], order: str = "highest"
) -> RingElement:
    """Normal form of a product of generators given as a 1-based index
    multiset (repeats allowed).

    `order` picks which colliding index each rewriting step eliminates
    ("highest" or "lowest"); both strategies must agree, and tests certify
    that they do.  This is the plain transcription of the rewrite system,
    kept separate from the dense path so the two can check each other.
    """
    if order not in ("highest", "lowest"):
        raise BottError(f"order must be 'highest' or 'lowest', got {order!r}")
    indices = tuple(_iterate(indices, IndexOutOfRange, "indices"))
    for i in indices:
        _check_index(i, C.n)
    cols = C.columns()
    out: set[tuple[int, ...]] = set()
    stack: list[tuple[int, ...]] = [tuple(sorted(i - 1 for i in indices))]
    while stack:
        mono = stack.pop()
        dups = [i for i, g in itertools.groupby(mono) if len(list(g)) >= 2]
        if not dups:
            out ^= {mono}
            continue
        i = max(dups) if order == "highest" else min(dups)
        rest = list(mono)
        rest.remove(i)
        rest.remove(i)
        col = cols[i]
        while col:
            j = (col & -col).bit_length() - 1
            stack.append(tuple(sorted(rest + [j, i])))
            col &= col - 1
    return RingElement.from_masks(sum(1 << i for i in mono) for mono in out)


@dataclass(frozen=True)
class SWProfile:
    """All Stiefel-Whitney data of one matrix: the total class as one dense
    element, and derived from it the graded classes w_0..w_n and the
    orientable/spin flags.  The SW numbers (on demand) come from one walk
    of the partition tree.

    The matrix is the one input: the constructor checks that it is
    triangular and within the ring's cap, then computes `total` and stores
    the flags: orientable (w_1 = 0) and spin (w_2 = 0 when orientable, None
    otherwise)."""

    matrix: BottMatrix
    total: int = field(init=False, repr=False)  # 2^n bits: too long for a decimal repr

    def __post_init__(self) -> None:
        cols = _ring_columns(self.matrix)  # before any table of that n is built
        n = self.matrix.n
        lanes, degrees = _ring_tables(n)
        d = self.__dict__
        d["total"] = total = _times(1, cols, -1, cols, lanes)
        d["orientable"] = orientable = not total & degrees[1]
        d["spin"] = (n < 2 or not total & degrees[2]) if orientable else None

    @cached_property
    def classes(self) -> tuple[RingElement, ...]:
        """w_0..w_n: the total class split by degree."""
        degrees = _ring_tables(self.matrix.n)[1]
        return tuple(RingElement(self.total & mask) for mask in degrees)

    @cached_property
    def sw_numbers(self) -> dict[tuple[int, ...], int]:
        """Every pairing of a top-degree class product against the
        fundamental class, keyed by exponent vector in `sw_partitions` order:
        one `_walk` whose nodes hold a * w for the product a of their parts,
        so the child of part p at degree d is a * w_p = (a * w) & degrees[d + p]."""
        cols = self.matrix.columns()  # checked by the constructor
        n = self.matrix.n
        lanes, degrees = _ring_tables(n)

        def step(aw: int, d: int, p: int) -> int:
            a = aw & degrees[d + p]
            return a if d + p == n else _times(a, cols, -1, cols, lanes)
        return {r: a >> ((1 << n) - 1) for r, a in _walk(n, step, self.total)}

    @property
    def sw_numbers_all_zero(self) -> bool:
        return not any(self.sw_numbers.values())

    def to_json_dict(self) -> dict:
        """The classes and flags; the SW numbers cost far more, so callers
        that want `sw_numbers_all_zero` add it themselves."""
        return {
            "w": [str(w) for w in self.classes],
            "orientable": self.orientable,
            "spin": self.spin,
        }


#: Kept for callers that name the total class; identical to `SWProfile`,
#: which expands it as the product of (1 + column sum) over C's columns.
total_sw_class = SWProfile


def w1_formula(C: BottMatrix) -> RingElement:
    """Degree-one class without ring expansion: sum of y_i over rows with
    odd row sum.  The last row never contributes (it is always zero)."""
    return RingElement.from_masks(
        1 << i for i, row in enumerate(C.rows) if row.bit_count() & 1
    )


def w_top_minus_one(C: BottMatrix) -> RingElement:
    """Degree n-1 class: the product of the superdiagonal entries times
    y_1*...*y_{n-1}; zero as soon as one superdiagonal entry vanishes."""
    _require_triangular(C, "classes need")
    if C.n < 2:
        raise IndexOutOfRange("needs n >= 2")
    for i in range(C.n - 1):
        if not (C.rows[i] >> (i + 1)) & 1:
            return RingElement(0)
    return RingElement.from_masks(((1 << (C.n - 1)) - 1,))


def wk_recursive(C: BottMatrix, k: int) -> RingElement:
    """Degree-k class via the recursion over leading principal submatrices,
    w_k(t) = sum over s < t of w_{k-1}(s) * (column s+1's sum); must agree
    with the degree-k part of `total_sw_class`."""
    _check_index(k, C.n, "degree")
    cols = _ring_columns(C)
    lanes = _ring_tables(C.n)[0]
    w = [1] * C.n  # w[s]: the current degree's class of the leading s-block
    for d in range(k):
        acc = 0
        for s in range(d, C.n):  # w[s] = 0 for s < d: degree above size
            w[s], acc = acc, acc ^ _times(w[s], (cols[s],), 0, cols, lanes)
    return RingElement(acc)


def _walk(n: int, step, value) -> Iterator[tuple[tuple[int, ...], object]]:
    """(exponent vector, value) for each partition of n, depth first over the
    descending part lists; part p added at degree d maps value to step(value, d, p)."""
    def below(d: int, largest: int, value, r: tuple[int, ...]):
        if d == n:
            yield r, value
        for p in range(min(n - d, largest), 0, -1):
            yield from below(d + p, p, step(value, d, p), r[:p - 1] + (r[p - 1] + 1,) + r[p:])
    return below(0, n, value, (0,) * n)


def sw_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All exponent vectors (r_1..r_n) with sum i*r_i = n, in `_walk` order."""
    _check_dimension(n)
    return (r for r, _ in _walk(n, lambda value, d, p: value, None))


def sw_number(profile: SWProfile, partition: Sequence[int]) -> int:
    """Coefficient of y_1*...*y_n in the product of the classes raised to the
    exponents in `partition` (the fundamental-class pairing): a lookup in
    `profile.sw_numbers`, which the first call fills with one walk."""
    n = profile.matrix.n
    r = tuple(_iterate(partition, BadPartition, "a partition"))
    # 2.0 and False compare equal to 2 and 0 but are not exponents
    if len(r) != n or any(type(x) is not int or x < 0 for x in r):
        raise BadPartition(f"need {n} nonnegative int exponents, got {_shown(r)}")
    if sum(i * ri for i, ri in enumerate(r, 1)) != n:
        raise BadPartition(f"weighted degree of {_shown(r)} is not {n}")
    return profile.sw_numbers[r]
