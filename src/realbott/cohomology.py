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
it; square-free by construction, degree = popcount.  A *ring element* is a
set of monomial masks with implicit GF(2) coefficients; addition is
symmetric difference.

Reduction is confluent in practice (certified by `graded_dimension` and by
comparing `reduce_power_product` orders); the default strategy rewrites the
highest colliding index first, which terminates because every substitution
replaces an index pair (i,i) by (j,i) with j < i, strictly lowering the
descending-sorted index list lexicographically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import BadPartition, DimensionMismatch, IndexOutOfRange
from .matrix import BottMatrix


def monomial_degree(mask: int) -> int:
    return mask.bit_count()


def monomial_str(mask: int) -> str:
    """"y1*y3" style rendering; the empty monomial renders as "1"."""
    if mask == 0:
        return "1"
    names = []
    while mask:
        b = (mask & -mask).bit_length() - 1
        names.append(f"y{b + 1}")
        mask &= mask - 1
    return "*".join(names)


@dataclass(frozen=True)
class RingElement:
    """GF(2) sum of square-free monomials, kept in normal form."""

    terms: frozenset[int]

    @classmethod
    def zero(cls) -> "RingElement":
        return cls(frozenset())

    @classmethod
    def one(cls) -> "RingElement":
        return cls(frozenset((0,)))

    @classmethod
    def variable(cls, i: int) -> "RingElement":
        """The generator y_i, 1-based."""
        if i < 1:
            raise IndexOutOfRange(f"variable index {i} must be >= 1")
        return cls(frozenset((1 << (i - 1),)))

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "RingElement":
        seen: set[int] = set()  # XOR-fold: repeated masks cancel
        for m in masks:
            seen ^= {m}
        return cls(frozenset(seen))

    def __xor__(self, other: "RingElement") -> "RingElement":
        return RingElement(self.terms ^ other.terms)

    __add__ = __xor__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree_part(self, k: int) -> "RingElement":
        return RingElement(frozenset(m for m in self.terms if m.bit_count() == k))

    def is_homogeneous(self, k: int) -> bool:
        return all(m.bit_count() == k for m in self.terms)

    def coefficient(self, mask: int) -> int:
        return 1 if mask in self.terms else 0

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda m: (m.bit_count(), m))
        return "+".join(monomial_str(m) for m in ordered)


class CohomologyRing:
    """Reduction context for one matrix: column masks plus memo tables.

    All heavy work funnels through `var_times`, which multiplies a single
    generator into a square-free mask and resolves the one collision that
    can appear, recursing strictly downward in the variable index.
    """

    def __init__(self, matrix: BottMatrix):
        self.matrix = matrix
        self.n = matrix.n
        # cols[i] = 0-based mask of rows j with entry (j+1, i+1) = 1
        self.cols: tuple[int, ...] = matrix.columns()
        self._vt: dict[int, frozenset[int]] = {}
        self._wk: dict[tuple[int, int], frozenset[int]] = {}

    def var_times(self, i: int, mask: int) -> frozenset[int]:
        """y_{i+1} * mask (i is a 0-based bit index), as a set of masks."""
        key = (mask << 7) | i  # n < 128, far above the parse guard
        cached = self._vt.get(key)
        if cached is not None:
            return cached
        if not (mask >> i) & 1:
            result = frozenset((mask | (1 << i),))
        else:
            # y_i^2 inside: substitute and recurse on strictly smaller bits
            acc: set[int] = set()
            col = self.cols[i]
            while col:
                j = (col & -col).bit_length() - 1
                acc ^= self.var_times(j, mask)
                col &= col - 1
            result = frozenset(acc)
        self._vt[key] = result
        return result

    def mono_times(self, a: int, b: int) -> frozenset[int]:
        """Product of two square-free masks, fully reduced."""
        acc: set[int] = {a}
        rem = b
        while rem:
            i = rem.bit_length() - 1  # fold highest variable first
            rem ^= 1 << i
            nxt: set[int] = set()
            for m in acc:
                nxt ^= self.var_times(i, m)
            acc = nxt
            if not acc:
                break
        return frozenset(acc)

    def mul_masks(self, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
        out: set[int] = set()
        bs = list(B)
        for a in A:
            for b in bs:
                out ^= self.mono_times(a, b)
        return frozenset(out)

    def times_column(self, A: Iterable[int], col: int) -> frozenset[int]:
        """A * (sum of the variables in the 0-based bit mask `col`)."""
        out: set[int] = set()
        for m in A:
            c = col
            while c:
                i = (c & -c).bit_length() - 1
                out ^= self.var_times(i, m)
                c &= c - 1
        return frozenset(out)

    def total_class_terms(self) -> frozenset[int]:
        """Expansion of the product of (1 + column sum) over all columns."""
        cur: frozenset[int] = frozenset((0,))
        for j in range(1, self.n):
            col = self.cols[j]
            if col:
                cur = cur ^ self.times_column(cur, col)
        return cur

    def wk_terms(self, t: int, k: int) -> frozenset[int]:
        """Degree-k class of the leading t-by-t submatrix, by the recursion
        over the column sums, evaluated inside this ring."""
        if k == 0:
            return frozenset((0,))
        if k < 0 or k > t:
            return frozenset()
        key = (t, k)
        cached = self._wk.get(key)
        if cached is None:
            acc: set[int] = set()
            for s in range(1, t):
                lower = self.wk_terms(s, k - 1)
                if lower and self.cols[s]:
                    acc ^= self.times_column(lower, self.cols[s])
            cached = frozenset(acc)
            self._wk[key] = cached
        return cached


@lru_cache(maxsize=128)
def _ring(matrix: BottMatrix) -> CohomologyRing:
    return CohomologyRing(matrix)


def _check_element(C: BottMatrix, e: RingElement) -> None:
    full = (1 << C.n) - 1
    for m in e.terms:
        if m & ~full:
            raise DimensionMismatch(
                f"monomial {monomial_str(m)} uses variables beyond y{C.n}"
            )


def reduce_square(C: BottMatrix, i: int) -> RingElement:
    """Normal form of y_i^2: the sum of y_j*y_i over rows j < i with a 1 in
    column i.  Valid for every i up to n (see the module docstring for the
    top-variable case)."""
    if not 1 <= i <= C.n:
        raise IndexOutOfRange(f"index {i} outside 1..{C.n}")
    ring = _ring(C)
    bit = 1 << (i - 1)
    col = ring.cols[i - 1]
    masks = set()
    while col:
        j = (col & -col).bit_length() - 1
        masks.add((1 << j) | bit)
        col &= col - 1
    return RingElement(frozenset(masks))


def multiply(C: BottMatrix, a: RingElement, b: RingElement) -> RingElement:
    """Product in the quotient ring, in normal form."""
    _check_element(C, a)
    _check_element(C, b)
    return RingElement(_ring(C).mul_masks(a.terms, b.terms))


def reduce_power_product(
    C: BottMatrix, indices: Sequence[int], order: str = "highest"
) -> RingElement:
    """Normal form of a product of generators given as a 1-based index
    multiset (repeats allowed).

    `order` picks which colliding index each rewriting step eliminates
    ("highest" or "lowest"); both strategies must agree, and tests certify
    that they do.  This is the plain transcription of the rewrite system,
    kept separate from the memoized path so the two can check each other.
    """
    if order not in ("highest", "lowest"):
        raise ValueError(f"order must be 'highest' or 'lowest', got {order!r}")
    for i in indices:
        if not 1 <= i <= C.n:
            raise IndexOutOfRange(f"index {i} outside 1..{C.n}")
    cols = _ring(C).cols
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
    masks = set()
    for mono in out:
        m = 0
        for i in mono:
            m |= 1 << i
        masks ^= {m}
    return RingElement(frozenset(masks))


@dataclass(frozen=True)
class SWProfile:
    """All Stiefel-Whitney data of one matrix: the graded classes w_0..w_n,
    the derived orientable/spin flags, and (on demand) every SW number."""

    matrix: BottMatrix
    classes: tuple[RingElement, ...]

    @property
    def orientable(self) -> bool:
        return self.classes[1].is_zero()

    @property
    def spin(self) -> bool | None:
        """True/False when orientable, None otherwise."""
        if not self.orientable:
            return None
        if self.matrix.n < 2:
            return True
        return self.classes[2].is_zero()

    @cached_property
    def sw_numbers(self) -> dict[tuple[int, ...], int]:
        """Every pairing of a top-degree class product against the
        fundamental class, keyed by exponent vector."""
        return {r: sw_number(self, r) for r in sw_partitions(self.matrix.n)}

    @property
    def sw_numbers_all_zero(self) -> bool:
        return not any(self.sw_numbers.values())

    def to_json_dict(self) -> dict:
        return {
            "w": [str(w) for w in self.classes],
            "orientable": self.orientable,
            "spin": self.spin,
            "sw_numbers_all_zero": self.sw_numbers_all_zero,
        }


def total_sw_class(C: BottMatrix) -> SWProfile:
    """Expand the total class as the product of (1 + column sum) over the
    columns of C and split it by degree."""
    ring = _ring(C)
    terms = ring.total_class_terms()
    buckets: list[set[int]] = [set() for _ in range(C.n + 1)]
    for m in terms:
        buckets[m.bit_count()].add(m)
    classes = tuple(RingElement(frozenset(b)) for b in buckets)
    return SWProfile(matrix=C, classes=classes)


def w1_formula(C: BottMatrix) -> RingElement:
    """Degree-one class without ring expansion: sum of y_i over rows with
    odd row sum.  The last row never contributes (it is always zero)."""
    masks = frozenset(
        1 << i for i, row in enumerate(C.rows) if row.bit_count() & 1
    )
    return RingElement(masks)


def wk_recursive(C: BottMatrix, k: int) -> RingElement:
    """Degree-k class via the recursion over leading principal submatrices;
    must agree with the degree-k part of `total_sw_class`."""
    if not 1 <= k <= C.n:
        raise IndexOutOfRange(f"degree {k} outside 1..{C.n}")
    return RingElement(_ring(C).wk_terms(C.n, k))


def sw_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All exponent vectors (r_1..r_n) with sum i*r_i = n."""

    def parts(total: int, largest: int) -> Iterator[list[int]]:
        if total == 0:
            yield []
            return
        for p in range(min(total, largest), 0, -1):
            for rest in parts(total - p, p):
                yield [p] + rest

    for partition in parts(n, n):
        r = [0] * n
        for p in partition:
            r[p - 1] += 1
        yield tuple(r)


def sw_number(profile: SWProfile, partition: Sequence[int]) -> int:
    """Coefficient of y_1*...*y_n in the product of the classes raised to
    the exponents in `partition` (the fundamental-class pairing)."""
    C = profile.matrix
    n = C.n
    r = tuple(partition)
    if len(r) != n or any(x < 0 for x in r):
        raise BadPartition(f"need {n} nonnegative exponents, got {r}")
    if sum(i * ri for i, ri in enumerate(r, 1)) != n:
        raise BadPartition(f"weighted degree of {r} is not {n}")
    ring = _ring(C)
    acc: frozenset[int] = frozenset((0,))
    for i, ri in enumerate(r, 1):
        for _ in range(ri):
            acc = ring.mul_masks(acc, profile.classes[i].terms)
            if not acc:
                return 0
    top = (1 << n) - 1
    return 1 if top in acc else 0


def graded_dimension(C: BottMatrix, k: int) -> int:
    """Number of degree-k monomials that are normal forms.

    Counts by enumeration and certifies each candidate as a fixed point of
    the rewrite system, so together with the order-independence checks this
    pins the graded basis at C(n,k)."""
    if k < 0 or k > C.n:
        return 0
    count = 0
    for combo in itertools.combinations(range(1, C.n + 1), k):
        nf = reduce_power_product(C, combo)
        mask = 0
        for i in combo:
            mask |= 1 << (i - 1)
        if nf.terms == frozenset((mask,)):
            count += 1
    return count
