import random
from functools import lru_cache

import pytest

from realbott import BottMatrix, matrix_from_index, reduce_power_product
from realbott.cohomology import _ring_tables, _times
from realbott.enumeration import index_space
from realbott.matrix import MAX_SINGLE_N


def decode_rows(n: int, index: int) -> tuple[int, ...]:
    """The rows packed as `index` (bit 0 is entry (1,2), then (1,3), ...,
    row-major), read one row at a time: the reference for the decoder."""
    rows = []
    for i in range(n):
        width = n - 1 - i
        rows.append((index & ((1 << width) - 1)) << (i + 1))
        index >>= width
    return tuple(rows)


def random_bott(rng: random.Random, n: int) -> BottMatrix:
    """A uniform draw from the n x n Bott matrices.  The decoder stops at
    MAX_SINGLE_N; a larger matrix is validated from the same draw."""
    index = rng.randrange(index_space(n))
    if n > MAX_SINGLE_N:
        return BottMatrix(n, decode_rows(n, index))
    return matrix_from_index(n, index)


@lru_cache(maxsize=None)
def _bits(mask: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=None)
def _monomials_of_degree(n: int, k: int) -> tuple[int, ...]:
    return tuple(S for S in range(1 << n) if S.bit_count() == k)


def _wu_ring(C: BottMatrix, by_rewriter: bool):
    """(product, sq) on C's ring, monomials S and T given as masks, results
    dense: product(S, T) = y_S * y_T, and sq(S) = Sq(y_S), the total Steenrod
    square.  H* is generated in degree one, so Sq is the ring map with
    Sq y_i = y_i + y_i^2, and Sq(y_S) = y_S * prod over i in S of (1 + y_i).
    With `by_rewriter` every product goes term by term through
    `reduce_power_product` and shares no code with `_times`."""
    if by_rewriter:
        def product(S, T):
            indices = [b.bit_length() for b in _bits(S) + _bits(T)]
            return reduce_power_product(C, indices).bits

        def sq(S):  # the sum of y_S * y_U over the subsets U of S
            out, U = product(S, S), S
            while U:
                U = (U - 1) & S
                out ^= product(S, U)
            return out

        return product, sq
    cols, lanes = C.columns(), _ring_tables(C.n)[0]
    return (lambda S, T: _times(1 << S, _bits(T), 0, cols, lanes),
            lambda S: _times(1 << S, _bits(S), -1, cols, lanes))


def _solve_gf2(equations: list[int], width: int) -> tuple[int, int]:
    """(rank, x) by Gauss-Jordan over GF(2): each equation holds `width`
    coefficient bits and its right-hand side at bit `width`.  x is the
    solution when the rank is `width`."""
    pivots: list[tuple[int, int]] = []
    for row in equations:
        for p, pivot_row in pivots:
            if row >> p & 1:
                row ^= pivot_row
        low = row & ((1 << width) - 1)
        if low:
            p = low.bit_length() - 1
            pivots = [(q, r ^ row if r >> p & 1 else r) for q, r in pivots]
            pivots.append((p, row))
    return len(pivots), sum((row >> width & 1) << p for p, row in pivots)


def wu_total(C: BottMatrix, by_rewriter: bool = False) -> tuple[int, bool]:
    """(w, full): the total SW class of C by Wu's formula (Milnor-Stasheff,
    Characteristic Classes, section 11), from the ring and Poincare duality
    alone, and whether every pairing matrix had full rank.

    For each k <= n/2 the pairing matrix <y_S * y_T, [M]> runs over |S| = k
    and |T| = n - k; full rank is Poincare duality on the monomial basis.
    The Wu class v_k solves <v_k * y_T, [M]> = <Sq(y_T), [M]> for every T,
    and w = Sq(v), summed over the monomials of v."""
    n = C.n
    top = (1 << n) - 1
    product, sq = _wu_ring(C, by_rewriter)
    w, full = 0, True
    for k in range(n // 2 + 1):
        rows = _monomials_of_degree(n, k)
        equations = [
            sum((product(S, T) >> top & 1) << s for s, S in enumerate(rows))
            | (sq(T) >> top & 1) << len(rows)
            for T in _monomials_of_degree(n, n - k)
        ]
        rank, v = _solve_gf2(equations, len(rows))
        full &= rank == len(rows)
        for s, S in enumerate(rows):
            if v >> s & 1:
                w ^= sq(S)
    return w, full


def wu_flags(C: BottMatrix) -> tuple[bool, bool]:
    """(orientable, spin) by Wu's formula with no solve: w1 = v1, and
    w2 = v2 when v1 = 0.  So M is orientable iff Sq^1 : H^(n-1) -> H^n is
    zero, the top coefficient of Sq(y_S) for each |S| = n - 1, and spin iff
    Sq^2 : H^(n-2) -> H^n is zero as well."""
    n = C.n
    top = (1 << n) - 1
    sq = _wu_ring(C, False)[1]

    def silent(k):
        return not any(sq(S) >> top & 1 for S in _monomials_of_degree(n, n - k))

    orientable = silent(1)
    return orientable, orientable and silent(2)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
