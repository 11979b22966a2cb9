import random

import pytest

from realbott import BottMatrix, matrix_from_index
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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
