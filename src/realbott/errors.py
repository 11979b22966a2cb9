"""Exception types shared across the package."""


class BottError(Exception):
    """Base class for all errors raised by this package."""


class NonSquare(BottError, ValueError):
    """Input grid is not an n-by-n matrix."""


class NonBinary(BottError, ValueError):
    """Matrix entry is not 0 or 1."""


class DiagonalNonzero(BottError, ValueError):
    """Matrix has a nonzero diagonal entry."""


class CyclicDigraph(BottError, ValueError):
    """The digraph of the matrix has a cycle."""


class IndexOutOfRange(BottError, IndexError):
    """A 1-based row/column/degree index is outside its valid range."""


class DimensionMismatch(BottError, ValueError):
    """Operands belong to rings of different dimension."""


class BadPartition(BottError, ValueError):
    """Exponent vector is not a weighted partition of the dimension."""


class DimensionTooLarge(BottError, ValueError):
    """Requested dimension exceeds the configured cap."""
