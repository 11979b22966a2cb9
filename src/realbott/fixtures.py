"""Built-in matrices with externally established verdicts.

The matrices ship as text files under ``realbott/data`` so the CLI can run
them against the implementation (and can be pointed at a replacement
directory for negative controls).  Expected verdicts, witnesses and
digraph statistics live in the registries below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import BottError, IndexOutOfRange
from .matrix import BottMatrix, _check_size, _require_triangular, _shown, load_matrix


def default_fixture_dir() -> Path:
    return Path(str(resources.files("realbott").joinpath("data")))


def load_fixture(name: str, directory: Path | str | None = None) -> BottMatrix:
    """Parse the named fixture (no .txt suffix) from the given directory,
    defaulting to the packaged data.  A fixture is a triangular matrix, as
    the ring oracle needs; an error names the file once."""
    base = Path(directory) if directory is not None else default_fixture_dir()
    path = base / f"{name}.txt"
    if not path.is_file():
        raise BottError(f"fixture file missing: {path}")
    try:
        matrix = load_matrix(path)
        _require_triangular(matrix, "a fixture needs")
        return matrix
    except BottError as exc:  # `load_matrix` names the file of a non-UTF-8 one
        raise type(exc)(f"{path}: {str(exc).removeprefix(f'{path}: ')}") from exc


#: Orientable representatives per dimension, each mapped to whether it is
#: spin.  Every matrix in these dimensions is equivalent to exactly one
#: entry, so counting the spin ones reproduces the class counts below.
REPRESENTATIVES: dict[int, dict[str, bool]] = {
    1: {"reps_n1_0": True},
    2: {"reps_n2_0": True},
    3: {"reps_n3_0": True, "reps_n3_1": True},
    4: {"reps_n4_0": True, "reps_n4_1": True, "reps_n4_2": True},
    5: {f"reps_n5_{i}": i < 4 for i in range(8)},
}

#: Known counts of spin classes per dimension (up to diffeomorphism).
SPIN_CLASS_COUNTS: dict[int, int] = {1: 1, 2: 1, 3: 2, 4: 3, 5: 4}

#: The complete list of dimension-4 spin matrices (also the complete list
#: of orientable ones: in dimension 4 the two notions coincide).
DIM4_SPIN_LIST: tuple[str, ...] = tuple(f"spin4_{i}" for i in range(8))


@dataclass(frozen=True)
class DigraphFixture:
    """Digraph example with its expected statistics.

    `out_sets` lists the expected nonempty out-neighbour sets (all other
    vertices have none); `common_counts` the nonzero common-out-neighbour
    counts (all other pairs have zero)."""

    name: str
    n: int
    spin: bool
    witness_pair: tuple[int, int] | None
    out_sets: dict[int, tuple[int, ...]] = field(default_factory=dict)
    common_counts: dict[tuple[int, int], int] = field(default_factory=dict)


DIGRAPH_FIXTURES: tuple[DigraphFixture, ...] = (
    DigraphFixture(
        name="digraph_a",
        n=6,
        spin=True,
        witness_pair=None,
        out_sets={2: (5, 6), 3: (5, 6), 4: (5, 6)},
        common_counts={(2, 3): 2, (2, 4): 2, (3, 4): 2},
    ),
    DigraphFixture(
        name="digraph_b",
        n=6,
        spin=True,
        witness_pair=None,
        out_sets={1: (2, 3, 4, 5), 2: (3, 6), 3: (5, 6)},
        common_counts={(1, 2): 1, (1, 3): 1, (2, 3): 1},
    ),
    DigraphFixture(
        name="digraph_c",
        n=5,
        spin=False,
        witness_pair=(1, 2),
        out_sets={1: (3, 5), 2: (3, 4), 3: (4, 5)},
        common_counts={(1, 2): 1, (1, 3): 1, (2, 3): 1},
    ),
    DigraphFixture(
        name="digraph_d",
        n=7,
        spin=False,
        witness_pair=(2, 3),
        out_sets={2: (3, 4, 5, 6), 3: (4, 5, 6, 7), 5: (6, 7)},
        common_counts={(2, 3): 3, (2, 5): 1, (3, 5): 2},
    ),
)


def orientable_not_spin_family(n: int) -> BottMatrix:
    """The standard orientable-but-not-spin witness in each dimension >= 5:
    ones at (1,2), (1,n-2), (n-2,n-1) and (n-2,n).  Rows 1 and n-2 have even
    sums, and the pair (1, n-2) violates the spin identity with P=0, Q=1."""
    if type(n) is not int or n < 5:
        raise IndexOutOfRange(f"family needs n >= 5, got {_shown(n)}")
    _check_size(n)
    rows = [0] * n
    rows[0] = (1 << 1) | (1 << (n - 3))
    rows[n - 3] = (1 << (n - 2)) | (1 << (n - 1))
    return BottMatrix(n, tuple(rows))
