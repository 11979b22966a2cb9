"""Constant-time orientability and spin decisions on the matrix entries.

Orientability is even row sums.  Spin additionally needs, for every pair
of rows j < k, the parity identity

    P_jk + Q_jk = 0  (mod 2)

where P_jk counts columns carrying a 1 in both rows and Q_jk is the (j,k)
entry times the number of unordered 1-pairs inside row k.  Everything here
is plain bit arithmetic; the ring module provides the independent oracle
these shortcuts are checked against.

A verdict and its witnesses depend only on the scan's outcome, the first
odd row and the first failing pair, so each outcome's records are built
once and shared by every matrix that gives it (`_verdict`): the records are
frozen, and two verdicts of equal outcome may be the same object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

from .matrix import (MAX_BUILD_N, BottMatrix, GeneralBottMatrix, _check_pair,
                     _require_triangular, delete_leading)


@dataclass(frozen=True)
class RowWitness:
    """Row with odd sum: the orientability obstruction."""

    i: int

    def to_json_dict(self) -> dict:
        return {"kind": "row", "i": self.i}


@dataclass(frozen=True)
class PairWitness:
    """Pair (j,k) violating the parity identity, with both term values."""

    j: int
    k: int
    P: int
    Q: int

    def to_json_dict(self) -> dict:
        return {"kind": "pair", "j": self.j, "k": self.k, "P": self.P, "Q": self.Q}


Witness = Union[RowWitness, PairWitness]


@dataclass(frozen=True)
class PairTerms:
    """The two GF(2) terms of the pair identity."""

    P: int
    Q: int


@dataclass(frozen=True)
class SpinVerdict:
    """Orientable and spin flags with their witnesses, one shared record
    per scan outcome (`_verdict`): compare verdicts with ==."""

    orientable: bool
    spin: bool
    witnesses: tuple[Witness, ...] = ()

    @property
    def witness(self) -> Witness | None:
        """Lexicographically first failing row or pair, None when spin."""
        return self.witnesses[0] if self.witnesses else None

    def to_json_dict(self) -> dict:
        w = self.witness
        return {
            "orientable": self.orientable,
            "spin": self.spin,
            "witness": None if w is None else w.to_json_dict(),
        }


def is_orientable(M: GeneralBottMatrix) -> bool:
    """Every row sum even."""
    return all(row.bit_count() % 2 == 0 for row in M.rows)


def pair_terms(C: BottMatrix, j: int, k: int) -> PairTerms:
    """P and Q for one pair of rows of a Bott matrix, 1 <= j < k <= n."""
    _check_pair(j, k, C.n)
    return PairTerms(*_closed_form_terms(C.rows, j - 1, k - 1))


def _closed_form_terms(rows: tuple[int, ...], j: int, k: int) -> tuple[int, int]:
    """(P, Q) for the 0-based rows j < k.

    The pair-sum term attaches to the head of the edge between j and k.
    Acyclicity allows at most one of the two edge bits, and on a strictly
    upper triangular matrix the k->j bit is always 0, so this reduces to
    the plain c_{j,k} * C(N_k, 2) there.  C(N, 2) mod 2 is bit 1 of N.
    """
    P = (rows[j] & rows[k]).bit_count() & 1
    Q = 0
    if (rows[j] >> k) & 1:
        Q = (rows[k].bit_count() >> 1) & 1
    if (rows[k] >> j) & 1:
        Q ^= (rows[j].bit_count() >> 1) & 1
    return P, Q


def _scan(
    masks: Sequence[int], cols: Sequence[int], pair_bit: Sequence[int]
) -> tuple[int, tuple[int, int, int, int] | None]:
    """The verdict rule of the closed-form and digraph routes, as plain
    values: the first odd row, 1-based, or 0; and the first pair j < k whose
    terms P_jk and Q_jk differ, as a 1-based (j, k, P, Q) tuple, or None.

    `masks` are the rows, `cols` their columns, and pair_bit[N] the route's
    own C(N, 2) mod 2, a table by row sum N.  The pairs are scanned a row at
    a time, every k at once.  Row j's P over all k is the XOR of cols[c]
    over the ones c of row j, so its bit k is |r_j & r_k| mod 2.  Row j's Q
    over all k takes bit c for each such c whose row's pair-sum bit is set
    (the edges j -> k), and cols[j] when row j's is (the edges k -> j, only
    in general matrices): a row's bit is read only where a pair needs it.
    The first failing pair of row j is the lowest set bit of (P ^ Q) >>
    (j + 1); odd rows are looked for on the way, then past a failing pair.

    A zero row is passed over: it cannot be the odd row, and its P and Q
    are 0, edges k -> j into it included, under the precondition
    pair_bit[0] == 0.  Its pairs with earlier rows are read in theirs.

    A non-orientable matrix still gets the pair scan so the verdict can
    carry a pair witness for diagnostics.
    """
    odd = 0
    for j, row in enumerate(masks):
        if not row:
            continue
        N = row.bit_count()
        if not odd and N & 1:
            odd = j + 1
        P = Q = 0
        r = row
        while r:
            c = r.bit_length() - 1
            r ^= 1 << c
            P ^= cols[c]
            if pair_bit[masks[c].bit_count()]:
                Q |= 1 << c
        if pair_bit[N]:
            Q ^= cols[j]
        D = (P ^ Q) >> (j + 1)
        if D:
            k = j + (D & -D).bit_length()
            if not odd:
                for i in range(j + 1, len(masks)):
                    if masks[i].bit_count() & 1:
                        odd = i + 1
                        break
            return odd, (j + 1, k + 1, (P >> k) & 1, (Q >> k) & 1)
    return odd, None


@lru_cache(maxsize=1024)
def _verdict(odd: int, pair: tuple[int, int, int, int] | None) -> SpinVerdict:
    """The verdict of one `_scan` outcome: spin needs both an even matrix
    and no failing pair, and the witnesses are the odd row, then the
    failing pair.  Built once per outcome and shared: every n = 6 matrix
    gives one of 90 outcomes, and at most 1024 are kept (0.95 MiB by
    tracemalloc when full, each with both witnesses)."""
    witnesses = (RowWitness(odd),) if odd else ()
    if pair is not None:
        witnesses += (PairWitness(*pair),)
    return SpinVerdict(not odd, not odd and pair is None, witnesses)


#: `is_spin`'s pair_bit for `_scan`: C(N, 2) mod 2 as bit 1 of N, for every
#: row sum N a buildable matrix can have.
_PAIR_BIT = tuple(N >> 1 & 1 for N in range(MAX_BUILD_N))


def is_spin(C: GeneralBottMatrix) -> SpinVerdict:
    """Full verdict for a Bott matrix, triangular or general.

    Scans the closed-form terms a row at a time over the column masks,
    with C(N, 2) mod 2 read as bit 1 of the row sum N.  A general acyclic
    matrix is evaluated directly on its rows, without conjugating to
    triangular form, and agrees with the verdict on the normalized matrix:
    each pair takes its pair-sum term on the head row of whichever edge
    joins it, which is what the pair condition of the triangular form
    becomes under conjugation.  The verdict is shared with every matrix
    of the same outcome (see the module docstring).
    """
    return _verdict(*_scan(C.rows, C.columns(), _PAIR_BIT))


#: Kept for callers that name the general case; identical to `is_spin`.
is_spin_general = is_spin


def spin_by_pairs(C: BottMatrix) -> bool:
    """Spin decided through the two-row extractions: true iff every matrix
    keeping only rows j and k of C is spin.

    An extraction is spin iff rows j and k have even sums and the pair's
    closed-form terms agree.  Every row lies in some extraction, so all row
    sums are tested first.  An extraction with a zero row then passes as it
    stands: the zero row shares no column with the other, and the pair-sum
    term C(0, 2) on it is 0, though an edge into it may exist.  So only the
    pairs of two nonzero rows are read, each once, in lexicographic order,
    up to the first failing one: P is |r_j & r_k| mod 2, and Q the edge
    j -> k times bit 1 of N_k plus the edge k -> j times bit 1 of N_j (only
    general matrices have the second).  No verdict is built."""
    rows = C.rows
    for row in rows:
        if row.bit_count() & 1:
            return False
    live = []
    q = 0
    for j, row in enumerate(rows):
        if row:
            q |= (row.bit_count() >> 1 & 1) << j
            live.append((j, row))
    for a, (j, rj) in enumerate(live, 1):
        qj = q >> j & 1
        for k, rk in live[a:]:
            if ((rj & rk).bit_count() ^ (rj & q) >> k ^ (rk >> j & qj)) & 1:
                return False
    return True


def fibre_chain_verdicts(C: BottMatrix) -> list[SpinVerdict]:
    """Verdicts for C and each successive fibre matrix obtained by deleting
    leading rows/columns, down to size 2 (size 1 when n = 1).  Orientable
    or spin at the top implies the same all the way down."""
    _require_triangular(C, "fibres need")
    return [is_spin(delete_leading(C, k)) for k in range(max(C.n - 1, 1))]
