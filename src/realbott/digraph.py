"""The digraph mirror of a Bott matrix.

Vertices u_1..u_n, one edge i -> j per matrix 1: the matrix is the
digraph's adjacency matrix, so its row masks are the out-neighbour sets and
its column masks the in-neighbour sets, and every function here takes the
matrix itself.  Out-degrees and common out-neighbour counts re-express the
closed-form spin terms: the pair count P_jk equals the number of common
out-neighbours M_jk, and Q_jk equals the (j,k) adjacency bit times C(N_k, 2)
for the out-degree N_k.  The verdict computed here must coincide with the
row-arithmetic one.
"""

from __future__ import annotations

from .criteria import PairWitness, SpinVerdict, _scan, _verdict
from .matrix import MAX_BUILD_N, GeneralBottMatrix, _check_index, _check_pair

#: `digraph_spin`'s `_scan` pair_bit: exact C(N, 2) mod 2 for each out-degree N < MAX_BUILD_N.
_PAIR_BIT = tuple(N * (N - 1) // 2 & 1 for N in range(MAX_BUILD_N))


def _vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = (mask & -mask).bit_length() - 1
        out.append(b + 1)
        mask &= mask - 1
    return tuple(out)


def build_digraph(M: GeneralBottMatrix) -> GeneralBottMatrix:
    """The digraph whose adjacency matrix is M (already validated acyclic):
    M itself."""
    return M


def out_neighbours(D: GeneralBottMatrix, i: int) -> tuple[int, ...]:
    """1-based vertices reachable by one edge from u_i."""
    _check_index(i, D.n, "vertex")
    return _vertices(D.rows[i - 1])


def out_degree(D: GeneralBottMatrix, i: int) -> int:
    _check_index(i, D.n, "vertex")
    return D.rows[i - 1].bit_count()


def common_out(D: GeneralBottMatrix, j: int, k: int) -> int:
    """Number of common out-neighbours of u_j and u_k, 1 <= j < k <= n."""
    _check_pair(j, k, D.n)
    return (D.rows[j - 1] & D.rows[k - 1]).bit_count()


def digraph_spin(D: GeneralBottMatrix) -> SpinVerdict:
    """Spin verdict from the digraph alone: all out-degrees even, and for
    every pair j < k the common-neighbour count M_jk has the parity of the
    adjacency bit times C(N_k, 2).

    A vertex's M_jk over all k is the XOR of the in-masks of its
    out-neighbours; C(N_k, 2) is the exact integer binomial of the
    out-degree, reduced afterwards, and counts at the head of whichever edge
    joins the pair (for a triangular matrix only j -> k can exist).  The
    verdict record is the one `is_spin` shares for the same outcome."""
    return _verdict(*_scan(D.rows, D.columns(), _PAIR_BIT))


def export_dot(D: GeneralBottMatrix) -> str:
    """Graphviz DOT text, byte-stable: vertices u1..un, edges in row-major
    order.  The graph label states the flags of `digraph_spin(D)` and the
    witness pair, when there is one, is drawn dashed red (as an extra
    non-constraint line when the pair is not an edge)."""
    verdict = digraph_spin(D)
    # `_verdict` gives at most one pair witness
    pair = next(((w.j, w.k) for w in verdict.witnesses if isinstance(w, PairWitness)), None)
    lines = ["digraph {", f'  label="orientable={str(verdict.orientable).lower()} '
             f'spin={str(verdict.spin).lower()}";']
    for i in range(1, D.n + 1):
        lines.append(f"  u{i};")
    for i in range(1, D.n + 1):
        for j in _vertices(D.rows[i - 1]):
            style = " [color=red, style=dashed]" if (i, j) == pair else ""
            lines.append(f"  u{i} -> u{j}{style};")
    if pair and not (D.rows[pair[0] - 1] >> (pair[1] - 1)) & 1:
        lines.append(f"  u{pair[0]} -> u{pair[1]} "
                     "[color=red, style=dashed, dir=none, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
