"""The digraph mirror of a Bott matrix.

Vertices u_1..u_n, one edge i -> j per matrix 1.  Out-degrees and common
out-neighbour counts re-express the closed-form spin terms: the pair count
P_jk equals the number of common out-neighbours M_jk, and Q_jk equals the
(j,k) adjacency bit times C(N_k, 2) for the out-degree N_k.  The verdict
computed here must coincide with the row-arithmetic one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .criteria import PairWitness, SpinVerdict, _pair_bit_tables, _scan, _verdict
from .matrix import AnyBottMatrix, _check_index, _check_pair


@dataclass(frozen=True)
class BottDigraph:
    """Adjacency as per-vertex out/in bitmasks (0-based bits)."""

    n: int
    out_masks: tuple[int, ...]
    in_masks: tuple[int, ...]

    def out_neighbours(self, i: int) -> tuple[int, ...]:
        """1-based vertices reachable by one edge from u_i."""
        _check_index(i, self.n, "vertex")
        return _vertices(self.out_masks[i - 1])

    def out_degree(self, i: int) -> int:
        _check_index(i, self.n, "vertex")
        return self.out_masks[i - 1].bit_count()


def _vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = (mask & -mask).bit_length() - 1
        out.append(b + 1)
        mask &= mask - 1
    return tuple(out)


def build_digraph(M: AnyBottMatrix) -> BottDigraph:
    """Digraph whose adjacency matrix is M (already validated acyclic); one
    per matrix, so its fields go straight into the instance __dict__."""
    D = object.__new__(BottDigraph)
    d = D.__dict__
    d["n"], d["out_masks"], d["in_masks"] = M.n, M.rows, M.columns()
    return D


def common_out(D: BottDigraph, j: int, k: int) -> int:
    """Number of common out-neighbours of u_j and u_k, 1 <= j < k <= n."""
    _check_pair(j, k, D.n)
    return (D.out_masks[j - 1] & D.out_masks[k - 1]).bit_count()


def digraph_spin(D: BottDigraph) -> SpinVerdict:
    """Spin verdict from the digraph alone: all out-degrees even, and for
    every pair j < k the common-neighbour count M_jk has the parity of the
    adjacency bit times C(N_k, 2).

    A vertex's M_jk over all k is the XOR of the in-masks of its
    out-neighbours; C(N_k, 2) is the exact integer binomial of the
    out-degree, reduced afterwards, and counts at the head of whichever edge
    joins the pair (for a triangular matrix only j -> k can exist).  The
    verdict record is the one `is_spin` shares for the same outcome."""
    return _verdict(*_scan(D.out_masks, D.in_masks, _pair_bit_tables(D.n)[1]))


def export_dot(D: BottDigraph) -> str:
    """Graphviz DOT text, byte-stable: vertices u1..un, edges in row-major
    order.  The graph label states the flags of `digraph_spin(D)` and every
    failing pair is drawn dashed red (as an extra non-constraint line when
    the pair is not an edge)."""
    verdict = digraph_spin(D)
    failing = {(w.j, w.k) for w in verdict.witnesses if isinstance(w, PairWitness)}
    lines = ["digraph {", f'  label="orientable={str(verdict.orientable).lower()} '
             f'spin={str(verdict.spin).lower()}";']
    for i in range(1, D.n + 1):
        lines.append(f"  u{i};")
    annotated = set()
    for i in range(1, D.n + 1):
        for j in _vertices(D.out_masks[i - 1]):
            if (i, j) in failing:
                lines.append(f"  u{i} -> u{j} [color=red, style=dashed];")
                annotated.add((i, j))
            else:
                lines.append(f"  u{i} -> u{j};")
    for j, k in sorted(failing - annotated):
        lines.append(
            f"  u{j} -> u{k} [color=red, style=dashed, dir=none, constraint=false];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"

