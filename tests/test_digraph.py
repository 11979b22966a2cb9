import pytest

from realbott import (
    BottMatrix,
    IndexOutOfRange,
    PairWitness,
    Permutation,
    build_digraph,
    common_out,
    conjugate,
    digraph_spin,
    export_dot,
    is_spin_general,
    out_degree,
    out_neighbours,
    pair_terms,
)
from realbott.enumeration import enumerate_all
from realbott.fixtures import DIGRAPH_FIXTURES, load_fixture

from conftest import random_bott

FIX = {f.name: f for f in DIGRAPH_FIXTURES}


class TestBuild:
    def test_the_digraph_is_the_matrix(self):
        # rows are the out-neighbour masks and columns() the in-neighbour masks
        m = load_fixture("digraph_a")
        assert build_digraph(m) is m

    def test_edgeless(self):
        D = BottMatrix.zero(3)
        assert all(out_degree(D, i) == 0 for i in range(1, 4))
        assert D.columns() == (0, 0, 0)

    def test_out_neighbour_sets(self):
        for fx in DIGRAPH_FIXTURES:
            D = load_fixture(fx.name)
            for i in range(1, fx.n + 1):
                assert out_neighbours(D, i) == fx.out_sets.get(i, ()), (fx.name, i)

    def test_in_out_consistency(self, rng):
        for _ in range(50):
            m = random_bott(rng, rng.randint(1, 8))
            for i in range(1, m.n + 1):
                for j in range(1, m.n + 1):
                    assert m.rows[i - 1] >> (j - 1) & 1 == m.columns()[j - 1] >> (i - 1) & 1

    def test_out_degree_is_row_sum(self, rng):
        for _ in range(50):
            m = random_bott(rng, rng.randint(1, 8))
            for i in range(1, m.n + 1):
                assert out_degree(m, i) == m.rows[i - 1].bit_count()


class TestCommonOut:
    def test_expected_tables(self):
        for fx in DIGRAPH_FIXTURES:
            D = load_fixture(fx.name)
            for j in range(1, fx.n + 1):
                for k in range(j + 1, fx.n + 1):
                    assert common_out(D, j, k) == fx.common_counts.get((j, k), 0)

    def test_edgeless(self):
        D = BottMatrix.zero(4)
        assert common_out(D, 1, 2) == 0

    def test_bad_pair(self):
        D = BottMatrix.zero(4)
        with pytest.raises(IndexOutOfRange):
            common_out(D, 2, 2)


class TestDigraphSpin:
    def test_fixture_verdicts(self):
        for fx in DIGRAPH_FIXTURES:
            v = digraph_spin(load_fixture(fx.name))
            assert v.orientable
            assert v.spin == fx.spin
            if fx.witness_pair is not None:
                w = v.witness
                assert isinstance(w, PairWitness)
                assert (w.j, w.k) == fx.witness_pair

    def test_pair_count_bridge(self, rng):
        # common-out-neighbour count equals the integer sum of entry
        # products, and the head binomial has the parity of the Q term
        for _ in range(200):
            m = random_bott(rng, rng.randint(2, 8))
            for j in range(1, m.n + 1):
                for k in range(j + 1, m.n + 1):
                    entry_products = sum(
                        m.entry(j, r) * m.entry(k, r) for r in range(1, m.n + 1)
                    )
                    assert common_out(m, j, k) == entry_products
                    nk = out_degree(m, k)
                    q = (m.entry(j, k) * nk * (nk - 1) // 2) % 2
                    assert q == pair_terms(m, j, k).Q

    def test_parity_shortcut(self, rng):
        # out-degree 0 mod 4: pair condition is "count even";
        # out-degree 2 mod 4: pair condition is "count matches the edge bit"
        for _ in range(300):
            m = random_bott(rng, rng.randint(2, 8))
            for j in range(1, m.n + 1):
                for k in range(j + 1, m.n + 1):
                    nk = out_degree(m, k)
                    mjk = common_out(m, j, k)
                    q = (m.entry(j, k) * nk * (nk - 1) // 2) % 2
                    cond = (mjk % 2) == q
                    if nk % 4 == 0:
                        assert cond == (mjk % 2 == 0)
                    elif nk % 4 == 2:
                        assert cond == (mjk % 2 == m.entry(j, k))

    def test_matches_closed_form_exhaustive(self, rng):
        # full verdicts, witnesses included, on every triangular matrix and
        # on a random conjugate of each
        for n in range(1, 6):
            for m in enumerate_all(n):
                sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
                for B in (m, conjugate(m, sigma)):
                    assert digraph_spin(B) == is_spin_general(B)


class TestDot:
    def test_edgeless_two_vertices(self):
        D = BottMatrix.zero(2)
        assert export_dot(D) == ('digraph {\n  label="orientable=true spin=true";\n'
                                 '  u1;\n  u2;\n}\n')

    def test_spin_example_edge_count(self):
        D = load_fixture("digraph_a")
        dot = export_dot(D)
        assert dot.count("->") == 6
        for i, j in ((2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6)):
            assert f"u{i} -> u{j};" in dot

    def test_verdict_label_and_annotation(self):
        m = load_fixture("digraph_c")
        dot = export_dot(m)
        assert 'label="orientable=true spin=false";' in dot
        # failing pair (1,2) is not an edge: annotated as an extra line
        assert "u1 -> u2 [color=red, style=dashed, dir=none, constraint=false];" in dot

    def test_failing_edge_gets_styled(self):
        # failing pair (1,2) that is an actual edge: no shared targets, but
        # the edge times the two ones in row 2 breaks parity
        m = BottMatrix.from_lists(
            [
                [0, 1, 0, 0, 1],
                [0, 0, 1, 1, 0],
                [0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0],
            ]
        )
        v = digraph_spin(m)
        assert not v.spin
        w = v.witness
        assert isinstance(w, PairWitness) and (w.j, w.k) == (1, 2)
        dot = export_dot(m)
        assert "u1 -> u2 [color=red, style=dashed];" in dot

    def test_byte_stable(self):
        m = load_fixture("digraph_d")
        assert export_dot(m) == export_dot(m)
