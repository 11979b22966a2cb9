import itertools
import random
from dataclasses import FrozenInstanceError, fields
from types import SimpleNamespace

import pytest

from realbott import (
    BottMatrix,
    GeneralBottMatrix,
    IndexOutOfRange,
    PairWitness,
    Permutation,
    RowWitness,
    SpinVerdict,
    build_digraph,
    conjugate,
    delete_leading,
    digraph_spin,
    fibre_chain_verdicts,
    is_orientable,
    is_spin,
    is_spin_general,
    normalize,
    pair_terms,
    parse_matrix,
    row_pair_matrix,
    spin_by_pairs,
    total_sw_class,
    w_top_minus_one,
)
from realbott import criteria
from realbott.criteria import _closed_form_terms, _scan
from realbott.enumeration import enumerate_all, evaluate_matrix
from realbott.fixtures import (
    DIM4_SPIN_LIST,
    REPRESENTATIVES,
    load_fixture,
    orientable_not_spin_family,
)

from conftest import random_bott

KLEIN = parse_matrix("0 1\n0 0")


class TestOrientable:
    def test_zero(self):
        assert is_orientable(BottMatrix.zero(3))

    def test_klein(self):
        assert not is_orientable(KLEIN)

    def test_spin_list(self):
        for name in DIM4_SPIN_LIST:
            assert is_orientable(load_fixture(name))

    def test_matches_first_class(self, rng):
        for _ in range(200):
            m = random_bott(rng, rng.randint(1, 7))
            assert is_orientable(m) == total_sw_class(m).classes[1].is_zero()


class TestPairTerms:
    def test_zero(self):
        t = pair_terms(BottMatrix.zero(4), 2, 3)
        assert (t.P, t.Q) == (0, 0)

    def test_family_witness_pair(self):
        # rows 1 and n-2 share no column, but the (1,n-2) entry times the
        # two ones in row n-2 gives Q=1
        t = pair_terms(orientable_not_spin_family(5), 1, 3)
        assert (t.P + t.Q) % 2 == 1
        assert (t.P, t.Q) == (0, 1)

    def test_digraph_example_pair(self):
        t = pair_terms(load_fixture("digraph_b"), 1, 2)
        assert (t.P, t.Q) == (1, 1)

    def test_bad_indices(self):
        with pytest.raises(IndexOutOfRange):
            pair_terms(BottMatrix.zero(3), 3, 3)


class TestIsSpin:
    def test_spin_list(self):
        for name in DIM4_SPIN_LIST:
            v = is_spin(load_fixture(name))
            assert v.orientable and v.spin and v.witness is None

    def test_family_not_spin(self):
        for n in range(5, 9):
            v = is_spin(orientable_not_spin_family(n))
            assert v.orientable and not v.spin
            w = v.witness
            assert isinstance(w, PairWitness)
            assert (w.j, w.k) == (1, n - 2)
            assert (w.P + w.Q) % 2 == 1

    def test_representative_patterns(self):
        for expected_spin in REPRESENTATIVES.values():
            for name, expected in expected_spin.items():
                assert is_spin(load_fixture(name)).spin == expected, name

    def test_klein_row_witness(self):
        v = is_spin(KLEIN)
        assert not v.orientable and not v.spin
        assert v.witness == RowWitness(1)

    def test_non_orientable_pair_diagnostics(self):
        # odd row 1 and a pair violation: both witnesses reported
        m = parse_matrix("0 1 1 1\n0 0 1 1\n0 0 0 0\n0 0 0 0")
        v = is_spin(m)
        assert not v.orientable
        kinds = [type(w) for w in v.witnesses]
        assert kinds[0] is RowWitness
        assert PairWitness in kinds

    def test_circle(self):
        v = is_spin(BottMatrix.zero(1))
        assert v.orientable and v.spin

    def test_json_shapes(self):
        assert is_spin(BottMatrix.zero(2)).to_json_dict() == {
            "orientable": True,
            "spin": True,
            "witness": None,
        }
        d = is_spin(load_fixture("digraph_c")).to_json_dict()
        assert d["witness"] == {"kind": "pair", "j": 1, "k": 2, "P": 1, "Q": 0}
        d = is_spin(KLEIN).to_json_dict()
        assert d["witness"] == {"kind": "row", "i": 1}

    def test_returned_verdicts_are_frozen(self):
        for m in enumerate_all(4):
            for v in (is_spin(m), digraph_spin(build_digraph(m))):
                with pytest.raises(FrozenInstanceError):
                    v.spin = not v.spin
                for w in v.witnesses:
                    with pytest.raises(FrozenInstanceError):
                        setattr(w, fields(w)[0].name, 0)

    def test_one_record_per_outcome(self):
        # two matrices with row 1 odd and no failing pair
        a = parse_matrix("0 1 0\n0 0 0\n0 0 0")
        b = parse_matrix("0 0 1\n0 0 0\n0 0 0")
        assert is_spin(a) is is_spin(b) is digraph_spin(build_digraph(a))
        assert is_spin(a) == SpinVerdict(False, False, (RowWitness(1),))

    def test_verdict_table_stays_bounded(self):
        bound = criteria._verdict.cache_info().maxsize
        assert bound == 1024
        try:
            for odd in range(bound + 100):
                assert criteria._verdict(odd, None) == SpinVerdict(not odd, not odd, (RowWitness(odd),) if odd else ())
            assert criteria._verdict.cache_info().currsize <= bound
        finally:
            criteria._verdict.cache_clear()

    def test_matches_ring_oracle_exhaustive(self):
        for n in range(1, 5):
            for m in enumerate_all(n):
                profile = total_sw_class(m)
                v = is_spin(m)
                assert v.orientable == profile.orientable
                assert v.spin == (profile.spin is True)


class TestGeneralMatrices:
    def test_upper_triangular_agrees(self, rng):
        for _ in range(50):
            m = random_bott(rng, rng.randint(1, 7))
            g = GeneralBottMatrix(m.n, m.rows)
            a, b = is_spin_general(g), is_spin(m)
            assert (a.orientable, a.spin, a.witnesses) == (
                b.orientable,
                b.spin,
                b.witnesses,
            )

    def test_reversal_conjugates_of_spin_list(self):
        rev = Permutation((4, 3, 2, 1))
        for name in DIM4_SPIN_LIST:
            B = conjugate(load_fixture(name), rev)
            assert is_spin_general(B).spin

    def test_agrees_with_normalized(self, rng):
        for _ in range(400):
            n = rng.randint(1, 6)
            C = random_bott(rng, n)
            sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            B = conjugate(C, sigma)
            _, C2 = normalize(B)
            vg, vc = is_spin_general(B), is_spin(C2)
            assert (vg.orientable, vg.spin) == (vc.orientable, vc.spin)

    def test_pair_reduction_general(self, rng):
        for _ in range(150):
            n = rng.randint(2, 6)
            C = random_bott(rng, n)
            sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            B = conjugate(C, sigma)
            all_pairs_spin = True
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    rows = [0] * n
                    rows[j - 1] = B.rows[j - 1]
                    rows[k - 1] = B.rows[k - 1]
                    pair = GeneralBottMatrix(n, tuple(rows))
                    if not is_spin_general(pair).spin:
                        all_pairs_spin = False
            assert all_pairs_spin == bool(is_spin_general(B).spin)


class TestSpinByPairs:
    def test_zero(self):
        assert spin_by_pairs(BottMatrix.zero(4))

    def test_digraph_example_pair_matrix(self):
        m = load_fixture("digraph_d")
        pair = row_pair_matrix(m, 2, 3)
        assert not is_spin(pair).spin
        assert not spin_by_pairs(m)

    def test_exhaustive_small(self):
        for n in range(1, 5):
            for m in enumerate_all(n):
                assert spin_by_pairs(m) == is_spin(m).spin


class TestTopMinusOne:
    def test_orientable_is_zero(self):
        for name in DIM4_SPIN_LIST:
            assert w_top_minus_one(load_fixture(name)).is_zero()

    def test_full_superdiagonal(self):
        m = parse_matrix("0 1 0\n0 0 1\n0 0 0")
        assert str(w_top_minus_one(m)) == "y1*y2"

    def test_zero_matrix(self):
        assert w_top_minus_one(BottMatrix.zero(5)).is_zero()

    def test_needs_two(self):
        with pytest.raises(IndexOutOfRange):
            w_top_minus_one(BottMatrix.zero(1))

    def test_matches_expansion(self, rng):
        for _ in range(150):
            n = rng.randint(2, 7)
            m = random_bott(rng, n)
            assert w_top_minus_one(m) == total_sw_class(m).classes[n - 1]


class TestFibreChain:
    def test_zero_all_spin(self):
        verdicts = fibre_chain_verdicts(BottMatrix.zero(5))
        assert len(verdicts) == 4
        assert all(v.spin for v in verdicts)

    def test_spin_digraph_example(self):
        verdicts = fibre_chain_verdicts(load_fixture("digraph_a"))
        assert len(verdicts) == 5
        assert all(v.spin for v in verdicts)

    def test_klein_single(self):
        verdicts = fibre_chain_verdicts(KLEIN)
        assert len(verdicts) == 1
        assert not verdicts[0].orientable

    def test_circle_single(self):
        verdicts = fibre_chain_verdicts(BottMatrix.zero(1))
        assert len(verdicts) == 1 and verdicts[0].spin

    def test_monotone_inheritance(self):
        for n in range(2, 6):
            for m in enumerate_all(n):
                top = is_spin(m)
                chain = [is_spin(delete_leading(m, k)) for k in range(m.n - 1)]
                if top.orientable:
                    assert all(v.orientable for v in chain)
                if top.spin:
                    assert all(v.spin for v in chain)


def _exact_binomial_terms(out, j, k):
    """The digraph route's (M_jk mod 2, Q_jk) for one pair, with exact
    integer binomials of the out-degrees reduced afterwards."""
    nj = out[j].bit_count()
    nk = out[k].bit_count()
    q = (
        ((out[j] >> k) & 1) * (nk * (nk - 1) // 2)
        + ((out[k] >> j) & 1) * (nj * (nj - 1) // 2)
    ) & 1
    return (out[j] & out[k]).bit_count() & 1, q


def _pair_scan(rows, terms) -> SpinVerdict:
    """Reference verdict: the first odd row, then the first pair j < k, in
    lexicographic order, whose terms (P, Q) = terms(rows, j-1, k-1) differ,
    one pair at a time."""
    witnesses = []
    orientable = True
    for i, row in enumerate(rows, 1):
        if row.bit_count() & 1:
            orientable = False
            witnesses.append(RowWitness(i))
            break
    n = len(rows)
    for j in range(n):
        for k in range(j + 1, n):
            P, Q = terms(rows, j, k)
            if P != Q:
                witnesses.append(PairWitness(j + 1, k + 1, P, Q))
                return SpinVerdict(orientable, False, tuple(witnesses))
    return SpinVerdict(orientable, orientable, tuple(witnesses))


def _pairs_reference(C, terms) -> bool:
    """spin_by_pairs by the reference scan, with the given pair terms, of
    every two-row extraction padded back to n rows."""
    for j in range(C.n):
        for k in range(j + 1, C.n):
            rows = [0] * C.n
            rows[j] = C.rows[j]
            rows[k] = C.rows[k]
            if not _pair_scan(tuple(rows), terms).spin:
                return False
    return True


def _random_density(rng: random.Random, n: int, p: float) -> BottMatrix:
    rows = [0] * n
    for i, j in [(i, j) for i in range(n) for j in range(i + 1, n)]:
        if rng.random() < p:
            rows[i] |= 1 << j
    return BottMatrix(n, tuple(rows))


def _spin_blocks() -> list[BottMatrix]:
    """The spin matrices with n <= 4, as blocks for `_spin_sum`."""
    return [C for n in range(1, 5) for C in enumerate_all(n) if total_sw_class(C).spin]


def _spin_sum(rng: random.Random, n: int, blocks) -> BottMatrix:
    """Direct sum of random spin blocks: spin, since pairs in different
    blocks share no column and no edge."""
    rows: list[int] = []
    while len(rows) < n:
        block = rng.choice([B for B in blocks if B.n <= n - len(rows)])
        rows += [row << len(rows) for row in block.rows]
    return BottMatrix(n, tuple(rows))


def _scan_cases():
    """Every matrix with n <= 5, then seeded random ones at n = 7..20: at
    three densities, and as direct sums of spin blocks (their scans run to
    the end) with and without one entry flipped."""
    yield from (C for n in range(1, 6) for C in enumerate_all(n))
    blocks = _spin_blocks()
    rng = random.Random(5)
    for n in range(7, 21):
        for p in (0.05, 0.15, 0.5):
            for _ in range(4):
                yield _random_density(rng, n, p)
        for _ in range(4):
            S = _spin_sum(rng, n, blocks)
            yield S
            i, j = rng.choice([(i, j) for i in range(n) for j in range(i + 1, n)])
            rows = list(S.rows)
            rows[i] ^= 1 << j
            yield BottMatrix(n, tuple(rows))


class TestRowScanMatchesPairScan:
    def test_routes_match_per_pair_reference(self):
        rng = random.Random(11)
        spin_seen = 0
        for C in _scan_cases():
            sigma = Permutation(tuple(rng.sample(range(1, C.n + 1), C.n)))
            pairwise = spin_by_pairs(C)
            for M in (C, conjugate(C, sigma)):
                closed = _pair_scan(M.rows, _closed_form_terms)
                assert is_spin(M) == closed, M
                binomial = _pair_scan(M.rows, _exact_binomial_terms)
                assert digraph_spin(build_digraph(M)) == binomial, M
                # the two-row route against extractions read by both term formulas
                assert spin_by_pairs(M) == pairwise == _pairs_reference(M, _closed_form_terms), M
                assert pairwise == _pairs_reference(M, _exact_binomial_terms), M
            spin_seen += C.n >= 7 and is_spin(C).spin
        assert spin_seen >= 56  # full-length scans at n >= 7 were compared

    def test_extraction_verdict_matches_full_scan(self):
        # the two-row route reads two row parities and one pair's terms;
        # the extraction it stands for has n rows and every column masked
        odd = failing = 0
        for C in _scan_cases():
            cols = C.columns()
            for j in range(C.n):
                for k in range(j + 1, C.n):
                    keep = (1 << j) | (1 << k)
                    rows = [0] * C.n
                    rows[j], rows[k] = C.rows[j], C.rows[k]
                    q = [N >> 1 & 1 for N in range(C.n)]
                    full = _scan(rows, [c & keep for c in cols], q)
                    P, Q = _closed_form_terms(C.rows, j, k)
                    first_odd = next((i + 1 for i in (j, k) if C.rows[i].bit_count() & 1), 0)
                    assert (first_odd, None if P == Q else (j + 1, k + 1, P, Q)) == full
                    odd += full[0] > 0
                    failing += full[1] is not None
        assert odd > 10000 and failing > 4000  # both verdict parts were compared

    def test_two_row_route_reads_each_pair_once(self):
        # rows that record each row-by-row `&` show which pairs the route
        # reads: each pair of two nonzero rows once, in lexicographic order,
        # up to the first failing pair, and none when some row is odd
        read = []

        class Row(int):
            def __and__(self, other):
                if isinstance(other, Row):
                    read.append((min(self.j, other.j), max(self.j, other.j)))
                return int(self) & int(other)

        def recording(C):
            rows = []
            for j, r in enumerate(C.rows):
                rows.append(Row(r))
                rows[-1].j = j
            return SimpleNamespace(n=C.n, rows=tuple(rows))

        blocks = _spin_blocks()
        rng = random.Random(3)
        spin_count = stopped = 0
        for C in [*enumerate_all(5), *(_spin_sum(rng, n, blocks) for n in range(6, 21))]:
            read.clear()
            spin = spin_by_pairs(recording(C))
            assert spin == spin_by_pairs(C), C
            live = [j for j in range(C.n) if C.rows[j]]
            pairs = [(j, k) for a, j in enumerate(live) for k in live[a + 1:]]
            if any(row.bit_count() & 1 for row in C.rows):
                assert read == [] and not spin, C
            elif spin:
                assert read == pairs, C
                spin_count += 1
            else:
                # the last pair read is the first failing one
                assert read == pairs[:len(read)], C
                terms = [_closed_form_terms(C.rows, j, k) for j, k in read]
                assert [P != Q for P, Q in terms] == [False] * (len(read) - 1) + [True], C
                stopped += len(read) < len(pairs)
        assert spin_count == 30 + 15  # the n = 5 spin matrices and every spin sum
        assert stopped > 0  # some scans ended before their last pair

    def test_spin_sums_agree_with_the_ring(self):
        # uniform draws above n = 8 are almost never spin, so seeded direct
        # sums of spin blocks take every route through all of its pairs
        blocks = _spin_blocks()
        rng = random.Random(17)
        spin = 0
        for n in range(9, 15):
            for _ in range(10):
                S = _spin_sum(rng, n, blocks)
                i, j = rng.choice([(i, j) for i in range(n) for j in range(i + 1, n)])
                rows = list(S.rows)
                rows[i] ^= 1 << j
                for M in (S, BottMatrix(n, tuple(rows))):
                    _, verdict, mismatch = evaluate_matrix(M)
                    assert mismatch is None, mismatch
                    spin += verdict
        assert spin >= 60


def conjugate_sweep(n: int, sigmas_per_matrix: int | None = None, seed: int = 0) -> int:
    """Every n x n matrix C under every permutation sigma, or under a seeded
    draw of `sigmas_per_matrix` of them: the general matrix G = conjugate(C,
    sigma) must give C's flags on the closed-form, digraph and two-row
    routes, both records must equal the per-pair references on G, witnesses
    included, and the ring on normalize(G)'s matrix must give C's flags.
    Returns the number of conjugates checked.  Sweeps decode triangular
    matrices only, so this puts the routes' k -> j terms under a sweep;
    `python tests/test_criteria.py` runs every permutation at n = 5."""
    sigmas = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
    rng = random.Random(seed)
    ring: dict[tuple[int, ...], tuple[bool, bool]] = {}
    checked = 0
    for C in enumerate_all(n):
        v = is_spin(C)
        flags = (v.orientable, v.spin)
        drawn = sigmas if sigmas_per_matrix is None else rng.sample(sigmas, sigmas_per_matrix)
        for sigma in drawn:
            G = conjugate(C, sigma)
            closed, digraph = is_spin(G), digraph_spin(build_digraph(G))
            assert (closed.orientable, closed.spin) == flags, (C, sigma)
            assert (digraph.orientable, digraph.spin) == flags, (C, sigma)
            assert spin_by_pairs(G) == v.spin, (C, sigma)
            assert closed == _pair_scan(G.rows, _closed_form_terms), (C, sigma)
            assert digraph == _pair_scan(G.rows, _exact_binomial_terms), (C, sigma)
            N = normalize(G)[1]
            if N.rows not in ring:
                profile = total_sw_class(N)
                ring[N.rows] = (profile.orientable, profile.spin is True)
            assert ring[N.rows] == flags, (C, sigma)
            checked += 1
    return checked


class TestConjugateSweeps:
    def test_every_permutation_up_to_n4(self):
        counts = [conjugate_sweep(n) for n in range(1, 5)]
        assert counts == [1, 4, 48, 1536]

    def test_seeded_permutations_at_n5(self):
        # 1024 matrices, 12 of the 120 permutations each; the full set runs
        # as a CI step (see `conjugate_sweep`)
        assert conjugate_sweep(5, 12, seed=2605) == 12 * 1024


class TestScansBeyondTheParseCap:
    def test_routes_match_per_pair_reference(self):
        # the pair-sum tables must cover every row sum the constructors
        # allow, not only those up to MAX_SINGLE_N
        blocks = _spin_blocks()
        rng = random.Random(2606)
        for n in (21, 40, 70):
            cases = [BottMatrix.zero(n), _random_density(rng, n, 0.05),
                     _random_density(rng, n, 0.5), _spin_sum(rng, n, blocks)]
            for C in cases:
                sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
                for M in (C, conjugate(C, sigma)):
                    closed = _pair_scan(M.rows, _closed_form_terms)
                    assert is_spin(M) == closed, M
                    assert digraph_spin(build_digraph(M)) == _pair_scan(
                        M.rows, _exact_binomial_terms), M
                    assert spin_by_pairs(M) == closed.spin, M
            assert is_spin(cases[3]).spin and is_spin(cases[0]).spin


if __name__ == "__main__":
    print(f"conjugate sweep n = 5: {conjugate_sweep(5)} conjugates, all routes agree")
