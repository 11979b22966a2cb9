import itertools
import random

import pytest

from realbott import (
    BadPartition,
    BottError,
    BottMatrix,
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    Permutation,
    RingElement,
    SWProfile,
    conjugate,
    evaluate_matrix,
    fibre_chain_verdicts,
    is_spin,
    matrix_index,
    monomial_str,
    multiply,
    normalize,
    parse_matrix,
    reduce_power_product,
    reduce_square,
    sw_number,
    sw_partitions,
    total_sw_class,
    w1_formula,
    w_top_minus_one,
    wk_recursive,
)
from realbott import cohomology
from realbott.cohomology import _product, _ring_tables, _times
from realbott.enumeration import enumerate_all
from realbott.fixtures import (
    DIM4_SPIN_LIST,
    REPRESENTATIVES,
    load_fixture,
    orientable_not_spin_family,
)

from conftest import random_bott, wu_flags, wu_total

KLEIN = parse_matrix("0 1\n0 0")


def masks(element):
    return set(element)


class TestRingElement:
    def test_serialization(self):
        assert str(RingElement(0)) == "0"
        assert str(RingElement(1)) == "1"
        e = RingElement.variable(1) + RingElement.variable(3)
        assert str(e) == "y1+y3"
        assert monomial_str(0b100101) == "y1*y3*y6"
        assert str(RingElement.from_masks({0b11, 0b1})) == "y1+y1*y2"
        assert str(RingElement.from_masks({0b11, 0b100, 0})) == "1+y3+y1*y2"

    def test_str_matches_per_variable_reference(self, rng):
        def reference(element):
            names = [
                "*".join(f"y{b + 1}" for b in range(m.bit_length()) if m >> b & 1) or "1"
                for m in sorted(element, key=int.bit_count)
            ]
            return "+".join(names) or "0"

        all_ones = BottMatrix(14, tuple(((1 << 14) - 1) & ~((2 << i) - 1) for i in range(14)))
        matrices = [all_ones] + [random_bott(rng, n) for n in range(1, 21, 3)]
        for C in matrices:
            for c in total_sw_class(C).classes:
                assert str(c) == reference(c)
        # masks past the 20 variables of the ring, and widths not a multiple of 10
        for _ in range(500):
            m = rng.getrandbits(rng.randint(0, 45))
            assert monomial_str(m) == reference([m])
        with pytest.raises(IndexOutOfRange):
            monomial_str(-1)

    def test_addition_is_symmetric_difference(self):
        a = RingElement.from_masks({0b01, 0b10})
        b = RingElement.from_masks({0b10, 0b100})
        assert masks(a + b) == {0b01, 0b100}
        assert (a + a).is_zero()

    def test_truth_is_having_a_term(self):
        assert bool(RingElement(0)) is False
        assert bool(RingElement.variable(1)) is True

    def test_repr_of_large_elements(self, rng):
        # decimal reprs of 2^n-bit ints passed Python's default digit limit
        # (4300) from n = 15; the hex repr has none and evaluates back
        profiles = [SWProfile(_all_ones(20))]
        profiles += [SWProfile(random_bott(rng, n)) for n in range(15, 21) for _ in range(30)]
        for profile in profiles:
            assert repr(profile) == f"SWProfile(matrix={profile.matrix!r})"
            for w in profile.classes:
                assert repr(w) == f"RingElement(bits={hex(w.bits)})"
                assert eval(repr(w), {"RingElement": RingElement}) == w


class TestReduceSquare:
    def test_zero_matrix(self):
        z = BottMatrix.zero(4)
        for i in range(1, 5):
            assert reduce_square(z, i).is_zero()

    def test_first_variable_always_zero(self, rng):
        for _ in range(20):
            m = random_bott(rng, rng.randint(1, 7))
            assert reduce_square(m, 1).is_zero()

    def test_digraph_example(self):
        # third column has ones in rows 1 and 2
        m = load_fixture("digraph_c")
        assert masks(reduce_square(m, 3)) == {0b101, 0b110}

    def test_top_variable_uses_last_column(self):
        m = parse_matrix("0 0 1\n0 0 1\n0 0 0")
        assert masks(reduce_square(m, 3)) == {0b101, 0b110}

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            reduce_square(BottMatrix.zero(3), 4)

    def test_general_matrix_reads_whole_column(self):
        # on a general matrix column i may have ones below row i
        rev3 = Permutation((3, 2, 1))
        G = conjugate(parse_matrix("0 1 1\n0 0 1\n0 0 0"), rev3)
        assert masks(reduce_square(G, 1)) == {0b011, 0b101}
        for n in range(1, 6):
            rev = Permutation(tuple(range(n, 0, -1)))
            for C in enumerate_all(n):
                G = conjugate(C, rev)
                for i in range(1, n + 1):
                    assert reduce_square(G, i) == reduce_power_product(G, [i, i])

    def test_homogeneous_degree_two(self, rng):
        for _ in range(30):
            m = random_bott(rng, rng.randint(2, 7))
            i = rng.randint(1, m.n)
            assert all(mask.bit_count() == 2 for mask in reduce_square(m, i))


class TestMultiply:
    def test_one_is_identity(self, rng):
        one = RingElement(1)
        for _ in range(20):
            m = random_bott(rng, 5)
            e = RingElement.from_masks(rng.sample(range(32), rng.randint(0, 6)))
            assert multiply(m, one, e) == e
            assert multiply(m, e, one) == e

    def test_square_dies_over_zero_matrix(self):
        z = BottMatrix.zero(3)
        y1 = RingElement.variable(1)
        assert multiply(z, y1, y1).is_zero()

    def test_single_substitution(self):
        m = load_fixture("digraph_b")  # columns 3 has ones in rows 1,2
        y3 = RingElement.variable(3)
        assert masks(multiply(m, y3, y3)) == {0b101, 0b110}

    def test_dimension_mismatch(self):
        z = BottMatrix.zero(2)
        with pytest.raises(DimensionMismatch):
            multiply(z, RingElement.variable(5), RingElement(1))

    def test_matches_plain_reduction(self, rng):
        for _ in range(200):
            n = rng.randint(2, 7)
            m = random_bott(rng, n)
            a = rng.sample(range(1, n + 1), rng.randint(1, n))
            b = rng.sample(range(1, n + 1), rng.randint(1, n))
            ea = RingElement.from_masks((_mask(a),))
            eb = RingElement.from_masks((_mask(b),))
            assert multiply(m, ea, eb) == reduce_power_product(m, sorted(a + b))

    def test_commutative_associative(self, rng):
        for _ in range(60):
            n = rng.randint(2, 6)
            m = random_bott(rng, n)
            a, b, c = (_random_element(rng, n) for _ in range(3))
            assert multiply(m, a, b) == multiply(m, b, a)
            assert multiply(m, multiply(m, a, b), c) == multiply(
                m, a, multiply(m, b, c)
            )

    def test_multi_bit_factor_matches_rewriter(self):
        # y_m * (sum of y_{j+1} over the bits j of col) against the
        # term-by-term rewriter, one generator of col at a time
        for n in range(2, 5):
            for m in enumerate_all(n):
                cols, lanes = m.columns(), _ring_tables(n)[0]
                for mono in range(1 << n):
                    base = [i + 1 for i in range(n) if (mono >> i) & 1]
                    by_var = [reduce_power_product(m, base + [j + 1]).bits for j in range(n)]
                    for col in range(1 << n):
                        if col.bit_count() < 2:
                            continue
                        expected = 0
                        for j in range(n):
                            if (col >> j) & 1:
                                expected ^= by_var[j]
                        got = _times(1 << mono, (col,), 0, cols, lanes)
                        assert got == expected, (m, mono, col)

    def test_homogeneous_products(self, rng):
        for _ in range(50):
            n = rng.randint(2, 7)
            m = random_bott(rng, n)
            p = rng.randint(1, n)
            q = rng.randint(1, n)
            a = _random_homogeneous(rng, n, p)
            b = _random_homogeneous(rng, n, q)
            prod = multiply(m, a, b)
            assert all(mask.bit_count() == p + q for mask in prod)


def _mask(indices):
    out = 0
    for i in indices:
        out |= 1 << (i - 1)
    return out


def _random_element(rng, n):
    return RingElement.from_masks(
        rng.sample(range(1 << n), rng.randint(0, min(6, 1 << n)))
    )


def _random_homogeneous(rng, n, k):
    combos = list(itertools.combinations(range(n), k))
    picked = rng.sample(combos, min(len(combos), rng.randint(1, 3)))
    return RingElement.from_masks(sum(1 << b for b in combo) for combo in picked)


class TestReductionOrders:
    def test_orders_agree(self, rng):
        for _ in range(300):
            n = rng.randint(2, 7)
            m = random_bott(rng, n)
            mono = sorted(rng.choices(range(1, n + 1), k=rng.randint(2, 2 * n)))
            hi = reduce_power_product(m, mono, order="highest")
            lo = reduce_power_product(m, mono, order="lowest")
            assert hi == lo

    def test_bad_order_rejected(self):
        with pytest.raises(BottError, match="^order must be 'highest' or 'lowest', got 'middle'$"):
            reduce_power_product(BottMatrix.zero(2), [1], order="middle")

    def test_square_free_input_is_fixed(self, rng):
        for _ in range(40):
            n = rng.randint(1, 7)
            m = random_bott(rng, n)
            combo = rng.sample(range(1, n + 1), rng.randint(0, n))
            nf = reduce_power_product(m, combo)
            assert masks(nf) == {_mask(combo)}


class TestTotalClass:
    def test_alias_is_the_profile_class(self):
        assert total_sw_class is SWProfile

    def test_zero_matrix(self):
        profile = total_sw_class(BottMatrix.zero(5))
        assert all(w.is_zero() for w in profile.classes[1:])
        assert profile.orientable and profile.spin

    def test_klein_bottle(self):
        profile = total_sw_class(KLEIN)
        assert str(profile.classes[1]) == "y1"
        assert not profile.orientable
        assert profile.spin is None

    def test_circle(self):
        profile = total_sw_class(BottMatrix.zero(1))
        assert len(profile.classes) == 2
        assert profile.orientable and profile.spin

    def test_digraph_example_not_spin(self):
        profile = total_sw_class(load_fixture("digraph_c"))
        assert profile.classes[1].is_zero()
        assert not profile.classes[2].is_zero()
        assert profile.spin is False

    def test_family_orientable_not_spin(self):
        profile = total_sw_class(orientable_not_spin_family(5))
        assert profile.classes[1].is_zero()
        assert not profile.classes[2].is_zero()

    def test_json_shape(self):
        d = total_sw_class(KLEIN).to_json_dict()
        assert set(d) == {"w", "orientable", "spin"}
        assert d["w"][0] == "1"
        assert d["spin"] is None
        assert total_sw_class(KLEIN).sw_numbers_all_zero is True

    def test_lazy_split_matches_eager(self):
        # n = 1 has no degree-2 mask: spin comes from orientability alone
        for n in range(1, 6):
            degree = [
                sum(1 << m for m in range(1 << n) if m.bit_count() == d)
                for d in range(n + 1)
            ]
            for m in enumerate_all(n):
                profile = total_sw_class(m)
                eager = tuple(RingElement(profile.total & mask) for mask in degree)
                assert profile.classes == eager
                orientable = eager[1].is_zero()
                spin = (n < 2 or eager[2].is_zero()) if orientable else None
                assert (profile.orientable, profile.spin) == (orientable, spin)
                assert profile.to_json_dict() == {
                    "w": [str(w) for w in eager],
                    "orientable": orientable,
                    "spin": spin,
                }

    def test_classes_homogeneous(self, rng):
        for _ in range(30):
            m = random_bott(rng, rng.randint(1, 7))
            profile = total_sw_class(m)
            assert len(profile.classes) == m.n + 1
            assert str(profile.classes[0]) == "1"
            for k, w in enumerate(profile.classes):
                assert all(mask.bit_count() == k for mask in w)

    def test_one_pass_matches_linear_chain(self):
        # keep = -1 runs the rewrite loop over every column in one call; it
        # must equal E += E * (column sum), one keep = 0 call per column
        rng = random.Random(17)
        cases = [(random_bott(rng, n), rng.getrandbits(1 << n))
                 for n in range(1, 11) for _ in range(6)]
        for n in (14, 15, 16):  # balanced: column j holds j // 2 ones
            rows = [0] * n
            for j in range(n):
                for i in rng.sample(range(j), j // 2):
                    rows[i] |= 1 << j
            cases.append((BottMatrix(n, tuple(rows)), rng.getrandbits(1 << n)))
        for C, E in cases:
            cols, lanes = C.columns(), _ring_tables(C.n)[0]
            for start in (1, E, 0):
                chain = start
                for col in cols:
                    chain ^= _times(chain, (col,), 0, cols, lanes)
                assert _times(start, cols, -1, cols, lanes) == chain, C
            assert _times(E, (0,), 0, cols, lanes) == 0


class TestFirstClassFormula:
    def test_zero(self):
        assert w1_formula(BottMatrix.zero(4)).is_zero()

    def test_klein(self):
        assert str(w1_formula(KLEIN)) == "y1"

    def test_spin_list_all_zero(self):
        for name in DIM4_SPIN_LIST:
            assert w1_formula(load_fixture(name)).is_zero()

    def test_matches_expansion(self, rng):
        for n in range(1, 6):
            for m in enumerate_all(n):
                assert w1_formula(m) == total_sw_class(m).classes[1]
        for _ in range(100):
            m = random_bott(rng, 8)
            assert w1_formula(m) == total_sw_class(m).classes[1]


class TestRecursion:
    def test_degree_one_base(self, rng):
        for _ in range(30):
            m = random_bott(rng, rng.randint(1, 7))
            assert wk_recursive(m, 1) == w1_formula(m)

    def test_spin_digraph_example_degree_two(self):
        assert wk_recursive(load_fixture("digraph_a"), 2).is_zero()

    def test_matches_expansion_all_degrees(self, rng):
        for _ in range(100):
            n = rng.randint(1, 6)
            m = random_bott(rng, n)
            profile = total_sw_class(m)
            for k in range(1, n + 1):
                assert wk_recursive(m, k) == profile.classes[k]

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            wk_recursive(BottMatrix.zero(3), 0)
        with pytest.raises(IndexOutOfRange):
            wk_recursive(BottMatrix.zero(3), 4)


class TestSWNumbers:
    def test_partition_generation(self):
        # partition counts of 1..8
        for n, expected in zip(range(1, 9), [1, 2, 3, 5, 7, 11, 15, 22]):
            parts = list(sw_partitions(n))
            assert len(parts) == expected
            assert len(set(parts)) == expected
            for r in parts:
                assert len(r) == n
                assert sum(i * ri for i, ri in enumerate(r, 1)) == n

    def test_zero_matrix_all_zero(self):
        profile = total_sw_class(BottMatrix.zero(4))
        for r in sw_partitions(4):
            assert sw_number(profile, r) == 0

    def test_top_class_exponent(self, rng):
        # the class of degree n alone: its top coefficient always vanishes
        for _ in range(20):
            n = rng.randint(2, 7)
            profile = total_sw_class(random_bott(rng, n))
            r = tuple(0 if i < n else 1 for i in range(1, n + 1))
            assert sw_number(profile, r) == 0

    def test_bad_partition(self):
        profile = total_sw_class(BottMatrix.zero(3))
        with pytest.raises(BadPartition):
            sw_number(profile, (1, 1, 1))
        with pytest.raises(BadPartition):
            sw_number(profile, (3,))

    @pytest.mark.parametrize("partition", [None, 3, (2.0, 0), (False, True), (0, 1.0)])
    def test_partition_of_int_exponents(self, partition):
        # (False, True) has weighted degree 2 but is no exponent vector
        with pytest.raises(BadPartition):
            sw_number(total_sw_class(BottMatrix.zero(2)), partition)

    def test_all_numbers_vanish_random(self, rng):
        for _ in range(100):
            m = random_bott(rng, rng.randint(1, 7))
            assert total_sw_class(m).sw_numbers_all_zero


    def test_masked_chain_matches_product_chain(self, monkeypatch):
        # Every SW number is 0, so equal numbers prove nothing: compare the
        # partial products instead.  The walk passes each internal node's
        # product of parts to _times to multiply by w, once and depth first,
        # so that sequence is each partition's proper prefix products, built
        # here from its descending part list, in first-seen order when the
        # lists run in reverse lexicographic order (largest first part first).
        rng = random.Random(13)
        cases = [_all_ones(10)]
        for n in range(1, 9):
            for p in (0.1, 0.3, 0.7):
                for _ in range(6):
                    rows = [sum(1 << j for j in range(i + 1, n) if rng.random() < p)
                            for i in range(n)]
                    cases.append(BottMatrix(n, tuple(rows)))
        profiles = [total_sw_class(C) for C in cases]
        chains = 0
        for profile in profiles:
            n = profile.matrix.n
            cols = profile.matrix.columns()
            walk = sorted(([i for i in range(n, 0, -1) for _ in range(r[i - 1])]
                           for r in sw_partitions(n)), reverse=True)
            expected, numbers = {}, []
            for parts in walk:
                prefix = 1
                for k, part in enumerate(parts, 1):
                    prefix = _product(cols, prefix, profile.classes[part].bits)
                    if k < len(parts):
                        expected.setdefault(tuple(parts[:k]), prefix)
                top = prefix >> ((1 << n) - 1)
                assert prefix == top << ((1 << n) - 1), (profile.matrix, parts)
                numbers.append((tuple(map(parts.count, range(1, n + 1))), top))
                chains += 1
            with monkeypatch.context() as patch:
                fed = _record_times(patch)
                assert list(profile.sw_numbers.items()) == numbers, profile.matrix
            assert fed == list(expected.values()), profile.matrix
        assert chains == 42 + 18 * sum(1 for n in range(1, 9) for _ in sw_partitions(n))

    def test_bad_partitions_refused_before_any_product(self, monkeypatch):
        # the cases of the two tests above, each on a profile with no walk yet
        cases = [(3, (1, 1, 1)), (3, (3,)), (2, None), (2, 3), (2, (2.0, 0)),
                 (2, (False, True)), (2, (0, 1.0))]
        profiles = [total_sw_class(BottMatrix.zero(n)) for n, _ in cases]
        fed = _record_times(monkeypatch)
        for profile, (_, partition) in zip(profiles, cases):
            with pytest.raises(BadPartition):
                sw_number(profile, partition)
        assert fed == []

    def test_one_walk_serves_every_partition(self, monkeypatch):
        profile = total_sw_class(_all_ones(8))
        fed = _record_times(monkeypatch)
        first, *others = sw_partitions(8)
        assert sw_number(profile, first) == 0
        walked = len(fed)
        assert walked > 0
        assert all(sw_number(profile, r) == 0 for r in others)
        assert len(fed) == walked


def _record_times(monkeypatch):
    """Patch cohomology._times to record each element it multiplies."""
    fed = []

    def recording(E, factors, keep, cols, lanes):
        fed.append(E)
        return _times(E, factors, keep, cols, lanes)

    monkeypatch.setattr(cohomology, "_times", recording)
    return fed


class TestWuFormula:
    """Wu's formula reads the total class off the ring's products and
    Poincare duality alone, with no product over the columns: a reference
    for every class, also above degree 2 (see `conftest.wu_total`)."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_total_class_matches(self, n):
        # at n <= 4 every product runs through reduce_power_product, not _times
        for m in enumerate_all(n):
            w, full = wu_total(m, by_rewriter=n <= 4)
            assert full, m
            assert w == total_sw_class(m).total, m

    def test_flags_match_closed_form(self):
        counts = [0, 0]
        for m in enumerate_all(6):
            orientable, spin = wu_flags(m)
            v = is_spin(m)
            assert (orientable, spin) == (v.orientable, v.spin), m
            counts[0] += orientable
            counts[1] += spin
        assert counts == [1024, 176]


class TestStructuralFacts:
    def test_top_degree_class_always_zero(self, rng):
        # classes only involve the first n-1 variables, so w_n = 0
        for _ in range(50):
            n = rng.randint(2, 7)
            m = random_bott(rng, n)
            assert total_sw_class(m).classes[n].is_zero()

    def test_wu_consequence_small(self):
        for n in range(3, 6):
            for m in enumerate_all(n):
                profile = total_sw_class(m)
                if profile.classes[1].is_zero() and profile.classes[2].is_zero():
                    assert profile.classes[3].is_zero()


def _all_ones(n):
    return BottMatrix.from_lists([[int(j > i) for j in range(n)] for i in range(n)])


class TestParseCap:
    def test_dense_recursion_n16(self):
        m = _all_ones(16)
        profile = total_sw_class(m)
        for k in range(1, 17):
            assert wk_recursive(m, k) == profile.classes[k]

    def test_random_n20(self, rng):
        m = random_bott(rng, 20)
        # the same matrix with every row sum made even, so spin is decided
        # by w2 rather than by w1 alone
        even = BottMatrix(20, tuple(r ^ (r.bit_count() & 1) << 19 for r in m.rows))
        for C in (m, even):
            profile = total_sw_class(C)
            v = is_spin(C)
            assert profile.classes[1] == w1_formula(C)
            assert profile.orientable == v.orientable
            assert (profile.spin is True) == v.spin
        assert not is_spin(m).orientable and is_spin(even).orientable

    def test_size_guards(self):
        with pytest.raises(IndexOutOfRange):
            RingElement.variable(10**6)
        with pytest.raises(IndexOutOfRange):
            RingElement.from_masks([1 << 20])
        with pytest.raises(DimensionTooLarge):
            total_sw_class(BottMatrix.zero(21))


class TestTriangularPrecondition:
    MESSAGE = ("^(classes need|fibres need|a packed index needs) a strictly upper "
               "triangular matrix; normalize the general one first$")

    @pytest.mark.parametrize("call", [
        total_sw_class,
        lambda G: multiply(G, RingElement.variable(1), RingElement.variable(2)),
        lambda G: wk_recursive(G, 2),
        # the single class of degree n: the exponent vector (0, ..., 0, 1)
        lambda G: sw_number(SWProfile(G), (0,) * (G.n - 1) + (1,)),
        w_top_minus_one,
        evaluate_matrix,
        fibre_chain_verdicts,
        matrix_index,
    ], ids=["total_sw_class", "multiply", "wk_recursive", "sw_number", "w_top_minus_one",
            "evaluate_matrix", "fibre_chain_verdicts", "matrix_index"])
    def test_general_matrix_refused(self, call):
        # reversed conjugates of the n = 4 spin list and n = 5 representatives
        for name in DIM4_SPIN_LIST + REPRESENTATIVES[5]:
            C = load_fixture(name)
            G = conjugate(C, Permutation(tuple(range(C.n, 0, -1))))
            with pytest.raises(BottError, match=self.MESSAGE):
                call(G)
            call(normalize(G)[1])  # the triangular form is accepted


def sw_numbers_vanish(n: int) -> int:
    """Every SW number of every n x n matrix must be 0: each real Bott
    manifold bounds.  Returns the number of matrices checked; acceptance
    criterion 7 runs n <= 5, and `python tests/test_cohomology.py` runs
    every matrix at n = 6."""
    checked = 0
    for C in enumerate_all(n):
        assert total_sw_class(C).sw_numbers_all_zero, C
        checked += 1
    return checked


if __name__ == "__main__":
    print(f"SW numbers n = 6: {sw_numbers_vanish(6)} matrices, all zero")
