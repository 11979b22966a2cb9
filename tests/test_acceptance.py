"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them on success).  Tolerances are exact; time limits are
asserted with perf_counter.
"""

import random
import time

from realbott import (
    Permutation,
    RingElement,
    common_out,
    conjugate,
    delete_leading,
    digraph_spin,
    enumerate_all,
    fibre_chain_verdicts,
    is_orientable,
    is_spin,
    is_spin_general,
    matrix_index,
    normalize,
    out_degree,
    out_neighbours,
    pair_terms,
    reduce_power_product,
    row_pair_matrix,
    spin_by_pairs,
    sweep,
    total_sw_class,
    w1_formula,
    w_top_minus_one,
    wk_recursive,
)
from realbott.criteria import PairWitness
from realbott.fixtures import (
    DIGRAPH_FIXTURES,
    DIM4_SPIN_LIST,
    REPRESENTATIVE_SPIN,
    REPRESENTATIVES,
    load_fixture,
    orientable_not_spin_family,
)

from conftest import random_bott, wu_total


def report(num, desc, ok, elapsed=None, limit=None):
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s, limit {limit}s]"
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} {desc}{timing}")
    assert ok, f"criterion {num} failed: {desc}"
    if elapsed is not None:
        assert elapsed < limit, f"criterion {num} overran: {elapsed:.2f}s"


def test_criterion_1_dim4_exhaustive():
    start = time.perf_counter()
    r = sweep(4)
    spin_set = {
        matrix_index(m) for m in enumerate_all(4) if is_spin(m).spin
    }
    expected = {matrix_index(load_fixture(name)) for name in DIM4_SPIN_LIST}
    ok = (
        r.total == 64
        and r.orientable_count == 8
        and r.spin_count == 8
        and r.mismatches == []
        and r.reference_ok is True
        and spin_set == expected
    )
    report(1, "n=4 exhaustive: 8 orientable, 8 spin, set equality", ok,
           time.perf_counter() - start, 1.0)


def test_criterion_2_dim2_dim3_exhaustive():
    start = time.perf_counter()
    r2, r3 = sweep(2), sweep(3)
    spin3 = {matrix_index(m) for m in enumerate_all(3) if is_spin(m).spin}
    expected3 = {matrix_index(load_fixture(n)) for n in REPRESENTATIVES[3]}
    spin2 = {matrix_index(m) for m in enumerate_all(2) if is_spin(m).spin}
    expected2 = {matrix_index(load_fixture(REPRESENTATIVES[2][0]))}
    ok = (
        (r2.orientable_count, r2.spin_count) == (1, 1)
        and (r3.orientable_count, r3.spin_count) == (2, 2)
        and not r2.mismatches
        and not r3.mismatches
        and spin2 == expected2
        and spin3 == expected3
    )
    report(2, "n=2: (1,1); n=3: (2,2) with the known matrices", ok,
           time.perf_counter() - start, 1.0)


def test_criterion_3_representative_patterns():
    start = time.perf_counter()
    dim4 = [is_spin(load_fixture(n)).spin for n in REPRESENTATIVES[4]]
    dim5 = [is_spin(load_fixture(n)).spin for n in REPRESENTATIVES[5]]
    ok = dim4 == [True] * 3 and dim5 == list(REPRESENTATIVE_SPIN[5])
    report(3, "dim-4 reps 3/3 spin; dim-5 reps pattern TTTTFFFF", ok,
           time.perf_counter() - start, 1.0)


def test_criterion_4_digraph_fixtures():
    start = time.perf_counter()
    ok = True
    for fx in DIGRAPH_FIXTURES:
        m = load_fixture(fx.name)
        v = digraph_spin(m)
        ok &= v.orientable and v.spin == fx.spin
        if fx.witness_pair is None:
            ok &= v.witness is None
        else:
            ok &= isinstance(v.witness, PairWitness)
            ok &= (v.witness.j, v.witness.k) == fx.witness_pair
        for i in range(1, fx.n + 1):
            ok &= out_neighbours(m, i) == fx.out_sets.get(i, ())
        for j in range(1, fx.n + 1):
            for k in range(j + 1, fx.n + 1):
                ok &= common_out(m, j, k) == fx.common_counts.get((j, k), 0)
    report(4, "digraph examples: verdicts, witnesses, N+ sets, M values", ok,
           time.perf_counter() - start, 1.0)


def test_criterion_5_family():
    start = time.perf_counter()
    ok = True
    for n in range(5, 11):
        v = is_spin(orientable_not_spin_family(n))
        w = v.witness
        ok &= v.orientable and not v.spin
        ok &= isinstance(w, PairWitness) and (w.j, w.k) == (1, n - 2)
        ok &= (w.P + w.Q) % 2 == 1
    report(5, "family n=5..10: orientable, not spin, pair (1,n-2), P+Q=1", ok,
           time.perf_counter() - start, 1.0)


def _all_routes_agree(m):
    profile = total_sw_class(m)
    v = is_spin(m)
    d = digraph_spin(m)
    ring_spin = profile.spin is True
    ok = v.orientable == d.orientable == profile.orientable
    ok &= v.spin == d.spin == spin_by_pairs(m) == ring_spin
    for k in range(1, m.n + 1):
        ok &= wk_recursive(m, k) == profile.classes[k]
    if m.n >= 2:
        ok &= w_top_minus_one(m) == profile.classes[m.n - 1]
    return ok


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    scanned = 0
    for n in range(1, 6):
        for m in enumerate_all(n):
            ok &= _all_routes_agree(m)
            scanned += 1
    assert scanned == 1 + 2 + 8 + 64 + 1024
    rng = random.Random(601)
    randoms = 0
    for n, count in ((6, 4000), (7, 3400), (8, 2700)):
        for _ in range(count):
            ok &= _all_routes_agree(random_bott(rng, n))
            randoms += 1
    assert randoms >= 10_000
    elapsed = time.perf_counter() - start
    report(6, f"oracle equivalence: {scanned} exhaustive + {randoms} random, "
              "zero mismatches", ok, elapsed, 60.0)


def test_criterion_7_sw_numbers_vanish():
    start = time.perf_counter()
    ok = True
    for n in range(1, 5):
        for m in enumerate_all(n):
            profile = total_sw_class(m)
            ok &= all(v == 0 for v in profile.sw_numbers.values())
    rng = random.Random(701)
    for _ in range(1000):
        m = random_bott(rng, rng.randint(1, 7))
        profile = total_sw_class(m)
        ok &= all(v == 0 for v in profile.sw_numbers.values())
    report(7, "all SW numbers vanish: exhaustive n<=4 + 1000 random n<=7", ok,
           time.perf_counter() - start, 60.0)


def test_criterion_8_count_parity_bridges():
    start = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for m in enumerate_all(n):
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    products = sum(
                        m.entry(j, r) * m.entry(k, r) for r in range(1, n + 1)
                    )
                    ok &= common_out(m, j, k) == products
                    nk = out_degree(m, k)
                    ok &= pair_terms(m, j, k).Q == (
                        m.entry(j, k) * (nk * (nk - 1) // 2)
                    ) % 2
    report(8, "count and parity bridges, exhaustive n<=5, all pairs", ok,
           time.perf_counter() - start, 60.0)


def test_criterion_9_conjugation_invariance():
    start = time.perf_counter()
    ok = True
    rng = random.Random(901)
    for _ in range(1000):
        n = rng.randint(1, 7)
        C = random_bott(rng, n)
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        B = conjugate(C, sigma)
        sigma2, C2 = normalize(B)
        ok &= conjugate(C2, sigma2).rows == B.rows
        vg, vc = is_spin_general(B), is_spin(C)
        ok &= (vg.orientable, vg.spin) == (vc.orientable, vc.spin)
    report(9, "1000 random conjugates: verdicts invariant, normalize "
              "round-trips", ok, time.perf_counter() - start, 60.0)


def test_criterion_10_basis_and_confluence():
    start = time.perf_counter()
    ok = True
    rng = random.Random(1001)
    for n in range(1, 7):
        for m in [random_bott(rng, n) for _ in range(5)]:
            ok &= wu_total(m)[1]
    for _ in range(1000):
        n = rng.randint(2, 6)
        m = random_bott(rng, n)
        mono = sorted(rng.choices(range(1, n + 1), k=rng.randint(2, 2 * n)))
        ok &= reduce_power_product(m, mono, "highest") == reduce_power_product(
            m, mono, "lowest"
        )
    report(10, "monomial basis pairs at full rank (Poincare duality) for "
               "n<=6; 1000 products order-independent", ok,
           time.perf_counter() - start, 60.0)


def test_criterion_11_wu_consequence():
    start = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for m in enumerate_all(n):
            profile = total_sw_class(m)
            if profile.classes[1].is_zero() and (
                n < 2 or profile.classes[2].is_zero()
            ):
                if n >= 3:
                    ok &= profile.classes[3].is_zero()
    report(11, "w1=0 and w2=0 imply w3=0, exhaustive n<=5", ok,
           time.perf_counter() - start, 60.0)


def test_criterion_12_paper_statements():
    # on C and a conjugate G of it: the w_1 formula (G's names y_sigma(i)
    # where C's names y_i), orientability as w_1 = 0, spin as every two-row
    # extraction spin; and on C and G's triangular form, the fibre chain's
    # verdicts are the ring's flags of each fibre, and keep the top's flags
    start = time.perf_counter()
    ok = True
    rng = random.Random(1201)
    checked = 0
    for n in range(1, 6):
        pairs = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
        for C in enumerate_all(n):
            sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            G = conjugate(C, sigma)
            profile = total_sw_class(C)
            w1 = profile.classes[1]
            ok &= w1_formula(C) == w1
            ok &= w1_formula(G) == RingElement.from_masks(
                1 << (sigma(m.bit_length()) - 1) for m in w1)
            for M in (C, G):
                ok &= is_orientable(M) == w1.is_zero()
                extractions = all(is_spin(row_pair_matrix(M, j, k)).spin for j, k in pairs)
                ok &= spin_by_pairs(M) == extractions == (profile.spin is True)
            for M in (C, normalize(G)[1]):
                chain = [(v.orientable, v.spin) for v in fibre_chain_verdicts(M)]
                fibres = [total_sw_class(delete_leading(M, k)) for k in range(max(n - 1, 1))]
                ok &= chain == [(f.orientable, f.spin is True) for f in fibres]
                ok &= chain[0] == (profile.orientable, profile.spin is True)
                ok &= all(o for o, _ in chain) or not profile.orientable
                ok &= all(s for _, s in chain) or not profile.spin
            checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024
    report(12, "w1 formula, orientable iff w1=0, spin iff every two-row "
               "extraction is, flags kept down the fibre chain: exhaustive "
               "n<=5 and a conjugate of each", ok, time.perf_counter() - start, 60.0)
