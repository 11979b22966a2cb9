import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

from realbott import (
    BottError,
    BottMatrix,
    DimensionTooLarge,
    IndexOutOfRange,
    NonSquare,
    Permutation,
    SpinVerdict,
    conjugate,
    enumerate_all,
    evaluate_matrix,
    is_spin,
    matrix_from_index,
    matrix_index,
    normalize,
    sweep,
    verify_fixture_suite,
)
import realbott
from realbott import cohomology, enumeration, matrix
from realbott.cli import main
from realbott.criteria import _scan, _verdict
from realbott.enumeration import index_space
from realbott.fixtures import DIM4_SPIN_LIST, default_fixture_dir, load_fixture
from realbott.matrix import MAX_SINGLE_N

from conftest import decode_rows


def sampled(n, count, seed, cap=None):
    """The indices a sample sweep draws, read from its sampler."""
    return [i for run in enumeration._index_batches(n, "sample", count, seed, cap) for i in run]


class TestEnumerate:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64), (5, 1024)])
    def test_exhaustive_counts(self, n, count):
        matrices = list(enumerate_all(n))
        assert len(matrices) == count
        assert len({m.rows for m in matrices}) == count

    def test_packing_order(self):
        # bit 0 is the (1,2) entry, then (1,3), ..., row-major
        m = matrix_from_index(3, 0b001)
        assert m.entry(1, 2) == 1 and m.entry(1, 3) == 0 and m.entry(2, 3) == 0
        m = matrix_from_index(3, 0b100)
        assert m.entry(2, 3) == 1

    def test_index_round_trip(self):
        for n in range(1, 7):
            positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for idx, m in enumerate(enumerate_all(n)):
                assert matrix_index(m) == idx
                # bit t of the index is the t-th free entry, row-major
                assert m.rows == tuple(
                    sum(((idx >> t) & 1) << j for t, (r, j) in enumerate(positions) if r == i)
                    for i in range(n)
                )

    @pytest.mark.parametrize("n,index", [(2, 2), (2, 5), (3, 8), (3, -1), (5, -1024), (1, 1)])
    def test_index_outside_space(self, n, index):
        # the decoder would drop the high bits, or read -1 as all ones
        with pytest.raises(IndexOutOfRange, match=f"index {index} outside"):
            matrix_from_index(n, index)

    def test_index_needs_triangular(self):
        G = conjugate(matrix_from_index(3, 5), Permutation((3, 2, 1)))
        with pytest.raises(BottError, match="strictly upper triangular"):
            matrix_index(G)
        assert matrix_index(normalize(G)[1]) == 5

    def test_cap(self):
        # next(): were the cap lost, list() would build all 2^28 matrices
        with pytest.raises(DimensionTooLarge, match="capped at n=7, got n=8"):
            next(enumerate_all(8))
        assert len(sampled(8, count=3, seed=1, cap=8)) == 3
        # the cap governs exhaustive mode only; sampling stops at n = 20
        assert len(sampled(6, count=3, seed=1, cap=5)) == 3
        with pytest.raises(DimensionTooLarge, match="exceeds the cap 20"):
            sampled(21, count=1, seed=1, cap=30)

    def test_index_space_beyond_a_range(self):
        # refused before any matrix is built or any worker started
        message = r"n=12 has 2\^66 matrices"
        with pytest.raises(DimensionTooLarge, match=message):
            sweep(12, cap=12)
        with pytest.raises(DimensionTooLarge, match=message):
            enumeration._index_batches(12, "exhaustive", None, None, 12)
        # 2^55 indices still fit
        runs = enumeration._index_batches(11, "exhaustive", None, None, 11)
        assert next(runs) == range(enumeration.BATCH)

    def test_sample_reproducible(self):
        a = sampled(6, count=50, seed=9)
        assert a == sampled(6, count=50, seed=9)
        assert a != sampled(6, count=50, seed=10)

    def test_sample_needs_seed_and_count(self):
        with pytest.raises(BottError, match="requires a seed"):
            sampled(4, count=5, seed=None)
        with pytest.raises(BottError, match="requires a positive count"):
            sampled(4, count=None, seed=1)
        with pytest.raises(BottError, match="unknown mode 'nope'"):
            sweep(4, mode="nope")


class TestDecoder:
    """`matrix_from_index` ORs one table word per index byte and reads the
    rows and columns out of it."""

    @staticmethod
    def _assert_decodes(n, index):
        M = matrix_from_index(n, index)
        V = BottMatrix(n, decode_rows(n, index))
        cols = M.__dict__["_columns"]  # there before any columns() call
        assert type(M) is BottMatrix and type(M.rows) is tuple and type(cols) is tuple
        assert M.rows == V.rows and cols == V.columns()
        assert all(type(v) is int for v in M.rows + cols)

    def test_every_index_n6(self):
        for index in range(index_space(6)):
            self._assert_decodes(6, index)

    def test_seeded_indices(self):
        rng = random.Random(7)
        for n in range(7, MAX_SINGLE_N + 1):
            top = index_space(n) - 1
            for index in [0, top] + [rng.randrange(top) for _ in range(200)]:
                self._assert_decodes(n, index)

    def test_index_bounds(self):
        # n = 7 has 21 index bits: its last table covers a partial byte
        for bad in (2**21, -1):
            with pytest.raises(IndexOutOfRange, match=f"index {bad} outside 0..2\\^21-1"):
                matrix_from_index(7, bad)
        for n in range(1, MAX_SINGLE_N + 1):
            space = index_space(n)
            for bad in (space, -1, -space, 2 * space + 1):
                with pytest.raises(IndexOutOfRange):
                    matrix_from_index(n, bad)
            self._assert_decodes(n, space - 1)

    def test_dimension_bounds_build_no_table(self):
        before = matrix._decode_tables.cache_info()
        for n in (0, -3):
            with pytest.raises(NonSquare):
                matrix_from_index(n, 5)
        for n in (MAX_SINGLE_N + 1, 64):
            with pytest.raises(DimensionTooLarge, match=f"n={n} exceeds the cap {MAX_SINGLE_N}"):
                matrix_from_index(n, 0)
        after = matrix._decode_tables.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_tables_keyed_by_n(self):
        # n = 3 and 4 share a lane width but not their tables
        tables = matrix._decode_tables
        tables.cache_clear()
        for n in (3, 4, 3, 4):
            matrix_from_index(n, 1)
        info = tables.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (2, 2, 8)
        assert tables(3)[0] == tables(4)[0] and tables(3)[1] != tables(4)[1]

    def test_import_builds_no_table(self):
        code = ("import realbott.cli, realbott.matrix as m; "
                "print(m._decode_tables.cache_info().currsize)")
        src = str(Path(enumeration.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout == "0\n"


class _CountingRandom(random.Random):
    """A Random that counts its draws across instances, and fails past
    `limit` of them instead of filling memory."""
    draws = 0
    limit = 10**6

    def randrange(self, *args):
        type(self).draws += 1
        assert self.draws <= self.limit, "drew ahead of the batches read"
        return super().randrange(*args)


class TestSampleBatches:
    """Sample indices are drawn a batch at a time from one seeded RNG, so a
    count costs no memory up front and every seed keeps its indices."""

    def test_enumerate_draws_as_it_goes(self, monkeypatch):
        first = sampled(6, count=12, seed=1)
        monkeypatch.setattr(enumeration, "BATCH", 5)
        monkeypatch.setattr(enumeration.random, "Random", _CountingRandom)
        monkeypatch.setattr(_CountingRandom, "draws", 0)
        monkeypatch.setattr(_CountingRandom, "limit", 15)
        runs = enumeration._index_batches(6, "sample", 10**12, 1, None)
        gen = itertools.chain.from_iterable(runs)
        assert [next(gen) for _ in range(12)] == first
        assert _CountingRandom.draws == 15  # three batches of five

    @pytest.mark.parametrize("mode, count", [("sample", 100), ("exhaustive", None)])
    def test_windows_keep_the_report(self, mode, count, monkeypatch):
        def report(jobs):
            r = sweep(5, mode=mode, count=count, seed=7, jobs=jobs).to_json_dict()
            r.pop("elapsed_ms")
            return json.dumps(r)

        expected = report(1)
        submits = []
        out = []

        class Done:
            """A finished future that counts when its result is read."""
            def __init__(self, value):
                self.value = value

            def result(self):
                out.pop()
                return self.value

        class SerialPool:
            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                out.append(item)
                submits.append((len(item[1]), len(out), _CountingRandom.draws))
                return Done(fn(item))

        monkeypatch.setattr(enumeration, "BATCH", 7)
        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(enumeration.random, "Random", _CountingRandom)
        monkeypatch.setattr(_CountingRandom, "draws", 0)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert report(1) == report(2) == expected
        total = 100 if mode == "sample" else 1024
        assert sum(size for size, _, _ in submits) == total
        assert all(size <= 7 for size, _, _ in submits)
        # a sliding window: WINDOW runs per worker out, and one more goes
        # out as each result is read, not after the whole window
        window = enumeration.WINDOW * 2
        assert [k for _, k, _ in submits] == [min(k, window) for k in range(1, len(submits) + 1)]
        if mode == "sample":  # 100 serial draws, then one window ahead at most
            ahead = 7 * enumeration.WINDOW * 2
            assert [d for _, _, d in submits] == [100 + min(max(ahead, 7 * k), 100)
                                                 for k in range(1, len(submits) + 1)]


class TestSweep:
    def test_small_dimensions(self):
        expected = {1: (1, 1, 1), 2: (2, 1, 1), 3: (8, 2, 2), 4: (64, 8, 8)}
        for n, (total, orientable, spin) in expected.items():
            r = sweep(n)
            assert (r.total, r.orientable_count, r.spin_count) == (
                total,
                orientable,
                spin,
            )
            assert r.mismatches == []
            assert r.ok

    def test_dim4_reference_set(self):
        r = sweep(4)
        assert r.reference_ok is True

    @pytest.mark.parametrize("case", ["list-short", "non-spin-listed"])
    def test_dim4_reference_mismatch(self, case, monkeypatch, capsys):
        if case == "list-short":
            monkeypatch.setattr("realbott.enumeration.DIM4_SPIN_LIST", DIM4_SPIN_LIST[:-1])
        else:
            non_spin = matrix_from_index(4, 1)  # row 1 has an odd sum
            assert not is_spin(non_spin).spin

            def swapped(name, directory=None):
                if name == DIM4_SPIN_LIST[0]:
                    return non_spin
                return load_fixture(name, directory)

            monkeypatch.setattr("realbott.enumeration.load_fixture", swapped)
        r = sweep(4)
        assert r.reference_ok is False
        assert r.ok is False
        assert main(["enumerate", "-n", "4"]) == 1
        assert "reference_ok=false" in capsys.readouterr().out

    def test_dim5_computed_counts(self):
        # raw matrix counts at n=5 (not class counts): frozen from the
        # exhaustive run of the independent ring oracle
        r = sweep(5)
        assert (r.total, r.orientable_count, r.spin_count) == (1024, 64, 30)
        assert r.reference_ok is None

    def test_sampled_counts_invariant(self):
        r = sweep(6, mode="sample", count=300, seed=3)
        assert r.total == 300
        assert r.spin_count <= r.orientable_count <= r.total
        assert r.mismatches == []

    @staticmethod
    def pools_started(monkeypatch, cores):
        """The worker counts of the pools a sweep starts, on `cores` cores,
        with an in-process pool standing in for the real one."""
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                future = Future()
                future.set_result(fn(item))
                return future

        monkeypatch.setattr("realbott.enumeration.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        return started

    @pytest.mark.parametrize("cores, workers", [(4, 4), (64, 8)])
    def test_workers_capped(self, cores, workers, monkeypatch):
        # min(jobs, runs, cores): runs of one index give n=3 its 8 runs
        monkeypatch.setattr(enumeration, "BATCH", 1)
        started = self.pools_started(monkeypatch, cores)
        report = sweep(3, jobs=10**6).to_json_dict()
        assert started == [workers]
        serial = sweep(3, jobs=1).to_json_dict()
        report.pop("elapsed_ms")
        serial.pop("elapsed_ms")
        assert report == serial

    def test_one_run_starts_no_pool(self, monkeypatch):
        started = self.pools_started(monkeypatch, 64)
        assert sweep(5, jobs=10**6).total == 1024
        assert started == []

    def test_parallel_matches_serial(self, monkeypatch):
        # runs of 16 give n=4 four runs and 100 draws seven runs, so the real
        # pool starts; sample runs reach the workers as lists, not ranges
        monkeypatch.setattr(enumeration, "BATCH", 16)
        for args in [(4,), (5, "sample", 100, 7)]:
            serial = sweep(*args, jobs=1).to_json_dict()
            parallel = sweep(*args, jobs=3).to_json_dict()
            serial.pop("elapsed_ms")
            parallel.pop("elapsed_ms")
            assert serial == parallel

    def test_deterministic_reports(self):
        a = sweep(5, mode="sample", count=100, seed=7).to_json_dict()
        b = sweep(5, mode="sample", count=100, seed=7).to_json_dict()
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert json.dumps(a) == json.dumps(b)

    def test_csv_shape(self):
        r = sweep(3)
        assert r.CSV_HEADER == "n,total,orientable,spin,mismatches,elapsed_ms"
        row = r.to_csv_row().split(",")
        assert row[:5] == ["3", "8", "2", "2", "0"]

    @pytest.mark.parametrize("route, name", [
        ("closed_form", "is_spin"), ("digraph", "digraph_spin"), ("pairwise", "spin_by_pairs"),
    ])
    def test_mismatch_names_disagreeing_route(self, route, name, monkeypatch):
        real = getattr(enumeration, name)

        def flipped(arg):
            v = real(arg)
            if isinstance(v, bool):
                return not v
            return SpinVerdict(v.orientable, not v.spin, v.witnesses)

        monkeypatch.setattr(enumeration, name, flipped)
        r = sweep(4)
        assert sorted(mm["index"] for mm in r.mismatches) == list(range(64))
        assert all(mm["disagree"] == [route] for mm in r.mismatches)

    def test_witness_only_fault_is_a_mismatch(self, monkeypatch):
        # C(N+1, 2) and C(N, 2) differ in parity only at odd N, where the
        # matrix is not orientable: the flags agree and only the pair
        # witness moves, so the records must be compared
        def mutant(D):
            q = [((N + 1) * N // 2) & 1 for N in range(D.n)]
            return _verdict(*_scan(D.rows, D.columns(), q))

        monkeypatch.setattr(enumeration, "digraph_spin", mutant)
        r = sweep(5)
        assert r.mismatches
        for mm in r.mismatches:
            assert mm["disagree"] == ["closed_form", "digraph"]
            assert mm["closed_form"] == mm["digraph"] == mm["ring"] == [False, False]
            witnesses = mm["witnesses"]
            assert witnesses["closed_form"] != witnesses["digraph"]
            assert witnesses["closed_form"][0]["kind"] == "row"
        assert json.loads(json.dumps(r.to_json_dict()))["mismatches"] == r.mismatches

    def test_ring_fault_is_named(self, monkeypatch):
        # flipping y1 in w1 turns every orientable matrix non-orientable in
        # the ring alone; the three other routes agree, so the ring is named
        real = cohomology._times

        def flipped(E, factors, keep, cols, lanes):
            return real(E, factors, keep, cols, lanes) ^ 1 << 1  # bit 1: y1

        monkeypatch.setattr(cohomology, "_times", flipped)
        r = sweep(4)
        flagged = {mm["index"] for mm in r.mismatches}
        assert {i for i in range(64) if is_spin(matrix_from_index(4, i)).orientable} <= flagged
        assert all(mm["disagree"] == ["ring"] for mm in r.mismatches)
        assert all(mm["closed_form"] == mm["digraph"] != mm["ring"] for mm in r.mismatches)

    def test_json_version_and_cap(self, monkeypatch, capsys):
        report = sweep(3).to_json_dict()
        assert report["version"] == realbott.__version__
        assert report["cap"] == enumeration.DEFAULT_EXHAUSTIVE_CAP
        assert sweep(3, cap=5).to_json_dict()["cap"] == 5
        assert sweep(3, mode="sample", count=5, seed=1).to_json_dict()["cap"] is None
        monkeypatch.setenv("BOTT_MAX_N", "4")
        assert main(["enumerate", "-n", "3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["cap"] == 4

    def test_evaluate_matrix_agreement(self):
        for m in enumerate_all(4):
            _, _, mismatch = evaluate_matrix(m)
            assert mismatch is None


class TestVerification:
    def test_representatives_all_ok(self):
        report = verify_fixture_suite()
        assert report.all_ok
        names = [c.name for c in report.checks]
        assert "spin class count n=5" in names
        assert "orientable-not-spin family n=10" in names

    def test_fixture_suite_all_ok(self):
        report = verify_fixture_suite()
        assert report.all_ok
        names = [c.name for c in report.checks]
        for fixture in ("digraph_a", "digraph_b", "digraph_c", "digraph_d"):
            assert fixture in names
        assert "dimension-4 exhaustive sweep" in names

    def test_corrupted_fixture_is_named(self, tmp_path):
        fixtures = tmp_path / "data"
        shutil.copytree(default_fixture_dir(), fixtures)
        # flip the spin representative into a non-spin matrix
        (fixtures / "reps_n5_1.txt").write_text(
            load_fixture("reps_n5_4").to_text() + "\n"
        )
        report = verify_fixture_suite(fixtures)
        assert not report.all_ok
        failures = {c.name: c.detail for c in report.failures}
        assert "reps_n5_1" in failures
        assert failures["spin class count n=5"] == "computed 3, known 4"

    def test_non_orientable_representative_is_named(self, tmp_path):
        # a non-spin representative that is not orientable either: its spin
        # verdict matches, so only the orientability condition can fail it
        fixtures = tmp_path / "data"
        shutil.copytree(default_fixture_dir(), fixtures)
        (fixtures / "reps_n5_4.txt").write_text("01000\n00000\n00000\n00000\n00000\n")
        failures = {c.name: c.detail for c in verify_fixture_suite(fixtures).failures}
        assert failures == {"reps_n5_4": "orientable=False spin=False expected spin=False"}

    def test_family_witness_is_checked(self, monkeypatch):
        # one dimension up, each member is still orientable and not spin, but
        # its witness pair is (1, n-1), not the (1, n-2) the family promises
        family = enumeration.orientable_not_spin_family
        monkeypatch.setattr(enumeration, "orientable_not_spin_family", lambda n: family(n + 1))
        names = {c.name for c in verify_fixture_suite().failures}
        assert names == {f"orientable-not-spin family n={n}" for n in range(5, 11)}

    def test_missing_fixture_raises(self, tmp_path):
        with pytest.raises(BottError):
            load_fixture("reps_n1_0", tmp_path)

    def test_json_shape(self):
        d = verify_fixture_suite().to_json_dict()
        assert d["all_ok"] is True
        assert {"name", "ok", "detail"} == set(d["checks"][0])

    def test_disagreeing_route_is_named(self, monkeypatch):
        # a pairwise route that is always wrong: every digraph fixture names
        # it, and every member of the orientable-not-spin family fails
        pairs = enumeration.spin_by_pairs
        monkeypatch.setattr(enumeration, "spin_by_pairs", lambda C: not pairs(C))
        failures = {c.name: c.detail for c in verify_fixture_suite().failures}
        for fixture in ("digraph_a", "digraph_b", "digraph_c", "digraph_d"):
            assert failures[fixture] == "routes disagree: pairwise"
        for n in range(5, 11):
            assert f"orientable-not-spin family n={n}" in failures
        for name in ("reps_n5_0", "spin4_0", "dimension-4 exhaustive sweep"):
            assert name in failures
