"""Sweeps over Bott matrices: exhaustive or seeded-random enumeration,
cross-validation of every spin criterion against the ring oracle, and the
built-in fixture suite.

Exhaustive mode walks the packed indices of `matrix.matrix_index` in
increasing order, which fixes the enumeration order everywhere.  Sweeps
split the index space into contiguous chunks, so parallel and serial runs
merge to identical reports.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from . import __version__
from .cohomology import SWProfile
from .criteria import PairWitness, is_spin, spin_by_pairs
from .digraph import common_out, digraph_spin, out_neighbours
from .errors import BottError, DimensionTooLarge
from .fixtures import (
    DIGRAPH_FIXTURES,
    DIM4_SPIN_LIST,
    REPRESENTATIVES,
    SPIN_CLASS_COUNTS,
    load_fixture,
    orientable_not_spin_family,
)
from .matrix import (BottMatrix, _check_dimension, _shown, index_space, matrix_from_index,
                     matrix_index)

DEFAULT_EXHAUSTIVE_CAP = 7


def enumerate_all(n: int) -> Iterator[BottMatrix]:
    """Yield every matrix of dimension n <= DEFAULT_EXHAUSTIVE_CAP exactly
    once, in packed-index order; `sweep(mode="sample")` draws seeded ones."""
    for index in itertools.chain.from_iterable(_index_batches(n, "exhaustive", None, None, None)):
        yield matrix_from_index(n, index)


#: Most indices drawn, or handed to a worker, at a time, and runs in
#: flight per worker: memory stays bounded whatever the count.
BATCH = 1 << 14
WINDOW = 4


def _index_batches(n, mode, count, seed, cap) -> Iterator[Sequence[int]]:
    """The indices in order, in runs of BATCH (the last one shorter), so a
    sweep of at most BATCH indices is one run and starts no pool.  Sample
    draws come from one seeded RNG as the runs are read, so a seed gives the
    same indices whatever the run size."""
    _check_dimension(n, "sampling: " if mode == "sample" else None)
    # type(): True is no cap or seed; a seed may be negative, so not `_check_int`
    if cap is not None and type(cap) is not int:
        raise BottError(f"cap must be an int, got {cap!r}")
    if mode == "exhaustive":
        limit = DEFAULT_EXHAUSTIVE_CAP if cap is None else cap
        if n > limit:
            raise DimensionTooLarge(f"exhaustive enumeration capped at n={_shown(limit)}, "
                                    f"got n={_shown(n)}")
        bits = n * (n - 1) // 2  # no sweep that long ends; 2^bits is not built
        if bits >= sys.maxsize.bit_length():
            raise DimensionTooLarge(f"exhaustive enumeration: n={_shown(n)} has 2^{_shown(bits)} "
                                    f"matrices, more than {sys.maxsize}")
        return (range(lo, min(lo + BATCH, 1 << bits)) for lo in range(0, 1 << bits, BATCH))
    if mode != "sample":
        raise BottError(f"unknown mode {mode!r}")
    if seed is None:
        raise BottError("sample mode requires a seed")
    if type(seed) is not int:
        raise BottError(f"seed must be an int, got {seed!r}")
    if type(count) is not int or count < 1:
        raise BottError("sample mode requires a positive count")
    rng = random.Random(seed)
    space = index_space(n)
    return ([rng.randrange(space) for _ in range(min(BATCH, count - lo))]
            for lo in range(0, count, BATCH))


def evaluate_matrix(C: BottMatrix) -> tuple[bool, bool, dict | None]:
    """Run all four spin routes on one matrix.

    Returns (orientable, spin, mismatch); mismatch is None when all four
    verdicts agree, the closed-form and digraph ones witnesses included,
    and otherwise lists them and, under "disagree", the routes at fault:
    "ring" when the other three agree, the closed form and the digraph when
    only their witnesses differ, else the routes that differ from the ring.
    """
    v = is_spin(C)
    d = digraph_spin(C)
    p = spin_by_pairs(C)
    profile = SWProfile(C)
    ring = [profile.orientable, profile.spin is True]
    # both records come from the `_verdict` cache: equal ones are almost always one object
    if (v is d or v == d) and v.orientable == ring[0] and v.spin == p == ring[1]:
        return v.orientable, v.spin, None
    closed, graph = [v.orientable, v.spin], [d.orientable, d.spin]
    if closed == graph and p == v.spin:
        disagree = ["ring"] if closed != ring else ["closed_form", "digraph"]
    else:
        differs = (("closed_form", closed != ring), ("digraph", graph != ring),
                   ("pairwise", p != ring[1]))
        disagree = [route for route, differ in differs if differ]
    mismatch = {
        "rows": C.to_lists(),
        "closed_form": closed,
        "digraph": graph,
        "pairwise": p,
        "ring": ring,
        "witnesses": {"closed_form": [w.to_json_dict() for w in v.witnesses],
                      "digraph": [w.to_json_dict() for w in d.witnesses]},
        "disagree": disagree,
    }
    return v.orientable, v.spin, mismatch


@dataclass
class SweepReport:
    n: int
    mode: str
    total: int
    orientable_count: int
    spin_count: int
    mismatches: list[dict] = field(default_factory=list)
    #: The sampling parameters; None in exhaustive mode.
    seed: int | None = None
    count: int | None = None
    reference_ok: bool | None = None
    elapsed: float = 0.0
    #: The exhaustive cap in force; None in sample mode.
    cap: int | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.reference_ok is not False

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "seed": self.seed,
            "count": self.count,
            "total": self.total,
            "orientable": self.orientable_count,
            "spin": self.spin_count,
            "mismatches": self.mismatches,
            "reference_ok": self.reference_ok,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
            "version": __version__,
            "cap": self.cap,
        }

    CSV_HEADER = "n,total,orientable,spin,mismatches,elapsed_ms"

    def to_csv_row(self) -> str:
        d = {**self.to_json_dict(), "mismatches": len(self.mismatches)}
        return ",".join(str(d[column]) for column in self.CSV_HEADER.split(","))

    def to_text_line(self) -> str:
        ref = self.reference_ok
        return (
            f"n={self.n} mode={self.mode} total={self.total} "
            f"orientable={self.orientable_count} spin={self.spin_count} "
            f"mismatches={len(self.mismatches)}"
            + ("" if ref is None else f" reference_ok={str(ref).lower()}")
            + f" elapsed_ms={round(self.elapsed * 1000.0, 1)}"
        )


def _sweep_chunk(args: tuple) -> tuple[int, int, int, list[dict]]:
    n, indices = args
    orientable = spin = 0
    mismatches: list[dict] = []
    for index in indices:
        C = matrix_from_index(n, index)
        o, s, mismatch = evaluate_matrix(C)
        orientable += o
        spin += s
        if mismatch is not None:
            mismatch["index"] = index
            mismatches.append(mismatch)
    return len(indices), orientable, spin, mismatches


def ProcessPoolExecutor(max_workers: int):
    """The worker pool of a parallel sweep.  Its module is imported on the
    first call, so serial sweeps never load multiprocessing."""
    import concurrent.futures
    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


def _chunk_results(chunks: Iterator[tuple], workers: int) -> Iterator[tuple]:
    """`_sweep_chunk` of each chunk, in order, in up to `workers` processes.
    At most WINDOW chunks per worker are out at once, and the next one goes
    out as the oldest result comes in, so no worker waits on a barrier."""
    ahead = list(itertools.islice(chunks, WINDOW * workers if workers > 1 else 1))
    if len(ahead) <= 1:
        yield from map(_sweep_chunk, itertools.chain(ahead, chunks))
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(ahead))) as pool:
        pending = deque(pool.submit(_sweep_chunk, chunk) for chunk in ahead)
        for chunk in chunks:
            done = pending.popleft().result()
            pending.append(pool.submit(_sweep_chunk, chunk))
            yield done
        for future in pending:
            yield future.result()


def sweep(
    n: int,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
    cap: int | None = None,
) -> SweepReport:
    """Evaluate every enumerated matrix on all criteria and tally.

    The indices go in contiguous runs of BATCH.  One run, or jobs=1, runs in
    this process; more are shared among min(jobs, CPU count, runs) worker
    processes with at most WINDOW runs per worker in flight, and merged
    results are identical to the serial ones.  At n=4 exhaustive the spin set
    is additionally matched against the packaged list of the eight dimension-4
    spin matrices (reference_ok, by `_spin_set_ok`).
    """
    start = time.perf_counter()
    if type(jobs) is not int:
        raise BottError(f"jobs must be an int, got {jobs!r}")
    if jobs < 1:
        raise BottError(f"jobs must be >= 1, got {_shown(jobs)}")
    # More workers than cores only adds start-up cost, and fork starts them
    # all at once
    jobs = min(jobs, os.cpu_count() or 1)
    batches = _index_batches(n, mode, count, seed, cap)
    total = orientable = spin = 0
    mismatches: list[dict] = []
    for t, o, s, mm in _chunk_results(((n, batch) for batch in batches), jobs):
        total += t
        orientable += o
        spin += s
        mismatches.extend(mm)
    reference_ok = None
    if mode == "exhaustive" and n == 4:
        reference_ok = _spin_set_ok([load_fixture(name) for name in DIM4_SPIN_LIST], spin)
    return SweepReport(
        n=n,
        mode=mode,
        total=total,
        orientable_count=orientable,
        spin_count=spin,
        mismatches=mismatches,
        seed=seed if mode == "sample" else None,
        count=count if mode == "sample" else None,
        reference_ok=reference_ok,
        elapsed=time.perf_counter() - start,
        cap=(DEFAULT_EXHAUSTIVE_CAP if cap is None else cap) if mode == "exhaustive" else None,
    )


def _spin_set_ok(listed: Sequence[BottMatrix], spin: int) -> bool:
    """Whether `listed` is the whole spin set of an n=4 sweep that counted `spin`."""
    return all(M.n == 4 and is_spin(M).spin for M in listed) and (
        len({matrix_index(M) for M in listed}) == len(listed) == spin)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(CheckResult(name, ok, detail))

    def to_json_dict(self) -> dict:
        return {"all_ok": self.all_ok, "checks": [asdict(c) for c in self.checks]}


def verify_fixture_suite(directory: Path | str | None = None) -> VerificationReport:
    """Check the packaged fixtures, or those in `directory`, each by
    `evaluate_matrix` and against its known verdict: the orientable
    representatives of dimensions 1..5 and their spin-class counts
    1,1,2,3,4, the orientable-not-spin family for n=5..10, the full
    dimension-4 spin list (incl. set equality against the exhaustive
    sweep), and the digraph examples with their expected neighbour data."""
    report = VerificationReport()

    def agrees(name, matrix, spin, detail="", ok=True) -> bool:
        """Check that all routes agree on `matrix`, orientable with `spin`; return its spin."""
        orientable, computed, mismatch = evaluate_matrix(matrix)
        report.add(name, ok and mismatch is None and orientable and computed == spin,
                   f"orientable={orientable} spin={computed}{detail}")
        return computed

    for n, expected_spin in sorted(REPRESENTATIVES.items()):
        spin_count = sum(
            agrees(name, load_fixture(name, directory), spin, f" expected spin={spin}")
            for name, spin in expected_spin.items())
        report.add(f"spin class count n={n}", spin_count == SPIN_CLASS_COUNTS[n],
                   f"computed {spin_count}, known {SPIN_CLASS_COUNTS[n]}")
    for n in range(5, 11):
        C = orientable_not_spin_family(n)
        w = is_spin(C).witness
        ok = isinstance(w, PairWitness) and (w.j, w.k) == (1, n - 2) and (w.P + w.Q) % 2 == 1
        agrees(f"orientable-not-spin family n={n}", C, False, f" witness={w}", ok)

    listed = [load_fixture(name, directory) for name in DIM4_SPIN_LIST]
    for name, matrix in zip(DIM4_SPIN_LIST, listed):
        agrees(name, matrix, True)
    sweep4 = sweep(4, "exhaustive")
    listed_ok = _spin_set_ok(listed, sweep4.spin_count)
    report.add(
        "dimension-4 exhaustive sweep",
        not sweep4.mismatches and sweep4.orientable_count == sweep4.spin_count == 8
        and listed_ok,
        f"orientable={sweep4.orientable_count} spin={sweep4.spin_count} "
        f"reference_ok={listed_ok}",
    )

    for fx in DIGRAPH_FIXTURES:
        matrix = load_fixture(fx.name, directory)
        problems: list[str] = []
        if matrix.n != fx.n:
            problems.append(f"n={matrix.n} expected {fx.n}")
        _, spin, mismatch = evaluate_matrix(matrix)
        if mismatch is not None:
            problems.append(f"routes disagree: {', '.join(mismatch['disagree'])}")
        if spin != fx.spin:
            problems.append(f"spin={spin} expected {fx.spin}")
        if fx.witness_pair is not None:
            w = digraph_spin(matrix).witness
            if not isinstance(w, PairWitness) or (w.j, w.k) != fx.witness_pair:
                problems.append(f"witness={w} expected pair {fx.witness_pair}")
        for i in range(1, matrix.n + 1):
            expected_out = fx.out_sets.get(i, ())
            if out_neighbours(matrix, i) != tuple(expected_out):
                problems.append(f"out({i})={out_neighbours(matrix, i)}")
        for j in range(1, matrix.n + 1):
            for k in range(j + 1, matrix.n + 1):
                expected_m = fx.common_counts.get((j, k), 0)
                if common_out(matrix, j, k) != expected_m:
                    problems.append(f"common({j},{k})={common_out(matrix, j, k)}")
        report.add(fx.name, not problems, "; ".join(problems) or "all digraph data match")
    return report
