"""Seeded inputs, expected answers and output checks for each workload.

Every generator takes a `random.Random` plus explicit property controls
(dimension, density, general-form share, spin share), so one seed gives one
input set.  Expected answers come from a route other than the one the
workload runs, and are computed before any timing starts:

- enumerate-sample: `digraph_spin` gives each matrix's verdict, and the
  four routes must agree on it (the traced n = 6 sweep is checked against
  its known counts);
- sw-dense / sw-numbers: `w1_formula`, `w_top_minus_one` and the closed
  form `is_spin` check the ring oracle's printed classes and flags;
- check-batch: `digraph_spin` on the `normalize`d matrix checks the
  closed-form verdict of `is_spin` / `is_spin_general`.

Importing this module needs `realbott` importable (the caller puts the
checkout's `src` on the path).
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass

from realbott import (
    BottMatrix,
    PairWitness,
    Permutation,
    build_digraph,
    conjugate,
    digraph_spin,
    is_spin,
    matrix_from_index,
    normalize,
    sw_partitions,
    w1_formula,
    w_top_minus_one,
)
from realbott.enumeration import index_space

#: The end-to-end workloads.  `sw` requests are only traced (see
#: SW_DENSE_STRATA and SW_NUMBERS_STRATA).
WORKLOADS = ("enumerate-sample", "check-batch")

#: Every n = 6 matrix, as `realbott enumerate -n 6` sweeps them (the traced
#: pass): total, orientable and spin counts.
ENUMERATE_N = 6
ENUMERATE_EXPECT = {"total": 32768, "orientable": 1024, "spin": 176}
#: Matrices of one seed's enumerate-sample inputs, drawn from the n = 6
#: index space: few enough that a run answers each of them about a hundred
#: times (one pass over all 32768 takes 3.6 s).
ENUMERATE_SAMPLE = 2048
#: Exact shares of spin and of orientable (spin included) matrices in the
#: sample; the whole space has 176 and 1024 of 32768.  A spin matrix costs
#: about 5x as much as most others, so a free draw would put a varying
#: number of them at the tail's rank.
ENUMERATE_SPIN_SHARE = 1 / 64
ENUMERATE_ORIENTABLE_SHARE = 3 / 64

#: (n, density) of each request of the traced `sw` pass, one CLI process
#: per request because the ring cache (`lru_cache(128)`) keeps each ring's
#: unbounded memo for the life of the process.  Each stratum's cost differs
#: from the others by about 2x.  Even cut down to n = 11..13 and timed in
#: process, the best of 30 answers per matrix, these requests spread 0.27
#: over five seeds on the shared host: ring work is memory-heavy, and the
#: host's slow stretches slowed it 1.5x throughout a run.  So they are
#: traced but not an end-to-end workload.
SW_DENSE_STRATA = ((16, 0.9), (17, 0.7), (18, 0.5))
#: `sw --numbers` inputs of the traced pass.  All SW numbers cost very
#: different amounts on similar matrices, since a product that vanishes
#: early ends its pairing: below density 0.75 the cost of balanced n = 11
#: matrices spreads by 16-27 % (coefficient of variation), and one n = 12
#: request takes 4-9 s.  Too few such requests fit in a run to time them
#: steadily end to end, so they are traced but not an end-to-end workload.
SW_NUMBERS_STRATA = ((11, 0.75), (11, 0.8), (11, 0.85))

#: check-batch controls.
CHECK_N_RANGE = (12, 20)
CHECK_GENERAL_SHARE = 0.5
CHECK_SPIN_SHARE = 0.5
CHECK_DENSITY = 0.5
#: Distinct matrices per seed; a run checks each of them many times.
CHECK_POOL = 1000


def balanced_matrix(n: int, density: float, rng: random.Random) -> BottMatrix:
    """Strictly upper triangular matrix whose column j (0-based) holds
    round(density * j) ones, put on the rows least filled so far relative
    to their length, ties broken at random.

    Fixing the column sums and evening out the rows keeps the ring cost of
    matrices with the same (n, density) within about 10 % of each other;
    independent Bernoulli entries vary several-fold, which no run length
    here would average out.
    """
    rows = [0] * n
    for j in range(1, n):
        order = sorted(
            range(j), key=lambda i: (rows[i].bit_count() / (n - 1 - i), rng.random())
        )
        for i in order[: round(density * j)]:
            rows[i] |= 1 << j
    return BottMatrix(n, tuple(rows))


def spin_blocks() -> dict[int, list[BottMatrix]]:
    """Every spin Bott matrix of size 1..5, found by the digraph route on
    an exhaustive index walk."""
    pool = {}
    for size in range(1, 6):
        pool[size] = [
            C
            for C in (matrix_from_index(size, i) for i in range(index_space(size)))
            if digraph_spin(build_digraph(C)).spin
        ]
    return pool


def spin_matrix(n: int, rng: random.Random, blocks: dict[int, list[BottMatrix]]) -> BottMatrix:
    """Direct sum of random spin blocks of sizes 1..5 along the diagonal.

    A direct sum is spin iff every block is, so the closed-form pair scan
    runs through all n(n-1)/2 pairs instead of stopping early.
    """
    rows: list[int] = []
    while len(rows) < n:
        size = min(rng.randint(1, max(blocks)), n - len(rows))
        block = rng.choice(blocks[size])
        offset = len(rows)
        rows.extend(row << offset for row in block.rows)
    return BottMatrix(n, tuple(rows))


def random_permutation(n: int, rng: random.Random) -> Permutation:
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    return Permutation(tuple(sigma))


def inline(M) -> str:
    """The `--matrix` form: compact rows joined by ';'."""
    return ";".join("".join(str(v) for v in row) for row in M.to_lists())


# --- sw-dense and sw-numbers -------------------------------------------


@dataclass(frozen=True)
class SwRequest:
    matrix: BottMatrix
    expect: dict


def sw_expect(C: BottMatrix) -> dict:
    v = is_spin(C)
    return {
        "n": C.n,
        "w1": str(w1_formula(C)),
        "w_top_minus_one": str(w_top_minus_one(C)),
        "flags": f"orientable={_b(v.orientable)} spin={_b(v.spin) if v.orientable else 'null'}",
        "partitions": sum(1 for _ in sw_partitions(C.n)),
    }


def sw_requests(strata, cycles: int, rng: random.Random) -> list[SwRequest]:
    out = []
    for _ in range(cycles):
        for n, density in strata:
            C = balanced_matrix(n, density, rng)
            out.append(SwRequest(C, sw_expect(C)))
    return out


def sw_argv(req: SwRequest, numbers: bool) -> list[str]:
    return ["sw", *(["--numbers"] if numbers else []), "--matrix", inline(req.matrix)]


def check_sw_classes(text: str, expect: dict) -> tuple[bool, int]:
    """Check `realbott sw` text output; also return the summed term count
    of w_0..w_n."""
    classes: dict[int, str] = {}
    flags = None
    for line in text.splitlines():
        if line.startswith("w") and " = " in line:
            k, value = line[1:].split(" = ", 1)
            classes[int(k)] = value
        elif line.startswith("orientable="):
            flags = line
    n = expect["n"]
    ok = (
        sorted(classes) == list(range(n + 1))
        and classes[1] == expect["w1"]
        and classes[n - 1] == expect["w_top_minus_one"]
        and flags == expect["flags"]
    )
    terms = sum(0 if v == "0" else v.count("+") + 1 for v in classes.values())
    return ok, terms


def check_sw_numbers(text: str, expect: dict) -> bool:
    """Check `realbott sw --numbers` text output: every SW number is 0 (a
    real Bott manifold bounds), one line per partition, and the flags."""
    lines = text.splitlines()
    values = [ln.rsplit(" = ", 1)[1] for ln in lines if ln.startswith("sw_number[")]
    return (
        len(values) == expect["partitions"]
        and all(v == "0" for v in values)
        and "all_sw_numbers_zero=true" in lines
        and expect["flags"] in lines
    )


# --- enumerate-sample ---------------------------------------------------


def enumerate_items(n: int, count: int, rng: random.Random) -> list[list]:
    """[index, orientable, spin] of `count` distinct n x n matrices drawn at
    random from the whole index space, exactly ENUMERATE_SPIN_SHARE of them
    spin and ENUMERATE_ORIENTABLE_SHARE orientable; verdicts by the digraph
    route.  Returns fewer when the space has too few of a kind."""
    spin = round(count * ENUMERATE_SPIN_SHARE)
    orientable = round(count * ENUMERATE_ORIENTABLE_SHARE)
    quota = {(True, True): spin, (True, False): orientable - spin, (False, False): count - orientable}
    order = list(range(index_space(n)))
    rng.shuffle(order)
    out = []
    for index in order:
        d = digraph_spin(build_digraph(matrix_from_index(n, index)))
        kind = (d.orientable, d.spin)
        if quota.get(kind, 0) > 0:
            quota[kind] -= 1
            out.append([index, *kind])
            if len(out) == count:
                break
    return sorted(out)


# --- check-batch ------------------------------------------------------------


@dataclass(frozen=True)
class CheckItem:
    text: str
    expect: tuple[bool, bool]  # (orientable, spin) by the digraph route
    general: bool  # not upper triangular, so parsed as GeneralBottMatrix


def check_items(count: int, rng: random.Random) -> list[CheckItem]:
    """`count` matrix texts with n drawn from CHECK_N_RANGE.  Exactly
    round(count * CHECK_SPIN_SHARE) are direct sums of spin blocks, the
    rest balanced matrices of density CHECK_DENSITY; independently, exactly
    round(count * CHECK_GENERAL_SHARE) are conjugated by a random
    permutation.  (A conjugate can land upper triangular again; `general`
    records what the parser will see.)"""
    blocks = spin_blocks()
    spin_flags = _quota(count, CHECK_SPIN_SHARE, rng)
    general_flags = _quota(count, CHECK_GENERAL_SHARE, rng)
    items = []
    for spin, conj in zip(spin_flags, general_flags):
        n = rng.randint(*CHECK_N_RANGE)
        C = spin_matrix(n, rng, blocks) if spin else balanced_matrix(n, CHECK_DENSITY, rng)
        M = conjugate(C, random_permutation(n, rng)) if conj else C
        d = digraph_spin(build_digraph(normalize(M)[1]))
        general = any(row & ((2 << i) - 1) for i, row in enumerate(M.rows))
        items.append(CheckItem(M.to_text(), (d.orientable, d.spin), general))
    return items


def _quota(count: int, share: float, rng: random.Random) -> list[bool]:
    k = round(count * share)
    flags = [True] * k + [False] * (count - k)
    rng.shuffle(flags)
    return flags


def check_shares(items) -> dict:
    k = len(items)
    return {
        "orientable": sum(it.expect[0] for it in items) / k,
        "spin": sum(it.expect[1] for it in items) / k,
        "general": sum(it.general for it in items) / k,
    }


def items_to_json(items: list[CheckItem]) -> list:
    return [[it.text, *it.expect, it.general] for it in items]


def items_from_json(rows: list) -> list[CheckItem]:
    return [CheckItem(text, (orientable, spin), general) for text, orientable, spin, general in rows]


def check_verdict_ok(out: str, expect: tuple[bool, bool]) -> bool:
    try:
        v = json.loads(out)
    except json.JSONDecodeError:
        return False
    return (v.get("orientable"), v.get("spin")) == expect


def pairs_scanned(n: int, verdict) -> int:
    """Pairs the closed-form scan visited: up to and including the pair
    witness, or all n(n-1)/2 when no pair fails."""
    for w in verdict.witnesses:
        if isinstance(w, PairWitness):
            return (w.j - 1) * n - (w.j - 1) * w.j // 2 + (w.k - w.j)
    return n * (n - 1) // 2


def latency_summary(samples: list[float]) -> dict:
    """Median and tail of per-request seconds (one sample per distinct
    input: its fastest answer), in ms.  The tail is the highest percentile
    with at least ten samples beyond it; below eleven samples no percentile
    has that, and the tail is the maximum."""
    ordered = sorted(samples)
    count = len(ordered)
    if count >= 11:
        tail, pct = ordered[count - 11], 100.0 * (count - 10) / count
    else:
        tail, pct = ordered[-1], 100.0
    return {
        "p50_ms": 1000.0 * statistics.median(ordered),
        "tail_ms": 1000.0 * tail,
        "tail_pct": pct,
        "count": count,
    }


def _b(v: bool) -> str:
    return "true" if v else "false"
