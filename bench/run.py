"""End-to-end and per-layer benchmark of the realbott CLI paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout: it imports `realbott` from the checkout's `src`
(never an installed copy) and exits with code 2 when that is missing.

Workloads (closed loops, one client, one request at a time, never more
than one child process at once):

- enumerate-sample: n = 6 matrices through all four spin routes, as
  `realbott enumerate -n 6 --threads 1` does for each matrix it sweeps.
- check-batch: matrix text -> `parse_matrix` -> `is_spin` /
  `is_spin_general` -> JSON, the `check` path without argparse.

Requests run in worker processes, CHUNKS of them one after another, each
making many passes over the seed's inputs.  Each input counts with its
fastest answer: the shared host this was tuned on runs everything up to
2x slower for seconds to minutes at a time, yet leaves moments at full
speed, and a request of well under a millisecond, repeated a hundred times
over the run, finds them.  Longer requests could not: CLI processes of
seconds each, and in-process ring requests of 8-30 ms at their best of 30,
spread 0.2-0.3 between runs of identical code.  From the per-input bests,
ops_per_s is inputs answered over their summed bests, latency_p50_ms and
latency_tail_ms their median and tail.  setup_s is the median of cold
starts of a fresh interpreter up to `realbott.cli` imported and its parser
built, measured between the workers.

With --trace 0 a run prints the end-to-end metrics of its workload; with
--trace 1 it runs a traced pass of the n = 6 sweep, of `sw` and
`sw --numbers` requests and of checks (spans recorded around each public
call, kept in memory, written under `.bench_out/`) and prints the
per-layer metrics of all of them.
Every output is checked against an independent route outside the timed
region; any wrong output counts as a failed operation and the run exits
with code 1.

The passes of a run are sized from --seconds with the pass cost measured
when the benchmark was defined (PASS_S), so a run lasts about --seconds
there and a faster program does the same work sooner.  The inputs never
depend on timing, so the median and tail always sit at the same ranks.
The traced run has a fixed size instead: one sweep over every n = 6
matrix, one cycle of each `sw` stratum list (a CLI process per request)
and TRACE_CHECK_OPS checks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Wall seconds of one pass over a workload's inputs at the commit that
#: defined the benchmark, on a 2-core x86-64 box with Python 3.11.  Runs
#: are sized from these, never from timing.
PASS_S = {
    "enumerate-sample": 0.26,
    "check-batch": 0.18,
}
#: The passes of a run are split over this many worker processes, run one
#: after another, so that cold starts are measured between them.
CHUNKS = 4
#: Cold starts measured before the first worker and after each; setup_s is
#: the median of all of them.
PROBES_PER_BREAK = 3
REQUEST_TIMEOUT_S = 120.0
#: No pass starts after DEADLINE_FACTOR * --seconds (at most DEADLINE_S),
#: so a much slower program still ends a run in bounded time; at the
#: nominal speed it leaves a run whole.
DEADLINE_FACTOR = 1.25
DEADLINE_S = 120.0
TRACE_CHECK_OPS = 2000


class BenchError(Exception):
    """The benchmark cannot run here (sources missing, a worker crashed)."""


@dataclass
class Child:
    wall_s: float
    code: int
    rss_mib: float
    out: str


def spawn(argv: list[str], env: dict) -> Child:
    """Run one child to completion with stderr merged into stdout; time it
    from start to exit and read its own peak RSS from wait4."""
    start = perf_counter()
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT
    ) as proc:
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(perf_counter() - start, proc.returncode, usage.ru_maxrss / 1024.0,
                 out.decode("utf-8", "replace"))


def realbott(env: dict, args: list[str]) -> Child:
    return spawn([sys.executable, "-m", "realbott", *args], env)


def worker(env: dict, args: list[str]) -> dict:
    child = spawn([sys.executable, str(BENCH / "worker.py"), *args], env)
    if child.code != 0:
        raise BenchError(f"worker {args[0]} exited {child.code}:\n{child.out}")
    result = json.loads(child.out.splitlines()[-1])
    result["rss_mib"] = child.rss_mib
    result["wall_s"] = child.wall_s
    return result


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe(env: dict) -> float:
    """Cold start of a fresh interpreter up to `realbott` imported and its
    parser built; fails unless the package comes from this checkout."""
    child = spawn(
        [sys.executable, "-c",
         "import realbott.cli as c; c.build_parser(); print(c.__file__)"],
        env,
    )
    lines = child.out.splitlines()
    if child.code != 0 or not lines or Path(lines[-1]).resolve() != SRC / "realbott" / "cli.py":
        raise BenchError(f"realbott does not import from {SRC}:\n{child.out}")
    return child.wall_s


def deadline(seconds: float) -> float:
    return min(DEADLINE_S, DEADLINE_FACTOR * seconds)


# --- end-to-end runs ---------------------------------------------------------


def probes(env) -> list[float]:
    return [probe(env) for _ in range(PROBES_PER_BREAK)]


def enumerate_inputs(seed: int):
    from workloads import ENUMERATE_N, ENUMERATE_SAMPLE, enumerate_items

    items = enumerate_items(ENUMERATE_N, ENUMERATE_SAMPLE, random.Random(seed))
    k = len(items)
    note = (
        f"inputs: {k} distinct n={ENUMERATE_N} matrices; measured orientable share "
        f"{sum(o for _, o, _ in items) / k:.4f}, spin share {sum(s for _, _, s in items) / k:.4f}"
    )
    return {"n": ENUMERATE_N, "items": items}, k, note


def check_batch_inputs(seed: int):
    from workloads import CHECK_N_RANGE, CHECK_POOL, check_items, check_shares, items_to_json

    items = check_items(CHECK_POOL, random.Random(seed))
    shares = check_shares(items)
    note = (
        f"inputs: {CHECK_POOL} distinct matrices, n {CHECK_N_RANGE[0]}..{CHECK_N_RANGE[1]}; "
        f"measured orientable share {shares['orientable']:.3f}, spin share "
        f"{shares['spin']:.3f}, general-form share {shares['general']:.3f}"
    )
    return {"items": items_to_json(items)}, len(items), note


#: Per workload: seed -> (inputs for the worker, number of inputs, note).
E2E_INPUTS = {
    "enumerate-sample": enumerate_inputs,
    "check-batch": check_batch_inputs,
}


def end_to_end(env, workload: str, seconds: float, seed: int):
    """Write the seed's inputs, then run the passes in CHUNKS workers one
    after another, with cold starts measured before the first and after
    each.  An input counts with its fastest answer in any pass."""
    from workloads import latency_summary

    inputs, count, note = E2E_INPUTS[workload](seed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}.inputs.json"
    path.write_text(json.dumps(inputs), encoding="utf-8")
    passes = max(CHUNKS, round(seconds / PASS_S[workload]))
    best = [float("inf")] * count
    attempted = failed = 0
    rss: list[float] = []
    notes = [note]
    probe(env)  # the first start also writes the bytecode caches
    setup = probes(env)
    start = perf_counter()
    for chunk in range(CHUNKS):
        left = deadline(seconds) - (perf_counter() - start)
        if left < 0:
            notes.append(f"deadline reached before worker {chunk + 1} of {CHUNKS}")
            break
        share = passes // CHUNKS + (chunk < passes % CHUNKS)
        r = worker(env, ["run", workload, str(path), str(share), repr(left)])
        attempted += r["attempted"]
        failed += r["failed"]
        best = [min(a, b) for a, b in zip(best, r["best_s"])]
        rss.append(r["rss_mib"])
        setup += probes(env)
    lat = latency_summary(best)
    metrics = {
        "ops_per_s": (count / sum(best), "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = [
        f"{passes} passes over {count} inputs in {CHUNKS} workers; each input counts with "
        "its fastest answer",
        f"latency_tail_ms is p{lat['tail_pct']:.2f} of {lat['count']} inputs",
        f"setup_s is the median of {len(setup)} cold starts",
        f"error_rate = {failed / attempted:.6g} ratio ({failed} failed of {attempted})",
        *notes,
    ]
    return metrics, attempted, failed, notes


def _sw_setup(workload: str):
    """(numbers flag, strata, output check) of one sw workload."""
    import workloads

    if workload == "sw-numbers":
        return True, workloads.SW_NUMBERS_STRATA, (
            lambda req, text: workloads.check_sw_numbers(text, req.expect)
        )
    return False, workloads.SW_DENSE_STRATA, (
        lambda req, text: workloads.check_sw_classes(text, req.expect)[0]
    )


def _sw_shares(requests) -> str:
    k = len(requests)
    orientable = sum(r.expect["flags"].startswith("orientable=true") for r in requests)
    spin = sum(r.expect["flags"].endswith("spin=true") for r in requests)
    return f"orientable share {orientable / k:.3f}, spin share {spin / k:.3f}"


# --- traced run ------------------------------------------------------------------

ENUMERATE_ROUTES = (
    "enumeration.matrix_from_index",
    "criteria.is_spin",
    "digraph.build_digraph",
    "digraph.digraph_spin",
    "criteria.spin_by_pairs",
    "cohomology.total_sw_class",
)


def _overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced


def trace_enumerate(env, metrics: dict, notes: list) -> tuple[int, int]:
    from workloads import ENUMERATE_EXPECT, ENUMERATE_N

    spans = OUT / "enumerate-exhaustive.spans.jsonl"
    r = worker(env, ["trace-enumerate", str(ENUMERATE_N), str(spans)])
    expect = dict(ENUMERATE_EXPECT, mismatches=0)
    failed = sum(counts != expect for counts in r["counts"])
    s = r["summary"]
    p = "enumerate-exhaustive."
    routes_s = 0.0
    for name in ENUMERATE_ROUTES:
        row = s[name]
        routes_s += row["self_s"]
        metrics[p + name + ".mean_us"] = (1e6 * row["self_s"] / row["calls"], "us")
        metrics[p + name + ".calls"] = (row["calls"], "count")
        metrics[p + name + ".share"] = (row["self_s"] / r["traced_s"], "ratio")
    metrics[p + "enumeration.sweep.wall_s"] = (r["sweep_s"], "s")
    metrics[p + "enumeration.sweep.overhead_s"] = (r["sweep_s"] - routes_s, "s")
    metrics[p + "trace.overhead_pct"] = (_overhead_pct(r["traced_s"], r["untraced_s"]), "%")
    loop_self = s["enumeration.evaluate"]["self_s"]
    notes.append(
        f"enumerate-exhaustive: sweep({ENUMERATE_N}) {r['sweep_s']:.3f} s untraced; traced loop "
        f"{r['traced_s']:.3f} s = routes {routes_s:.3f} s + loop self {loop_self:.3f} s "
        f"(+ {r['traced_s'] - routes_s - loop_self:.3f} s outside evaluate); same loop "
        f"untraced {r['untraced_s']:.3f} s, so tracing costs {r['traced_s'] - r['untraced_s']:.3f} s"
    )
    return len(r["counts"]), failed


def trace_sw(env, seed: int, workload: str, metrics: dict, notes: list) -> tuple[int, int]:
    """One cycle of requests, each sent once untraced through the CLI and
    once through a traced worker; both outputs are checked."""
    from workloads import check_sw_classes, inline, sw_argv, sw_requests

    numbers, strata, check = _sw_setup(workload)
    requests = sw_requests(strata, 1, random.Random(seed))
    attempted = failed = terms = 0
    cli_s = traced_s = 0.0
    rows, startups = [], []
    for i, req in enumerate(requests):
        cli = realbott(env, sw_argv(req, numbers))
        spans = OUT / f"{workload}-{i}.spans.jsonl"
        clock = perf_counter()
        r = worker(env, ["trace-sw", repr(clock), "1" if numbers else "0",
                         inline(req.matrix), str(spans)])
        attempted += 2
        failed += not (cli.code == 0 and check(req, cli.out))
        failed += not check(req, r["output"])
        if not numbers:
            terms += check_sw_classes(r["output"], req.expect)[1]
        cli_s += cli.wall_s
        traced_s += r["wall_s"]
        rows.append(r["summary"])
        startups.append(r["startup_s"])
    p = workload + "."
    ring = [row["cohomology.total_sw_class"]["self_s"] for row in rows]
    metrics[p + "cohomology.total_sw_class.mean_ms"] = (1000.0 * statistics.mean(ring), "ms")
    if numbers:
        calls = sum(row["cohomology.sw_number"]["calls"] for row in rows)
        busy = sum(row["cohomology.sw_number"]["self_s"] for row in rows)
        metrics[p + "cohomology.sw_number.mean_ms"] = (1000.0 * busy / calls, "ms")
        metrics[p + "cohomology.sw_number.calls"] = (calls, "count")
    else:
        metrics[p + "cohomology.total_sw_class.terms"] = (terms, "count")
        metrics[p + "cli.startup_ms"] = (1000.0 * statistics.median(startups), "ms")
        fmt = [row["cli.format"]["self_s"] for row in rows]
        metrics[p + "cli.format_ms"] = (1000.0 * statistics.mean(fmt), "ms")
    metrics[p + "trace.overhead_pct"] = (_overhead_pct(traced_s, cli_s), "%")
    notes.append(
        f"{workload}: {len(requests)} requests, CLI {cli_s:.3f} s vs traced worker "
        f"{traced_s:.3f} s"
    )
    return attempted, failed


def trace_check(env, seed: int, metrics: dict, notes: list) -> tuple[int, int]:
    spans = OUT / "check-batch.spans.jsonl"
    r = worker(env, ["trace-check", str(seed), str(TRACE_CHECK_OPS), str(spans)])
    s = r["summary"]
    p = "check-batch."
    for name in ("matrix.parse_matrix", "criteria.is_spin", "criteria.is_spin_general",
                 "cli.to_json"):
        metrics[p + name + ".mean_us"] = (1e6 * s[name]["self_s"] / s[name]["calls"], "us")
    metrics[p + "criteria.pairs_scanned"] = (r["pairs_scanned"], "count")
    metrics[p + "trace.overhead_pct"] = (_overhead_pct(r["traced_s"], r["untraced_s"]), "%")
    notes.append(
        f"check-batch: {TRACE_CHECK_OPS} ops, untraced {r['untraced_s']:.3f} s, traced "
        f"{r['traced_s']:.3f} s; shares {r['shares']}"
    )
    return r["attempted"], r["failed"]


def traced(env, seed: int):
    probe(env)
    OUT.mkdir(exist_ok=True)
    metrics: dict = {}
    notes: list = []
    counts = [
        trace_enumerate(env, metrics, notes),
        trace_sw(env, seed, "sw-dense", metrics, notes),
        trace_sw(env, seed, "sw-numbers", metrics, notes),
        trace_check(env, seed, metrics, notes),
    ]
    notes.append(f"spans written under {OUT.relative_to(ROOT)}/")
    return metrics, sum(a for a, _ in counts), sum(f for _, f in counts), notes


# --- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(E2E_INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "realbott" / "__init__.py").is_file():
        print(f"error: no realbott sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    try:
        if args.trace:
            metrics, attempted, failed, notes = traced(env, args.seed)
        else:
            metrics, attempted, failed, notes = end_to_end(
                env, args.workload, args.seconds, args.seed
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
