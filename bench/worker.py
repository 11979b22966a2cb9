"""Child process of the benchmark: runs in-process passes and prints its
result as one JSON line on stdout.

    python3 bench/worker.py run WORKLOAD INPUTS_PATH PASSES DEADLINE_S
    python3 bench/worker.py trace-enumerate N SPANS_PATH
    python3 bench/worker.py trace-sw SPAWN_CLOCK NUMBERS MATRIX SPANS_PATH
    python3 bench/worker.py trace-check SEED COUNT SPANS_PATH

`realbott` must be importable (the parent sets PYTHONPATH to the
checkout's `src`).  Each traced pass runs in a fresh process, so the ring
caches of one never carry into the next.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from time import perf_counter

import realbott.cli
from realbott import (
    BottMatrix,
    build_digraph,
    digraph_spin,
    is_spin,
    is_spin_general,
    matrix_from_index,
    parse_matrix,
    spin_by_pairs,
    sw_number,
    sw_partitions,
    sweep,
    total_sw_class,
)
from realbott.enumeration import index_space
from spans import NullTracer, Tracer
from workloads import (
    check_items,
    check_shares,
    check_verdict_ok,
    items_from_json,
    pairs_scanned,
)

NULL = NullTracer()


def _to_json(verdict) -> str:
    return json.dumps(verdict.to_json_dict())


def check_op(tr, text: str):
    """The `check` path without argparse: parse, verdict, JSON."""
    m = tr.call("matrix.parse_matrix", parse_matrix, text)
    if isinstance(m, BottMatrix):
        v = tr.call("criteria.is_spin", is_spin, m)
    else:
        v = tr.call("criteria.is_spin_general", is_spin_general, m)
    return m, v, tr.call("cli.to_json", _to_json, v)


def timed_passes(
    items, request, passes: int, deadline_s: float = float("inf")
) -> tuple[list[float], list[Counter], int]:
    """Answer every item once per pass, for `passes` passes, starting none
    after `deadline_s`.  Return each item's fastest answer in seconds, the
    answers each item gave (tallied, for checking after the last pass) and
    the passes run."""
    seen = [Counter() for _ in items]
    best = [float("inf")] * len(items)
    done = 0
    first = perf_counter()
    for _ in range(passes):
        if perf_counter() - first > deadline_s:
            break
        for k, item in enumerate(items):
            start = perf_counter()
            out = request(item)
            elapsed = perf_counter() - start
            if elapsed < best[k]:
                best[k] = elapsed
            seen[k][out] += 1
        done += 1
    return best, seen, done


def wrong(seen: list[Counter], ok) -> int:
    """Answers for which ok(index, answer) is false."""
    return sum(
        count for k, tally in enumerate(seen) for out, count in tally.items() if not ok(k, out)
    )


def check_pass(tr, items, passes: int, deadline_s: float = float("inf")):
    """check-batch passes: (best seconds per item, checks attempted, wrong
    outputs)."""
    best, seen, done = timed_passes(
        items, lambda item: check_op(tr, item.text)[2], passes, deadline_s
    )
    failed = wrong(seen, lambda k, out: check_verdict_ok(out, items[k].expect))
    return best, done * len(items), failed


def run_workload(workload: str, inputs_path: str, passes: int, deadline_s: float) -> dict:
    """`passes` untraced passes of one end-to-end workload over the inputs
    the parent wrote."""
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    if workload == "check-batch":
        best, attempted, failed = check_pass(
            NULL, items_from_json(inputs["items"]), passes, deadline_s
        )
        return {"attempted": attempted, "failed": failed, "best_s": best}
    if workload == "enumerate-sample":
        n = inputs["n"]
        items = inputs["items"]
        best, seen, done = timed_passes(
            items, lambda item: evaluate(NULL, n, item[0]), passes, deadline_s
        )
        failed = wrong(seen, lambda k, out: out == (items[k][1], items[k][2], True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"attempted": done * len(items), "failed": failed, "best_s": best}


def trace_check(seed: int, count: int, spans_path: str) -> dict:
    items = check_items(count, random.Random(seed))
    untraced, _, failed_null = check_pass(NULL, items, 1)
    tr = Tracer()
    traced, _, failed_traced = check_pass(tr, items, 1)
    # pairs visited by the closed-form scan, from each verdict's witness
    pairs = 0
    for item in items:
        m, v, _ = check_op(NULL, item.text)
        pairs += pairs_scanned(m.n, v)
    tr.write(spans_path)
    return {
        "attempted": 2 * count,
        "failed": failed_null + failed_traced,
        "untraced_s": sum(untraced),
        "traced_s": sum(traced),
        "summary": tr.summary(),
        "pairs_scanned": pairs,
        "shares": check_shares(items),
    }


def evaluate(tr, n: int, index: int) -> tuple[bool, bool, bool]:
    """The four spin routes on one packed index, as `evaluate_matrix` runs
    them; returns (orientable, spin, all routes agree)."""
    C = tr.call("enumeration.matrix_from_index", matrix_from_index, n, index)
    v = tr.call("criteria.is_spin", is_spin, C)
    D = tr.call("digraph.build_digraph", build_digraph, C)
    d = tr.call("digraph.digraph_spin", digraph_spin, D)
    p = tr.call("criteria.spin_by_pairs", spin_by_pairs, C)
    profile = tr.call("cohomology.total_sw_class", total_sw_class, C)
    agree = (
        v.orientable == d.orientable == profile.orientable
        and v.spin == d.spin == p == (profile.spin is True)
    )
    return v.orientable, v.spin, agree


def _evaluate_all(tr, n: int) -> tuple[float, dict]:
    counts = {"total": 0, "orientable": 0, "spin": 0, "mismatches": 0}
    start = perf_counter()
    for index in range(index_space(n)):
        o, s, agree = tr.call("enumeration.evaluate", evaluate, tr, n, index)
        counts["total"] += 1
        counts["orientable"] += o
        counts["spin"] += s
        counts["mismatches"] += not agree
    return perf_counter() - start, counts


def trace_enumerate(n: int, spans_path: str) -> dict:
    """Untraced `sweep(n)`, then the same four routes in the benchmark's own
    loop, once untraced and once traced; the counts of all three go back to
    the parent for checking."""
    start = perf_counter()
    report = sweep(n, jobs=1)
    sweep_s = perf_counter() - start
    sweep_counts = {
        "total": report.total,
        "orientable": report.orientable_count,
        "spin": report.spin_count,
        "mismatches": len(report.mismatches),
    }
    untraced_s, null_counts = _evaluate_all(NULL, n)
    tr = Tracer()
    traced_s, traced_counts = _evaluate_all(tr, n)
    tr.write(spans_path)
    return {
        "counts": [sweep_counts, null_counts, traced_counts],
        "sweep_s": sweep_s,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "summary": tr.summary(),
    }


def trace_sw(spawn_clock: float, numbers: bool, matrix: str, spans_path: str) -> dict:
    """One `sw` request with spans around each public call, under one root
    span; the classes are rendered as the CLI prints them, so the parent
    checks the output the same way."""
    parser = realbott.cli.build_parser()
    startup_s = perf_counter() - spawn_clock
    tr = Tracer()
    lines = tr.call("cli.sw", _sw_request, tr, parser, numbers, matrix)
    tr.write(spans_path)
    return {"startup_s": startup_s, "summary": tr.summary(), "output": "\n".join(lines)}


def _sw_request(tr, parser, numbers: bool, matrix: str) -> list[str]:
    tr.call("cli.parse_args", parser.parse_args, ["sw", "--matrix", matrix])
    C = tr.call("matrix.parse_matrix", parse_matrix, matrix.replace(";", "\n"))
    profile = tr.call("cohomology.total_sw_class", total_sw_class, C)
    if numbers:
        lines = []
        for r in sw_partitions(C.n):
            value = tr.call("cohomology.sw_number", sw_number, profile, r)
            lines.append(f"sw_number[{r}] = {value}")
        zero = all(line.endswith(" = 0") for line in lines)
        lines.append(f"all_sw_numbers_zero={'true' if zero else 'false'}")
    else:
        lines = tr.call("cli.format", _class_lines, profile)
    spin = profile.spin
    lines.append(
        f"orientable={'true' if profile.orientable else 'false'} "
        f"spin={'null' if spin is None else ('true' if spin else 'false')}"
    )
    return lines


def _class_lines(profile) -> list[str]:
    return [f"w{k} = {w}" for k, w in enumerate(profile.classes)]


def main(argv: list[str]) -> int:
    task, *rest = argv
    if task == "run":
        result = run_workload(rest[0], rest[1], int(rest[2]), float(rest[3]))
    elif task == "trace-enumerate":
        result = trace_enumerate(int(rest[0]), rest[1])
    elif task == "trace-sw":
        result = trace_sw(float(rest[0]), rest[1] == "1", rest[2], rest[3])
    elif task == "trace-check":
        result = trace_check(int(rest[0]), int(rest[1]), rest[2])
    else:
        print(f"unknown task {task!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
