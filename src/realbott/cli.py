"""Command-line interface.

Exit codes: 0 on successful evaluation (whatever the verdict), 1 when a
verification or cross-criteria sweep fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# `check` runs on these alone; each other command imports its own modules
from .criteria import PairWitness, RowWitness, is_spin
from .errors import BottError
from .matrix import AnyBottMatrix, _read_stream, load_matrix, parse_matrix


def _bool(v) -> str:
    return "true" if v else "false"


def _read_matrix(args) -> AnyBottMatrix:
    inline = getattr(args, "matrix", None)
    path = getattr(args, "input", None)
    if inline is not None and path is not None:
        raise BottError("give either an input file or --matrix, not both")
    if inline is not None:
        return parse_matrix(inline.replace(";", "\n"))
    if path is None:
        raise BottError("no input: pass a matrix file (or '-') or --matrix")
    if path == "-":
        return _read_stream(sys.stdin, "stdin")
    return load_matrix(path)


def _verdict_line(v) -> str:
    parts = [f"orientable={_bool(v.orientable)}", f"spin={_bool(v.spin)}"]
    w = v.witness
    if isinstance(w, RowWitness):
        parts.append(f"witness row {w.i}")
    elif isinstance(w, PairWitness):
        parts.append(f"witness pair ({w.j},{w.k}) P={w.P} Q={w.Q}")
    return " ".join(parts)


def cmd_check(args) -> int:
    m = _read_matrix(args)
    v = is_spin(m)
    if args.format == "json":
        print(json.dumps(v.to_json_dict()))
    else:
        print(_verdict_line(v))
    return 0


def _partition_label(r) -> str:
    parts = []
    for i, ri in enumerate(r, 1):
        if ri == 1:
            parts.append(f"w{i}")
        elif ri > 1:
            parts.append(f"w{i}^{ri}")
    return "*".join(parts)


def cmd_sw(args) -> int:
    from .cohomology import SWProfile
    profile = SWProfile(_read_matrix(args))
    if args.format == "json":
        d = profile.to_json_dict()
        if args.numbers:
            d["sw_numbers_all_zero"] = profile.sw_numbers_all_zero
        print(json.dumps(d))
        return 0
    show_classes = args.classes or not args.numbers
    if show_classes:
        for k, w in enumerate(profile.classes):
            print(f"w{k} = {w}")
    spin = profile.spin
    print(f"orientable={_bool(profile.orientable)} "
          f"spin={'null' if spin is None else _bool(spin)}")
    if args.numbers:
        for r, value in profile.sw_numbers.items():
            print(f"sw_number[{_partition_label(r)}] = {value}")
        print(f"all_sw_numbers_zero={_bool(profile.sw_numbers_all_zero)}")
    return 0


def cmd_digraph(args) -> int:
    from .digraph import export_dot
    dot = export_dot(_read_matrix(args))
    if args.dot:
        Path(args.dot).write_text(dot, encoding="utf-8")
    else:
        sys.stdout.write(dot)
    return 0


def cmd_enumerate(args) -> int:
    from .enumeration import sweep
    if args.threads < 0:
        raise BottError(f"--threads must be >= 0, got {args.threads}")
    cap = None
    env_cap = os.environ.get("BOTT_MAX_N")
    if env_cap is not None:
        try:
            cap = int(env_cap)
        except ValueError:
            raise BottError(f"BOTT_MAX_N must be an integer, got {env_cap!r}")
    jobs = args.threads if args.threads else (os.cpu_count() or 1)
    report = sweep(
        args.n,
        mode=args.mode,
        count=args.count,
        seed=args.seed,
        jobs=jobs,
        cap=cap,
    )
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    elif args.format == "csv":
        print(report.CSV_HEADER)
        print(report.to_csv_row())
    else:
        print(report.to_text_line())
    return 0 if report.ok else 1


def cmd_verify_paper(args) -> int:
    from .enumeration import verify_fixture_suite
    directory = args.fixtures
    if directory is not None:
        d = Path(directory)
        if not d.is_dir() or not any(d.glob("*.txt")):
            raise BottError(f"fixture directory missing or empty: {d}")
    report = verify_fixture_suite(directory)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        for check in report.checks:
            mark = "ok  " if check.ok else "FAIL"
            print(f"{mark} {check.name}: {check.detail}")
        failures = report.failures
        print(f"{len(report.checks)} checks, {len(failures)} failures")
    return 0 if report.all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realbott",
        description="Orientability, spin and Stiefel-Whitney data of real "
        "Bott manifolds given by their Bott matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", help="matrix file (text or JSON), '-' for stdin")
        p.add_argument("--matrix", help="inline rows, ';'-separated, e.g. '0110;0011;0000;0000'")

    p = sub.add_parser("check", help="orientability and spin verdict")
    add_input(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sw", help="Stiefel-Whitney classes and numbers")
    add_input(p)
    p.add_argument("--classes", action="store_true", help="print w_0..w_n (default)")
    p.add_argument("--numbers", action="store_true", help="print every SW number")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_sw)

    p = sub.add_parser("digraph", help="export the digraph as annotated DOT")
    add_input(p)
    p.add_argument("--dot", metavar="FILE", help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_digraph)

    p = sub.add_parser("enumerate", help="sweep all or sampled matrices of one dimension")
    p.add_argument("-n", type=int, required=True, help="matrix dimension")
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--count", type=int, default=1000, help="sample size (sample mode)")
    p.add_argument("--seed", type=int, default=0, help="sample seed (sample mode)")
    p.add_argument("--threads", type=int, default=0, help="worker processes, one per run "
                   "of 16384 indices at most; 0 = all cores, 1 = serial")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify-paper", help="run the built-in fixture suite")
    p.add_argument("--fixtures", metavar="DIR", help="override the fixture directory")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BottError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
