"""Command-line interface.

Exit codes: 0 on successful evaluation (whatever the verdict), 1 when a
verification or cross-criteria sweep fails, 2 on usage or input errors and
when a standard stream that the run uses is closed or cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path
from typing import Iterable

# `check` runs on these alone; each other command imports its own modules
from .criteria import PairWitness, RowWitness, is_spin
from .errors import BottError
from .matrix import GeneralBottMatrix, _read_stream, load_matrix, parse_matrix


def _bool(v) -> str:
    return "true" if v else "false"


def _read_matrix(args) -> GeneralBottMatrix:
    inline = getattr(args, "matrix", None)
    path = getattr(args, "input", None)
    if inline is not None and path is not None:
        raise BottError("give either an input file or --matrix, not both")
    if inline is not None:
        return parse_matrix(inline.replace(";", "\n"))
    if path is None:
        raise BottError("no input: pass a matrix file (or '-') or --matrix")
    if path == "-":
        if sys.stdin is None:
            raise BottError("no input: stdin is closed")
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


def cmd_check(args) -> tuple[int, Iterable[str]]:
    v = is_spin(_read_matrix(args))
    return 0, [json.dumps(v.to_json_dict()) if args.format == "json" else _verdict_line(v)]


def _partition_label(r) -> str:
    """w1^2*w3 for the exponents (2, 0, 1)."""
    return "*".join(f"w{i}" + (f"^{ri}" if ri > 1 else "") for i, ri in enumerate(r, 1) if ri)


def cmd_sw(args) -> tuple[int, Iterable[str]]:
    from .cohomology import SWProfile
    profile = SWProfile(_read_matrix(args))
    if args.format == "json":
        d = profile.to_json_dict()
        if args.numbers:
            d["sw_numbers_all_zero"] = profile.sw_numbers_all_zero
        return 0, [json.dumps(d)]
    return 0, _sw_lines(profile, args.classes or not args.numbers, args.numbers)


def _sw_lines(profile, classes: bool, numbers: bool) -> Iterable[str]:
    """sw's text lines as they come: a class of a dense n = 20 matrix is megabytes."""
    if classes:
        for k, w in enumerate(profile.classes):
            yield f"w{k} = {w}"
    spin = profile.spin
    yield (f"orientable={_bool(profile.orientable)} "
           f"spin={'null' if spin is None else _bool(spin)}")
    if numbers:
        for r, value in profile.sw_numbers.items():
            yield f"sw_number[{_partition_label(r)}] = {value}"
        yield f"all_sw_numbers_zero={_bool(profile.sw_numbers_all_zero)}"


def cmd_digraph(args) -> tuple[int, Iterable[str]]:
    from .digraph import export_dot
    dot = export_dot(_read_matrix(args))
    if args.dot:
        Path(args.dot).write_text(dot, encoding="utf-8")
        return 0, []
    return 0, dot.splitlines()


def cmd_enumerate(args) -> tuple[int, Iterable[str]]:
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
        lines = [json.dumps(report.to_json_dict())]
    elif args.format == "csv":
        lines = [report.CSV_HEADER, report.to_csv_row()]
    else:
        lines = [report.to_text_line()]
    return (0 if report.ok else 1), lines


def cmd_verify_paper(args) -> tuple[int, Iterable[str]]:
    from .enumeration import verify_fixture_suite
    directory = args.fixtures
    if directory is not None:
        d = Path(directory)
        if not d.is_dir() or not any(d.glob("*.txt")):
            raise BottError(f"fixture directory missing or empty: {d}")
    report = verify_fixture_suite(directory)
    if args.format == "json":
        return (0 if report.all_ok else 1), [json.dumps(report.to_json_dict())]
    lines = [f"{'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}"
             for check in report.checks]
    lines.append(f"{len(report.checks)} checks, {len(report.failures)} failures")
    return (0 if report.all_ok else 1), lines


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


def _emit(stream, text: str) -> None:
    """Write and flush text on a standard stream; if that fails, point its
    descriptor at os.devnull so the exit-time flush cannot fail again (the
    Python docs' note on SIGPIPE).  A stream found closed at startup is None."""
    if stream is None:
        return
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv=None) -> int:
    """Run one command and write its lines, the CLI's one writer of stdout,
    argparse's help included; its usage errors return their exit code, and a
    line that cannot be written or a stream that fails to flush gives exit 2."""
    try:
        try:
            with contextlib.redirect_stdout(io.StringIO()) as help_text:
                args = build_parser().parse_args(argv)
        except SystemExit as exc:  # help, or a usage error argparse has written to stderr
            code, lines = exc.code, help_text.getvalue().splitlines()
        else:
            code, lines = args.func(args)
        for line in lines:
            if sys.stdout is None:
                raise OSError("stdout is closed")
            sys.stdout.write(line + "\n")
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()  # a failed write fails here, not at exit
        return code
    except (BottError, OSError) as exc:
        _emit(sys.stderr, f"error: {exc}\n")
        _emit(sys.stdout, "")
        return 2


def run() -> None:
    sys.exit(main())
