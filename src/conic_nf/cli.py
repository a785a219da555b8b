"""Command-line front end for the conic solver.

Subcommands: check, solve, parametrize, reduce, verify, corpus.  Elements
use the wire grammar INT, p/q, s = sqrt(d), w = omega, with terms joined
by + or -; equations and solutions are semicolon-separated triples.

Exit codes: 0 success, 1 expectation mismatch or failed verification,
2 parse or usage error, 3 undecided results present.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from .errors import (
    BaseDegenerate,
    ConicError,
    NotSolvable,
    ParseError,
    PellSearchExhausted,
    UndecidedError,
)
from .descent import DescentTrace, SolutionTriple, solve_conic, verify
from .fields import (
    FieldDescriptor,
    format_element,
    make_field,
    parse_element,
)
from .holzer import is_reduced, reduce_solution
from .parametrize import enumerate_solutions
from .solvability import ConicEquation, check_solvable

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_UNDECIDED = 3


def _parse_field(spec: str) -> FieldDescriptor:
    try:
        return make_field(spec)
    except (ValueError, ConicError) as exc:
        raise ParseError(f"bad field {spec!r}: {exc}") from exc


def _parse_triple(field: FieldDescriptor, text: str):
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 3:
        raise ParseError(f"expected three ;-separated elements, got {text!r}")
    return tuple(parse_element(field, p) for p in parts)


def _parse_equation(field: FieldDescriptor, text: str) -> ConicEquation:
    a, b, c = _parse_triple(field, text)
    return ConicEquation.from_coefficients(a, b, c)


def _triple_dict(sol: SolutionTriple) -> dict:
    return {
        "x": format_element(sol.x),
        "y": format_element(sol.y),
        "z": format_element(sol.z),
    }


def _emit(payload: dict, as_json: bool, out) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True), file=out)
        return
    for key, value in payload.items():
        print(f"{key}: {value}", file=out)


def _cmd_check(args, out) -> int:
    field = _parse_field(args.field)
    eq = _parse_equation(field, args.eq)
    _emit(check_solvable(eq).to_dict(), args.json, out)
    return EXIT_OK


def _cmd_solve(args, out) -> int:
    field = _parse_field(args.field)
    eq = _parse_equation(field, args.eq)
    trace = DescentTrace()
    try:
        sol = solve_conic(eq, pell_bound=args.pell_bound, trace=trace)
    except NotSolvable:
        _emit({"solvable": False}, args.json, out)
        return EXIT_OK
    except (UndecidedError, PellSearchExhausted) as exc:
        _emit({"undecided": str(exc)}, args.json, out)
        return EXIT_UNDECIDED
    if not verify(eq, sol):
        _emit({"error": "solver output failed verification"}, args.json, out)
        return EXIT_MISMATCH
    payload = {"solvable": True, "solution": _triple_dict(sol)}
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(trace.to_list(), fh, indent=2)
    _emit(payload, args.json, out)
    return EXIT_OK


def _cmd_parametrize(args, out) -> int:
    field = _parse_field(args.field)
    eq = _parse_equation(field, args.eq)
    base = SolutionTriple(*_parse_triple(field, args.base))
    if not verify(eq, base):
        _emit({"error": "base is not a solution"}, args.json, out)
        return EXIT_MISMATCH
    if base.z.is_zero:
        _emit({"error": "base solution must have nonzero z"}, args.json, out)
        return EXIT_PARSE
    try:
        sols = list(
            enumerate_solutions(
                eq, base, args.max_param, z_norm_bound=args.height
            )
        )
    except BaseDegenerate as exc:
        _emit({"error": str(exc)}, args.json, out)
        return EXIT_PARSE
    payload = {
        "count": len(sols),
        "solutions": [_triple_dict(s) for s in sols],
    }
    if args.json:
        _emit(payload, True, out)
    else:
        print(f"count: {len(sols)}", file=out)
        for s in sols:
            print(f"  {s!r}", file=out)
    return EXIT_OK


def _cmd_reduce(args, out) -> int:
    field = _parse_field(args.field)
    eq = _parse_equation(field, args.eq)
    sol = SolutionTriple(*_parse_triple(field, args.solution))
    try:
        red = reduce_solution(eq, sol)
    except UndecidedError as exc:
        _emit({"undecided": str(exc)}, args.json, out)
        return EXIT_UNDECIDED
    assert verify(eq, red) and is_reduced(eq, red)
    _emit({"solution": _triple_dict(red), "reduced": True}, args.json, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    field = _parse_field(args.field)
    eq = _parse_equation(field, args.eq)
    sol = SolutionTriple(*_parse_triple(field, args.solution))
    ok = verify(eq, sol)
    _emit({"verified": ok}, args.json, out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _parse_corpus_line(line: str):
    parts = [p.strip() for p in line.split(";")]
    if len(parts) not in (5, 8):
        raise ParseError(f"expected 5 or 8 fields, got {len(parts)}")
    field = _parse_field(parts[0])
    a, b, c = (parse_element(field, p) for p in parts[1:4])
    expectation = parts[4].lower()
    if expectation not in ("solvable", "unsolvable", "any"):
        raise ParseError(f"bad expectation {parts[4]!r}")
    known = None
    if len(parts) == 8:
        known = SolutionTriple(*(parse_element(field, p) for p in parts[5:8]))
    return ConicEquation.from_coefficients(a, b, c), expectation, known


def _run_corpus_line(idx: int, line: str, pell_bound: Optional[int]):
    try:
        eq, expectation, known = _parse_corpus_line(line)
    except (ParseError, ConicError) as exc:
        return idx, "parse-error", str(exc)
    try:
        if known is not None and not verify(eq, known):
            return idx, "mismatch", "stated solution fails verification"
        if expectation == "unsolvable":
            if check_solvable(eq).solvable:
                return idx, "mismatch", "expected unsolvable, got solvable"
            return idx, "ok", "unsolvable"
        try:
            sol = solve_conic(eq, pell_bound=pell_bound)
        except NotSolvable:
            if expectation == "solvable":
                return idx, "mismatch", "expected solvable, got unsolvable"
            return idx, "ok", "unsolvable"
        return idx, "ok", f"solvable {sol!r}"
    except (UndecidedError, PellSearchExhausted) as exc:
        return idx, "undecided", str(exc)


def _cmd_corpus(args, out) -> int:
    try:
        with open(args.file) as fh:
            raw = fh.readlines()
    except OSError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_PARSE
    lines = [
        (i + 1, ln.strip())
        for i, ln in enumerate(raw)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    jobs = max(1, args.jobs)
    if jobs == 1:
        results = [_run_corpus_line(i, ln, args.pell_bound) for i, ln in lines]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(
                    lambda pair: _run_corpus_line(
                        pair[0], pair[1], args.pell_bound
                    ),
                    lines,
                )
            )
    counts = {"ok": 0, "mismatch": 0, "undecided": 0, "parse-error": 0}
    for idx, status, detail in results:
        counts[status] += 1
        if args.json:
            print(
                json.dumps(
                    {"line": idx, "status": status, "detail": detail},
                    sort_keys=True,
                ),
                file=out,
            )
        else:
            print(f"line {idx}: {status} ({detail})", file=out)
    summary = ", ".join(f"{k}={v}" for k, v in counts.items())
    if not args.json:
        print(f"summary: {summary}", file=out)
    if counts["parse-error"]:
        return EXIT_PARSE
    if counts["mismatch"]:
        return EXIT_MISMATCH
    if counts["undecided"]:
        return EXIT_UNDECIDED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conic-nf",
        description="Solve a*x^2 + b*y^2 + c*z^2 = 0 over Q and Q(sqrt(d)).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, eq=True):
        p.add_argument("--field", default="Q", help="Q or a squarefree integer d")
        if eq:
            p.add_argument("--eq", required=True, help='coefficients "a;b;c"')
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("check", help="local solvability certificate")
    common(p)

    p = sub.add_parser("solve", help="find one solution")
    common(p)
    p.add_argument("--pell-bound", type=int, default=None)
    p.add_argument("--trace", default=None, help="write descent trace JSON here")

    p = sub.add_parser("parametrize", help="enumerate solutions from a base")
    common(p)
    p.add_argument("--base", required=True, help='base solution "x;y;z"')
    p.add_argument("--max-param", type=int, default=8, help="slope sweep radius")
    p.add_argument("--height", type=int, default=None, help="norm bound on z")

    p = sub.add_parser("reduce", help="shrink a solution to the minimal bound")
    common(p)
    p.add_argument("--solution", required=True, help='starting solution "x;y;z"')

    p = sub.add_parser("verify", help="check a claimed solution")
    common(p)
    p.add_argument("--solution", required=True, help='solution "x;y;z"')

    p = sub.add_parser("corpus", help="run a batch corpus file")
    p.add_argument("file")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--pell-bound", type=int, default=None)
    return parser


_COMMANDS = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "parametrize": _cmd_parametrize,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "corpus": _cmd_corpus,
}


# Options whose value is a triple, which may start with a minus sign.
_TRIPLE_OPTIONS = ("--eq", "--solution", "--base")


def _attach_triples(argv: list[str]) -> list[str]:
    """Rewrite "--eq VALUE" as "--eq=VALUE" for the triple options.

    argparse reads a separate value such as "-1;2;3" as an option and
    rejects it; attached with "=", it is always read as the value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _TRIPLE_OPTIONS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_triples(argv))
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    handler = _COMMANDS.get(args.command)
    if handler is None:
        parser.print_usage(out)
        return EXIT_PARSE
    try:
        return handler(args, out)
    except (ParseError, ConicError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_PARSE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
