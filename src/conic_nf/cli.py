"""Command-line front end for the conic solver.

Subcommands: check, solve, parametrize, reduce, verify, corpus.  Elements
use the wire grammar INT, p/q, s = sqrt(d), w = omega, with terms joined
by + or -; equations and solutions are semicolon-separated triples.

Exit codes: 0 success, 1 expectation mismatch or failed verification,
2 parse or usage error, 3 undecided results present (any UndecidedError,
a factorisation past its effort included).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    ConicError,
    InvalidD,
    NotSolvable,
    NotSquarefree,
    ParseError,
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
    """make_field(spec); a d that factor_int cannot split stays undecided."""
    try:
        return make_field(spec)
    except (ValueError, InvalidD, NotSquarefree) as exc:
        raise ParseError(f"bad field {spec!r}: {exc}") from exc


def _parse_triple(field: FieldDescriptor, text: str):
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 3:
        raise ParseError(f"expected three ;-separated elements, got {text!r}")
    return tuple(parse_element(field, p) for p in parts)


def _parse_equation(field: FieldDescriptor, text: str) -> ConicEquation:
    a, b, c = _parse_triple(field, text)
    return ConicEquation.from_coefficients(a, b, c)


class _Unverified(Exception):
    """A point from the library failed the CLI's own check.  The CLI checks
    every point it prints, as python -O strips the library's asserts."""


def _solve(eq: ConicEquation, trace=None):
    """A checked point of eq, or None when eq has none."""
    try:
        sol = solve_conic(eq, trace=trace)
    except NotSolvable:
        return None
    if not verify(eq, sol):
        raise _Unverified("solver output failed verification")
    return sol


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


def _cmd_check(args, eq, out) -> int:
    _emit(check_solvable(eq).to_dict(), args.json, out)
    return EXIT_OK


def _cmd_solve(args, eq, out) -> int:
    trace = DescentTrace()
    try:
        sol = _solve(eq, trace)
    finally:
        if args.trace:
            try:
                with open(args.trace, "w") as fh:
                    json.dump(trace.to_list(), fh, indent=2)
            except OSError as exc:  # a usage error, exit 2
                raise ConicError(f"cannot write the trace: {exc}") from None
    if sol is None:
        _emit({"solvable": False}, args.json, out)
    else:
        _emit({"solvable": True, "solution": _triple_dict(sol)}, args.json, out)
    return EXIT_OK


def _cmd_parametrize(args, eq, out) -> int:
    base = SolutionTriple(*_parse_triple(eq.field, args.base))
    if not verify(eq, base):
        _emit({"error": "base is not a solution"}, args.json, out)
        return EXIT_MISMATCH
    if base.z.is_zero:
        _emit({"error": "base solution must have nonzero z"}, args.json, out)
        return EXIT_PARSE
    sols = list(enumerate_solutions(eq, base, args.max_param, z_norm_bound=args.height))
    if not all(verify(eq, s) for s in sols):
        raise _Unverified("parametrize output failed verification")
    if args.json:
        _emit({"count": len(sols), "solutions": [_triple_dict(s) for s in sols]}, True, out)
    else:
        print(f"count: {len(sols)}", file=out)
        for s in sols:
            print(f"  {s!r}", file=out)
    return EXIT_OK


def _cmd_reduce(args, eq, out) -> int:
    red = reduce_solution(eq, SolutionTriple(*_parse_triple(eq.field, args.solution)))
    if not (verify(eq, red) and is_reduced(eq, red)):
        raise _Unverified("reducer output failed verification")
    _emit({"solution": _triple_dict(red), "reduced": True}, args.json, out)
    return EXIT_OK


def _cmd_verify(args, eq, out) -> int:
    ok = verify(eq, SolutionTriple(*_parse_triple(eq.field, args.solution)))
    _emit({"verified": ok}, args.json, out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _parse_corpus_line(line: str):
    parts = [p.strip() for p in line.split(";")]
    if len(parts) not in (5, 8):
        raise ParseError(f"expected 5 or 8 fields, got {len(parts)}")
    field = _parse_field(parts[0])
    eq = _parse_equation(field, ";".join(parts[1:4]))
    expectation = parts[4].lower()
    if expectation not in ("solvable", "unsolvable", "any"):
        raise ParseError(f"bad expectation {parts[4]!r}")
    known = None
    if len(parts) == 8:
        known = SolutionTriple(*_parse_triple(field, ";".join(parts[5:])))
    return eq, expectation, known


def _run_corpus_line(line: str):
    """The (status, detail) of one corpus line."""
    try:
        eq, expectation, known = _parse_corpus_line(line)
    except UndecidedError as exc:
        return "undecided", str(exc)
    except ConicError as exc:
        return "parse-error", str(exc)
    try:
        if known is not None and not verify(eq, known):
            return "mismatch", "stated solution fails verification"
        if expectation == "unsolvable":
            if check_solvable(eq).solvable:
                return "mismatch", "expected unsolvable, got solvable"
            return "ok", "unsolvable"
        sol = _solve(eq)
    except UndecidedError as exc:
        return "undecided", str(exc)
    except _Unverified as exc:
        return "mismatch", str(exc)
    if sol is not None:
        return "ok", f"solvable {sol!r}"
    if expectation == "solvable":
        return "mismatch", "expected solvable, got unsolvable"
    return "ok", "unsolvable"


def _cmd_corpus(args, out) -> int:
    try:
        with open(args.file) as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_PARSE
    lines = [
        (i + 1, ln.strip())
        for i, ln in enumerate(raw)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    results = [(i, *_run_corpus_line(ln)) for i, ln in lines]
    counts = {"ok": 0, "mismatch": 0, "undecided": 0, "parse-error": 0}
    for idx, status, detail in results:
        counts[status] += 1
        if args.json:
            _emit({"line": idx, "status": status, "detail": detail}, True, out)
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


def _non_negative(text: str) -> int:
    """An int >= 0; argparse makes anything else a usage error (exit 2)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conic-nf",
        description="Solve a*x^2 + b*y^2 + c*z^2 = 0 over Q and Q(sqrt(d)).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default="Q", help="Q or a squarefree integer d")
        p.add_argument("--eq", required=True, help='coefficients "a;b;c"')
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("check", help="local solvability certificate")
    common(p)

    p = sub.add_parser("solve", help="find one solution")
    common(p)
    p.add_argument("--trace", default=None, help="write descent trace JSON here")

    p = sub.add_parser("parametrize", help="enumerate solutions from a base")
    common(p)
    p.add_argument("--base", required=True, help='base solution "x;y;z"')
    p.add_argument("--max-param", type=_non_negative, default=8, help="slope sweep radius")
    p.add_argument("--height", type=_non_negative, default=None, help="norm bound on z")

    p = sub.add_parser("reduce", help="shrink a solution to the minimal bound")
    common(p)
    p.add_argument("--solution", required=True, help='starting solution "x;y;z"')

    p = sub.add_parser("verify", help="check a claimed solution")
    common(p)
    p.add_argument("--solution", required=True, help='solution "x;y;z"')

    p = sub.add_parser("corpus", help="run a batch corpus file")
    p.add_argument("file")
    p.add_argument("--jobs", type=int, default=1, help="ignored: lines run in order")
    p.add_argument("--json", action="store_true")
    return parser


_COMMANDS = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "parametrize": _cmd_parametrize,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_attach_triples(argv))
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "corpus":
            return _cmd_corpus(args, out)
        eq = _parse_equation(_parse_field(args.field), args.eq)
        return _COMMANDS[args.command](args, eq, out)
    except _Unverified as exc:
        _emit({"error": str(exc)}, args.json, out)
        return EXIT_MISMATCH
    except UndecidedError as exc:
        _emit({"undecided": str(exc)}, args.json, out)
        return EXIT_UNDECIDED
    except (ParseError, ConicError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_PARSE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
