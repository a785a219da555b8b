import argparse
import io
import json

import pytest

import conic_nf.cli
from conic_nf.cli import run
from conic_nf.descent import SolutionTriple, verify
from conic_nf.fields import make_field, parse_element
from conic_nf.solvability import ConicEquation
from timelimit import within

import os

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_check_solvable_example():
    code, text = _run(["check", "--field", "-7", "--eq", "3;2;13", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["solvable"] is True


def test_check_names_the_rule_at_each_prime_over_two():
    code, text = _run(["check", "--field", "-7", "--eq", "3;2;13", "--json"])
    assert code == 0
    dyadic = [c for c in json.loads(text)["conditions"] if c["type"] == "dyadic"]
    assert [c["by"] for c in dyadic] == ["hilbert_symbol", "reciprocity"]


def test_check_has_no_dyadic_depth_option():
    code, _ = _run(["check", "--field", "-7", "--eq", "3;2;13", "--v-max", "3"])
    assert code == 2


def test_check_decides_high_valuation_at_a_ramified_odd_prime():
    # (1, 1, 0) solves 17x^2 - 17y^2 + sqrt(17)z^2 = 0.
    code, text = _run(["check", "--field", "17", "--eq=17;-17;s", "--json"])
    assert code == 0
    assert json.loads(text)["solvable"] is True


def test_check_unsolvable_real_embedding():
    code, text = _run(["check", "--field", "Q", "--eq", "1;1;1", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["solvable"] is False
    assert payload["reason"] == "real_embedding"


def test_solve_json_roundtrip():
    code, text = _run(["solve", "--field", "-7", "--eq", "3;2;13", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["solvable"] is True
    field = make_field(-7)
    sol = SolutionTriple(
        *(parse_element(field, payload["solution"][k]) for k in ("x", "y", "z"))
    )
    eq = ConicEquation(field.element(3), field.element(2), field.element(13))
    assert verify(eq, sol)


def test_solve_writes_trace(tmp_path):
    trace_file = tmp_path / "trace.json"
    code, text = _run(
        [
            "solve",
            "--field",
            "-6",
            "--eq",
            "1;-823;1929",
            "--json",
            "--trace",
            str(trace_file),
        ]
    )
    assert code == 0
    steps = json.loads(trace_file.read_text())
    assert any(step["step"] == "norm_form" for step in steps)


def test_solve_writes_trace_when_not_solvable(tmp_path):
    # x^2 + y^2 + z^2 = 0 fails at the real place: the trace still holds the
    # steps taken before the descent gave up.
    trace_file = tmp_path / "trace.json"
    code, text = _run(["solve", "--field", "Q", "--eq", "1;1;1", "--trace", str(trace_file)])
    assert code == 0
    assert "False" in text
    steps = json.loads(trace_file.read_text())
    assert [step["step"] for step in steps] == ["norm_form"]


def test_solve_trace_to_an_unwritable_path_is_a_usage_error(tmp_path):
    # The trace's directory does not exist: an error line and exit 2, as for
    # a corpus file that cannot be read, not an OSError out of run.
    path = tmp_path / "missing" / "trace.json"
    code, text = _run(["solve", "--field", "Q", "--eq", "1;1;-1", "--trace", str(path)])
    assert code == 2
    assert text.startswith("error: cannot write the trace") and "Traceback" not in text


def test_verify_subcommand():
    code, _ = _run(
        ["verify", "--field", "-7", "--eq", "3;2;13", "--solution", "s;2;1"]
    )
    assert code == 0
    code, _ = _run(
        ["verify", "--field", "-7", "--eq", "3;2;13", "--solution", "1;2;1"]
    )
    assert code == 1


def test_reduce_subcommand():
    code, text = _run(
        [
            "reduce",
            "--field",
            "Q",
            "--eq",
            "1;1;-5",
            "--solution",
            "41;38;25",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["reduced"] is True
    z = int(payload["solution"]["z"])
    assert z * z <= 5


def test_reduce_returns_a_point_at_infinity_when_a_line_gives_one():
    # Over Q(sqrt(-7)) a reduced row (u, v) of the lattice step has
    # a*u^2 + b*v^2 = 0, so (u, v, 0) itself solves the equation.
    code, text = _run(
        ["reduce", "--field", "-7", "--eq", "1-w;3-w;-7", "--solution", "-5-3w;4-3w;-3+w", "--json"]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["reduced"] is True and payload["solution"]["z"] == "0"
    K = make_field(-7)
    eq = ConicEquation(*(parse_element(K, t) for t in "1-w;3-w;-7".split(";")))
    sol = SolutionTriple(*(parse_element(K, payload["solution"][k]) for k in "xyz"))
    assert verify(eq, sol)


@pytest.mark.parametrize(
    "command, name, point",
    [
        ("reduce", "reduce_solution", "1;1;1"),  # not a solution
        ("reduce", "reduce_solution", "41;38;25"),  # a solution, not reduced
        ("solve", "solve_conic", "1;1;1"),
        ("parametrize", "enumerate_solutions", "1;1;1"),  # listed from the base (1, 2, 1)
        ("corpus", "solve_conic", "1;1;1"),  # for a line that expects a point
    ],
)
def test_output_that_fails_its_check_exits_1_with_an_error(
    command, name, point, monkeypatch, tmp_path
):
    # The CLI checks the library's answer itself, not by an assert that
    # python -O would remove.
    Q = make_field("Q")
    fake = SolutionTriple(*(parse_element(Q, t) for t in point.split(";")))
    listed = command == "parametrize"
    monkeypatch.setattr(conic_nf.cli, name, lambda *args, **kwargs: iter([fake]) if listed else fake)
    if command == "corpus":
        # A corpus line reports the failed check as a mismatch row.
        corpus = tmp_path / "one.corpus"
        corpus.write_text("Q ; 1 ; 1 ; -5 ; solvable\n")
        code, text = _run(["corpus", str(corpus), "--json"])
        row = {"line": 1, "status": "mismatch", "detail": "solver output failed verification"}
        assert code == 1 and json.loads(text) == row
        return
    extra = {"reduce": ["--solution", "41;38;25"], "parametrize": ["--base", "1;2;1"]}
    argv = [command, "--eq", "1;1;-5"] + extra.get(command, [])
    code, text = _run(argv)
    assert code == 1
    message = {"reduce": "reducer", "solve": "solver"}.get(command, command)
    assert text == f"error: {message} output failed verification\n"
    code, text = _run(argv + ["--json"])
    assert code == 1 and json.loads(text) == {"error": f"{message} output failed verification"}


def test_solve_and_corpus_have_no_pell_bound_option():
    code, _ = _run(["solve", "--field", "Q", "--eq", "1;1;-2", "--pell-bound", "50"])
    assert code == 2
    code, _ = _run(["corpus", os.path.join(FIXTURES, "table1.corpus"), "--pell-bound", "50"])
    assert code == 2


def test_parametrize_subcommand():
    code, text = _run(
        [
            "parametrize",
            "--field",
            "Q",
            "--eq",
            "1;1;-1",
            "--base",
            "1;0;1",
            "--max-param",
            "5",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["count"] == len(payload["solutions"]) > 5
    field = make_field()
    eq = ConicEquation(field.element(1), field.element(1), field.element(-1))
    for rec in payload["solutions"]:
        sol = SolutionTriple(*(parse_element(field, rec[k]) for k in ("x", "y", "z")))
        assert verify(eq, sol)
    # A base off the conic fails verification (exit 1); a base with z = 0
    # is a usage error (exit 2).
    code, text = _run(["parametrize", "--eq", "1;1;-1", "--base", "1;1;1", "--json"])
    assert (code, json.loads(text)) == (1, {"error": "base is not a solution"})
    code, text = _run(["parametrize", "--eq", "1;-1;1", "--base", "1;1;0", "--json"])
    assert (code, json.loads(text)) == (2, {"error": "base solution must have nonzero z"})


@pytest.mark.parametrize("option", ["--max-param", "--height"])
def test_parametrize_rejects_a_negative_bound(option, capsys):
    base = ["parametrize", "--eq", "1;1;-1", "--base", "1;0;1"]
    for value in ("-1", "-2"):
        code, text = _run(base + [option, value])
        assert code == 2 and text == ""
        assert f"{option}: must be at least 0, got {value}" in capsys.readouterr().err
    # 0 is a bound like any other.
    assert _run(base + [option, "0"])[0] == 0


def test_parse_error_exit_code():
    code, _ = _run(["check", "--field", "Q", "--eq", "1;1"])
    assert code == 2
    code, _ = _run(["check", "--field", "4", "--eq", "1;1;1"])
    assert code == 2
    code, text = _run(["corpus", os.path.join(FIXTURES, "no-such.corpus")])
    assert code == 2
    assert text.startswith("error: ") and "no-such.corpus" in text


def test_corpus_file_that_is_not_utf8_is_a_usage_error(tmp_path):
    # A file that cannot be decoded is a file that cannot be read: an error
    # line and exit 2, not a UnicodeDecodeError out of run.
    corpus = tmp_path / "binary.corpus"
    corpus.write_bytes(b"\xff\n")
    code, text = _run(["corpus", str(corpus)])
    assert code == 2
    assert text.startswith("error: ") and "decode" in text


def test_missing_or_unknown_subcommand_is_a_usage_error():
    # argparse's required subparsers exit before any command runs.
    assert _run([])[0] == 2
    assert _run(["nosuch"])[0] == 2


def test_zero_denominator_is_a_parse_error():
    code, text = _run(["check", "--field", "Q", "--eq", "1/0;1;1"])
    assert code == 2
    assert text.startswith("error: zero denominator")


def test_corpus_reports_a_zero_denominator_line_and_runs_the_rest(tmp_path):
    corpus = tmp_path / "zero.corpus"
    corpus.write_text(
        "Q ; 1/0 ; 1 ; 1 ; any\nQ ; 1 ; 1 ; -2\nQ ; 1 ; 1 ; -2 ; maybe\nQ ; 1 ; 1 ; -2 ; solvable\n"
    )
    code, text = _run(["corpus", str(corpus), "--json"])
    assert code == 2
    records = [json.loads(line) for line in text.strip().splitlines()]
    statuses = [(1, "parse-error"), (2, "parse-error"), (3, "parse-error"), (4, "ok")]
    assert [(r["line"], r["status"]) for r in records] == statuses
    assert records[1]["detail"] == "expected 5 or 8 fields, got 4"
    assert records[2]["detail"] == "bad expectation 'maybe'"


def test_corpus_run():
    corpus = os.path.join(FIXTURES, "table1.corpus")
    code, text = _run(["corpus", corpus, "--json"])
    assert code == 0
    lines = [json.loads(ln) for ln in text.strip().splitlines()]
    assert all(rec["status"] == "ok" for rec in lines)
    assert len(lines) == 10


def test_corpus_parallel_matches_serial():
    corpus = os.path.join(FIXTURES, "table1.corpus")
    code1, text1 = _run(["corpus", corpus, "--json"])
    code2, text2 = _run(["corpus", corpus, "--json", "--jobs", "4"])
    assert code1 == code2 == 0
    assert text1 == text2


def test_corpus_mismatch_exit(tmp_path):
    bad = tmp_path / "bad.corpus"
    bad.write_text("Q ; 1 ; 1 ; 1 ; solvable\nQ ; 1 ; 1 ; -2 ; solvable ; 1 ; 2 ; 1\n")
    code, text = _run(["corpus", str(bad)])
    assert code == 1
    assert "mismatch" in text
    assert "line 2: mismatch (stated solution fails verification)" in text


def test_triple_option_values_may_start_with_minus():
    code, separated = _run(["check", "--eq", "-1;-1;2"])
    assert code == 0
    assert (code, separated) == _run(["check", "--eq=-1;-1;2"])
    code, _ = _run(["verify", "--eq", "-1;-1;2", "--solution", "-1;1;1"])
    assert code == 0


def test_corpus_checks_each_line_once(check_calls):
    corpus = os.path.join(FIXTURES, "table1.corpus")
    code, _ = _run(["corpus", corpus, "--json"])
    assert code == 0
    # One check per line; the field lines over -6, -7 and -1 have a
    # rational norm form with no solution over Q, checked over Q first.
    assert len(check_calls) == 14


def test_corpus_unsolvable_expectation_only_checks(tmp_path, monkeypatch):
    solves = []
    monkeypatch.setattr(
        conic_nf.cli, "solve_conic", lambda *a, **k: solves.append(a)
    )
    bad = tmp_path / "bad.corpus"
    bad.write_text("Q ; 1 ; 1 ; -2 ; unsolvable\n")
    code, text = _run(["corpus", str(bad), "--json"])
    assert code == 1
    rec = json.loads(text)
    assert rec["status"] == "mismatch"
    assert rec["detail"] == "expected unsolvable, got solvable"
    assert solves == []


def test_run_builds_its_parser_once(monkeypatch):
    # run reuses one parser: after the first call no ArgumentParser is built.
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    argv = ["check", "--field", "-7", "--eq", "3;2;13", "--json"]
    assert _run(argv)[0] == 0
    first = built[0]
    for _ in range(3):
        assert _run(argv)[0] == 0
        assert _run(["check", "--field", "-7"])[0] == 2  # --eq missing
    assert built[0] == first


# A rational coefficient c over a quadratic field has norm c^2, so a prime
# p > 10^6 dividing c is left as the cofactor p^2 of trial division.  Brent's
# rho split it only after about sqrt(p) steps (3-25 s, or "could not factor"
# and exit 2); the cofactor is now split as a perfect power.  The second c is
# pi^2 with N(pi) = p split.
PERFECT_POWER_STALLS = [
    pytest.param(command, d, eq, id=f"{command}:{d}:{eq}")
    for d, eq in (
        ("-7", "1;1;-10000000000037"),
        ("-1", "1;1;-3583785455715-9335763589988s"),
        ("-7", "1;1;-1000000000000037"),
    )
    for command in ("check", "solve")
]


@pytest.mark.parametrize("command, d, eq", PERFECT_POWER_STALLS)
def test_perfect_power_cofactor_decides_within_a_second(command, d, eq):
    code, text = within(1.0, _run, [command, "--field", d, "--eq", eq, "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["solvable"] is True
    if command == "solve":
        field = make_field(d)
        sol = SolutionTriple(*(parse_element(field, payload["solution"][k]) for k in "xyz"))
        eq = ConicEquation(*(parse_element(field, t) for t in eq.split(";")))
        assert verify(eq, sol)


def test_factorisation_past_the_rho_effort_is_undecided(tmp_path, monkeypatch):
    # 1000036000099 = 1000003 * 1000033 needs Brent's rho; with no rho effort
    # its factorisation fails, an UndecidedError.
    import conic_nf.ideals

    monkeypatch.setattr(conic_nf.ideals, "_RHO_EFFORT", 0)
    for command in ("check", "solve"):
        code, text = _run([command, "--eq", "1;1;-1000036000099", "--json"])
        assert code == 3
        assert json.loads(text) == {"undecided": "could not factor 1000036000099"}
    corpus = tmp_path / "rho.corpus"
    corpus.write_text(
        "Q ; 1 ; 1 ; -2 ; solvable\n"
        "Q ; 1 ; 1 ; -1000036000099 ; any\n"
        "Q ; 1 ; 1 ; -1000036000099 ; unsolvable\n"
        "Q ; 1 ; 1 ; 3 ; unsolvable\n"
    )
    code, text = _run(["corpus", str(corpus), "--json"])
    assert code == 3
    records = [json.loads(line) for line in text.strip().splitlines()]
    assert [(r["line"], r["status"]) for r in records] == [
        (1, "ok"),
        (2, "undecided"),
        (3, "undecided"),
        (4, "ok"),
    ]


def test_reduce_reports_an_undecided_step_with_exit_3(monkeypatch):
    import conic_nf.holzer
    from conic_nf.errors import UndecidedError

    def undecided(*args):
        raise UndecidedError("lattice step undecided")

    monkeypatch.setattr(conic_nf.holzer, "_lattice_step", undecided)
    argv = ["reduce", "--eq", "1;1;-5", "--solution", "41;38;25", "--json"]
    code, text = _run(argv)
    assert code == 3
    assert json.loads(text) == {"undecided": "lattice step undecided"}


def test_solve_writes_trace_when_undecided(tmp_path, monkeypatch):
    import conic_nf.ideals

    monkeypatch.setattr(conic_nf.ideals, "_RHO_EFFORT", 0)
    trace_file = tmp_path / "trace.json"
    argv = ["solve", "--eq", "1;1;-1000036000099", "--json", "--trace", str(trace_file)]
    code, text = _run(argv)
    assert code == 3
    assert json.loads(text) == {"undecided": "could not factor 1000036000099"}
    # The factorisation fails before the descent's first step.
    assert json.loads(trace_file.read_text()) == []


# x^2 + y^2 = m^2*z^2 with m a product of k primes that split: the square
# part of -m^2 has a root with 2k prime factors and 4^k divisors, which were
# all built and sorted (4-16 s) before the root itself, principal with
# generator m, was tried.
SQUARE_PART_STALLS = [
    pytest.param(d, eq, m, id=f"{d}:{m}")
    for d, eq, m in (
        ("-7", "1;1;-54056711485284080869383058609", "232500992439353"),
        # m = 11*19*29*31*41*59*61*71
        ("5", "1;1;-3874896081100046263264201", "1968475572899"),
        # m = 3*7*23*29*41*43*47*61; Q(sqrt(-5)) has class number 2
        ("-5", "1;1;-5012452473369110868609", "70798675647"),
    )
]


@pytest.mark.parametrize("d, eq, m", SQUARE_PART_STALLS)
def test_square_part_root_is_tried_before_its_divisors(d, eq, m):
    code, text = within(1.0, _run, ["solve", "--field", d, "--eq", eq, "--json"])
    assert code == 0
    assert json.loads(text)["solution"] == {"x": m, "y": "0", "z": "-1"}


# solve factored the product -a*b from scratch, though check only needs a,
# b and c: it is two primes of 64-100 bits, past Brent's rho, so solve exited
# 3 after about 30 s where check decides in well under a second.  The norm
# form now factors each coefficient once and hands its primes down, so the
# products, their square-free parts and their norms are factored by division.
# The last case is two primes of 256 bits: the descent over Q factored a new
# quotient at each step, and one of them had two factors past Brent's rho,
# so solve exited 3 after about 16 s.  Q is now solved by one lattice
# reduction, which factors only the coefficients.
RATIONAL_QUOTIENT_STALL = (
    "71027207408764059516304040602504477684711579264508032612870294185894314628457;"
    "94004798258086377413545391982248556053253552190479720052755624552518443892771;-1"
)
COEFFICIENT_PRODUCT_STALLS = [
    pytest.param(d, eq, id=f"{d}:{eq}")
    for d, eq in (
        ("Q", "947362135750817778025520064077;1122090946327712751251366359727;-1"),
        ("-7", "10877552959775353043;10171803002443630981;-1"),
        ("Q", RATIONAL_QUOTIENT_STALL),
    )
]


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("d, eq", COEFFICIENT_PRODUCT_STALLS)
def test_products_of_coefficient_primes_decide_within_a_second(command, d, eq):
    code, text = within(1.0, _run, [command, "--field", d, "--eq", eq, "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["solvable"] is True
    if command == "solve":
        field = make_field(d)
        sol = SolutionTriple(*(parse_element(field, payload["solution"][k]) for k in "xyz"))
        assert verify(ConicEquation(*(parse_element(field, t) for t in eq.split(";"))), sol)


# solve over fields of large discriminant: the descent ends in its base
# search (descent._norm_search) with norms that grow with the discriminant,
# and the search has to cover a region that grows with them.  Over
# Q(sqrt(-1009)) solve takes about 8.5 s; over Q(sqrt(10007)), where the base
# search gets a 30-digit unit, it runs past 45 s.  check decides each in
# well under a second.
DISCRIMINANT_STALLS = [
    pytest.param(d, eq, id=f"{d}:{eq}")
    for d, eq in (
        ("-1009", "9-8s;7-3s;-443639-444632s"),
        ("10007", "3-3s;-6+6s;7294956-4593336s"),
    )
]


@pytest.mark.parametrize(
    "command",
    ["check", pytest.param("solve", marks=pytest.mark.xfail(strict=True, raises=TimeoutError))],
)
@pytest.mark.parametrize("d, eq", DISCRIMINANT_STALLS)
def test_large_discriminant_conics_decide_within_a_second(command, d, eq):
    code, text = within(1.0, _run, [command, "--field", d, "--eq", eq, "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["solvable"] is True
    if command == "solve":
        field = make_field(d)
        sol = SolutionTriple(*(parse_element(field, payload["solution"][k]) for k in "xyz"))
        assert verify(ConicEquation(*(parse_element(field, t) for t in eq.split(";"))), sol)
