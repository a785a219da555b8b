import io
import json

import conic_nf.cli
from conic_nf.cli import run
from conic_nf.descent import SolutionTriple, verify
from conic_nf.fields import make_field, parse_element
from conic_nf.solvability import ConicEquation

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


def test_parse_error_exit_code():
    code, _ = _run(["check", "--field", "Q", "--eq", "1;1"])
    assert code == 2
    code, _ = _run(["check", "--field", "4", "--eq", "1;1;1"])
    assert code == 2


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
    bad.write_text("Q ; 1 ; 1 ; 1 ; solvable\n")
    code, text = _run(["corpus", str(bad)])
    assert code == 1
    assert "mismatch" in text


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
