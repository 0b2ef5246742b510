import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropval.cli as cli
from cli_corpus import (
    CANCELLING_CASES,
    CASES,
    GRADE_SUM_CASES,
    PARSE_ERROR_CASES,
    REPEATED_STATEMENT_CASES,
    USAGE_CASES,
    VACUOUS_CASES,
    fixture,
    run_case,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv,expected", CASES, ids=[c[0] for c in CASES])
def test_golden_output_and_exit_code(name, argv, expected):
    code, text = run_case(argv)
    assert code == expected
    assert text == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name,argv,expected", CASES, ids=[c[0] for c in CASES])
def test_runs_are_byte_identical(name, argv, expected):
    first = run_case(argv)
    second = run_case(argv)
    assert first == second


@pytest.mark.parametrize("name,argv,expected", USAGE_CASES,
                         ids=[c[0] for c in USAGE_CASES])
def test_usage_errors(name, argv, expected):
    code, text = run_case(argv)
    assert code == expected
    assert text == ""


@pytest.mark.parametrize("name,argv,expected", PARSE_ERROR_CASES,
                         ids=[c[0] for c in PARSE_ERROR_CASES])
def test_zero_denominators_are_located_parse_errors(name, argv, expected):
    assert run_case(argv) == (2, expected)


@pytest.mark.parametrize("name,argv,expected_code,expected", VACUOUS_CASES,
                         ids=[c[0] for c in VACUOUS_CASES])
def test_checks_over_nothing_are_not_passes(name, argv, expected_code, expected):
    assert run_case(argv) == (expected_code, expected)


@pytest.mark.parametrize("name,argv,expected", REPEATED_STATEMENT_CASES,
                         ids=[c[0] for c in REPEATED_STATEMENT_CASES])
def test_repeated_graded_statements_are_located_parse_errors(name, argv, expected):
    assert run_case(argv) == (2, expected)


@pytest.mark.parametrize("name,argv,expected_code,expected", CANCELLING_CASES,
                         ids=[c[0] for c in CANCELLING_CASES])
def test_cancelling_terms_make_a_zero_product(name, argv, expected_code, expected):
    assert run_case(argv) == (expected_code, expected)


@pytest.mark.parametrize("name,argv,expected_code,expected", GRADE_SUM_CASES,
                         ids=[c[0] for c in GRADE_SUM_CASES])
def test_products_below_the_grade_sum_vanish_in_gr(name, argv, expected_code,
                                                   expected):
    assert run_case(argv) == (expected_code, expected)


def test_unexpected_exception_is_one_line_with_exit_3(monkeypatch):
    """The last-resort path: an internal error is one stdout line, not a traceback."""
    import tropval.valuation

    def fail(*args, **kwargs):
        raise RuntimeError("saturation witness not found\nwithin the power bound")

    monkeypatch.setattr(tropval.valuation, "contains_monomial", fail)
    monkeypatch.chdir(Path(__file__).parent)
    argv = ["trop-check", "--ideal", fixture("line.ideal"), "--weight", "0 0",
            "--mode", "certified"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert (code, out.getvalue(), err.getvalue()) == (
        3, "internal_error: RuntimeError: saturation witness not found "
           "within the power bound\n", "")


def _run_entry_point(argv) -> subprocess.CompletedProcess:
    """``python -m tropval`` on this checkout's source, from the tests directory."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "tropval", *argv], cwd=Path(__file__).parent,
                          capture_output=True, text=True, env=env, timeout=60)


def test_zero_denominator_prints_no_traceback():
    """Through the installed entry point: one stdout line, empty stderr."""
    _, argv, expected = PARSE_ERROR_CASES[0]
    proc = _run_entry_point(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, expected, "")


def test_negative_degree_bound_is_a_usage_error_in_a_fresh_process():
    """Through the entry point with a timeout: a sampler that loops fails here."""
    _, argv, expected = next(c for c in USAGE_CASES if c[0] == "degree_bound_negative")
    proc = _run_entry_point(argv)
    assert (proc.returncode, proc.stdout) == (expected, "")
    assert "--degree-bound: must be a non-negative integer, got '-1'" in proc.stderr


def test_refutation_witness_is_printed():
    _, text = run_case(["val-check", "--ideal", "fixtures/hyperbola.ideal",
                        "--weight", "1 0", "--seed", "7", "--samples", "200"])
    assert "witness_a:" in text and "witness_b:" in text
    assert "verdict: quasi_valuation_only" in text


def test_gr_emits_readable_algebra_file():
    import tropval.textio as textio

    _, text = run_case(["gr", "--algebra", "sl2-branching:3",
                        "--functional",
                        "0,0,0,1,0;1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,0,1"])
    body = text.split("END-RESULT\n", 1)[1]
    algebra = textio.parse_graded_algebra(body)
    assert all(len(exp) == 1 for exp in algebra.structure.values())


@pytest.mark.parametrize("body,message", [
    ("monoid dim x;", "line 1, col 12: monoid dim must be an integer"),
    ("monoid dim 1;\ntruncation x;", "line 2, col 12: truncation must be an integer"),
    ("monoid dim 1;\ntruncation 3/2;", "line 2, col 12: truncation must be an integer"),
    ("monoid dim 1;\ntruncation ;", "line 2, col 12: truncation must be an integer"),
    ("monoid dim 1;\ncomponent 0 size x;",
     "line 2, col 18: component size must be an integer"),
])
def test_graded_file_integer_fields_fail_with_position(tmp_path, body, message):
    path = tmp_path / "bad.gr"
    path.write_text(body + "\n")
    code, text = run_case(["monoid-check", "--algebra", str(path), "--functional", "1"])
    assert (code, text) == (2, f"parse_error: {message}\n")


def test_deeply_nested_ideal_is_a_located_parse_error(tmp_path):
    path = tmp_path / "deep.ideal"
    path.write_text("ring x y;\nideal " + "(" * 3000 + "x" + ")" * 3000 + ";\n")
    proc = _run_entry_point(["parse", "--input", str(path)])
    # The 201st "(" opens at col 6 + 201 of line 2.
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "parse_error: line 2, col 207: parentheses nested deeper than 200 levels\n", "")


ARGV = {name: argv for name, argv, _ in CASES + USAGE_CASES}
VAL_DEFAULT_SAMPLES = ["val-check", "--ideal", fixture("hyperbola.ideal"),
                       "--weight", "1 0"]


@pytest.mark.parametrize("first,second,codes,marker", [
    (ARGV["graded_full_counterexample"], ARGV["graded_full_counterexample"], (1, 1),
     "witness_value: 1\n"),
    (ARGV["unknown_verb"], ARGV["fan_line"], (2, 0), "class_count: 7"),
    (ARGV["samples_zero"], VAL_DEFAULT_SAMPLES, (2, 1), "pairs_checked: 200"),
], ids=["append_action_twice", "usage_error_then_valid", "samples_zero_then_default"])
def test_reused_parser_matches_a_fresh_one(monkeypatch, first, second, codes, marker):
    """One parser serves every call in a process; no call leaks into the next."""
    fresh = []
    for argv in (first, second):
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run_case(argv))
    assert tuple(code for code, _ in fresh) == codes
    assert marker in fresh[1][1]
    for _ in range(2):
        assert [run_case(first), run_case(second)] == fresh
