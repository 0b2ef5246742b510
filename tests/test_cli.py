import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropval.cli as cli
from cli_corpus import (
    CANCELLING_CASES,
    CASES,
    GRADE_SUM_CASES,
    INPUT_ERROR_CASES,
    PARSE_ERROR_CASES,
    REPEATED_STATEMENT_CASES,
    STRICT_FUNCTIONAL,
    USAGE_CASES,
    VACUOUS_CASES,
    fixture,
    run_case,
    run_case_streams,
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


@pytest.mark.parametrize("name,argv,expected_code,expected", INPUT_ERROR_CASES,
                         ids=[c[0] for c in INPUT_ERROR_CASES])
def test_unusable_inputs_are_one_input_error_line(name, argv, expected_code, expected):
    assert run_case(argv) == (expected_code, expected)


def test_non_utf8_file_is_one_input_error_line(tmp_path):
    path = tmp_path / "latin1.ideal"
    path.write_bytes(b"ring x\xff;\n")
    assert run_case(["parse", "--input", str(path)]) == (
        2, "input_error: 'utf-8' codec can't decode byte 0xff in position 6: "
           "invalid start byte\n")


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


def _entry_point(argv) -> dict:
    """Arguments for running ``python -m tropval`` on this checkout's source,
    from the tests directory."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return {"args": [sys.executable, "-m", "tropval", *argv],
            "cwd": Path(__file__).parent, "env": env}


def _run_entry_point(argv) -> subprocess.CompletedProcess:
    return subprocess.run(**_entry_point(argv), capture_output=True, text=True, timeout=60)


def test_zero_denominator_prints_no_traceback():
    """Through the installed entry point: one stdout line, empty stderr."""
    _, argv, expected = PARSE_ERROR_CASES[0]
    proc = _run_entry_point(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, expected, "")


def test_reader_that_closes_stdout_early_gets_exit_3_and_no_traceback():
    """As ``tropval sl2lab branching 5 | head -n 1``: the 154 kB file is more
    than a pipe holds, so a write fails once the reader has closed its end."""
    proc = subprocess.Popen(**_entry_point(["sl2lab", "branching", "5"]),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=60)
    with proc.stderr:
        err = proc.stderr.read()
    assert (first, code, err) == (b"check: sl2lab-builder\n", 3, b"")


def test_negative_degree_bound_is_a_usage_error_in_a_fresh_process():
    """Through the entry point with a timeout: a sampler that loops fails here."""
    _, argv, expected = next(c for c in USAGE_CASES if c[0] == "degree_bound_negative")
    proc = _run_entry_point(argv)
    assert (proc.returncode, proc.stdout) == (expected, "")
    assert "--degree-bound: must be a positive integer, got '-1'" in proc.stderr


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


# -- argv fuzz -------------------------------------------------------------------
#
# Every verb over fixture paths (valid, unparsable, missing, a directory, the
# wrong kind of file), built-in algebra specs (valid and malformed, sizes at
# most 3) and short strings over a token alphabet.  A required flag is left
# out now and then, which is a usage error; `--samples` is always given, so
# no case falls back to the default 200 samples.

TOKENS = ("1", "-1", "0", "2", "1/2", "1/0", "x", " ", ";", ",", "(", ")", ":",
          "=", "+", "-inf", "1*(1:0)", "1*(1,0:0)", "(0,1:0)")
GARBAGE = st.lists(st.sampled_from(TOKENS), max_size=6).map("".join)


def _mostly(valid: tuple[str, ...], other):
    """One of ``valid`` about five times in six, else a draw from ``other``."""
    return st.integers(0, 5).flatmap(
        lambda k: other if k == 5 else st.sampled_from(valid))


def _words(valid: str, invalid: str = "-1 x"):
    """`_mostly` over space-separated words."""
    return _mostly(tuple(valid.split()), st.sampled_from(invalid.split()))


IDEALS = _mostly(tuple(fixture(name) for name in (
    "line.ideal", "tadic.ideal", "hyperbola.ideal", "free_t.ideal", "cone.ideal")),
    st.sampled_from([fixture(name) for name in (
        "bad.ideal", "zero_denominator/coefficient.ideal", "missing.ideal",
        "idempotent.alg")] + ["fixtures"]))
ALGEBRAS = _mostly(
    (fixture("idempotent.alg"), fixture("cancelling_terms.alg"), "polyring:1:3",
     "polyring:2:2", "polyring:3:1", "sl2-rep-ring:1", "sl2-rep-ring:3",
     "sl2-branching:2", "sl2-branching:3"),
    st.sampled_from([fixture(name) for name in (
        "no_products.alg", "repeated/mult.alg", "zero_denominator/mult.alg",
        "line.ideal", "missing.alg")] + [
        "fixtures", "polyring:2:-1", "polyring:0:3", "polyring:2", "polyring:2:3:4",
        "polyring:x:1", "polyring:", "sl2-rep-ring:0", "sl2-rep-ring:",
        "sl2-branching:1", "sl2-branching:x", "sl2-branching:"]))
WEIGHTS = _mostly(("1 1", "0 0", "1 0", "0 -1", "2", "1 1 1", "1/2 -1"), GARBAGE)
# most built-in and fixture algebras have a one-entry monoid
FUNCTIONALS = _mostly(("1", "1", "2", "1,1", "1,1,1", "0,1;1,0", STRICT_FUNCTIONAL),
                      GARBAGE)
OVERRIDES = _mostly(("1*(1,1,0:0) + 1*(1,0,1:0) = 1", "1*(1:0) + 1*(2:0) = 0",
                     "(1:0) - (2:0) = -inf"), GARBAGE)
SAMPLING = [("--seed", _words("0 1 2 -1", "x")), ("--samples", _words("1 2 3", "0 -1 x"))]
FLAG = st.none()  # a flag that takes no value
# verb -> (flag, values) in argv order; flag None is a positional argument
VERBS = {
    "parse": [("--input", IDEALS)],
    "initial": [("--ideal", IDEALS), ("--weight", WEIGHTS)],
    "trop-check": [("--ideal", IDEALS), ("--weight", WEIGHTS),
                   ("--mode", _words("prevariety certified", "x"))],
    "val-check": [("--ideal", IDEALS), ("--weight", WEIGHTS), *SAMPLING,
                  ("--degree-bound", _words("0 1 2 3"))],
    "cone": [("--ideal", IDEALS), ("--v", WEIGHTS), ("--w1", WEIGHTS),
             ("--w2", WEIGHTS), ("--exact", FLAG), *SAMPLING],
    "arrow": [("--ideal", IDEALS), ("--v", WEIGHTS), ("--w", WEIGHTS)],
    "facets": [("--ideal", IDEALS),
               ("--weights", _mostly(("1 1; 2 2; 0 0; 1 0", "1 0;0 1"), GARBAGE))],
    "fan": [("--ideal", IDEALS), ("--box", _words("0 1")),
            ("--denominator", _words("1 2", "0 -1 x"))],
    "graded-check": [("--algebra", ALGEBRAS), ("--functional", FUNCTIONALS),
                     ("--override", OVERRIDES), ("--mode", _words("graded full", "x")),
                     *SAMPLING],
    "monoid-check": [("--algebra", ALGEBRAS), ("--functional", FUNCTIONALS),
                     *SAMPLING],
    "gr": [("--algebra", ALGEBRAS), ("--functional", FUNCTIONALS)],
    "sl2lab": [(None, _words("rep-ring branching", "x")), (None, _words("1 2 3", "0 -1 x"))],
}


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(sorted(VERBS)))
    argv = [verb]
    for flag, values in VERBS[verb]:
        if flag != "--samples" and draw(st.integers(0, 19)) == 0:
            continue
        value = draw(values)
        argv.extend(arg for arg in (flag, value) if arg is not None)
    return argv


ERROR_EXIT = {"parse_error": 2, "input_error": 2, "precondition_violation": 3}


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(argvs())
def test_every_argv_ends_in_a_report_or_one_error_line(argv):
    code, out, err = run_case_streams(argv)
    assert "internal_error" not in out
    if err:  # an argparse usage error
        assert (code, out) == (2, "")
    elif out.startswith("check:"):
        assert code in (0, 1)
    else:
        label, _, message = out.partition(": ")
        assert out.count("\n") == 1 and out.endswith("\n") and message.strip()
        assert code == ERROR_EXIT[label]
