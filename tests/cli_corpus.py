"""Golden CLI invocations shared by the CLI tests and the acceptance suite.

Each entry is (name, argv, expected_exit).  Paths are relative to the tests
directory, so runners chdir here (see run_case); golden stdout lives in
golden/<name>.txt.
"""

import contextlib
import io
import os
from pathlib import Path

HERE = Path(__file__).parent


def fixture(name: str) -> str:
    return f"fixtures/{name}"


def run_case(argv) -> tuple[int, str]:
    """Run one CLI invocation in-process from the tests directory."""
    from tropval.cli import run

    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(HERE)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


STRICT_FUNCTIONAL = "0,0,0,1,0;1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,0,1"

CASES = [
    ("parse_line", ["parse", "--input", fixture("line.ideal")], 0),
    ("initial_line_11",
     ["initial", "--ideal", fixture("line.ideal"), "--weight", "1 1"], 0),
    ("initial_tadic",
     ["initial", "--ideal", fixture("tadic.ideal"), "--weight", "0 1"], 0),
    ("trop_certified_pass",
     ["trop-check", "--ideal", fixture("line.ideal"), "--weight", "0 0",
      "--mode", "certified"], 0),
    ("trop_prevariety_fail",
     ["trop-check", "--ideal", fixture("line.ideal"), "--weight", "1 0",
      "--mode", "prevariety"], 1),
    ("trop_certified_fail",
     ["trop-check", "--ideal", fixture("line.ideal"), "--weight", "1 0",
      "--mode", "certified"], 1),
    ("val_pass_univariate",
     ["val-check", "--ideal", fixture("free_t.ideal"), "--weight", "2",
      "--seed", "3", "--samples", "60", "--degree-bound", "5"], 0),
    ("val_fail_hyperbola",
     ["val-check", "--ideal", fixture("hyperbola.ideal"), "--weight", "1 0",
      "--seed", "7", "--samples", "200"], 1),
    ("cone_quotient",
     ["cone", "--ideal", fixture("line.ideal"), "--v", "1 1", "--w1", "1 1",
      "--w2", "2 2", "--seed", "0", "--samples", "100"], 0),
    ("cone_hypothesis_fails",
     ["cone", "--ideal", fixture("free_xy.ideal"), "--v", "2 1",
      "--w1", "1 0", "--w2", "2 1", "--exact"], 3),
    ("arrow_holds",
     ["arrow", "--ideal", fixture("line.ideal"), "--v", "2 2", "--w", "1 1"], 0),
    ("arrow_refuted",
     ["arrow", "--ideal", fixture("line.ideal"), "--v", "0 -1", "--w", "1 0"], 1),
    ("facets_line",
     ["facets", "--ideal", fixture("line.ideal"),
      "--weights", "1 1; 2 2; 0 0; 1 0"], 0),
    ("fan_line", ["fan", "--ideal", fixture("line.ideal"), "--box", "1"], 0),
    ("graded_full_counterexample",
     ["graded-check", "--algebra", "polyring:3:4", "--functional", "1,1,1",
      "--override", "1*(1,1,0:0) + 1*(1,0,1:0) = 1", "--mode", "full",
      "--seed", "0", "--samples", "60"], 1),
    ("graded_graded_counterexample",
     ["graded-check", "--algebra", "polyring:3:4", "--functional", "1,1,1",
      "--override", "1*(1,1,0:0) + 1*(1,0,1:0) = 1", "--mode", "graded",
      "--seed", "0", "--samples", "60"], 0),
    ("monoid_check_rep_ring",
     ["monoid-check", "--algebra", "sl2-rep-ring:4", "--functional", "1",
      "--seed", "0", "--samples", "100"], 0),
    ("gr_branching3",
     ["gr", "--algebra", "sl2-branching:3", "--functional", STRICT_FUNCTIONAL], 0),
    ("sl2lab_rep_ring2", ["sl2lab", "rep-ring", "2"], 0),
    ("sl2lab_branching2", ["sl2lab", "branching", "2"], 0),
    ("parse_error", ["parse", "--input", fixture("bad.ideal")], 2),
]

# usage errors print to stderr only; stdout must stay empty
USAGE_CASES = [
    ("unknown_verb", ["definitely-not-a-verb"], 2),
    ("missing_flag", ["initial", "--ideal", fixture("line.ideal")], 2),
    # a zero-sample run used to report "verdict: valuation" with exit 0
    ("samples_zero",
     ["val-check", "--ideal", fixture("hyperbola.ideal"), "--weight", "1 0",
      "--samples", "0"], 2),
    ("samples_negative",
     ["val-check", "--ideal", fixture("hyperbola.ideal"), "--weight", "1 0",
      "--samples", "-5"], 2),
]
