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


def run_case_streams(argv, directory: Path = HERE) -> tuple[int, str, str]:
    """Run one CLI invocation in-process from ``directory``, by default the
    tests directory.

    Returns the exit code, stdout and stderr.
    """
    from tropval.cli import run

    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(directory)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_case(argv, directory: Path = HERE) -> tuple[int, str]:
    """The exit code and stdout of `run_case_streams`."""
    return run_case_streams(argv, directory)[:2]


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
    # a weight with denominators: values are keys over the scale 3
    ("val_fail_fractional_weight",
     ["val-check", "--ideal", fixture("hyperbola.ideal"), "--weight", "2/3 1/3",
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
    # in_w(I) has three non-monomial generators, so the certified check
    # runs the saturation
    ("trop_certified_cubic",
     ["trop-check", "--ideal", fixture("cubic.ideal"), "--weight", "1 2 3",
      "--mode", "certified"], 0),
    # the emitted polyring:1:3 with (0:0)*(3:0) = 2*(3:0): the error names
    # the least failing triple, which is not the first one scanned
    ("gr_nonassociative",
     ["gr", "--algebra", fixture("nonassociative.alg"), "--functional", "1"], 3),
    # the file passes its own check, because every triple that needs the
    # undefined x*e is skipped; gr drops x from e*y and defines one of them
    ("gr_partial_table_gap",
     ["gr", "--algebra", fixture("partial_table_gap.alg"), "--functional", "1"], 3),
    # an ideal with no generators: every weight is in the tropical variety,
    # and a member has no witness line
    ("trop_certified_free_xy",
     ["trop-check", "--ideal", fixture("free_xy.ideal"), "--weight", "1 2",
      "--mode", "certified"], 0),
    # an override element with a leading minus (given with `=`, so that
    # argparse does not read it as a flag); the probe factors it as x*(z - y)
    ("graded_full_leading_minus",
     ["graded-check", "--algebra", "polyring:3:4", "--functional", "1,1,1",
      "--override=-1*(1,1,0:0) + 1*(1,0,1:0) = 1", "--mode", "full",
      "--seed", "0", "--samples", "60"], 1),
    # eta reversed in the first row: many pairs share a failing expansion,
    # and both counts are per pair, not per distinct product
    ("monoid_check_eta_reversed",
     ["monoid-check", "--algebra", "sl2-branching:3", "--functional",
      "0,0,0,-1,0;1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,0,1", "--seed", "1"], 1),
    # the first emitted branching table with non-standard products: 7
    # product monomials rewrite through the straightening relation
    ("sl2lab_branching3", ["sl2lab", "branching", "3"], 0),
    # Gr(2,6) at the negated caterpillar metric (leaves 1, 2 | 3 | 4 | 5, 6):
    # taken smallest lcm first in the refined order, the S-pairs climbed
    # through ever higher degrees and the run never ended
    ("trop_certified_gr26_negated",
     ["trop-check", "--ideal", fixture("gr26.ideal"), "--weight",
      "-2 -3 -4 -5 -5 -3 -4 -5 -5 -3 -4 -4 -3 -3 -2"], 1),
    # Gr(2,6) at the caterpillar metric itself: every generator of the
    # initial ideal is a binomial, and their relation lattice decides that
    # it holds no monomial
    ("trop_certified_gr26_caterpillar",
     ["trop-check", "--ideal", fixture("gr26.ideal"), "--weight",
      "2 3 4 5 5 3 4 5 5 3 4 4 3 3 2", "--mode", "certified"], 0),
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
    # a negative degree bound used to end as an unexplained `input_error`
    ("degree_bound_negative",
     ["val-check", "--ideal", fixture("line.ideal"), "--weight", "1 1",
      "--degree-bound", "-1"], 2),
    # at degree bound 0 every sample is a constant, and an off-variety
    # weight used to report "verdict: valuation" with exit 0
    ("degree_bound_zero",
     ["val-check", "--ideal", fixture("hyperbola.ideal"), "--weight", "1 0",
      "--degree-bound", "0"], 2),
]

# A zero denominator in any literal is a located parse error (exit 2); it
# used to escape as a ZeroDivisionError traceback with exit 1.  So is an
# invalid rational in a functional entry or an override value.  Each entry
# is (name, argv, expected stdout).
PARSE_ERROR_CASES = [
    ("zero_den_weight_statement",
     ["parse", "--input", fixture("zero_denominator/weight.ideal")],
     "parse_error: line 3, col 8: zero denominator in '7/0'\n"),
    ("zero_den_ideal_coefficient",
     ["trop-check", "--ideal", fixture("zero_denominator/coefficient.ideal"),
      "--weight", "0 0"],
     "parse_error: line 2, col 11: zero denominator in '1/0'\n"),
    ("zero_den_weight_flag",
     ["val-check", "--ideal", fixture("line.ideal"), "--weight", "1/0 1"],
     "parse_error: line 1, col 1: zero denominator in '1/0'\n"),
    ("zero_den_signed_weight_flag",
     ["initial", "--ideal", fixture("line.ideal"), "--weight", "1 -2/00"],
     "parse_error: line 1, col 4: zero denominator in '2/00'\n"),
    ("zero_den_tadic_weight",
     ["initial", "--ideal", fixture("tadic.ideal"), "--weight", "0 0/0"],
     "parse_error: line 1, col 3: zero denominator in '0/0'\n"),
    ("zero_den_mult_coefficient",
     ["monoid-check", "--algebra", fixture("zero_denominator/mult.alg"),
      "--functional", "1"],
     "parse_error: line 6, col 20: zero denominator in '3/0'\n"),
    ("zero_den_functional",
     ["monoid-check", "--algebra", "sl2-branching:3", "--functional", "1/0,1,1"],
     "parse_error: line 1, col 1: zero denominator in '1/0'\n"),
    ("zero_den_functional_second_row",
     ["gr", "--algebra", "polyring:2:3", "--functional", "1,1; 0, 1/0"],
     "parse_error: line 1, col 9: zero denominator in '1/0'\n"),
    ("zero_den_element_coefficient",
     ["graded-check", "--algebra", "polyring:3:4", "--functional", "1,1,1",
      "--override", "1*(1,1,0:0) + 1/0*(1,0,1:0) = 1"],
     "parse_error: line 1, col 15: zero denominator in '1/0'\n"),
    ("zero_den_override_value",
     ["graded-check", "--algebra", "polyring:3:4", "--functional", "1,1,1",
      "--override", "1*(1,1,0:0) + 1*(1,0,1:0) = 5/0"],
     "parse_error: line 1, col 1: zero denominator in '5/0'\n"),
    # any other malformed rational in these fields used to be an unlocated
    # `input_error: Invalid literal for Fraction: ...`
    ("invalid_rational_functional",
     ["gr", "--algebra", "polyring:2:2", "--functional", "1*(1,0:0)=-inf"],
     "parse_error: line 1, col 1: invalid rational '1*(1'\n"),
    ("invalid_rational_functional_second_entry",
     ["gr", "--algebra", "polyring:2:2", "--functional", "1,x"],
     "parse_error: line 1, col 3: invalid rational 'x'\n"),
    ("invalid_rational_override_value",
     ["graded-check", "--algebra", "polyring:3:4", "--functional", "1,1,1",
      "--override", "1*(1,1,0:0) + 1*(1,0,1:0) = abc"],
     "parse_error: line 1, col 1: invalid rational 'abc'\n"),
]

# A check over nothing is not a pass.  An algebra with no defined products
# (a built-in truncated below degree 0, or a parsed file without `mult`
# lines) used to print `verdict: passes` or `samples: 0 ... conclusion:
# holds` with exit 0.  Each entry is (name, argv, expected exit, expected
# stdout).
NO_PRODUCT_TABLE = ("precondition_violation: the structure table defines no "
                    "products; there is nothing to check\n")
VACUOUS_CASES = [
    ("polyring_negative_truncation_full",
     ["graded-check", "--algebra", "polyring:2:-1", "--functional", "1,2",
      "--mode", "full"], 2,
     "input_error: a polynomial ring needs at least one variable and a truncation "
     "of at least 0, got 2 variables and truncation -1\n"),
    ("polyring_negative_truncation_monoid",
     ["monoid-check", "--algebra", "polyring:2:-1", "--functional", "1,2"], 2,
     "input_error: a polynomial ring needs at least one variable and a truncation "
     "of at least 0, got 2 variables and truncation -1\n"),
    ("polyring_no_variables",
     ["graded-check", "--algebra", "polyring:0:3", "--functional", ""], 2,
     "input_error: a polynomial ring needs at least one variable and a truncation "
     "of at least 0, got 0 variables and truncation 3\n"),
    ("no_products_graded",
     ["graded-check", "--algebra", fixture("no_products.alg"), "--functional", "1"],
     3, NO_PRODUCT_TABLE),
    ("no_products_full",
     ["graded-check", "--algebra", fixture("no_products.alg"), "--functional", "1",
      "--mode", "full"], 3, NO_PRODUCT_TABLE),
    ("no_products_monoid",
     ["monoid-check", "--algebra", fixture("no_products.alg"), "--functional", "1"],
     3, NO_PRODUCT_TABLE),
    ("no_products_gr",
     ["gr", "--algebra", fixture("no_products.alg"), "--functional", "1"],
     3, NO_PRODUCT_TABLE),
    # a weight list of empty entries used to print `class_count: 0` with exit 0
    ("facets_no_weights",
     ["facets", "--ideal", fixture("line.ideal"), "--weights", " ; "], 2,
     "input_error: --weights lists no weight vector; there is nothing to classify\n"),
]

# Each statement of a graded file appears once.  A second `mult` for the
# same pair (in either order) or a second `truncation` used to replace the
# first silently, and a second `monoid dim` ended as an unlocated
# `input_error`.  Each entry is (name, argv, expected stdout); exit code 2.
REPEATED_STATEMENT_CASES = [
    (name, ["monoid-check", "--algebra", fixture(f"repeated/{name}.alg"),
            "--functional", "1"], f"parse_error: {message}\n")
    for name, message in (
        ("mult", "line 10, col 1: mult (1:0)*(1:0) listed twice"),
        ("mult_swapped", "line 10, col 1: mult (1:0)*(0:0) listed twice"),
        ("truncation", "line 5, col 1: truncation listed twice"),
        ("monoid_dim", "line 4, col 1: monoid dim listed twice"),
        ("component", "line 5, col 1: component 0 listed twice"),
    )
]

# Like terms of a `mult` expansion are summed: in cancelling_terms.alg the
# product (1:0)*(1:0) = 1*(2:0) - 1*(2:0) is zero.  With both terms kept,
# monoid-check read the top component as present, reported `hypotheses:
# hold` and then a contradiction of the theorem, and gr found no zero
# divisor.  A conclusion failure under failed hypotheses is no counterexample
# to the theorem; monoid-check used to call it a contradiction.  Each entry
# is (name, argv, expected exit, expected stdout).
CANCELLING_CASES = [
    ("cancelling_terms_monoid",
     ["monoid-check", "--algebra", fixture("cancelling_terms.alg"),
      "--functional", "1", "--seed", "0", "--samples", "20"], 1,
     "check: monoid-total-order-theorem\n"
     "algebra: fixtures/cancelling_terms.alg\n"
     "functional: 1\n"
     "seed: 0\n"
     "BEGIN-RESULT\n"
     "cartan_missing: 1\n"
     "order_violations: 0\n"
     "grade_collisions: 0\n"
     "hypotheses: fail\n"
     "samples: 20\n"
     "conclusion_failures: 7\n"
     "conclusion: fails (hypotheses fail; not a counterexample to the theorem)\n"
     "END-RESULT\n"),
    ("cancelling_terms_gr",
     ["gr", "--algebra", fixture("cancelling_terms.alg"), "--functional", "1"], 0,
     "check: associated-graded\n"
     "algebra: fixtures/cancelling_terms.alg\n"
     "functional: 1\n"
     "BEGIN-RESULT\n"
     "lower_triangular: yes\n"
     "zero_divisors_to_bound: (((1,), 0), ((1,), 0))\n"
     "END-RESULT\n"
     "monoid dim 1;\n"
     "truncation 2;\n"
     "component 0 size 1;\n"
     "component 1 size 1;\n"
     "component 2 size 1;\n"
     "mult (0:0)*(0:0) = 1*(0:0);\n"
     "mult (0:0)*(1:0) = 1*(1:0);\n"
     "mult (0:0)*(2:0) = 1*(2:0);\n"
     "mult (1:0)*(1:0) = 0;\n"),
]

# gr keeps the terms of b1*b2 whose key is key(b1) + key(b2).  In
# idempotent.alg the product (1:0)*(1:0) = 1*(1:0) lies below that key, so it
# is zero in gr.  gr used to keep each product's own top terms, printed the
# product unchanged and found no zero divisor.  Each entry is (name, argv,
# expected exit, expected stdout).
GRADE_SUM_CASES = [
    ("idempotent_gr",
     ["gr", "--algebra", fixture("idempotent.alg"), "--functional", "1"], 0,
     "check: associated-graded\n"
     "algebra: fixtures/idempotent.alg\n"
     "functional: 1\n"
     "BEGIN-RESULT\n"
     "lower_triangular: yes\n"
     "zero_divisors_to_bound: (((1,), 0), ((1,), 0))\n"
     "END-RESULT\n"
     "monoid dim 1;\n"
     "truncation 2;\n"
     "component 0 size 1;\n"
     "component 1 size 1;\n"
     "component 2 size 1;\n"
     "mult (0:0)*(0:0) = 1*(0:0);\n"
     "mult (0:0)*(1:0) = 1*(1:0);\n"
     "mult (0:0)*(2:0) = 1*(2:0);\n"
     "mult (1:0)*(1:0) = 0;\n"),
]

# gr searches the whole table it prints for a zero product.  In
# zero_product_above_truncation.alg the grades have two entries, and the
# grade sum of (1,1:0)*(1,1:0) passes the truncation although the pair is in
# the table; gr used to compare each grade's entry sum with the truncation,
# skipped the pair and printed `none` next to `= 0;`.  Each entry is (name,
# argv, expected exit, expected stdout).
ZERO_PRODUCT_CASES = [
    ("zero_product_above_truncation_gr",
     ["gr", "--algebra", fixture("zero_product_above_truncation.alg"),
      "--functional", "1,0"], 0,
     "check: associated-graded\n"
     "algebra: fixtures/zero_product_above_truncation.alg\n"
     "functional: 1,0\n"
     "BEGIN-RESULT\n"
     "lower_triangular: yes\n"
     "zero_divisors_to_bound: (((1, 1), 0), ((1, 1), 0))\n"
     "END-RESULT\n"
     "monoid dim 2;\n"
     "truncation 1;\n"
     "component 0,0 size 1;\n"
     "component 1,1 size 1;\n"
     "component 2,2 size 1;\n"
     "mult (0,0:0)*(0,0:0) = 1*(0,0:0);\n"
     "mult (0,0:0)*(1,1:0) = 1*(1,1:0);\n"
     "mult (0,0:0)*(2,2:0) = 1*(2,2:0);\n"
     "mult (1,1:0)*(1,1:0) = 0;\n"),
]

# An input the tool cannot read is one `input_error` line with exit 2.  A
# directory given as a file used to end as an `internal_error` with exit 3,
# and a malformed built-in algebra spec printed Python's own message, such
# as "not enough values to unpack".  Each entry is (name, argv, expected
# exit, expected stdout).
BUILTIN_FORMS = "the forms are polyring:N:T, sl2-rep-ring:N, sl2-branching:N"
INPUT_ERROR_CASES = [
    ("input_is_a_directory", ["parse", "--input", "fixtures"], 2,
     "input_error: [Errno 21] Is a directory: 'fixtures'\n"),
    ("algebra_is_a_directory",
     ["monoid-check", "--algebra", "fixtures", "--functional", "1"], 2,
     "input_error: [Errno 21] Is a directory: 'fixtures'\n"),
    ("input_missing", ["parse", "--input", fixture("missing.ideal")], 2,
     "input_error: [Errno 2] No such file or directory: 'fixtures/missing.ideal'\n"),
    # an override without `=` used to read as the value '' and end as
    # `parse_error: line 1, col 1: invalid rational ''`
    ("override_without_value",
     ["graded-check", "--algebra", "polyring:3:4", "--functional", "1,1,1",
      "--override", "1*(1,1,0:0) + 1*(1,0,1:0)"], 2,
     "input_error: an override has the form element=value, "
     "got '1*(1,1,0:0) + 1*(1,0,1:0)'\n"),
    # a second override of the same element (terms in any order) used to
    # replace the first silently
    ("override_listed_twice",
     ["graded-check", "--algebra", "polyring:2:3", "--functional", "1,1",
      "--override", "1*(1,0:0)+1*(0,1:0)=0", "--override", "1*(0,1:0)+1*(1,0:0)=1"], 2,
     "input_error: override of 1*(0,1:0) + 1*(1,0:0) listed twice\n"),
    # a ref that is no basis element, as a target (the least of two is
    # named) and in a pair; the files sit in a subdirectory because
    # `_sampled_tables` parses every top-level fixtures/*.alg
    ("unknown_target_ref",
     ["monoid-check", "--algebra", fixture("unknown_ref/target.alg"), "--functional", "1"], 2,
     "input_error: unknown basis element ((5,), 0)\n"),
    ("unknown_pair_ref",
     ["monoid-check", "--algebra", fixture("unknown_ref/pair.alg"), "--functional", "1"], 2,
     "input_error: unknown basis element ((3,), 0)\n"),
] + [
    (name, ["monoid-check", "--algebra", spec, "--functional", "1"], 2,
     f"input_error: malformed built-in algebra {spec!r}; {BUILTIN_FORMS}\n")
    for name, spec in (
        ("polyring_one_size", "polyring:2"),
        ("polyring_three_sizes", "polyring:2:3:4"),
        ("sl2_branching_not_a_number", "sl2-branching:x"),
        ("sl2_branching_no_size", "sl2-branching:"),
    )
]

# Inputs that no other case makes a parser read: a `coeffval trivial`
# statement, and a `mult` ref whose grade is longer than the monoid dim,
# which the graded-file scanner hands to the cursor loop to locate.  Then
# signed `c*(grade:index)` terms, which a mult body and an --override
# element read with one reader: a mult body needs every coefficient, an
# element's coefficient may be left out and is then the term's sign, an
# unknown basis element is reported before the text after it is read, and
# no term starts with '+'.  The files sit in subdirectories because
# `_sampled_tables` parses every top-level fixtures/*.alg.  Last, a bad
# entry after the first ';' of --weights, reported at its column in the
# whole flag.  Each entry is (name, argv, expected exit, expected stdout).
STATEMENT_CASES = [
    ("parse_coeffval_trivial",
     ["parse", "--input", fixture("coeffval_trivial.ideal")], 0,
     "check: parse\n"
     "input: fixtures/coeffval_trivial.ideal\n"
     "BEGIN-RESULT\n"
     "normalized: \n"
     "END-RESULT\n"
     "ring x y;\n"
     "ideal x*y - 1;\n"
     "coeffval trivial;\n"),
    ("mult_ref_grade_too_long",
     ["monoid-check", "--algebra", fixture("grade_length/mult_ref.alg"),
      "--functional", "1"], 2,
     "parse_error: line 5, col 16: grade has 2 entries, monoid dim is 1\n"),
    ("mult_body_bare_ref",
     ["monoid-check", "--algebra", fixture("term_reader/bare_ref.alg"),
      "--functional", "1"], 2,
     "parse_error: line 4, col 20: expected a coefficient\n"),
    ("override_unknown_ref_before_syntax_error",
     ["graded-check", "--algebra", "polyring:2:3", "--functional", "1,1",
      "--override", "1*(9,9:0) + junk = 1"], 2,
     "parse_error: line 1, col 1: unknown basis element (9,9:0)\n"),
    ("override_leading_plus",
     ["graded-check", "--algebra", "polyring:2:3", "--functional", "1,1",
      "--override", "+1*(1,0:0) + 1*(0,1:0) = 1"], 2,
     "parse_error: line 1, col 1: expected '(', found '+'\n"),
    ("override_bare_refs",
     ["graded-check", "--algebra", "polyring:2:3", "--functional", "1,1",
      "--override", "(1,0:0) - (0,1:0) = 0"], 0,
     "check: graded-valuation-axioms\n"
     "algebra: polyring:2:3\n"
     "functional: 1,1\n"
     "seed: 0\n"
     "BEGIN-RESULT\n"
     "mode: graded\n"
     "multiplicativity_failures: 0\n"
     "subadditivity_failures: 0\n"
     "verdict: passes\n"
     "END-RESULT\n"),
    ("facets_weights_error_column",
     ["facets", "--ideal", fixture("line.ideal"), "--weights", "1 1; 2 x"], 2,
     "parse_error: line 1, col 8: expected a rational number, found 'x'\n"),
]

# Every case above whose exact stdout is spelled out here rather than in a
# golden file, as (name, argv, expected exit, expected stdout); the cases
# listed without an exit code end with exit 2.
STDOUT_CASES = [
    *((name, argv, 2, stdout) for name, argv, stdout
      in PARSE_ERROR_CASES + REPEATED_STATEMENT_CASES),
    *VACUOUS_CASES, *CANCELLING_CASES, *GRADE_SUM_CASES, *ZERO_PRODUCT_CASES,
    *INPUT_ERROR_CASES, *STATEMENT_CASES,
]
