"""Command-line front end with a stable exit-code and report contract.

Exit codes: 0 = check passed / holds, 1 = refuted or fails (a witness is
printed), 2 = usage, parse or input error, 3 = precondition violation
(including a check over nothing), internal error, or a reader that closed
stdout before the report was written.  An error is one line:
each `errors.TropvalError` class carries its label and exit code, and any
other exception is a bug, reported as ``internal_error``.
Every report starts with a ``check:`` provenance line and contains a
machine-readable block fenced by BEGIN-RESULT / END-RESULT; all numbers are
exact rationals and output is byte-identical across runs for fixed
arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import textio
from .cones import arrow_check, cone_sum, facet_classes
from .errors import PRECONDITION, USAGE, TropvalError
from .graded import (
    GradedValuation,
    _require_products,
    associated_graded,
    check_graded_axioms,
    check_monoid_theorem,
    check_valuation_axioms,
    element_key,
    monomial_poly_ring,
    zero_divisor_search,
)
from .groebner import HomogenizedIdeal, enumerate_fan, initial_ideal
from .sl2 import sl2_branching_algebra, sl2_rep_ring
from .valuation import (
    WeightValuation,
    check_axioms,
    check_trop_membership,
    make_weight_valuation,
)

PASS, FAIL = 0, 1
BUILTIN_ALGEBRAS = "polyring:N:T, sl2-rep-ring:N, sl2-branching:N"


def report_format(check_name: str, header: list[tuple[str, str]],
                  result: list[tuple[str, str]]) -> str:
    lines = [f"check: {check_name}"]
    lines.extend(f"{key}: {value}" for key, value in header)
    lines.append("BEGIN-RESULT")
    lines.extend(f"{key}: {value}" for key, value in result)
    lines.append("END-RESULT")
    return "\n".join(lines) + "\n"


def _positive_int(text: str) -> int:
    """argparse type for counts and degree bounds: below 1 is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _read(path: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read is an input error.

    The bytes are read in one unbuffered call and decoded at once, and
    ``\\r\\n`` and ``\\r`` become ``\\n``: the text that reading in text mode
    gives, at less cost.  A buffered reader would add a buffer that one
    read of the whole file does not use.
    """
    try:
        with Path(path).open("rb", buffering=0) as f:
            text = f.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TropvalError(str(exc)) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_presentation(path: str) -> textio.ParsedInput:
    return textio.parse_presentation(_read(path))


def _load_algebra(source: str):
    """A built-in spec (`BUILTIN_ALGEBRAS`) or, without one's prefix, a file."""
    kind, colon, fields = source.partition(":")
    if not colon or kind not in ("polyring", "sl2-rep-ring", "sl2-branching"):
        return textio.parse_graded_algebra(_read(source))
    try:
        sizes = [int(field) for field in fields.split(":")]
    except ValueError:
        sizes = []
    # the builders are called by their names here, so tracing sees each call
    if kind == "polyring" and len(sizes) == 2:
        return monomial_poly_ring(*sizes)
    if kind == "sl2-rep-ring" and len(sizes) == 1:
        return sl2_rep_ring(*sizes)
    if kind == "sl2-branching" and len(sizes) == 1:
        return sl2_branching_algebra(*sizes)
    raise TropvalError(f"malformed built-in algebra {source!r}; "
                       f"the forms are {BUILTIN_ALGEBRAS}")


def _witness_pair_lines(witness) -> list[tuple[str, str]]:
    a, b = witness
    out = []
    if a is not None:
        out.append(("witness_a", textio.poly_to_str(a)))
    if b is not None:
        out.append(("witness_b", textio.poly_to_str(b)))
    return out


def _element_str(element) -> str:
    parts = [f"{coeff}*{textio._basis_str(ref)}" for ref, coeff in sorted(element.items())]
    return " + ".join(parts) if parts else "0"


# -- verbs -----------------------------------------------------------------------


def _cmd_parse(args) -> int:
    parsed = _load_presentation(args.input)
    sys.stdout.write(report_format(
        "parse", [("input", args.input)],
        [("normalized", "")],
    ))
    sys.stdout.write(textio.presentation_to_str(parsed))
    return PASS


def _cmd_initial(args) -> int:
    parsed = _load_presentation(args.ideal)
    w = textio.parse_weights(args.weight)
    gens = initial_ideal(parsed.presentation, w)
    result = [("generator_count", str(len(gens)))]
    result.extend(
        (f"generator_{i}", textio.poly_to_str(g)) for i, g in enumerate(gens)
    )
    sys.stdout.write(report_format(
        "initial-ideal", [("ideal", args.ideal), ("weight", str(w))], result))
    return PASS


def _cmd_trop_check(args) -> int:
    parsed = _load_presentation(args.ideal)
    w = textio.parse_weights(args.weight)
    outcome = check_trop_membership(parsed.presentation, w, args.mode)
    result = [("mode", outcome.mode),
              ("member", "yes" if outcome.ok else "no")]
    if outcome.mode == "certified":
        result.append(("monomial_free", "yes" if outcome.ok else "no"))
    if outcome.witness is not None:
        result.append(("witness", textio.poly_to_str(outcome.witness)))
    sys.stdout.write(report_format(
        "tropical-membership", [("ideal", args.ideal), ("weight", str(w))], result))
    return PASS if outcome.ok else FAIL


def _cmd_val_check(args) -> int:
    parsed = _load_presentation(args.ideal)
    w = textio.parse_weights(args.weight)
    v = make_weight_valuation(parsed.presentation, w)
    report = check_axioms(v, seed=args.seed, n_pairs=args.samples,
                          degree_bound=args.degree_bound)
    result = [
        ("pairs_checked", str(report.pairs_checked)),
        ("failures", str(len(report.multiplicativity_failures)
                         + len(report.cancellation_failures))),
        ("multiplicativity_failures", str(len(report.multiplicativity_failures))),
        ("cancellation_failures", str(len(report.cancellation_failures))),
        ("verdict", report.verdict),
    ]
    if report.multiplicativity_failures:
        a, b, got, expected = report.multiplicativity_failures[0]
        result.extend(_witness_pair_lines((a, b)))
        result.append(("witness_value", got.to_str()))
        result.append(("witness_expected", expected.to_str()))
    elif report.cancellation_failures:
        result.extend(_witness_pair_lines(report.cancellation_failures[0]))
    sys.stdout.write(report_format(
        "valuation-axioms",
        [("ideal", args.ideal), ("weight", str(w)), ("seed", str(args.seed))],
        result))
    return PASS if report.verdict == "valuation" else FAIL


def _cmd_cone(args) -> int:
    parsed = _load_presentation(args.ideal)
    H = HomogenizedIdeal(parsed.presentation)
    v = WeightValuation(H, textio.parse_weights(args.v))
    w1 = WeightValuation(H, textio.parse_weights(args.w1))
    w2 = WeightValuation(H, textio.parse_weights(args.w2))
    outcome = cone_sum(v, w1, w2, seed=args.seed, n_samples=args.samples,
                       exact_mode=args.exact)
    result = [
        ("sum_weights", str(outcome.valuation.weights)),
        ("axiom_verdict", outcome.axiom_report.verdict),
        ("implies_status", outcome.implies_verdict.status),
    ]
    ok = (outcome.axiom_report.verdict == "valuation"
          and not outcome.implies_verdict.refuted)
    sys.stdout.write(report_format(
        "cone-sum",
        [("ideal", args.ideal), ("v", args.v), ("w1", args.w1), ("w2", args.w2)],
        result))
    return PASS if ok else FAIL


def _cmd_arrow(args) -> int:
    parsed = _load_presentation(args.ideal)
    verdict = arrow_check(parsed.presentation,
                          textio.parse_weights(args.v),
                          textio.parse_weights(args.w))
    result = [("status", verdict.status), ("note", verdict.note)]
    if verdict.witness is not None:
        result.extend(_witness_pair_lines(verdict.witness))
    sys.stdout.write(report_format(
        "arrow-relation",
        [("ideal", args.ideal), ("v", args.v), ("w", args.w)], result))
    return PASS if not verdict.refuted else FAIL


def _cmd_facets(args) -> int:
    parsed = _load_presentation(args.ideal)
    ws = textio._parse_weight_list(args.weights)
    if not ws:
        raise TropvalError("--weights lists no weight vector; there is nothing to classify")
    partition = facet_classes(parsed.presentation, ws)
    result = [("class_count", str(len(partition.classes)))]
    for i, cls in enumerate(partition.classes):
        members = "; ".join(str(m) for m in cls.members)
        result.append((f"class_{i}", f"repr ({cls.representative}), members [{members}]"))
    sys.stdout.write(report_format(
        "facet-classes", [("ideal", args.ideal)], result))
    return PASS


def _cmd_fan(args) -> int:
    parsed = _load_presentation(args.ideal)
    classes = enumerate_fan(parsed.presentation, args.box, args.denominator)
    result = [("class_count", str(len(classes)))]
    for i, cls in enumerate(classes):
        free = "yes" if cls.monomial_free else "no"
        result.append((
            f"class_{i}",
            f"repr ({cls.representative}), size {len(cls.members)}, monomial_free: {free}",
        ))
    sys.stdout.write(report_format(
        "groebner-fan-grid",
        [("ideal", args.ideal), ("box", str(args.box)),
         ("denominator", str(args.denominator))],
        result))
    return PASS


def _cmd_graded_check(args) -> int:
    algebra = _load_algebra(args.algebra)
    functional = textio.parse_functional(args.functional, algebra.monoid_dim)
    overrides = {}
    for text in args.override or []:
        element_text, equals, value_text = text.partition("=")
        if not equals:
            raise TropvalError(f"an override has the form element=value, got {text!r}")
        element = textio.parse_graded_element(algebra, element_text.strip())
        key = element_key(element)
        if key in overrides:
            raise TropvalError(f"override of {_element_str(element)} listed twice")
        overrides[key] = textio.parse_tropical_value(value_text.strip())
    gv = GradedValuation.build(functional, overrides)
    if args.mode == "graded":
        report = check_graded_axioms(algebra, gv, seed=args.seed,
                                     n_samples=args.samples)
    else:
        report = check_valuation_axioms(algebra, gv, seed=args.seed,
                                        n_samples=args.samples)
    result = [
        ("mode", report.mode),
        ("multiplicativity_failures", str(len(report.multiplicativity_failures))),
        ("subadditivity_failures", str(len(report.subadditivity_failures))),
        ("verdict", report.verdict),
    ]
    if report.multiplicativity_failures:
        a, b, got, expected = report.multiplicativity_failures[0]
        result.append(("witness_a", _element_str(a)))
        result.append(("witness_b", _element_str(b)))
        result.append(("witness_value", got.to_str()))
        result.append(("witness_expected", expected.to_str()))
    sys.stdout.write(report_format(
        "graded-valuation-axioms",
        [("algebra", args.algebra), ("functional", args.functional),
         ("seed", str(args.seed))],
        result))
    return PASS if report.verdict == "passes" else FAIL


def _cmd_monoid_check(args) -> int:
    algebra = _load_algebra(args.algebra)
    functional = textio.parse_functional(args.functional, algebra.monoid_dim)
    report = check_monoid_theorem(algebra, functional, seed=args.seed,
                                  n_samples=args.samples)
    # Only a failure under the theorem's hypotheses contradicts it.
    if report.conclusion_holds:
        conclusion = "holds"
    elif report.hypotheses_hold:
        conclusion = "FAILS (contradicts the top-component theorem)"
    else:
        conclusion = "fails (hypotheses fail; not a counterexample to the theorem)"
    result = [
        ("cartan_missing", str(len(report.cartan_missing))),
        ("order_violations", str(len(report.order_violations))),
        ("grade_collisions", str(len(report.grade_collisions))),
        ("hypotheses", "hold" if report.hypotheses_hold else "fail"),
        ("samples", str(report.samples)),
        ("conclusion_failures", str(len(report.conclusion_failures))),
        ("conclusion", conclusion),
    ]
    sys.stdout.write(report_format(
        "monoid-total-order-theorem",
        [("algebra", args.algebra), ("functional", args.functional),
         ("seed", str(args.seed))],
        result))
    return PASS if report.hypotheses_hold and report.conclusion_holds else FAIL


def _cmd_gr(args) -> int:
    algebra = _load_algebra(args.algebra)
    functional = textio.parse_functional(args.functional, algebra.monoid_dim)
    _require_products(algebra)
    # raises NotLowerTriangularError unless multiplication is lower-triangular
    graded = associated_graded(algebra, functional)
    # the bound of `zero_divisors_to_bound` is the table's truncation
    witness = zero_divisor_search(graded)
    result = [
        ("lower_triangular", "yes"),
        ("zero_divisors_to_bound", "none" if witness is None else str(witness)),
    ]
    sys.stdout.write(report_format(
        "associated-graded",
        [("algebra", args.algebra), ("functional", args.functional)], result))
    sys.stdout.write(textio.graded_algebra_to_str(graded))
    return PASS


def _cmd_sl2lab(args) -> int:
    if args.builder == "rep-ring":
        algebra = sl2_rep_ring(args.bound)
    else:
        algebra = sl2_branching_algebra(args.bound)
    sys.stdout.write(report_format(
        "sl2lab-builder",
        [("builder", args.builder), ("bound", str(args.bound))],
        [("components", str(len(algebra.components))),
         ("structure_entries", str(len(algebra.structure)))]))
    sys.stdout.write(textio.graded_algebra_to_str(algebra))
    return PASS


def _build_parsers() -> tuple[argparse.ArgumentParser,
                              dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the subparser of each verb by name."""
    parser = argparse.ArgumentParser(
        prog="tropval",
        description="valuation and tropical-membership workbench",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_sampling(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=_positive_int, default=200)

    p = sub.add_parser("parse", help="parse and normalize a presentation file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("initial", help="generators of an initial ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_initial)

    p = sub.add_parser("trop-check", help="tropical membership of a weight vector")
    p.add_argument("--ideal", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--mode", choices=("prevariety", "certified"), default="certified")
    p.set_defaults(func=_cmd_trop_check)

    p = sub.add_parser("val-check", help="sample the valuation axioms")
    p.add_argument("--ideal", required=True)
    p.add_argument("--weight", required=True)
    add_sampling(p)
    p.add_argument("--degree-bound", type=_positive_int, default=3)
    p.set_defaults(func=_cmd_val_check)

    p = sub.add_parser("cone", help="sum of valuations under a cone hypothesis")
    p.add_argument("--ideal", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--exact", action="store_true")
    add_sampling(p)
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("arrow", help="iterated initial-ideal relation")
    p.add_argument("--ideal", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.set_defaults(func=_cmd_arrow)

    p = sub.add_parser("facets", help="partition weights by initial ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--weights", required=True,
                   help="semicolon-separated weight vectors")
    p.set_defaults(func=_cmd_facets)

    p = sub.add_parser("fan", help="group a weight grid by initial ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--box", type=int, default=1)
    p.add_argument("--denominator", type=int, default=1)
    p.set_defaults(func=_cmd_fan)

    p = sub.add_parser("graded-check", help="graded or full valuation axioms")
    p.add_argument("--algebra", required=True,
                   help=f"file path or builtin ({BUILTIN_ALGEBRAS})")
    p.add_argument("--functional", required=True,
                   help="semicolon-separated rows of comma-separated rationals")
    p.add_argument("--override", action="append",
                   help="element=value, e.g. '1*(1,1,0:0)+1*(1,0,1:0)=1'")
    p.add_argument("--mode", choices=("graded", "full"), default="graded")
    add_sampling(p)
    p.set_defaults(func=_cmd_graded_check)

    p = sub.add_parser("monoid-check", help="top-component theorem hypotheses and conclusion")
    p.add_argument("--algebra", required=True)
    p.add_argument("--functional", required=True)
    add_sampling(p)
    p.set_defaults(func=_cmd_monoid_check)

    p = sub.add_parser("gr", help="associated graded algebra of a functional")
    p.add_argument("--algebra", required=True)
    p.add_argument("--functional", required=True)
    p.set_defaults(func=_cmd_gr)

    p = sub.add_parser("sl2lab", help="emit an SL2 algebra in the file format")
    p.add_argument("builder", choices=("rep-ring", "branching"))
    p.add_argument("bound", type=int)
    p.set_defaults(func=_cmd_sl2lab)

    return parser, sub.choices


# built on first use, so importing stays cheap
_parser: argparse.ArgumentParser | None = None
_verb_parsers: dict[str, argparse.ArgumentParser] = {}


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser.parse_args(argv)``, handing a verb's arguments to its parser.

    The top-level parser passes everything after the verb to the verb's
    subparser unchanged, so this calls that subparser directly and skips
    the top-level pass.  It falls back to the top-level parser when argv
    does not start with a verb, when it holds ``--`` (whose handling has
    changed between Python versions), and when the subparser leaves
    arguments it does not recognize, so every usage message and exit is
    argparse's own.
    """
    verb_parser = _verb_parsers.get(argv[0]) if argv else None
    if verb_parser is not None and "--" not in argv:
        args, extras = verb_parser.parse_known_args(argv[1:])
        if not extras:
            args.verb = argv[0]
            return args
    return _parser.parse_args(argv)


def run(argv: list[str]) -> int:
    """Entry point used by tests: parse argv, run, return the exit code."""
    global _parser, _verb_parsers
    if _parser is None:
        _parser, _verb_parsers = _build_parsers()
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # the reader is gone, so there is no one to report to
    except TropvalError as exc:
        sys.stdout.write(f"{exc.label}: {exc}\n")
        return exc.exit_code
    except Exception as exc:  # last resort: a bug, reported on one line
        message = " ".join(str(exc).split())
        sys.stdout.write(f"internal_error: {type(exc).__name__}: {message}\n")
        return PRECONDITION


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`).  Point stdout at
        # devnull, so that the flush at exit does not fail again; see the
        # note on SIGPIPE in the documentation of Python's `signal` module.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = PRECONDITION
    sys.exit(code)


if __name__ == "__main__":
    main()
