import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropval.textio as textio
from tropval.graded import LexFunctional, associated_graded, monomial_poly_ring
from tropval.poly import Polynomial, Presentation, RingContext, RingMismatchError, WeightVector
from tropval.sl2 import sl2_branching_algebra, sl2_rep_ring, strict_branching_functional
from tropval.textio import (
    DuplicateVariableError,
    ParseError,
    UnknownVariableError,
    ParsedInput,
    graded_algebra_to_str,
    parse_graded_algebra,
    parse_graded_element,
    parse_poly,
    parse_presentation,
    parse_ring,
    parse_weights,
    poly_to_str,
    presentation_to_str,
)

XY = RingContext(("x", "y"))
XYZ = RingContext(("x", "y", "z"))


def test_parse_ring():
    assert parse_ring("ring x y z;").variables == ("x", "y", "z")
    assert parse_ring("ring t x;").variables == ("t", "x")


def test_parse_ring_duplicate():
    with pytest.raises(DuplicateVariableError):
        parse_ring("ring x x;")


def test_parse_poly_examples():
    p = parse_poly(XY, "x^2*y - 3*y + 1")
    assert p.terms == {
        (2, 1): Fraction(1),
        (0, 1): Fraction(-3),
        (0, 0): Fraction(1),
    }
    cancelled = parse_poly(XY, "x + y - x")
    assert cancelled.terms == {(0, 1): Fraction(1)}


def test_parse_poly_unknown_variable():
    with pytest.raises(UnknownVariableError):
        parse_poly(XY, "x + w")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_poly(XY, "x +\n* y")
    assert err.value.line == 2
    assert err.value.col == 1


def test_parenthesis_nesting_is_bounded():
    deepest = "(" * 200 + "x" + ")" * 200
    assert parse_poly(XY, deepest) == parse_poly(XY, "x")
    with pytest.raises(ParseError) as err:
        parse_poly(XY, "x +\n" + "(" * 201 + "y" + ")" * 201)
    assert str(err.value) == "line 2, col 201: parentheses nested deeper than 200 levels"


def test_arithmetic_examples():
    x, one = parse_poly(XY, "x"), parse_poly(XY, "1")
    assert (x + one) * (x - one) == parse_poly(XY, "x^2 - 1")
    f = parse_poly(XY, "x^2*y - y")
    assert f + Polynomial.zero(XY) == f
    s = parse_poly(XY, "x + y")
    assert s * s == parse_poly(XY, "x^2 + 2*x*y + y^2")


def test_exponents_that_are_not_integers_are_rejected():
    # int() would truncate 1.5 to 1 and read "2" as 2
    for exps in ((1.5, 0), ("2", 0), (0, Fraction(1, 2))):
        with pytest.raises(ValueError, match=re.escape(f"exponent vector {exps!r}")):
            Polynomial(XY, {exps: 1})
    p = Polynomial(XY, {(2.0, Fraction(1)): 3})
    assert p.terms == {(2, 1): 3}
    assert all(type(x) is int for x in next(iter(p.terms)))


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        parse_poly(XY, "x") + parse_poly(XYZ, "x")


def test_substitute():
    f = parse_poly(XY, "x*y + y^2")
    t_ring = RingContext(("t",))
    t = parse_poly(t_ring, "t")
    assert f.substitute([t, t ** 2]) == parse_poly(t_ring, "t^3 + t^4")


def test_printer_order_is_graded_lex():
    f = parse_poly(XYZ, "z + x*y + x^2 + 1 + y^2")
    assert poly_to_str(f) == "x^2 + x*y + y^2 + z + 1"
    assert poly_to_str(parse_poly(XY, "-x - 1/2")) == "-x - 1/2"
    assert poly_to_str(Polynomial.zero(XY)) == "0"


def test_presentation_file_round_trip():
    source = (
        "# comment\n"
        "ring t x;\n"
        "ideal t*x - 1;\n"
        "weight -1 1;\n"
        "coeffval tadic t -1;\n"
    )
    parsed = parse_presentation(source)
    assert parsed.ring.variables == ("t", "x")
    assert parsed.coeff_valuation.kind == "tadic"
    assert parsed.weights[0].weights == (Fraction(-1), Fraction(1))
    text = presentation_to_str(parsed)
    again = parse_presentation(text)
    assert again.ring == parsed.ring
    assert again.ideal_gens == parsed.ideal_gens
    assert again.coeff_valuation == parsed.coeff_valuation


def test_presentation_rejects_zero_generator():
    with pytest.raises(ValueError):
        Presentation(XY, (Polynomial.zero(XY),))


def test_parse_weights():
    assert parse_weights("1 0 -7/3").weights == (
        Fraction(1), Fraction(0), Fraction(-7, 3))


def _number_literals() -> list[str]:
    """Seeded digit strings, with leading zeros and multi-digit denominators,
    and a few written with a non-ASCII decimal digit (U+0663, Arabic-Indic 3)."""
    rng = random.Random(28)

    def digits(low: int, high: int) -> str:
        return "0" * rng.randint(0, 3) + str(rng.randint(low, high))

    literals = ["0", "00", "007", "0/1", "0/07", "10/4", "12/0008", "\u0663",
                "1\u0663/\u06632", "9" * 40 + "/" + "3" * 25]
    for _ in range(200):
        num = digits(0, 10 ** rng.randint(1, 30))
        literals.append(num if rng.random() < 0.3
                        else f"{num}/{digits(1, 10 ** rng.randint(1, 12))}")
    return literals


def test_number_literals_read_as_fraction_reads_them():
    """The cursor reads ``p`` and ``p/q`` with `int`; `Fraction(token)` is
    the reference, in weight lists, presentation weights, coefficients and
    the t-adic weight."""
    for tok in _number_literals():
        value = Fraction(tok)
        got = parse_weights(f"{tok} -{tok} +{tok}").weights
        assert got == (value, -value, value)
        assert all(type(x) is Fraction for x in got)
        parsed = parse_presentation(
            f"ring x y t;\nideal {tok}*x - y, x + {tok};\n"
            f"weight {tok} -{tok} 0;\ncoeffval tadic t {tok};\n")
        assert parsed.weights[0].weights == (value, -value, 0)
        assert parsed.ideal_gens == (
            Polynomial(parsed.ring, {(1, 0, 0): value, (0, 1, 0): -1}),
            Polynomial(parsed.ring, {(1, 0, 0): 1, (0, 0, 0): value}))
        t_weight = parsed.coeff_valuation.t_weight
        assert type(t_weight) is Fraction and t_weight == value


@pytest.mark.parametrize("text,tok,col", [
    ("0/0", "0/0", 1), ("1 -2/00", "2/00", 4), ("5/0 1", "5/0", 1),
    ("1 7/000 3", "7/000", 3), ("1/\u0660", "1/\u0660", 1),
    ("1 12345678901234567890/0", "12345678901234567890/0", 3),
])
def test_zero_denominator_literals_are_located_parse_errors(text, tok, col):
    with pytest.raises(ZeroDivisionError):
        Fraction(tok)
    with pytest.raises(ParseError) as weights_error:
        parse_weights(text)
    assert str(weights_error.value) == f"line 1, col {col}: zero denominator in {tok!r}"
    with pytest.raises(ParseError) as statement_error:
        parse_presentation(f"ring x y z;\nweight {text} ;\n")
    assert str(statement_error.value) == (
        f"line 2, col {col + 7}: zero denominator in {tok!r}")


def test_zero_denominators_raise_the_pinned_parse_errors():
    """The `PARSE_ERROR_CASES` that reach the cursor, read by the parsers
    directly: the same located error, message for message."""
    from cli_corpus import HERE, PARSE_ERROR_CASES

    readers = {
        "--weight": parse_weights,
        "--input": lambda path: parse_presentation((HERE / path).read_text()),
        "--ideal": lambda path: parse_presentation((HERE / path).read_text()),
    }
    checked = 0
    for name, argv, expected in PARSE_ERROR_CASES:
        for flag, read in readers.items():
            if flag not in argv or not expected.startswith("parse_error: "):
                continue
            try:
                read(argv[argv.index(flag) + 1])
            except ParseError as exc:
                if "zero denominator" in str(exc):
                    assert f"parse_error: {exc}\n" == expected, name
                    checked += 1
    assert checked == 5


coeffs = st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@st.composite
def polynomials(draw):
    n_terms = draw(st.integers(1, 6))
    terms = {}
    for _ in range(n_terms):
        e = draw(exponents)
        c = draw(coeffs)
        terms[e] = terms.get(e, 0) + c
    return Polynomial(XYZ, {e: Fraction(c) for e, c in terms.items() if c})


@given(polynomials())
@settings(max_examples=150)
def test_print_parse_round_trip(p):
    assert parse_poly(XYZ, poly_to_str(p)) == p


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


# -- differential test against the previous tokenizer -------------------------
#
# The parser used to run on frozen Token objects that carried their kind,
# line and column.  This copy of that tokenizer and cursor serves the
# cursor interface the parser uses now, so every input can be parsed with
# both and the results (or exception classes and messages) compared.
# Graded files are read by the statement scanner first; their old side
# runs the cursor loop alone, so the scanner is compared against it too.

_OLD_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[-+*^();,:=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class OldToken:
    kind: str  # number | ident | sym | eof
    text: str
    line: int
    col: int


def old_tokenize(text: str) -> list[OldToken]:
    tokens: list[OldToken] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(OldToken(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(OldToken("eof", "", line, col))
    return tokens


class OldCursor:
    def __init__(self, text: str):
        self.tokens = old_tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.i].text

    def next(self) -> str:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok.text

    def lookahead(self) -> str:
        return self.tokens[self.i + 1].text

    def error(self, message, at=None, cls=ParseError):
        tok = self.tokens[self.i if at is None else at]
        return cls(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> str:
        tok = self.tokens[self.i]
        if tok.kind != "sym" or tok.text != sym:
            raise self.error(f"expected {sym!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def rational(self) -> Fraction:
        tok = self.tokens[self.i]
        _, _, den = tok.text.partition("/")
        if den and int(den) == 0:
            raise self.error(f"zero denominator in {tok.text!r}")
        self.next()
        return Fraction(tok.text)

    def expect_int(self, message: str) -> int:
        tok = self.tokens[self.i]
        if tok.kind != "number" or "/" in tok.text:
            raise self.error(message)
        self.next()
        return int(tok.text)

    def expect_ident(self, word=None) -> str:
        tok = self.tokens[self.i]
        if tok.kind != "ident" or (word is not None and tok.text != word):
            want = word or "identifier"
            raise self.error(f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def at_sym(self, sym: str) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == "sym" and tok.text == sym

    def at_number(self) -> bool:
        return self.tokens[self.i].kind == "number"

    def at_ident(self) -> bool:
        return self.tokens[self.i].kind == "ident"

    def expect_eof(self) -> None:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            raise self.error(f"unexpected trailing input {tok.text!r}")


SMALL_GRADED = (
    "# x graded by degree, truncated at 2\n"
    "monoid dim 1;\n"
    "truncation 2;\n"
    "component 0 size 1;\n"
    "component 1 size 1;\n"
    "component 2 size 1;\n"
    "mult (0:0)*(0:0) = 1*(0:0);\n"
    "mult (0:0)*(1:0) = 1*(1:0);\n"
    "mult (2:0)*(0:0) = 1*(2:0);\n"
    "mult (1:0)*(1:0) = -1/2*(2:0);\n"
    "mult (1:0)*(2:0) = 0;\n"
)
SMALL_ALGEBRA = parse_graded_algebra(SMALL_GRADED)


def _algebra_key(text: str):
    algebra = parse_graded_algebra(text)
    return (algebra.monoid_dim, algebra.truncation, algebra.key())


def _element(text: str):
    return sorted(parse_graded_element(SMALL_ALGEBRA, text).items())


PARSERS = {
    "presentation": parse_presentation,
    "weights": lambda text: parse_weights(text).weights,
    "poly": lambda text: parse_poly(XY, text),
    "graded": _algebra_key,
    "element": _element,
}
FIXTURE_DIR = Path(__file__).parent / "fixtures"
BASES = {
    "presentation": [path.read_text() for path in sorted(FIXTURE_DIR.glob("*.ideal"))],
    "weights": ["1 0 -7/3", "-1 1", "0 0", "1/2 -3 +4"],
    "poly": ["x^2*y - 3*(y + 1/2)", "-(x - y)^2 + 1"],
    "graded": [SMALL_GRADED],
    "element": ["2*(1:0) - (0:0) + 1/2*(2:0)"],
}
# Emitted files, read as they are and after a few relayouts; mutating
# them would only repeat, at far more cost, what SMALL_GRADED's edits test.
LARGE_GRADED = [graded_algebra_to_str(sl2_branching_algebra(2)),
                graded_algebra_to_str(sl2_rep_ring(4))]
PIECES = ("\r\n", "\t", "#", "@", "\u00e9", "\u0663", " ", "\n", "(", ")", ",", ";",
          ":", "*", "+", "-", "^", "/", "=", "0", "1", "7/3", "-1/2", "x", "y", "t",
          "ring", "ideal", "weight", "coeffval", "tadic", "trivial", "monoid", "dim",
          "truncation", "component", "size", "mult", "# note\n", "\u00b2")


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:pos] + rng.choice(PIECES) + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + rng.randint(1, 4):]
        elif op == 2:
            text = text[:pos] + rng.choice(PIECES) + text[pos + 1:]
        else:
            end = min(len(text), pos + rng.randint(1, 12))
            text = text[:end] + text[pos:end] + text[end:]
    return text


LAYOUT = (" ", "\t", "\n", "\r\n", "  \n\n", "# note\n", "\n# * ; = mult\n",
          "\n## # banner ##\n")


def _relayout(text: str, rng: random.Random) -> str:
    """Insert whitespace or a comment line; most inputs stay valid."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        text = text[:pos] + rng.choice(LAYOUT) + text[pos:]
    return text


# Forms at the edge of the graded statement scanner's patterns, each one
# edit of SMALL_GRADED: read by both paths, by the cursor loop only, or an
# error.
GRADED_EDGES = [
    ("= -1/2*(2:0)", "= +1/2*(2:0)"), ("= -1/2*(2:0)", "= - 1/2 * ( 2 : 0 )"),
    ("= -1/2*(2:0)", "= -1 /2*(2:0)"), ("= -1/2*(2:0)", "= -1/0*(2:0)"),
    ("= -1/2*(2:0)", "= -1/2*(2:0) - 0*(1:0)"), ("1*(2:0)", "1*(2:0) + 1*(2:0)"),
    ("= 0;", "= 0 ;"), ("= 0;", "= 00;"), ("= 0;", "= 0*(0:0);"), ("= 0;", "= -0;"),
    ("component 1 size", "component 1size"), ("component 1 size", "component 1 size1"),
    ("component 2 size 1", "component \u0662 size 1"), ("(1:0)*(2:0)", "(1,0:0)*(2:0)"),
    ("mult (0:0)*(1:0)", "mult(0:0)*(1:0)"), ("mult (0:0)*(1:0)", "mult (0:0) # note\n*(1:0)"),
    ("truncation 2;", "truncation 2;truncation 2;"), ("truncation 2;\n", ""),
    ("monoid dim 1;", "monoid dim 1;monoid dim 1;"), ("monoid dim 1;\n", ""),
    ("mult (1:0)*(2:0) = 0;", "mult (1:0)*(2:0) = 0;\nmult (2:0)*(1:0) = 0;"),
    # at the level of a mult body, which the scanner reads up to its ';'
    ("= -1/2*(2:0)", "= -1/2 # half\n*(2:0)"), ("= -1/2*(2:0)", "= -1/2*(2:0) # note\n"),
    ("= -1/2*(2:0);", "= -1/2*(2:0) # a; b\n;"), ("= -1/2*(2:0);", "= -1/2*(2:0); # a; b"),
    ("= 0;", "= ;"), ("= 0;", "=;"), ("= 0;", "= # 0\n;"),
    ("= -1/2*(2:0)", "= -1/2*(2:0) +"), ("= -1/2*(2:0)", "= -1/2*(2:0) + - 1*(1:0)"),
    ("= -1/2*(2:0)", "= 0*(1:0) - 1/2*(2:0) + 0*(0:0)"), ("= 1*(1:0)", "= 0*(1:0)"),
    ("= -1/2*(2:0)", "=\t-  \n1/2*(2:0)  +\t0*(1:0) \n"), ("= 1*(1:0)", "=1*(1:0)-0*(2:0)"),
    ("= 0;", "= -1/2*(2:0);"), ("= 1*(2:0);", "= 1*(1:0);"),
    ("= 1*(2:0);", "= 1*(1:0) ;"), ("(1:0)*(2:0) = 0;", "(2:0)*(0:0) = 1*(2:0);"),
]


def _outcome(parse, text: str):
    try:
        return ("ok", parse(text))
    except Exception as exc:  # compared by class and message
        return ("error", type(exc), str(exc))


def _cursor_only(text: str):
    raise textio._Rejected


def test_string_tokens_parse_like_the_token_objects(monkeypatch):
    rng = random.Random(20260418)
    inputs = [(kind, text) for kind, texts in BASES.items() for text in texts]
    while len(inputs) < 6000:
        kind = rng.choice(sorted(BASES))
        text = _mutate(rng.choice(BASES[kind]), rng)
        # Skip exponents of two or more digits: expanding such a power
        # costs time and says nothing about the tokenizer.
        if not re.search(r"\^\s*\d\d", text):
            inputs.append((kind, text))
    inputs += [("graded", SMALL_GRADED.replace(old, new, 1)) for old, new in GRADED_EDGES]
    inputs += [("graded", text) for text in LARGE_GRADED]
    inputs += [("graded", _relayout(SMALL_GRADED, rng)) for _ in range(600)]
    inputs += [("graded", _relayout(text, rng)) for text in LARGE_GRADED for _ in range(5)]
    read, cursor_reads = textio._parse_graded_cursor, []

    def counted_read(text):
        cursor_reads.append(text)
        return read(text)

    monkeypatch.setattr(textio, "_parse_graded_cursor", counted_read)
    new = [_outcome(PARSERS[kind], text) for kind, text in inputs]
    fallbacks = len(cursor_reads)
    monkeypatch.setattr(textio, "_Cursor", OldCursor)
    monkeypatch.setattr(textio, "_scan_graded", _cursor_only)
    old = [_outcome(PARSERS[kind], text) for kind, text in inputs]
    differences = [(inputs[i], old[i], new[i]) for i in range(len(inputs)) if old[i] != new[i]]
    assert differences == []
    errors = sum(outcome[0] == "error" for outcome in new)
    unexpected = sum(outcome[0] == "error" and "unexpected character" in outcome[2]
                     for outcome in new)
    assert 500 < errors < len(inputs) - 300 and unexpected > 100
    # both graded paths were taken, each on many inputs
    graded = sum(kind == "graded" for kind, _ in inputs)
    assert graded - fallbacks > 200 and fallbacks > 300


def test_hash_banners_are_read_in_linear_time():
    banner = "#" * 60 + "\n"
    text = graded_algebra_to_str(sl2_rep_ring(4))
    start = time.perf_counter()
    assert parse_graded_algebra(text + banner).key() == sl2_rep_ring(4).key()
    # a banner just before a statement the scanner's pattern rejects
    bad = SMALL_GRADED.replace("mult (1:0)*(2:0) = 0;", banner + "mult (1:0)*(2:0) = 0 0;")
    with pytest.raises(ParseError) as raised:
        parse_graded_algebra(bad)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ParseError) as expected:
        textio._parse_graded_cursor(bad)
    assert str(raised.value) == str(expected.value)


def _emitted_builtin_files():
    strict = strict_branching_functional()
    for A in (monomial_poly_ring(1, 4), monomial_poly_ring(2, 3), monomial_poly_ring(3, 4),
              sl2_rep_ring(1), sl2_rep_ring(4), sl2_rep_ring(7)):
        yield A
        yield associated_graded(A, LexFunctional.single((1,) * A.monoid_dim))
    for n in (2, 3):
        A = sl2_branching_algebra(n)
        yield A
        yield associated_graded(A, strict)


def test_emitted_builtin_files_never_reach_the_cursor_loop(monkeypatch):
    def fail(text):
        raise AssertionError("the statement scanner rejected an emitted file")

    monkeypatch.setattr(textio, "_parse_graded_cursor", fail)
    for A in _emitted_builtin_files():
        text = graded_algebra_to_str(A)
        B = parse_graded_algebra(text)
        assert B.key() == A.key() and B.truncation == A.truncation
        assert graded_algebra_to_str(B) == text


# -- the per-atom expression reader, kept as the term-order reference ----------


def _reference_expr(cur, ring: RingContext) -> Polynomial:
    negate = False
    if cur.at_sym("-"):
        cur.next()
        negate = True
    acc = _reference_term(cur, ring)
    if negate:
        acc = -acc
    while cur.at_sym("+") or cur.at_sym("-"):
        op = cur.next()
        term = _reference_term(cur, ring)
        acc = acc + (-term if op == "-" else term)
    return acc


def _reference_term(cur, ring: RingContext) -> Polynomial:
    acc = _reference_factor(cur, ring)
    while cur.at_sym("*"):
        cur.next()
        acc = acc * _reference_factor(cur, ring)
    return acc


def _reference_factor(cur, ring: RingContext) -> Polynomial:
    base = _reference_atom(cur, ring)
    if cur.at_sym("^"):
        cur.next()
        base = base ** cur.expect_int("exponent must be a non-negative integer")
    return base


def _reference_atom(cur, ring: RingContext) -> Polynomial:
    tok = cur.peek()
    if cur.at_number():
        return Polynomial.constant(ring, cur.rational())
    if cur.at_ident():
        if tok not in ring.variables:
            raise cur.error(f"unknown variable {tok!r}", cls=UnknownVariableError)
        cur.next()
        return Polynomial.variable(ring, tok)
    if tok == "(":
        if cur.depth == textio._MAX_NESTING:
            raise cur.error(f"parentheses nested deeper than {textio._MAX_NESTING} levels")
        cur.depth += 1
        cur.next()
        inner = _reference_expr(cur, ring)
        cur.expect_sym(")")
        cur.depth -= 1
        return inner
    raise cur.error(f"expected a polynomial atom, found {textio._found(tok)}")


_ATOM_NUMBERS = ("0", "1", "2", "3", "1/2", "2/3", "3/2", "4/2", "0/5", "6/3")
# Edits that make an expression invalid, or valid in another way.
_EXPR_EDITS = ("", "(", ")", "^", "*", "+", "-", "1/0", "^x", "w", "@", ";", "x^", "^2")


def _random_expr(rng: random.Random, depth: int = 0) -> str:
    """An expression over x and y with nested groups up to depth 4."""
    parts = ["-"] if rng.random() < 0.3 else []
    for k in range(rng.randint(1, 4 if depth == 0 else 2)):
        if k:
            parts.append(rng.choice((" + ", " - ", "+", "-")))
        term = "*".join(_random_factor(rng, depth)
                        for _ in range(rng.randint(1, 3 if depth == 0 else 2)))
        if depth < 2 and rng.random() < 0.15:  # a term that cancels and comes back
            term = f"{term} - {term} + {term}"
        parts.append(term)
    return "".join(parts)


def _random_factor(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth < 4 and r < 0.3:
        atom = f"({_random_expr(rng, depth + 1)})"
    elif r < 0.6:
        atom = rng.choice(_ATOM_NUMBERS)
    else:
        atom = rng.choice("xy")
    if rng.random() < 0.3:
        atom += f"^{rng.randint(0, 3)}"
    return atom


def _term_lists(outcome):
    """A parse outcome with each polynomial as its terms, in their order,
    each coefficient with its type (an int when integral)."""
    if isinstance(outcome, Polynomial):
        return [(e, c, type(c)) for e, c in outcome.terms.items()]
    if isinstance(outcome, ParsedInput):
        return (outcome.ring, [_term_lists(g) for g in outcome.ideal_gens],
                outcome.weights, outcome.coeff_valuation)
    return outcome


def test_expressions_keep_the_per_atom_readers_term_order(monkeypatch):
    rng = random.Random(35)
    expressions = ["x + y - x + x", "x*x*y - y*x^2 + x^2*y", "(x + y)^3 - (x - y)^3",
                   "0*x + 0^0*y^0 - 1", "2*(x + y)*1/2*(x - y)*x", "-(x - y)^2 + y^2"]
    while len(expressions) < 3000:
        text = _random_expr(rng)
        if rng.random() < 0.1:
            pos = rng.randrange(len(text) + 1)
            text = text[:pos] + rng.choice(_EXPR_EDITS) + text[pos + rng.randint(0, 2):]
        expressions.append(text)
    readers = [(lambda text: parse_poly(XY, text)),
               (lambda text: parse_presentation(f"ring x y;\nideal {text}, y - ({text});\n"))]
    inputs = [(read, text) for text in expressions for read in readers]
    new = [_outcome(read, text) for read, text in inputs]
    monkeypatch.setattr(textio, "_parse_expr", _reference_expr)
    old = [_outcome(read, text) for read, text in inputs]
    differences = [(inputs[i][1], old[i], new[i]) for i in range(len(inputs))
                   if [_term_lists(x) for x in old[i]] != [_term_lists(x) for x in new[i]]]
    assert differences == []
    errors = sum(outcome[0] == "error" for outcome in new)
    assert 300 < errors < 1000
    polys = [outcome[1] for outcome in new
             if outcome[0] == "ok" and isinstance(outcome[1], Polynomial)]
    # term orders other than the printer's, zero sums and fractions occur
    assert sum(list(p.terms) != [e for e, _ in p.sorted_terms()] for p in polys) > 1000
    assert sum(p.is_zero for p in polys) > 50
    assert sum(any(type(c) is Fraction for c in p.terms.values()) for p in polys) > 500
    assert sum(_nesting(text) == 4 for text in expressions) > 300


def _nesting(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


def _weight_entries(rng: random.Random) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.choice((-1, 0, 1)) * rng.randint(0, 40), rng.randint(1, 12))
                 for _ in range(rng.choice((1, 1, 2, 3, 5, 8))))


def test_parsed_weights_equal_the_constructed_vector():
    rng = random.Random(35)
    vectors = [(Fraction(0),), (Fraction(-3, 4),), (Fraction(0), Fraction(0))]
    vectors += [_weight_entries(rng) for _ in range(500)]
    for entries in vectors:
        text = " ".join(str(w) for w in entries)
        parsed, built = parse_weights(text), WeightVector(entries)
        assert (parsed.weights, parsed.int_weights, parsed.int_scale) == (
            built.weights, built.int_weights, built.int_scale), text
        assert parsed == built and hash(parsed) == hash(built)
        assert all(type(w) is Fraction for w in parsed.weights)
    assert any(len(set(w.denominator for w in entries)) > 2 for entries in vectors)
