"""Text grammar for rings, polynomials, weights, and graded algebras.

The polynomial-side grammar is line-oriented UTF-8 with ``#`` comments and
``;``-terminated statements::

    ring x y z ;
    ideal x^2*y - 3*y + 1, x + y ;
    weight 1 0 -1/2 ;
    coeffval trivial ;          # or: coeffval tadic t 1 ;

Polynomial expressions use ``+ - * ^``, integer or rational literals
(``p/q``), known variable names, and parentheses.  The printer emits terms
in descending graded-lex order, so printing is deterministic and
``parse(print(f)) == f`` on every normalized polynomial.

Graded-algebra files list one grading component or one structure entry per
statement::

    monoid dim 2;
    truncation 4;
    component 1,0 size 1;
    mult (1,0:0)*(0,1:0) = 1*(1,1:0);

Structure entries are stored symmetrically; a pair may be written in either
order, and ``= 0;`` records a vanishing product.  Each of ``monoid dim``,
``truncation``, a component and a pair is listed once: a second one is a
parse error at the repeated statement ("... listed twice").

A token is its matched string, found by one regex scan; ``""`` marks end
of input and the kind follows from the first character.  Tokens carry no
position: when a `ParseError` is raised, the text is rescanned up to the
failing token to give its line and column.  Parenthesized expressions
nest at most 200 levels deep, and a rational literal with denominator zero
is a parse error at that literal, as is a `--functional` entry or an
`--override` value that is not a rational.

An expression is read into one term dict, with no `Polynomial` per atom.
Each term is one coefficient and one exponent list: numbers multiply into
the coefficient (an int while every number is integral) and variable
powers add to the exponents.  The terms are summed into the dict by the
rule of `Polynomial.__add__`: a sum that reaches 0 is deleted, so a later
term with that exponent goes in again at the end.  The dict keeps the
term order of summing one `Polynomial` per atom, and is wrapped once,
by `Polynomial._trusted`.  Only a parenthesized factor is a `Polynomial`,
raised to its power and multiplied with ``*``; the term's monomial then
shifts its terms, which keeps their order.  The reader moves through
the tokens only by the cursor's methods (`_Cursor.peek`, ``at_ident``,
``rational``, ``expect_int`` and the like), never by its token list, so
a test can run it on a reference cursor with other token objects.

The CLI reads a file (`cli._read`) by one unbuffered read of ``Path(path)``
in binary mode, decoded as UTF-8, with ``\\r\\n`` and a lone ``\\r``
turned into ``\\n``: the text that reading in text mode gives, so a CRLF
or CR file reads, and reports errors at the same line and column, as its
LF copy.  ``Path`` also fixes the name an error line gives: ``a//b`` and
``./x`` are named normalized, and ``""`` is ``.``.

A number token is ``p`` or ``p/q``, each a run of decimal digits (any
Unicode decimal digit, as in `int`).  The cursor reads it with `int` and
builds ``Fraction(int(p), int(q))``, which is the value ``Fraction(tok)``
gives but skips that constructor's string matching.  Two readers keep
``Fraction(text)``: the graded scanner, whose signed coefficient literals
are each read once per file, and the `--functional` and `--override`
fields, which accept whatever `Fraction` accepts.

Two constructs each have one reader.  Weight entries, in a weight flag
(``--weight``, ``--v``, ``--w``, ``--w1``, ``--w2``), in each vector of
a ``--weights`` flag and in a ``weight`` statement, are read by
`_weight_vector`, up to end of input, up to the next ``;`` of
``--weights``, or up to the statement's ``;``.  One cursor reads a whole
``--weights`` flag (`_parse_weight_list`), so its errors are located in
the flag as typed.  Signed ``c*(grade:index)`` terms, in a mult body and
in an ``--override`` element, are read by the generator `_signed_terms`;
an element's coefficient may be left out, a mult body's may not.  Both move only by cursor methods (``peek``,
``at_number``, ``rational``, ``expect_sym`` and the like) and read the
token index as ``i``, so the test that swaps in a reference cursor with
other token objects covers them too.

Graded files are read one statement per regex match (`_scan_graded`),
with each basis ref and coefficient literal converted once per file, and
each distinct product body read once, so pairs with the same body share
one expansion.  The token-level cursor loop (`_parse_graded_cursor`) is
the grammar's reference and its only error reporter: any text the
scanner does not accept, valid or not, is read again by the cursor loop,
which gives the same result or the first error with its position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import TropvalError
from .groebner import _Memo
from .poly import (
    CoeffValuation,
    Polynomial,
    Presentation,
    RingContext,
    TRIVIAL_COEFFS,
    WeightVector,
    _coefficient,
    integer_weights,
)
from .trop import BOTTOM, TropicalValue


class ParseError(TropvalError):
    label = "parse_error"

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DuplicateVariableError(ParseError):
    pass


class UnknownVariableError(ParseError):
    pass


_TOKEN_RE = re.compile(
    r"\#[^\n]*"                     # comment, dropped after the scan
    r"|\d+(?:/\d+)?"                # number
    r"|[A-Za-z_][A-Za-z0-9_]*"      # ident
    r"|[-+*^();,:=]"                # sym
    r"|\S"                          # anything else is an unexpected character
)
_SYMS = frozenset("-+*^();,:=")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_MAX_NESTING = 200


def _offset(text: str, index: int) -> int:
    """Character offset of token ``index`` of ``tokenize(text)``."""
    k = 0
    for m in _TOKEN_RE.finditer(text):
        if m.group()[0] == "#":
            continue
        if k == index:
            return m.start()
        k += 1
    return len(text)  # the end-of-input token


def _at(cls, message: str, text: str, pos: int) -> ParseError:
    """A ParseError located at character offset ``pos`` of ``text``."""
    return cls(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _located(cls, message: str, text: str, index: int) -> ParseError:
    return _at(cls, message, text, _offset(text, index))


def _fraction_field(text: str, start: int, end: int) -> Fraction:
    """``Fraction(text[start:end])``; a malformed field is a located ParseError.

    The error points at the field's first non-blank character and names a
    zero denominator or an invalid rational.
    """
    field = text[start:end]
    try:
        return Fraction(field.strip())
    except ZeroDivisionError:
        problem = "zero denominator in"
    except ValueError:
        problem = "invalid rational"
    pos = start + len(field) - len(field.lstrip())
    raise _at(ParseError, f"{problem} {field.strip()!r}", text, pos)


def tokenize(text: str) -> list[str]:
    """Token strings of ``text``, ending with ``""`` for end of input.

    A token's kind follows from its first character: a decimal digit
    starts a number, a symbol character is a sym, anything else is an
    identifier.  Positions are not kept; `_offset` rescans on error.
    """
    tokens = _TOKEN_RE.findall(text)
    if "#" in text:
        tokens = [tok for tok in tokens if tok[0] != "#"]
    bad = {tok for tok in set(tokens) if len(tok) == 1 and tok not in _SYMS
           and tok not in _IDENT_START and not tok.isdecimal()}
    if bad:
        i = next(i for i, tok in enumerate(tokens) if tok in bad)
        raise _located(ParseError, f"unexpected character {tokens[i]!r}", text, i)
    tokens.append("")
    return tokens


def _found(tok: str) -> str:
    return repr(tok or "end of input")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0  # open parentheses in the current expression

    def peek(self) -> str:
        return self.tokens[self.i]

    def next(self) -> str:
        tok = self.tokens[self.i]
        if tok:
            self.i += 1
        return tok

    def error(self, message: str, at: int | None = None,
              cls: type[ParseError] = ParseError) -> ParseError:
        """A ParseError located at token ``at`` (default: the current one)."""
        return _located(cls, message, self.text, self.i if at is None else at)

    def expect_sym(self, sym: str) -> str:
        tok = self.tokens[self.i]
        if tok != sym:
            raise self.error(f"expected {sym!r}, found {_found(tok)}")
        self.i += 1
        return tok

    def rational(self) -> Fraction:
        """Consume a number token; a zero denominator is a parse error."""
        tok = self.tokens[self.i]
        p, slash, q = tok.partition("/")
        if not slash:
            value = Fraction(int(p))
        else:
            den = int(q)
            if not den:
                raise self.error(f"zero denominator in {tok!r}")
            value = Fraction(int(p), den)
        self.i += 1
        return value

    def expect_int(self, message: str) -> int:
        """Consume a non-negative integer literal, else fail with message."""
        tok = self.tokens[self.i]
        if not tok.isdecimal():
            raise self.error(message)
        self.i += 1
        return int(tok)

    def expect_ident(self, word: str | None = None) -> str:
        tok = self.tokens[self.i]
        if tok[:1] not in _IDENT_START or (word is not None and tok != word):
            raise self.error(f"expected {word or 'identifier'!r}, found {_found(tok)}")
        self.i += 1
        return tok

    def at_sym(self, sym: str) -> bool:
        return self.tokens[self.i] == sym

    def at_number(self) -> bool:
        return self.tokens[self.i][:1].isdecimal()

    def at_ident(self) -> bool:
        return self.tokens[self.i][:1] in _IDENT_START

    def lookahead(self) -> str:
        """The token after the current one (not at end of input)."""
        return self.tokens[self.i + 1]

    def expect_eof(self) -> None:
        tok = self.tokens[self.i]
        if tok:
            raise self.error(f"unexpected trailing input {tok!r}")


# -- polynomial expressions --------------------------------------------------


def _parse_expr(cur: _Cursor, ring: RingContext) -> Polynomial:
    # expr := ['-'] term (('+'|'-') term)*
    # Each term is summed into one dict by `Polynomial.__add__`'s rule: a
    # sum that reaches 0 is deleted, so a later like term goes in at the end.
    terms: dict[tuple[int, ...], int | Fraction] = {}
    negate = cur.at_sym("-")
    if negate:
        cur.next()
    while True:
        coeff, exps, group = _parse_term(cur, ring)
        if coeff:  # a zero term adds nothing
            if negate:
                coeff = -coeff
            if group is None:
                product = ((tuple(exps), coeff),)
            else:  # a monomial times a polynomial keeps its term order
                product = [(tuple(map(add, e, exps)), _coefficient(c * coeff))
                           for e, c in group.terms.items()]
            for e, c in product:
                old = terms.get(e)
                if old is None:
                    terms[e] = c
                elif s := old + c:
                    terms[e] = _coefficient(s)
                else:
                    del terms[e]
        if cur.at_sym("+"):
            negate = False
        elif cur.at_sym("-"):
            negate = True
        else:
            return Polynomial._trusted(ring, terms)
        cur.next()


def _parse_term(cur: _Cursor, ring: RingContext
                ) -> tuple[int | Fraction, list[int], Polynomial | None]:
    """``(coefficient, exponents, group)``: a term is their product.

    term := factor ('*' factor)*;  factor := atom ('^' integer)?
    Numbers multiply into the coefficient (stored form) and variable
    powers add to the exponent list.  ``group`` is the product of the
    parenthesized factors, in their order, or None when there are none.
    """
    coeff: int | Fraction = 1
    exps = [0] * ring.dim
    group = None
    while True:
        tok = cur.peek()
        if cur.at_ident():
            if tok not in ring.variables:
                raise cur.error(f"unknown variable {tok!r}", cls=UnknownVariableError)
            cur.next()
            exps[ring.variables.index(tok)] += _power(cur) if cur.at_sym("^") else 1
        elif cur.at_number():
            value = _coefficient(cur.rational())
            coeff *= value ** _power(cur) if cur.at_sym("^") else value
        elif tok == "(":
            # Each level costs two stack frames; the bound keeps deep input
            # a located parse error instead of a RecursionError.
            if cur.depth == _MAX_NESTING:
                raise cur.error(f"parentheses nested deeper than {_MAX_NESTING} levels")
            cur.depth += 1
            cur.next()
            inner = _parse_expr(cur, ring)
            cur.expect_sym(")")
            cur.depth -= 1
            if cur.at_sym("^"):
                inner = inner ** _power(cur)
            group = inner if group is None else group * inner
        else:
            raise cur.error(f"expected a polynomial atom, found {_found(tok)}")
        if not cur.at_sym("*"):
            return _coefficient(coeff), exps, group
        cur.next()


def _power(cur: _Cursor) -> int:
    """Consume ``'^' integer`` and return the integer."""
    cur.next()
    return cur.expect_int("exponent must be a non-negative integer")


def parse_poly(ring: RingContext, text: str) -> Polynomial:
    """Parse a polynomial expression over a known ring."""
    cur = _Cursor(text)
    p = _parse_expr(cur, ring)
    cur.expect_eof()
    return p


def parse_ring(text: str) -> RingContext:
    """Parse a full ``ring x y z ;`` statement."""
    cur = _Cursor(text)
    ring = _parse_ring_statement(cur)
    cur.expect_eof()
    return ring


def _parse_ring_statement(cur: _Cursor) -> RingContext:
    cur.expect_ident("ring")
    names: list[str] = []
    while cur.at_ident():
        tok = cur.peek()
        if tok in names:
            raise cur.error(f"duplicate variable {tok!r}", cls=DuplicateVariableError)
        names.append(cur.next())
    if not names:
        raise cur.error("ring statement needs at least one variable")
    cur.expect_sym(";")
    return RingContext(tuple(names))


def _parse_signed_rational(cur: _Cursor) -> Fraction:
    negate = cur.at_sym("-")
    if negate or cur.at_sym("+"):
        cur.next()
    if not cur.at_number():
        raise cur.error(f"expected a rational number, found {_found(cur.peek())}")
    value = cur.rational()
    return -value if negate else value


def _weight_vector(cur: _Cursor, ends: tuple[str, ...]) -> WeightVector:
    """Signed rationals up to a token in ``ends``, which is not consumed.

    The one reader of weight entries: ``ends`` holds ``""`` for a weight
    flag, ``";"`` for a ``weight`` statement, and both for one vector of
    a ``--weights`` flag.
    """
    ws: list[Fraction] = []
    while cur.peek() not in ends:
        ws.append(_parse_signed_rational(cur))
    entries = tuple(ws)
    return WeightVector._trusted(entries, *integer_weights(entries))


def parse_weights(text: str) -> WeightVector:
    """Parse a bare whitespace-separated list of rationals."""
    cur = _Cursor(text)
    if not cur.peek():
        raise ParseError("empty weight vector", 1, 1)
    return _weight_vector(cur, ("",))


def _parse_weight_list(text: str) -> list[WeightVector]:
    """The ``;``-separated weight vectors of a ``--weights`` flag.

    One cursor reads the whole flag, so an error is located in it; an
    empty vector between two ``;`` is skipped.
    """
    cur = _Cursor(text)
    ws = []
    while cur.peek():
        if cur.at_sym(";"):
            cur.next()
        else:
            ws.append(_weight_vector(cur, (";", "")))
    return ws


@dataclass
class ParsedInput:
    """Contents of a presentation file."""

    ring: RingContext
    ideal_gens: tuple[Polynomial, ...]
    weights: tuple[WeightVector, ...]
    coeff_valuation: CoeffValuation

    @property
    def presentation(self) -> Presentation:
        return Presentation(self.ring, self.ideal_gens, self.coeff_valuation)


def parse_presentation(text: str) -> ParsedInput:
    """Parse a presentation file: ring, ideal, weight, coeffval statements."""
    cur = _Cursor(text)
    ring: RingContext | None = None
    gens: list[Polynomial] = []
    weights: list[WeightVector] = []
    coeffs = TRIVIAL_COEFFS
    while cur.peek():
        tok, at = cur.peek(), cur.i
        if not cur.at_ident():
            raise cur.error(f"expected a statement keyword, found {tok!r}")
        if tok == "ring":
            ring = _parse_ring_statement(cur)
            continue
        if ring is None:
            raise cur.error("a ring statement must come first")
        if tok == "ideal":
            cur.next()
            while True:
                gens.append(_parse_expr(cur, ring))
                if cur.at_sym(","):
                    cur.next()
                    continue
                break
            cur.expect_sym(";")
        elif tok == "weight":
            cur.next()
            w = _weight_vector(cur, (";",))
            cur.expect_sym(";")
            if len(w.weights) != ring.dim:
                raise cur.error(
                    f"weight vector has {len(w.weights)} entries, ring has {ring.dim}", at)
            weights.append(w)
        elif tok == "coeffval":
            cur.next()
            head = cur.expect_ident()
            if head == "trivial":
                coeffs = TRIVIAL_COEFFS
            elif head == "tadic":
                var = cur.expect_ident()
                if var not in ring.variables:
                    raise cur.error(f"unknown variable {var!r}", cur.i - 1,
                                    UnknownVariableError)
                weight = _parse_signed_rational(cur)
                coeffs = CoeffValuation("tadic", ring.index(var), weight)
            else:
                raise cur.error(f"unknown coefficient valuation {head!r}", cur.i - 1)
            cur.expect_sym(";")
        else:
            raise cur.error(f"unknown statement {tok!r}")
    if ring is None:
        raise ParseError("input contains no ring statement", 1, 1)
    return ParsedInput(ring, tuple(gens), tuple(weights), coeffs)


# -- printing ----------------------------------------------------------------


def _monomial_str(ring: RingContext, exps) -> str:
    parts = []
    for name, e in zip(ring.variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _signed_join(terms) -> str:
    """Join (negative, body) pairs, at least one: `body` or `-body` first,
    then `+ body` or `- body`."""
    text = " ".join(f"- {body}" if negative else f"+ {body}" for negative, body in terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def poly_to_str(p: Polynomial) -> str:
    """Deterministic printer: descending graded-lex term order."""
    if p.is_zero:
        return "0"
    terms = []
    for exps, coeff in p.sorted_terms():
        mono = _monomial_str(p.ring, exps)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        terms.append((coeff.numerator < 0, body))
    return _signed_join(terms)


def presentation_to_str(parsed: ParsedInput) -> str:
    """Render a parsed input file, weight lines included, in the input grammar."""
    lines = [str(parsed.ring)]
    if parsed.ideal_gens:
        lines.append("ideal " + ", ".join(poly_to_str(g) for g in parsed.ideal_gens) + ";")
    for w in parsed.weights:
        lines.append(f"weight {w};")
    cv = parsed.coeff_valuation
    if cv.kind == "tadic":
        lines.append(f"coeffval tadic {parsed.ring.variables[cv.t_index]} {cv.t_weight};")
    else:
        lines.append("coeffval trivial;")
    return "\n".join(lines) + "\n"


# -- graded algebra files ------------------------------------------------------


def _grade_str(grade: tuple[int, ...]) -> str:
    return ",".join(str(g) for g in grade)


def _basis_str(b) -> str:
    grade, idx = b
    return f"({_grade_str(grade)}:{idx})"


def graded_algebra_to_str(algebra) -> str:
    """Render a GradedAlgebra in the graded-algebra file format.

    The algebra's tables are ascending, so components and pairs are written
    in the order they are held, which is the file's sorted order.  Each
    distinct expansion object is formatted once.
    """
    names = {ref: _basis_str(ref) for ref in algebra.basis()}

    def body(expansion, pair) -> str:
        if not expansion:
            return "0"
        # signs from numerators, so no term takes a `Fraction` abs or comparison
        return _signed_join([(coeff.numerator < 0,
                              f"{str(coeff).lstrip('-')}*{names[target]}")
                             for target, coeff in expansion])

    lines = [f"monoid dim {algebra.monoid_dim};", f"truncation {algebra.truncation};"]
    for grade, size in algebra.components.items():
        lines.append(f"component {_grade_str(grade)} size {size};")
    for (left, right), text in algebra._per_product(body):
        lines.append(f"mult {names[left]}*{names[right]} = {text};")
    return "\n".join(lines) + "\n"


# The statement scanner reads a graded file one statement per regex match.
# Its patterns are stricter than the token grammar: every statement they
# accept reads the same under the cursor loop below, and anything else
# (including a comment inside a statement) sends the whole text there.
_INT = r"[0-9]+"
_NUM = r"[0-9]+(?:/[0-9]+)?"
_GRADE = rf"{_INT}(?:\s*,\s*{_INT})*"
_REF = rf"\(\s*{_GRADE}\s*:\s*{_INT}\s*\)"
_TERM = rf"{_NUM}\s*\*\s*{_REF}"
# Whitespace and comments between statements.  A comment runs to the end
# of its line, so a gap splits into them one way only; a comment allowed
# to stop early would let a line of n '#' split 2^(n-1) ways, each tried
# again on every failed match.
_GAP = r"(?:\s|\#[^\n]*(?![^\n]))*"
# A mult statement's body is taken up to its ';' and checked on its own
# (`_BODY_RE`), once per distinct body text.
_STATEMENT_RE = re.compile(
    rf"{_GAP}(?:"
    rf"mult\s*({_REF})\s*\*\s*({_REF})\s*=\s*([^;]*)"
    rf"|component\s+({_GRADE})\s+size\s+({_INT})"
    rf"|truncation\s+({_INT})"
    rf"|monoid\s+dim\s+({_INT})"
    r")\s*;")
# A body is terms or a lone 0; group 1 is None for the 0.
_BODY_RE = re.compile(rf"(?:(-?\s*{_TERM}(?:\s*[-+]\s*{_TERM})*)|0)\s*")
_TERM_RE = re.compile(rf"\s*([-+]?)\s*({_NUM})\s*\*\s*({_REF})")
_TAIL_RE = re.compile(rf"{_GAP}\Z")
_INT_RE = re.compile(_INT)


class _Rejected(Exception):
    """The statement scanner cannot accept the text; the cursor loop decides."""


def _scan_graded(text: str):
    """The fields of a graded file, read one statement per regex match.

    Returns ``(dim, truncation, components, structure)``, with truncation
    None when the file gives none.  Raises `_Rejected` on every text it does
    not accept: a statement its pattern does not match (a comment inside a
    statement, say), a grade of the wrong length, a statement before
    ``monoid dim``, a repeated statement or a zero denominator.  Within one
    call each basis ref is built once per matched ref string, each
    coefficient literal is read once, into the one coefficient form of
    `poly`, and each distinct mult body text is checked and read once:
    pairs written with the same body share one expansion list.
    """
    dim = truncation = None
    components: dict[tuple[int, ...], int] = {}
    structure: dict = {}

    def new_ref(ref: str):
        *entries, idx = map(int, ints(ref))  # the grade's entries, then the index
        if len(entries) != dim:
            raise _Rejected
        return (tuple(entries), idx)

    def new_coeff(literal: str) -> int | Fraction:
        try:
            return _coefficient(Fraction(literal))
        except ZeroDivisionError:
            raise _Rejected from None

    def new_body(body: str) -> list:
        m = _BODY_RE.fullmatch(body)
        if m is None:
            raise _Rejected
        if m.group(1) is None:  # the body is 0
            return []
        return [(refs[ref], coeffs[sign + num]) for sign, num, ref in terms_of(body)]

    refs, coeffs, bodies = _Memo(new_ref), _Memo(new_coeff), _Memo(new_body)

    match, terms_of, ints = _STATEMENT_RE.match, _TERM_RE.findall, _INT_RE.findall
    pos = 0
    while m := match(text, pos):
        pos = m.end()
        left, right, body, grade, size, trunc, dim_field = m.groups()
        if left is not None:
            if dim is None:
                raise _Rejected
            left, right = refs[left], refs[right]
            key = (left, right) if left <= right else (right, left)
            if key in structure:
                raise _Rejected
            structure[key] = bodies[body]
        elif grade is not None:
            entries = tuple(map(int, ints(grade)))
            if dim is None or len(entries) != dim or entries in components:
                raise _Rejected
            components[entries] = int(size)
        elif trunc is not None:
            if dim is None or truncation is not None:
                raise _Rejected
            truncation = int(trunc)
        else:
            if dim is not None:
                raise _Rejected
            dim = int(dim_field)
    if dim is None or not _TAIL_RE.match(text, pos):
        raise _Rejected
    return dim, truncation, components, structure


def _parse_grade(cur: _Cursor, dim: int) -> tuple[int, ...]:
    entries: list[int] = []
    while True:
        entries.append(cur.expect_int("grade entries must be non-negative integers"))
        if cur.at_sym(","):
            cur.next()
            continue
        break
    if len(entries) != dim:
        raise cur.error(f"grade has {len(entries)} entries, monoid dim is {dim}")
    return tuple(entries)


def _parse_basis_ref(cur: _Cursor, dim: int):
    cur.expect_sym("(")
    grade = _parse_grade(cur, dim)
    cur.expect_sym(":")
    idx = cur.expect_int("basis index must be an integer")
    cur.expect_sym(")")
    return (grade, idx)


def _signed_terms(cur: _Cursor, dim: int, bare: bool):
    """Yield ``(token index, coefficient, ref)`` for each signed term.

    terms := ['-'] [c '*'] ref (('+'|'-') [c '*'] ref)*
    Each term is yielded as soon as it is read, so a caller can reject it
    before the next one.  With ``bare``, a ref without a coefficient takes
    its sign as the coefficient; without, a missing coefficient is an error.
    """
    sign = 1
    if cur.at_sym("-"):
        cur.next()
        sign = -1
    while True:
        at = cur.i
        if cur.at_number():
            coeff = sign * cur.rational()
            cur.expect_sym("*")
        elif bare:
            coeff = Fraction(sign)
        else:
            raise cur.error("expected a coefficient")
        yield at, coeff, _parse_basis_ref(cur, dim)
        if cur.at_sym("+"):
            sign = 1
        elif cur.at_sym("-"):
            sign = -1
        else:
            return
        cur.next()


def parse_graded_algebra(text: str):
    """Parse the graded-algebra file format and validate the result.

    The statement scanner reads the text; where it cannot accept it, the
    cursor loop reads it again and reports the first error with its position.
    """
    from .graded import GradedAlgebra

    try:
        dim, truncation, components, structure = _scan_graded(text)
    except _Rejected:
        dim, truncation, components, structure = _parse_graded_cursor(text)
    if truncation is None:
        truncation = max((sum(g) for g in components), default=0)
    return GradedAlgebra(dim, components, structure, truncation)


def _parse_graded_cursor(text: str):
    """The token-level reference reader of the graded file grammar.

    Returns what `_scan_graded` returns, or raises a located ParseError.
    """
    cur = _Cursor(text)
    dim: int | None = None
    truncation: int | None = None
    components: dict[tuple[int, ...], int] = {}
    structure: dict = {}
    while cur.peek():
        at = cur.i
        head = cur.expect_ident()
        if head == "monoid":
            cur.expect_ident("dim")
            value = cur.expect_int("monoid dim must be an integer")
            cur.expect_sym(";")
            if dim is not None:
                raise cur.error("monoid dim listed twice", at)
            dim = value
            continue
        if dim is None:
            raise cur.error("the monoid dim statement must come first", at)
        if head == "truncation":
            value = cur.expect_int("truncation must be an integer")
            cur.expect_sym(";")
            if truncation is not None:
                raise cur.error("truncation listed twice", at)
            truncation = value
        elif head == "component":
            grade = _parse_grade(cur, dim)
            cur.expect_ident("size")
            size = cur.expect_int("component size must be an integer")
            cur.expect_sym(";")
            if grade in components:
                raise cur.error(f"component {_grade_str(grade)} listed twice", at)
            components[grade] = size
        elif head == "mult":
            left = _parse_basis_ref(cur, dim)
            cur.expect_sym("*")
            right = _parse_basis_ref(cur, dim)
            cur.expect_sym("=")
            if cur.peek() == "0" and cur.lookahead() == ";":
                cur.next()
                expansion = []
            else:
                expansion = [(ref, c) for _, c, ref in _signed_terms(cur, dim, False)]
            cur.expect_sym(";")
            key = (left, right) if left <= right else (right, left)
            if key in structure:
                raise cur.error(
                    f"mult {_basis_str(left)}*{_basis_str(right)} listed twice", at)
            structure[key] = expansion
        else:
            raise cur.error(f"unknown statement {head!r}", at)
    if dim is None:
        raise ParseError("input contains no monoid statement", 1, 1)
    return dim, truncation, components, structure


def parse_functional(text: str, dim: int):
    """Parse ``r11,r12,..;r21,..`` into a LexFunctional over a dim-entry monoid."""
    from .graded import LexFunctional

    rows: list[tuple[Fraction, ...]] = []
    start = 0  # offset of the current row in text
    for chunk in text.split(";"):
        if chunk.strip():
            row = []
            at = start
            for entry in chunk.split(","):
                row.append(_fraction_field(text, at, at + len(entry)))
                at += len(entry) + 1
            if len(row) != dim:
                raise TropvalError(f"functional row {chunk.strip()!r} has {len(row)} "
                                   f"entries, monoid dim is {dim}")
            rows.append(tuple(row))
        start += len(chunk) + 1
    if not rows:
        raise TropvalError("functional needs at least one row")
    return LexFunctional(tuple(rows))


def parse_tropical_value(text: str) -> TropicalValue:
    """Parse ``-inf`` or a rational in `Fraction`'s string syntax."""
    if text.strip() == "-inf":
        return BOTTOM
    return TropicalValue(_fraction_field(text, 0, len(text)))


def parse_graded_element(algebra, text: str):
    """Parse ``c*(g1,..,gk:i) + ...`` into an element mapping of the algebra.

    A term's coefficient may be left out: ``(1,0:0) - (0,1:0)``.  An unknown
    basis element is reported before the text after it is read.
    """
    cur = _Cursor(text)
    element: dict = {}
    for at, coeff, ref in _signed_terms(cur, algebra.monoid_dim, True):
        if ref[0] not in algebra.components or not (0 <= ref[1] < algebra.components[ref[0]]):
            raise cur.error(f"unknown basis element {_basis_str(ref)}", at)
        element[ref] = element.get(ref, Fraction(0)) + coeff
    cur.expect_eof()
    return {k: v for k, v in element.items() if v != 0}
