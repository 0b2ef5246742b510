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
order, and ``= 0;`` records a vanishing product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .poly import (
    CoeffValuation,
    Polynomial,
    Presentation,
    RingContext,
    TRIVIAL_COEFFS,
    WeightVector,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DuplicateVariableError(ParseError):
    pass


class UnknownVariableError(ParseError):
    pass


_TOKEN_RE = re.compile(
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
class Token:
    kind: str  # number | ident | sym | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            raise ParseError(f"expected {sym!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def expect_int(self, message: str) -> int:
        """Consume a non-negative integer literal, else fail with message."""
        tok = self.peek()
        if tok.kind != "number" or "/" in tok.text:
            raise ParseError(message, tok.line, tok.col)
        self.next()
        return int(tok.text)

    def expect_ident(self, word: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or (word is not None and tok.text != word):
            want = word or "identifier"
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == sym

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)


# -- polynomial expressions --------------------------------------------------


def _parse_expr(cur: _Cursor, ring: RingContext) -> Polynomial:
    # expr := ['-'] term (('+'|'-') term)*
    negate = False
    if cur.at_sym("-"):
        cur.next()
        negate = True
    acc = _parse_term(cur, ring)
    if negate:
        acc = -acc
    while cur.at_sym("+") or cur.at_sym("-"):
        op = cur.next().text
        term = _parse_term(cur, ring)
        acc = acc + (-term if op == "-" else term)
    return acc


def _parse_term(cur: _Cursor, ring: RingContext) -> Polynomial:
    # term := factor ('*' factor)*
    acc = _parse_factor(cur, ring)
    while cur.at_sym("*"):
        cur.next()
        acc = acc * _parse_factor(cur, ring)
    return acc


def _parse_factor(cur: _Cursor, ring: RingContext) -> Polynomial:
    # factor := atom ('^' integer)?
    base = _parse_atom(cur, ring)
    if cur.at_sym("^"):
        cur.next()
        base = base ** cur.expect_int("exponent must be a non-negative integer")
    return base


def _parse_atom(cur: _Cursor, ring: RingContext) -> Polynomial:
    tok = cur.peek()
    if tok.kind == "number":
        cur.next()
        return Polynomial.constant(ring, Fraction(tok.text))
    if tok.kind == "ident":
        if tok.text not in ring.variables:
            raise UnknownVariableError(f"unknown variable {tok.text!r}", tok.line, tok.col)
        cur.next()
        return Polynomial.variable(ring, tok.text)
    if tok.kind == "sym" and tok.text == "(":
        cur.next()
        inner = _parse_expr(cur, ring)
        cur.expect_sym(")")
        return inner
    raise ParseError(f"expected a polynomial atom, found {tok.text or 'end of input'!r}",
                     tok.line, tok.col)


def parse_poly(ring: RingContext, text: str) -> Polynomial:
    """Parse a polynomial expression over a known ring."""
    cur = _Cursor(tokenize(text))
    p = _parse_expr(cur, ring)
    cur.expect_eof()
    return p


def parse_ring(text: str) -> RingContext:
    """Parse a full ``ring x y z ;`` statement."""
    cur = _Cursor(tokenize(text))
    ring = _parse_ring_statement(cur)
    cur.expect_eof()
    return ring


def _parse_ring_statement(cur: _Cursor) -> RingContext:
    cur.expect_ident("ring")
    names: list[str] = []
    while cur.peek().kind == "ident":
        tok = cur.next()
        if tok.text in names:
            raise DuplicateVariableError(f"duplicate variable {tok.text!r}",
                                         tok.line, tok.col)
        names.append(tok.text)
    if not names:
        tok = cur.peek()
        raise ParseError("ring statement needs at least one variable", tok.line, tok.col)
    cur.expect_sym(";")
    return RingContext(tuple(names))


def _parse_signed_rational(cur: _Cursor) -> Fraction:
    sign = 1
    if cur.at_sym("-"):
        cur.next()
        sign = -1
    elif cur.at_sym("+"):
        cur.next()
    tok = cur.peek()
    if tok.kind != "number":
        raise ParseError(f"expected a rational number, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)
    cur.next()
    return sign * Fraction(tok.text)


def parse_weights(text: str) -> WeightVector:
    """Parse a bare whitespace-separated list of rationals."""
    cur = _Cursor(tokenize(text))
    ws: list[Fraction] = []
    while cur.peek().kind != "eof":
        ws.append(_parse_signed_rational(cur))
    if not ws:
        raise ParseError("empty weight vector", 1, 1)
    return WeightVector(tuple(ws))


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
    cur = _Cursor(tokenize(text))
    ring: RingContext | None = None
    gens: list[Polynomial] = []
    weights: list[WeightVector] = []
    coeffs = TRIVIAL_COEFFS
    while cur.peek().kind != "eof":
        tok = cur.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected a statement keyword, found {tok.text!r}",
                             tok.line, tok.col)
        if tok.text == "ring":
            ring = _parse_ring_statement(cur)
            continue
        if ring is None:
            raise ParseError("a ring statement must come first", tok.line, tok.col)
        if tok.text == "ideal":
            cur.next()
            while True:
                gens.append(_parse_expr(cur, ring))
                if cur.at_sym(","):
                    cur.next()
                    continue
                break
            cur.expect_sym(";")
        elif tok.text == "weight":
            cur.next()
            ws: list[Fraction] = []
            while not cur.at_sym(";"):
                ws.append(_parse_signed_rational(cur))
            cur.expect_sym(";")
            if len(ws) != ring.dim:
                raise ParseError(
                    f"weight vector has {len(ws)} entries, ring has {ring.dim}",
                    tok.line, tok.col)
            weights.append(WeightVector(tuple(ws)))
        elif tok.text == "coeffval":
            cur.next()
            head = cur.expect_ident()
            if head.text == "trivial":
                coeffs = TRIVIAL_COEFFS
            elif head.text == "tadic":
                var = cur.expect_ident()
                if var.text not in ring.variables:
                    raise UnknownVariableError(f"unknown variable {var.text!r}",
                                               var.line, var.col)
                weight = _parse_signed_rational(cur)
                coeffs = CoeffValuation("tadic", ring.index(var.text), weight)
            else:
                raise ParseError(f"unknown coefficient valuation {head.text!r}",
                                 head.line, head.col)
            cur.expect_sym(";")
        else:
            raise ParseError(f"unknown statement {tok.text!r}", tok.line, tok.col)
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


def poly_to_str(p: Polynomial) -> str:
    """Deterministic printer: descending graded-lex term order."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for i, (exps, coeff) in enumerate(p.sorted_terms()):
        mono = _monomial_str(p.ring, exps)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def presentation_to_str(parsed: ParsedInput | Presentation) -> str:
    """Render a presentation (plus any weight lines) in the input grammar."""
    if isinstance(parsed, Presentation):
        parsed = ParsedInput(parsed.ring, parsed.ideal_gens, (), parsed.coeff_valuation)
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
    """Render a GradedAlgebra in the graded-algebra file format."""
    lines = [f"monoid dim {algebra.monoid_dim};", f"truncation {algebra.truncation};"]
    for grade in sorted(algebra.components):
        lines.append(f"component {_grade_str(grade)} size {algebra.components[grade]};")
    for pair in sorted(algebra.structure):
        left, right = pair
        if right < left:
            continue  # symmetric partner printed once
        expansion = algebra.structure[pair]
        lhs = f"mult {_basis_str(left)}*{_basis_str(right)} ="
        if not expansion:
            lines.append(f"{lhs} 0;")
            continue
        body = []
        for j, (target, coeff) in enumerate(sorted(expansion)):
            mag = abs(coeff)
            text = f"{mag}*{_basis_str(target)}"
            if j == 0:
                body.append(text if coeff > 0 else f"-{text}")
            else:
                body.append(f"+ {text}" if coeff > 0 else f"- {text}")
        lines.append(f"{lhs} " + " ".join(body) + ";")
    return "\n".join(lines) + "\n"


def _parse_grade(cur: _Cursor, dim: int) -> tuple[int, ...]:
    entries: list[int] = []
    while True:
        entries.append(cur.expect_int("grade entries must be non-negative integers"))
        if cur.at_sym(","):
            cur.next()
            continue
        break
    if len(entries) != dim:
        tok = cur.peek()
        raise ParseError(f"grade has {len(entries)} entries, monoid dim is {dim}",
                         tok.line, tok.col)
    return tuple(entries)


def _parse_basis_ref(cur: _Cursor, dim: int):
    cur.expect_sym("(")
    grade = _parse_grade(cur, dim)
    cur.expect_sym(":")
    idx = cur.expect_int("basis index must be an integer")
    cur.expect_sym(")")
    return (grade, idx)


def parse_graded_algebra(text: str):
    """Parse the graded-algebra file format and validate the result."""
    from .graded import GradedAlgebra

    cur = _Cursor(tokenize(text))
    dim: int | None = None
    truncation: int | None = None
    components: dict[tuple[int, ...], int] = {}
    structure: dict = {}
    while cur.peek().kind != "eof":
        head = cur.expect_ident()
        if head.text == "monoid":
            cur.expect_ident("dim")
            dim = cur.expect_int("monoid dim must be an integer")
            cur.expect_sym(";")
            continue
        if dim is None:
            raise ParseError("the monoid dim statement must come first",
                             head.line, head.col)
        if head.text == "truncation":
            truncation = cur.expect_int("truncation must be an integer")
            cur.expect_sym(";")
        elif head.text == "component":
            grade = _parse_grade(cur, dim)
            cur.expect_ident("size")
            size = cur.expect_int("component size must be an integer")
            cur.expect_sym(";")
            if grade in components:
                raise ParseError(f"component {_grade_str(grade)} listed twice",
                                 head.line, head.col)
            components[grade] = size
        elif head.text == "mult":
            left = _parse_basis_ref(cur, dim)
            cur.expect_sym("*")
            right = _parse_basis_ref(cur, dim)
            cur.expect_sym("=")
            expansion: list = []
            if cur.peek().kind == "number" and cur.peek().text == "0" and \
                    cur.tokens[cur.i + 1].kind == "sym" and cur.tokens[cur.i + 1].text == ";":
                cur.next()
            else:
                sign = Fraction(1)
                if cur.at_sym("-"):
                    cur.next()
                    sign = Fraction(-1)
                while True:
                    tok = cur.peek()
                    if tok.kind != "number":
                        raise ParseError("expected a coefficient", tok.line, tok.col)
                    cur.next()
                    coeff = sign * Fraction(tok.text)
                    cur.expect_sym("*")
                    target = _parse_basis_ref(cur, dim)
                    expansion.append((target, coeff))
                    if cur.at_sym("+"):
                        cur.next()
                        sign = Fraction(1)
                        continue
                    if cur.at_sym("-"):
                        cur.next()
                        sign = Fraction(-1)
                        continue
                    break
            cur.expect_sym(";")
            key = (left, right) if left <= right else (right, left)
            structure[key] = tuple(sorted(expansion))
        else:
            raise ParseError(f"unknown statement {head.text!r}", head.line, head.col)
    if dim is None:
        raise ParseError("input contains no monoid statement", 1, 1)
    if truncation is None:
        truncation = max((sum(g) for g in components), default=0)
    return GradedAlgebra(dim, components, structure, truncation)


def parse_functional(text: str, dim: int):
    """Parse ``r11,r12,..;r21,..`` into a LexFunctional over a dim-entry monoid."""
    from .graded import LexFunctional

    rows: list[tuple[Fraction, ...]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        row = tuple(Fraction(entry.strip()) for entry in chunk.split(","))
        if len(row) != dim:
            raise ValueError(f"functional row {chunk!r} has {len(row)} entries, "
                             f"monoid dim is {dim}")
        rows.append(row)
    if not rows:
        raise ValueError("functional needs at least one row")
    return LexFunctional(tuple(rows))


def parse_graded_element(algebra, text: str):
    """Parse ``c*(g1,..,gk:i) + ...`` into an element mapping of the algebra."""
    cur = _Cursor(tokenize(text))
    element: dict = {}
    sign = Fraction(1)
    if cur.at_sym("-"):
        cur.next()
        sign = Fraction(-1)
    while True:
        tok = cur.peek()
        if tok.kind == "number":
            cur.next()
            coeff = sign * Fraction(tok.text)
            cur.expect_sym("*")
        else:
            coeff = sign
        ref = _parse_basis_ref(cur, algebra.monoid_dim)
        if ref[0] not in algebra.components or not (0 <= ref[1] < algebra.components[ref[0]]):
            raise ParseError(f"unknown basis element {_basis_str(ref)}", tok.line, tok.col)
        element[ref] = element.get(ref, Fraction(0)) + coeff
        if cur.at_sym("+"):
            cur.next()
            sign = Fraction(1)
            continue
        if cur.at_sym("-"):
            cur.next()
            sign = Fraction(-1)
            continue
        break
    cur.expect_eof()
    return {k: v for k, v in element.items() if v != 0}
