"""Desk-scale SL2 instances feeding the graded-algebra checkers.

Two builders are provided, both read off one polynomial-quotient
description (grade rows, relation basis, truncation) by
`graded._monomial_algebra`.  The representation ring of SL2 is Q[y, x]
graded by degree, with the degree-n component the (n+1)-dimensional space
of binary forms.  The triple-tensor branching algebra is realized
concretely as the unipotent-invariant algebra of three planar vectors: six
generators x1, x2, x3, z12, z13, z23 subject to the single straightening
relation

    x1*z23 - x2*z13 + x3*z12 = 0,

rewritten with x2*z13 as the leading monomial.  Grades are five-tuples,
`GRADE_ROWS` times the exponent vector,

    (a, b, c, eta, d)

where a, b, c are the three outer weights read off the generator degrees
(z_ij counts toward factors i and j), eta = a + b - 2*deg(z12) is the
intermediate weight of the first two factors, and d is the total weight of
the x-part.  Each admissible grade carries exactly one standard monomial,
so all graded components are at most one-dimensional.  Multiplication is
exact in a, b, c, d and spreads downward in eta in steps of two; lowering
eta while fixing the other coordinates is the positive-root direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import TropvalError
from .graded import GradedAlgebra, Grade, LexFunctional, _monomial_algebra, _times
from .groebner import GroebnerBasis, MonomialOrder, buchberger
from .poly import Polynomial, RingContext, WeightVector, _rational

# Positive-root direction: eta drops by 2, outer weights fixed.
ROOT_DIRECTION = (0, 0, 0, -2, 0)

AMBIENT_RING = RingContext(("x1", "x2", "x3", "z12", "z13", "z23"))
# Grade (a, b, c, eta, d) of a monomial: these rows times its exponents in
# AMBIENT_RING's variable order.
GRADE_ROWS = (
    (1, 0, 0, 1, 1, 0),  # a = p1 + q12 + q13
    (0, 1, 0, 1, 0, 1),  # b = p2 + q12 + q23
    (0, 0, 1, 0, 1, 1),  # c = p3 + q13 + q23
    (1, 1, 0, 0, 1, 1),  # eta = a + b - 2*q12
    (1, 1, 1, 0, 0, 0),  # d = p1 + p2 + p3
)


def sl2_rep_ring(truncation: int) -> GradedAlgebra:
    """Representation ring of SL2 up to the given highest weight.

    This is Q[y, x] graded by degree: basis element (n, i) is the binary
    form x^(n-i) y^i, so products add both the weight and the index and
    every structure entry is a single term.
    """
    if truncation < 1:
        raise TropvalError("truncation must be at least 1")
    return _monomial_algebra(((1, 1),), truncation)


def straightening_basis() -> GroebnerBasis:
    """The single relation, monic with leading monomial x2*z13."""
    relation = (
        Polynomial.variable(AMBIENT_RING, "x1") * Polynomial.variable(AMBIENT_RING, "z23")
        - Polynomial.variable(AMBIENT_RING, "x2") * Polynomial.variable(AMBIENT_RING, "z13")
        + Polynomial.variable(AMBIENT_RING, "x3") * Polynomial.variable(AMBIENT_RING, "z12")
    )
    weights = WeightVector(tuple(
        Fraction(1 if name in ("x2", "z13") else 0) for name in AMBIENT_RING.variables
    ))
    return buchberger([relation], MonomialOrder.weighted(weights))


def grade_of_exponents(e: tuple[int, ...]) -> Grade:
    """Grade (a, b, c, eta, d) of the monomial with exponents e."""
    return _times(GRADE_ROWS, e)


def sl2_branching_algebra(truncation: int) -> GradedAlgebra:
    """Triple-tensor branching algebra on standard monomials of degree <= N."""
    if truncation < 2:
        raise TropvalError("truncation must be at least 2")
    A = _monomial_algebra(GRADE_ROWS, truncation, straightening_basis())
    if any(size != 1 for size in A.components.values()):
        raise AssertionError("two standard monomials share a grade")
    return A


# -- character-theoretic oracle -------------------------------------------------


def sl2_character(n: int) -> dict[int, int]:
    """Character of the (n+1)-dimensional irreducible, as a Laurent dict."""
    return {k: 1 for k in range(-n, n + 1, 2)}


def character_mul(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, ca in f.items():
        for b, cb in g.items():
            out[a + b] = out.get(a + b, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def multiplicity_in_character(char: dict[int, int], n: int) -> int:
    """Multiplicity of the weight-n irreducible in a character."""
    return char.get(n, 0) - char.get(n + 2, 0)


def clebsch_gordan_multiplicity(p: int, q: int, r: int) -> int:
    """Multiplicity of V(r) in V(p) (x) V(q), by coefficient extraction."""
    return multiplicity_in_character(character_mul(sl2_character(p), sl2_character(q)), r)


def branching_dimension_report(A: GradedAlgebra) -> list:
    """Mismatches between built component sizes and the character prediction.

    The predicted dimension of grade (a, b, c, eta, d) is the product of the
    two tensor-product multiplicities, computed entirely from characters.
    An empty list means every grade within the truncation agrees.
    """
    mismatches = []
    n = A.truncation
    predicted: dict[Grade, int] = {}
    for a in range(2 * n + 1):
        for b in range(2 * n + 1 - a):
            for c in range(2 * n + 1 - a - b):
                for eta in range(a + b + 1):
                    for d in range(2 * n + 1 - a - b - c):
                        if (a + b + c + d) % 2 or (a + b + c + d) // 2 > n:
                            continue
                        dim = (clebsch_gordan_multiplicity(a, b, eta)
                               * clebsch_gordan_multiplicity(eta, c, d))
                        if dim:
                            predicted[(a, b, c, eta, d)] = dim
    for grade, size in sorted(predicted.items()):
        if A.components.get(grade, 0) != size:
            mismatches.append((grade, A.components.get(grade, 0), size))
    for grade, size in A.components.items():
        if grade not in predicted:
            mismatches.append((grade, size, 0))
    return mismatches


# -- functionals ----------------------------------------------------------------


@dataclass(frozen=True)
class RootDirectionReport:
    """Sign behavior of a functional along the positive-root direction."""

    nonnegative: bool
    strict: bool
    change: tuple[Fraction, ...]  # lex value change when eta drops by 2


def root_direction_report(h: LexFunctional) -> RootDirectionReport:
    change = tuple(
        sum((r * x for r, x in zip(row, ROOT_DIRECTION)), Fraction(0))
        for row in h.rows
    )
    zero = tuple(Fraction(0) for _ in change)
    return RootDirectionReport(change <= zero, change < zero, change)


def root_functional(coeffs) -> tuple[LexFunctional, RootDirectionReport]:
    """Single-row functional on (a, b, c, eta, d) grades plus its root report."""
    row = tuple(map(_rational, coeffs))
    if len(row) != 5:
        raise ValueError("expected coefficients for the five grade coordinates")
    h = LexFunctional((row,))
    return h, root_direction_report(h)


def collapse_functional(h: LexFunctional, stage_index: int) -> tuple[LexFunctional, RootDirectionReport]:
    """Zero one row of the functional and re-report the root direction."""
    if not (0 <= stage_index < len(h.rows)):
        raise IndexError(f"no functional row at index {stage_index}")
    rows = list(h.rows)
    rows[stage_index] = tuple(Fraction(0) for _ in rows[stage_index])
    collapsed = LexFunctional(tuple(rows))
    return collapsed, root_direction_report(collapsed)


def strict_branching_functional() -> LexFunctional:
    """Strict on the root direction and totally ordering the grades."""
    return LexFunctional((
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    ))
