"""One stored form per coefficient, in every polynomial and table the library makes.

A coefficient is stored as an int when it is integral, otherwise as a
`Fraction` with denominator > 1 (`stored_coefficient`).  `==` and `hash`
cannot tell 3 from Fraction(3), so these tests read the types one by one.
Each input below is chosen to make an integral `Fraction` on the way: a
sum, a literal, a product, a scaling, a division by a lead coefficient.
The witnesses of the axiom and `implies` checks are checked in
`tests/test_valuation.py`.
"""

import random
from fractions import Fraction

import pytest

from conftest import FIXTURE_WEIGHTS, W, load, stored_coefficient
from tropval import cones
from tropval.graded import GradedAlgebra, LexFunctional, associated_graded, coarsen
from tropval.groebner import (
    GroebnerBasis,
    HomogenizedIdeal,
    MonomialOrder,
    _saturate,
    buchberger,
    initial_form,
    normal_form,
)
from tropval.poly import T_ADIC, CoeffValuation, Polynomial, RingContext, WeightVector
from tropval.sl2 import root_functional
from tropval.textio import graded_algebra_to_str, parse_graded_algebra, parse_poly
from tropval.trop import TropicalValue
from tropval.valuation import Scaled, make_weight_valuation, random_polynomial

XY = RingContext(("x", "y"))
F = Fraction


def _stored(p: Polynomial) -> bool:
    return all(stored_coefficient(c) for c in p.terms.values())


def _scaled_samples(rng: random.Random, ring: RingContext, n: int) -> list[Polynomial]:
    """Draws of `random_polynomial`, every other one times a rational."""
    out = []
    for i in range(n):
        f = random_polynomial(rng, ring, 4)
        if i % 2:
            f = f.scale(F(rng.randint(1, 6), rng.randint(1, 6)))
        out.append(f)
    return out


def test_parsers_and_arithmetic_store_integral_coefficients_as_ints():
    for text, terms in (("1/2*x + 1/2*x", {(1, 0): 1}),
                        ("2/2*x", {(1, 0): 1}),
                        ("(1/2*x)*(2*y)", {(1, 1): 1}),
                        ("(1/3*x + 1/3)^2 * 9 - 1/2*y", {(2, 0): 1, (1, 0): 2, (0, 0): 1,
                                                        (0, 1): F(-1, 2)})):
        p = parse_poly(XY, text)
        assert p.terms == terms and _stored(p), text
    half = parse_poly(XY, "1/2*x - 3/2")
    assert half.scale(2).terms == {(1, 0): 1, (0, 0): -3} and _stored(half.scale(2))
    assert _stored(half.scale(F(4, 2))) and _stored(half.scale(F(2, 3)))
    assert _stored(Polynomial(XY, {(1, 0): F(6, 3), (0, 1): F(1, 2)}))
    assert _stored(Polynomial.constant(XY, F(6, 3)))
    assert _stored(Polynomial.monomial(XY, (1, 1), F(-4, 2)))
    assert _stored(Polynomial.variable(XY, "y"))
    for name in FIXTURE_WEIGHTS:
        assert all(map(_stored, load(name).ideal_gens)), name
    rng = random.Random(3)
    samples = _scaled_samples(rng, XY, 120)
    integral = 0
    for f, g in zip(samples, samples[1:]):
        for p in (f + g, f - g, -f, f * g, f ** 2, f.scale(F(3, 2)),
                  f.substitute([g, f])):
            assert _stored(p), (f, g)
            integral += any(type(c) is int for c in p.terms.values())
    assert integral > 0


@pytest.mark.parametrize("name", sorted(FIXTURE_WEIGHTS) + ["tadic.ideal"])
def test_groebner_results_store_one_coefficient_form(name):
    P = load(name)
    H = HomogenizedIdeal(P)
    assert all(map(_stored, H.saturated))  # `_saturate` at the homogenizing variable
    weights = FIXTURE_WEIGHTS.get(name, [W(0, 0), W(1, 1), W(-1, 2)])
    for w in weights:
        gens, _ = H.initial(w)
        assert all(map(_stored, H.refined_basis(w).gens))
        assert all(map(_stored, gens))
        assert all(_stored(initial_form(g, w)) for g in P.ideal_gens)
    gb = buchberger(list(P.ideal_gens), MonomialOrder.grevlex())
    assert all(map(_stored, gb.gens))
    for i in range(P.ring.dim):  # and at each other variable
        assert all(map(_stored, _saturate(H.saturated, i)))
    for f in _scaled_samples(random.Random(name), P.ring, 40):
        assert _stored(normal_form(f, gb))


def test_division_by_a_lead_coefficient_stores_ints():
    # the lead coefficient 2 is divided out: 4/2 and 6/2 are ints
    gb = buchberger([parse_poly(XY, "2*x + 4*y"), parse_poly(XY, "2*y^2 - 6")],
                    MonomialOrder.grevlex())
    assert [g.terms for g in gb.gens] == [{(0, 2): 1, (0, 0): -3}, {(1, 0): 1, (0, 1): 2}]
    assert all(map(_stored, gb.gens))
    single = buchberger([parse_poly(XY, "2*x + 4*y")], MonomialOrder.grevlex())
    assert single.gens[0].terms == {(1, 0): 1, (0, 1): 2} and _stored(single.gens[0])
    # a basis built as given keeps its lead coefficient 2: x = (2*x - 4)/2 + 2
    direct = GroebnerBasis((parse_poly(XY, "2*x - 4"),), MonomialOrder.grevlex())
    r = normal_form(parse_poly(XY, "x + 1/2*y"), direct)
    assert r.terms == {(0, 1): F(1, 2), (0, 0): 2} and _stored(r)
    # a rational term whose remainder is integral: 1/2*x^2 = 1/2*(x^2 - 2) + 1
    gb = buchberger([parse_poly(XY, "x^2 - 2")], MonomialOrder.grevlex())
    r = normal_form(parse_poly(XY, "1/2*x^2"), gb)
    assert r.terms == {(0, 0): 1} and _stored(r)


def _tables_of(A: GradedAlgebra, h: LexFunctional) -> list[GradedAlgebra]:
    parsed = parse_graded_algebra(graded_algebra_to_str(A))
    total_degree = (tuple(1 for _ in range(A.monoid_dim)),)
    return [T for source in (A, parsed)
            for T in (source, associated_graded(source, h), coarsen(source, total_degree))]


def _stored_table(A: GradedAlgebra) -> bool:
    return all(stored_coefficient(c) for expansion in A.structure.values()
               for _, c in expansion)


def test_graded_tables_store_one_coefficient_form():
    # The built-in tables and their parsed, gr and coarsened forms are
    # checked in `tests/test_graded.py`.  Here integral Fractions are
    # written as literals, summed by like terms, or handed to the
    # constructor; the comment inside a statement sends the second file to
    # the cursor loop instead of the statement scanner.
    head = ("monoid dim 1; truncation 2;\n"
            "component 0 size 1; component 1 size 1; component 2 size 1;\n"
            "mult (0:0)*(0:0) = 2/2*(0:0); mult (0:0)*(1:0) = 1*(1:0);\n"
            "mult (0:0)*(2:0) = 1*(2:0);\n")
    for body in ("mult (1:0)*(1:0) = 1/2*(2:0) + 1/2*(2:0);\n",
                 "mult (1:0)*(1:0) # a comment\n = 1/2*(2:0) + 1/2*(2:0);\n"):
        A = parse_graded_algebra(head + body)
        assert A.basis_product(((1,), 0), ((1,), 0)) == ((((2,), 0), 1),)
        assert all(map(_stored_table, _tables_of(A, LexFunctional.single((F(1),)))))
    A = GradedAlgebra(1, {(0,): 1, (1,): 1},
                      {(((0,), 0), ((0,), 0)): ((((0,), 0), F(4, 4)),),
                       (((0,), 0), ((1,), 0)): ((((1,), 0), F(3, 2)), (((1,), 0), F(-1, 2)))},
                      1)
    assert A.basis_product(((0,), 0), ((1,), 0)) == ((((1,), 0), 1),)
    assert _stored_table(A)


@pytest.mark.parametrize("make", [
    lambda c: Polynomial(XY, {(1, 0): c}),
    lambda c: Polynomial.constant(XY, c),
    lambda c: Polynomial.monomial(XY, (0, 1), c),
    lambda c: parse_poly(XY, "x + y").scale(c),
    lambda c: GradedAlgebra(1, {(0,): 1}, {(((0,), 0), ((0,), 0)): ((((0,), 0), c),)}, 0),
], ids=["init", "constant", "monomial", "scale", "graded-table"])
def test_float_coefficients_are_rejected(make):
    with pytest.raises(TypeError, match=r"coefficient 0\.1 is not an int or a Fraction"):
        make(0.1)


def _line_valuation():
    return make_weight_valuation(load("line.ideal"), WeightVector((1, 1)))


def _scaled(x):
    v = Scaled(_line_valuation(), x)
    assert type(v.factor) is F
    return v.factor, v._numerator, v.scale


# Each entry point that turns a caller's number into a `Fraction`, returning
# what it made of the number x.
@pytest.mark.parametrize("make", [
    lambda x: WeightVector((x, 1)).weights[0],
    lambda x: WeightVector((1, 2)).scale(x).weights,
    lambda x: CoeffValuation(T_ADIC, 0, x).t_weight,
    lambda x: LexFunctional(((x,),)).rows,
    lambda x: TropicalValue(x).value,
    lambda x: cones.scale(_line_valuation(), x).weights,
    _scaled,
    lambda x: root_functional((x, 0, 0, 0, 0))[0].rows,
], ids=["weight-vector", "weight-scale", "t-weight", "lex-functional",
        "tropical-value", "cones-scale", "scaled-valuation", "root-functional"])
def test_float_numbers_are_rejected(make):
    # 0.1 would be read as 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match=r"0\.1 is a float"):
        make(0.1)
    assert make("1/10") == make(F(1, 10)) != make(1)
