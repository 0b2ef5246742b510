"""Independent references for the monomial order and the division kernel.

The reference order compares `Fraction` weight dot products and then the
tie-break as nested tuples; the reference division picks the largest
pending term with ``max`` on every step.  Both are deliberately slow and
share no code with `tropval.groebner` beyond the data types, so they check
the integer keys and the heap-driven normal form term for term.
"""

import random
from fractions import Fraction

import pytest

from conftest import W, load
from tropval.groebner import (
    GREVLEX,
    LEX,
    MonomialOrder,
    buchberger,
    leading_term,
    normal_form,
    weight_refined_basis,
)
from tropval.poly import Polynomial, RingContext
from tropval.valuation import random_polynomial

FIXTURES_WITH_RELATIONS = ("line.ideal", "hyperbola.ideal", "cubic.ideal",
                           "cone.ideal", "plane.ideal", "tadic.ideal")


def ref_key(order: MonomialOrder, e):
    if order.tie_break == GREVLEX:
        tie = (sum(e), tuple(-x for x in reversed(e)))
    else:
        tie = tuple(e)
    if order.weights is None:
        return tie
    return (sum((w * x for w, x in zip(order.weights, e)), Fraction(0)), tie)


def ref_compare(order, e1, e2) -> int:
    k1, k2 = ref_key(order, e1), ref_key(order, e2)
    return (k1 > k2) - (k1 < k2)


def ref_normal_form(f: Polynomial, gens, order: MonomialOrder) -> Polynomial:
    """Multivariate division selecting the top pending term with ``max``."""
    def key(e):
        return ref_key(order, e)

    leads = []
    for g in gens:
        lm = max(g.terms, key=key)
        leads.append((lm, g.terms[lm]))
    work = dict(f.terms)
    remainder = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for g, (lm, lc) in zip(gens, leads):
            if all(a <= b for a, b in zip(lm, e)):
                shift = tuple(a - b for a, b in zip(e, lm))
                factor = c / lc
                for eg, cg in g.terms.items():
                    if eg == lm:
                        continue
                    target = tuple(a + b for a, b in zip(eg, shift))
                    s = work.get(target, Fraction(0)) - factor * cg
                    if s == 0:
                        work.pop(target, None)
                    else:
                        work[target] = s
                break
        else:
            remainder[e] = c
    return Polynomial(f.ring, remainder)


def random_order(rng: random.Random, dim: int) -> MonomialOrder:
    """Weighted (signed, mixed denominators) or plain, either tie-break."""
    tie_break = rng.choice((GREVLEX, LEX))
    if rng.random() < 0.2:
        return MonomialOrder(None, tie_break)
    weights = tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 9))
                    for _ in range(dim))
    return MonomialOrder(weights, tie_break)


def test_compare_and_leading_term_match_fraction_reference():
    rng = random.Random(31)
    for _ in range(150):
        dim = rng.randint(1, 4)
        order = random_order(rng, dim)
        for _ in range(20):
            e1 = tuple(rng.randint(0, 5) for _ in range(dim))
            e2 = e1 if rng.random() < 0.1 else tuple(rng.randint(0, 5) for _ in range(dim))
            expected = ref_compare(order, e1, e2)
            assert order.compare(e1, e2) == expected
            k1, k2 = order.sort_key(e1), order.sort_key(e2)
            assert all(isinstance(k, int) for k in k1)
            assert (k1 > k2) - (k1 < k2) == expected
        ring = RingContext(tuple(f"v{i}" for i in range(dim)))
        f = random_polynomial(rng, ring, 5, max_terms=6)
        top = max(f.terms, key=lambda e: ref_key(order, e))
        assert leading_term(f, order) == (top, f.terms[top])


def test_integer_weights_are_a_positive_rescaling():
    order = MonomialOrder.weighted(W("1/2", "-2/3", 0, 5))
    assert order.scale == 6
    assert order.int_weights == (3, -4, 0, 30)
    assert order.weights == (Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5))
    assert order == MonomialOrder.weighted(W("2/4", "-4/6", 0, 5))
    assert not order.is_global()


def _homogenize(f: Polynomial, ext: RingContext) -> Polynomial:
    d = f.total_degree()
    return Polynomial(ext, {e + (d - sum(e),): c for e, c in f.terms.items()})


@pytest.mark.parametrize("name", FIXTURES_WITH_RELATIONS)
def test_normal_form_matches_max_based_division(name):
    P = load(name)
    rng = random.Random(name)
    n = P.ring.dim
    gens = list(P.ideal_gens)
    nonneg = W(*(Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)))
    signed = W(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)))
    cases = [
        (buchberger(gens, MonomialOrder.grevlex()), None),
        (buchberger(gens, MonomialOrder.lex()), None),
        (buchberger(gens, MonomialOrder.weighted(nonneg, LEX)), None),
        weight_refined_basis(P, signed),
        weight_refined_basis(P, W(*([-1] * n))),
    ]
    for gb, ext in cases:
        for _ in range(25):
            f = random_polynomial(rng, P.ring, 4, max_terms=4)
            if ext is not None:
                f = _homogenize(f, ext)
            expected = ref_normal_form(f, gb.gens, gb.order)
            assert normal_form(f, gb).key() == expected.key()


def _from_sympy(expr, symbols, ring: RingContext) -> Polynomial:
    import sympy

    terms = sympy.Poly(expr, *symbols).terms()
    return Polynomial(ring, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


def _monic_key(f: Polynomial, order: MonomialOrder) -> tuple:
    top = max(f.terms, key=lambda e: ref_key(order, e))
    return f.scale(1 / f.terms[top]).key()


def test_reduced_bases_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for dim, max_gens in ((2, 3), (3, 2)):
        ring = RingContext(("x", "y", "z")[:dim])
        symbols = sympy.symbols(ring.variables)
        for _ in range(12):
            gens = [random_polynomial(rng, ring, 2, max_terms=3)
                    for _ in range(rng.randint(2, max_gens))]
            exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                         * sympy.prod(s ** k for s, k in zip(symbols, e))
                         for e, c in g.terms.items()) for g in gens]
            for order in (MonomialOrder.grevlex(), MonomialOrder.lex()):
                ours = {g.key() for g in buchberger(gens, order).gens}
                theirs = sympy.groebner(exprs, *symbols, order=order.tie_break)
                assert ours == {_monic_key(_from_sympy(e, symbols, ring), order)
                                for e in theirs.exprs}
