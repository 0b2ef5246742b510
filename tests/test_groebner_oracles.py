"""Independent references for the monomial order and the division kernel.

The reference order compares `Fraction` weight dot products and then the
tie-break as nested tuples; the reference division picks the largest
pending term with ``max`` on every step.  Both are deliberately slow and
share no code with `tropval.groebner` beyond the data types, so they check
the integer keys and the heap-driven normal form term for term.  The
top-reduction references read the leading term off the full remainder, so
they check that stopping at the first irreducible term loses nothing.  The
reference fan classifier computes every weight's initial ideal on its own,
so it checks that the Groebner-cone cover only skips work.  The lifted
saturation of `oracle_lifted` checks Bayer's saturation and monomial
containment.
"""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

from conftest import FIXTURES, W, load
from cli_corpus import run_case
from oracle_lifted import lifted_contains_monomial, lifted_saturation
from oracle_macaulay import macaulay_member
from tropval.cones import facet_classes
from tropval.groebner import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    HomogenizedIdeal,
    MonomialOrder,
    buchberger,
    contains_monomial,
    enumerate_fan,
    initial_ideal,
    integer_weights,
    leading_normal_exponent,
    leading_term,
    normal_form,
)
from tropval.groebner import _divisor, _remainder_terms, _rewrite, _saturate
from tropval.poly import Polynomial, Presentation, RingContext, WeightVector
from tropval.textio import parse_poly, parse_presentation
from tropval.trop import BOTTOM, TropicalValue
from tropval.valuation import make_weight_valuation, random_polynomial

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
    H = HomogenizedIdeal(P)
    cases = [
        (buchberger(gens, MonomialOrder.grevlex()), None),
        (buchberger(gens, MonomialOrder.lex()), None),
        (buchberger(gens, MonomialOrder.weighted(nonneg, LEX)), None),
        (H.refined_basis(signed), H.ext),
        (H.refined_basis(W(*([-1] * n))), H.ext),
    ]
    for gb, ext in cases:
        for _ in range(25):
            f = random_polynomial(rng, P.ring, 4, max_terms=4)
            if ext is not None:
                f = _homogenize(f, ext)
            expected = ref_normal_form(f, gb.gens, gb.order)
            assert normal_form(f, gb).key() == expected.key()


# -- top-reduction ------------------------------------------------------------------

# Every fixture presentation with weights on and off its tropical variety,
# negative and rational entries included.
TOP_REDUCTION_WEIGHTS = {
    "line.ideal": [(1, 1), (0, 0), (0, -1), (-1, 0), ("7/3", "7/3"), (1, 0), (0, 2)],
    "hyperbola.ideal": [(1, -1), ("-5/2", "5/2"), (0, 0), (1, 0), (2, 1)],
    "cubic.ideal": [(1, 2, 3), (-1, -2, -3), ("1/2", 1, "3/2"), (1, 0, 0), (0, -1, 2)],
    "cone.ideal": [(0, 0, 0), (2, 1, 0), (1, 0, -1), (-1, -1, -1), (1, 0, 0), (0, 1, 0)],
    "plane.ideal": [(1, 1, 0), (2, 2, -1), (-1, 3, 3), (1, 0, 0), (0, "-1/2", 1)],
    "tadic.ideal": [(0, 1), (5, -1), (0, 0), (3, 2)],
    "free_xy.ideal": [(2, 1), (-1, 3), (0, 0)],
    "free_t.ideal": [(2,), ("-1/2",)],
}


def _samples(rng: random.Random, P: Presentation) -> list[Polynomial]:
    """Seeded elements: random ones, products, and multiples of the relations."""
    out = []
    for _ in range(30):
        a = random_polynomial(rng, P.ring, 3, max_terms=4)
        out.append(a)
        out.append(a * random_polynomial(rng, P.ring, 2))
    for g in P.ideal_gens:
        out.append(g * random_polynomial(rng, P.ring, 2))
    return out


def _ref_leading_normal_exponent(f: Polynomial, gb):
    r = normal_form(f, gb)
    return None if r.is_zero else leading_term(r, gb.order)[0]


def _ref_value(v, f: Polynomial) -> TropicalValue:
    """The top weight over every term of the full remainder, in Fractions."""
    reduced = normal_form(_homogenize(f, v.homogenized.ext), v.basis)
    if reduced.is_zero:
        return BOTTOM
    weights = v.basis.order.weights
    return TropicalValue(max(sum((w * x for w, x in zip(weights, e)), Fraction(0))
                             for e in reduced.terms))


@pytest.mark.parametrize("name", sorted(TOP_REDUCTION_WEIGHTS))
def test_top_reduction_matches_the_full_remainder(name):
    P = load(name)
    rng = random.Random(f"top-reduction/{name}")
    bottoms = 0
    for w in TOP_REDUCTION_WEIGHTS[name]:
        H = HomogenizedIdeal(P)
        gb, ext = H.refined_basis(W(*w)), H.ext
        v = make_weight_valuation(P, W(*w))
        for f in _samples(rng, P):
            h = _homogenize(f, ext)
            assert leading_normal_exponent(h, gb) == _ref_leading_normal_exponent(h, gb)
            value = v.evaluate(f)
            assert value == _ref_value(v, f)
            bottoms += value.is_bottom
    assert (bottoms > 0) == bool(P.ideal_gens)


# Bases built directly, not by Buchberger: leading coefficients other than 1
# and rational tails.  Division by any list is defined, reduced or not.
DIRECT_BASES = [
    (("2*x^2 + 1/3*y", "-3/2*x*y^2 + x - 5"), MonomialOrder.grevlex()),
    (("2*x^2 + 1/3*y", "-3/2*x*y^2 + x - 5"), MonomialOrder.lex()),
    (("3*x*y - 1/2", "5/4*y^3 + 2*x"), MonomialOrder((Fraction(1, 2), Fraction(2)), LEX)),
    # homogeneous, so a negative weight is allowed
    (("2*x^2 - 3/5*x*y", "-7/2*y^3 + x*y^2"), MonomialOrder((Fraction(-1), Fraction(1, 3)))),
    (("x^2 + 1/2*y", "x*y^2 - 2/3*x"), MonomialOrder.grevlex()),  # monic
]
XY = RingContext(("x", "y"))


def _direct_samples(rng: random.Random, homogeneous: bool) -> list[Polynomial]:
    out = []
    while len(out) < 60:
        f = random_polynomial(rng, XY, 5, max_terms=6)
        if len(out) % 2:  # non-integral coefficients too
            f = f.scale(Fraction(rng.randint(1, 9), rng.randint(2, 7)))
        if not homogeneous or f.is_homogeneous():
            out.append(f)
    return out


@pytest.mark.parametrize("gens,order", DIRECT_BASES, ids=range(len(DIRECT_BASES)))
def test_top_reduction_against_bases_built_directly(gens, order):
    gb = GroebnerBasis(tuple(parse_poly(XY, g) for g in gens), order)
    rng = random.Random(f"direct/{gens}")
    samples = _direct_samples(rng, not order.is_global())
    samples += [g * s for g, s in zip(gb.gens, samples)]  # some reduce to zero
    zeros = 0
    for f in samples:
        assert leading_normal_exponent(f, gb) == _ref_leading_normal_exponent(f, gb)
        zeros += normal_form(f, gb).is_zero
    assert zeros > 0


@pytest.mark.parametrize("gens,order", DIRECT_BASES, ids=range(len(DIRECT_BASES)))
def test_normal_form_coefficients_are_fractions(gens, order):
    """Reduction runs on ints where it can; none may leak into a Polynomial."""
    gb = GroebnerBasis(tuple(parse_poly(XY, g) for g in gens), order)
    rng = random.Random(f"types/{gens}")
    integral = non_integral = 0
    for f in _direct_samples(rng, not order.is_global()):
        r = normal_form(f, gb)
        assert r.key() == ref_normal_form(f, gb.gens, gb.order).key()
        assert all(type(c) is Fraction for c in r.terms.values())
        integral += any(c.denominator == 1 for c in r.terms.values())
        non_integral += any(c.denominator != 1 for c in r.terms.values())
    assert integral > 0 and non_integral > 0


def _from_sympy(expr, symbols, ring: RingContext) -> Polynomial:
    import sympy

    terms = sympy.Poly(expr, *symbols).terms()
    return Polynomial(ring, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


def _monic_key(f: Polynomial, order: MonomialOrder) -> tuple:
    top = max(f.terms, key=lambda e: ref_key(order, e))
    return f.scale(1 / f.terms[top]).key()


def test_reduced_bases_match_sympy():
    """96 bases; in 27 of them the minimal basis is not yet reduced, so
    interreduction has tails to reduce."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for dim, max_gens in ((2, 3), (3, 2), (4, 2), (3, 3)):
        ring = RingContext(("x", "y", "z", "w")[:dim])
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


# -- Groebner-cone cover -----------------------------------------------------------

FAN_PRESENTATIONS = sorted(p.name for p in FIXTURES.glob("*.ideal") if p.name != "bad.ideal")
XYZ_PAIR = "ring x y z;\nideal x^2*y - z^3 + x, y^2 - x*z;\n"


def _presentation(name: str) -> Presentation:
    if name == "xyz_pair":
        return parse_presentation(XYZ_PAIR).presentation
    return load(name)


def ref_buckets(P: Presentation, ws) -> dict[tuple, list]:
    """Per-point classifier: every weight's canonical key on its own."""
    buckets: dict[tuple, list] = {}
    for w in ws:
        key = tuple(g.key() for g in HomogenizedIdeal(P).canonical_basis(w))
        buckets.setdefault(key, []).append(w)
    return buckets


def ref_fan(P: Presentation, box: int, denominator: int) -> list[tuple]:
    steps = range(-box * denominator, box * denominator + 1)
    grid = [W(*(Fraction(p, denominator) for p in point))
            for point in itertools.product(steps, repeat=P.ring.dim)]
    classes = []
    for members in ref_buckets(P, grid).values():
        members.sort(key=lambda v: v.weights)
        gens = tuple(initial_ideal(P, members[0]))
        free = not contains_monomial(list(gens), P.ring)[0] if gens else True
        classes.append((members[0], gens, free, tuple(members)))
    classes.sort(key=lambda c: c[0].weights)
    return classes


@pytest.mark.parametrize("name", [*FAN_PRESENTATIONS, "xyz_pair"])
def test_fan_matches_per_point_classifier(name):
    P = _presentation(name)
    for box, denominator in itertools.product((1, 2), (1, 2, 3)):
        if P.ring.dim >= 3 and box * denominator > 2:
            continue
        got = [(c.representative, c.initial_gens, c.monomial_free, c.members)
               for c in enumerate_fan(P, box, denominator)]
        assert got == ref_fan(P, box, denominator), (box, denominator)
    if name == "xyz_pair":
        assert [len(enumerate_fan(P, 1, d)) for d in (1, 2)] == [18, 36]


@pytest.mark.parametrize("name", [*FAN_PRESENTATIONS, "xyz_pair"])
def test_facets_match_per_point_classifier(name):
    P = _presentation(name)
    rng = random.Random(name)
    for _ in range(6):
        ws = [W(*(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                  for _ in range(P.ring.dim))) for _ in range(10)]
        ws += [ws[0], ws[1].scale(3)]  # a repeat and a scaled copy
        rng.shuffle(ws)
        expected = sorted(sorted(m.weights for m in members)
                          for members in ref_buckets(P, ws).values())
        got = sorted(sorted(m.weights for m in c.members)
                     for c in facet_classes(P, ws).classes)
        assert got == expected


def test_fan_runs_buchberger_per_cone_not_per_point(cubic, buchberger_calls):
    classes = enumerate_fan(cubic, 2, 1)
    assert sum(len(c.members) for c in classes) == 125
    assert len(classes) == 13
    refined = sum(1 for order in buchberger_calls if order.weights is not None)
    assert refined < 125 // 4


def test_fan_builds_a_weighted_order_per_refined_run_only(
        cubic, buchberger_calls, monkeypatch):
    built = []
    post_init = MonomialOrder.__post_init__

    def counting(order):
        post_init(order)
        if order.weights is not None:
            built.append(order)

    monkeypatch.setattr(MonomialOrder, "__post_init__", counting)
    enumerate_fan(cubic, 2, 1)
    refined = [order for order in buchberger_calls if order.weights is not None]
    assert len(built) == len(refined) == 17


@pytest.mark.parametrize("name", ["tadic.ideal", "cubic.ideal"])
def test_integer_weights_match_the_order(name):
    P = load(name)
    H = HomogenizedIdeal(P)
    rng = random.Random(name)
    ws = [W(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(P.ring.dim))) for _ in range(30)]
    ws.append(W(*([0] * P.ring.dim)))
    if name == "tadic.ideal":  # the uniformizer t is pinned to -1
        assert any(w.weights[0] != -1 for w in ws)
    for w in ws:
        ints, scale = integer_weights(P.effective_weights(w).weights)
        order = MonomialOrder.weighted(P.effective_weights(w))
        assert (ints, scale) == (order.int_weights, order.scale)
        assert ints + (0,) == H.order(w).int_weights


def test_weights_hold_exact_fractions_whatever_the_entry_type():
    for entries in ((1, "-2/3", Fraction(5, 4)), ("3", Fraction(0), -2),
                    (Fraction(-6, 4), "7", 0)):
        exact = tuple(Fraction(e) for e in entries)
        for cls in (WeightVector, MonomialOrder):
            got, ref = cls(entries), cls(exact)
            assert got.weights == exact
            assert all(type(x) is Fraction for x in got.weights)
            assert got == ref and hash(got) == hash(ref)


def test_repeated_fan_call_repeats_all_work(buchberger_calls):
    argv = ["fan", "--ideal", "fixtures/cubic.ideal", "--box", "1"]
    first = run_case(argv)
    n_first = len(buchberger_calls)
    assert run_case(argv) == first
    assert n_first > 0 and len(buchberger_calls) == 2 * n_first


# -- division memo ------------------------------------------------------------------

# A basis memoizes each monomial's order key and one-step rewrite.  Division
# by the same table with the plain order key and rewrite is the memo-free
# reference.


def _memo_free_lookups(gb: GroebnerBasis) -> tuple:
    table = [_divisor(g, lm, lc) for g, (lm, lc) in zip(gb.gens, gb._leads)]
    return gb.order._descending_key, partial(_rewrite, table)


def _memo_free_terms(f: Polynomial, gb: GroebnerBasis) -> list:
    work = {e: c.numerator if c.denominator == 1 else c for e, c in f.terms.items()}
    return list(_remainder_terms(work, *_memo_free_lookups(gb)))


def _check_warm_memo(gb: GroebnerBasis, samples: list[Polynomial]) -> None:
    for f in samples:  # warm the memo
        normal_form(f, gb)
        leading_normal_exponent(f, gb)
    keys, steps = gb._memo
    assert len(keys) > 0 and len(steps) > 0
    for f in reversed(samples):
        terms = _memo_free_terms(f, gb)
        plain = Polynomial(f.ring, {e: Fraction(c) for e, c in terms})
        assert normal_form(f, gb).key() == plain.key()
        e = leading_normal_exponent(f, gb)
        assert e == (terms[0][0] if terms else None)
        assert e == (None if plain.is_zero else leading_term(plain, gb.order)[0])


@pytest.mark.parametrize("name", sorted(TOP_REDUCTION_WEIGHTS))
def test_warm_memo_matches_memo_free_division_on_refined_bases(name):
    P = load(name)
    rng = random.Random(f"memo/{name}")
    H = HomogenizedIdeal(P)
    for w in TOP_REDUCTION_WEIGHTS[name]:
        gb = H.refined_basis(W(*w))
        if not gb.gens:
            continue
        _check_warm_memo(gb, [_homogenize(f, H.ext) for f in _samples(rng, P)])


@pytest.mark.parametrize("gens,order", DIRECT_BASES, ids=range(len(DIRECT_BASES)))
def test_warm_memo_matches_memo_free_division_on_direct_bases(gens, order):
    gb = GroebnerBasis(tuple(parse_poly(XY, g) for g in gens), order)
    rng = random.Random(f"memo-direct/{gens}")
    samples = _direct_samples(rng, not order.is_global())
    samples += [g * s for g, s in zip(gb.gens, samples)]
    _check_warm_memo(gb, samples)
    for f in samples[:10]:  # the independent max-based division agrees too
        assert normal_form(f, gb).key() == ref_normal_form(f, gb.gens, gb.order).key()


# -- saturation ---------------------------------------------------------------------

# `_saturate` (Bayer's trick) against the extra-variable elimination of
# `oracle_lifted`, and `contains_monomial` against the lifted unit test.

RINGS = {dim: RingContext(("x", "y", "z", "w")[:dim]) for dim in (2, 3, 4)}


def _random_monomial(rng: random.Random, ring: RingContext, degree: int) -> Polynomial:
    e = [0] * ring.dim
    for _ in range(degree):
        e[rng.randrange(ring.dim)] += 1
    return Polynomial.monomial(ring, e)


def _random_homogeneous(rng: random.Random, ring: RingContext) -> Polynomial:
    """A homogeneous polynomial of degree 1-3 with 1-3 terms, times a
    monomial of degree 0-2, so that saturating has powers to strip."""
    degree = rng.randint(1, 3)
    f = Polynomial.zero(ring)
    while f.is_zero:
        for _ in range(rng.randint(1, 3)):
            f = f + _random_monomial(rng, ring, degree).scale(rng.choice((-2, -1, 1, 3)))
    return f * _random_monomial(rng, ring, rng.choice((0, 0, 1, 2)))


def test_saturate_matches_the_lifted_saturation():
    rng = random.Random(53)
    stripped = 0
    for case in range(240):
        ring = RINGS[2 + case % 3]
        gens = [_random_homogeneous(rng, ring) for _ in range(rng.randint(1, 3))]
        base = buchberger(gens, MonomialOrder.grevlex())
        i = rng.randrange(ring.dim)
        out = _saturate(gens, i)
        x_i = Polynomial.monomial(ring, [int(j == i) for j in range(ring.dim)])
        for s in out:
            assert s.is_homogeneous()
            # s times some power of x_i lies in J
            k, r = 0, normal_form(s, base)
            while not r.is_zero and k < 40:
                k, r = k + 1, normal_form(r * x_i, base)
            assert r.is_zero
            stripped += k > 0
        saturated = buchberger(out, MonomialOrder.grevlex())
        assert all(normal_form(g, saturated).is_zero for g in gens)
        assert [g.key() for g in saturated.gens] == lifted_saturation(gens, ring, [i])
    assert stripped > 50


def _fixture_ideals() -> list[tuple[list[Polynomial], RingContext]]:
    """Each fixture's ideal and its initial ideals on the box-1 grid."""
    out = []
    for name in FAN_PRESENTATIONS:
        P = load(name)
        if not P.ideal_gens:
            continue
        out.append((list(P.ideal_gens), P.ring))
        for w in itertools.product((-1, 0, 1), repeat=P.ring.dim):
            out.append((initial_ideal(P, W(*w)), P.ring))
    return out


def _principal_shortcut_ideals() -> list[tuple[list[Polynomial], RingContext]]:
    """Single non-monomial generators f, and [f, x*f] spanning the same ideal."""
    rng = random.Random(59)
    out = []
    for dim in (2, 3, 4):
        ring = RINGS[dim]
        x = Polynomial.variable(ring, "x")
        while len(out) < 8 * (dim - 1):
            g = random_polynomial(rng, ring, 2, max_terms=3)
            if not g.is_monomial():
                f = x ** rng.randint(0, 3) * g
                out += [([f], ring), ([f, x * f], ring)]
    return out


def _seeded_ideals(count: int) -> list[tuple[list[Polynomial], RingContext]]:
    """Two or three non-monomial generators in 2 or 3 variables, two in 4;
    a monomial factor on some of them makes a monomial in the ideal more
    likely."""
    rng = random.Random(61)
    out = []
    while len(out) < count:
        ring = RINGS[rng.randint(2, 4)]
        size = 2 if ring.dim == 4 else rng.randint(2, 3)
        gens = []
        while len(gens) < size:
            g = random_polynomial(rng, ring, 2, max_terms=3)
            if not g.is_monomial():
                gens.append(g * _random_monomial(rng, ring, rng.choice((0, 0, 1))))
        out.append((gens, ring))
    return out


def _check_witness(gens: list[Polynomial], ring: RingContext, witness: Polynomial) -> None:
    """The witness lies in the ideal, by the Macaulay oracle when it is
    small; a power of the product is the smallest that does."""
    base = buchberger(gens, MonomialOrder.grevlex())
    assert witness.is_monomial() and normal_form(witness, base).is_zero
    if ring.dim <= 3 and witness.total_degree() <= 4:
        assert any(macaulay_member(witness, gens, bound) for bound in range(2, 7))
    if any(g == witness for g in gens):
        return
    k = next(iter(witness.terms))[0]
    assert next(iter(witness.terms)) == (k,) * ring.dim
    if k > 0:
        below = Polynomial.monomial(ring, (k - 1,) * ring.dim)
        assert not normal_form(below, base).is_zero


def test_contains_monomial_matches_the_lifted_run():
    cases = _fixture_ideals() + _principal_shortcut_ideals() + _seeded_ideals(520)
    found = 0
    for gens, ring in cases:
        got, witness = contains_monomial(gens, ring)
        assert got == lifted_contains_monomial(gens, ring), [str(g) for g in gens]
        if got:
            found += 1
            _check_witness(gens, ring, witness)
        else:
            assert witness is None
    assert found > 60
