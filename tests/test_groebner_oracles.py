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
containment.  `oracle_buchberger` keeps the Buchberger run on `Polynomial`s
and the face walk of the cone test, so it checks the run on division-table
entries term for term and the cone test as integer inequalities.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import FIXTURES, W, _memo_free_terms, load, stored_coefficient
from cli_corpus import run_case
from oracle_buchberger import in_cone_by_faces, oracle_buchberger, top_split
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
    classify_weights,
    contains_monomial,
    enumerate_fan,
    initial_form,
    initial_ideal,
    leading_normal_exponent,
    leading_term,
    normal_form,
)
from tropval.groebner import _divisor, _in_cone, _saturate
from tropval.poly import Polynomial, Presentation, RingContext, WeightVector, integer_weights
from tropval.textio import parse_poly, parse_presentation
from tropval.trop import BOTTOM, TropicalValue
from tropval.valuation import check_trop_membership, make_weight_valuation, random_polynomial

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
    """Multivariate division selecting the top pending term with ``max``.

    Every coefficient is made a `Fraction` on the way in, so the division
    is exact whatever form the library stores coefficients in.
    """
    def key(e):
        return ref_key(order, e)

    gens = [{e: Fraction(c) for e, c in g.terms.items()} for g in gens]
    leads = []
    for g in gens:
        lm = max(g, key=key)
        leads.append((lm, g[lm]))
    work = {e: Fraction(c) for e, c in f.terms.items()}
    remainder = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for g, (lm, lc) in zip(gens, leads):
            if all(a <= b for a, b in zip(lm, e)):
                shift = tuple(a - b for a, b in zip(e, lm))
                factor = c / lc
                for eg, cg in g.items():
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
def test_normal_form_coefficients_are_in_stored_form(gens, order):
    """Reduction makes integral `Fraction`s; each is stored as an int."""
    gb = GroebnerBasis(tuple(parse_poly(XY, g) for g in gens), order)
    rng = random.Random(f"types/{gens}")
    integral = non_integral = 0
    for f in _direct_samples(rng, not order.is_global()):
        r = normal_form(f, gb)
        assert r.key() == ref_normal_form(f, gb.gens, gb.order).key()
        assert all(stored_coefficient(c) for c in r.terms.values())
        integral += any(c.denominator == 1 for c in r.terms.values())
        non_integral += any(c.denominator != 1 for c in r.terms.values())
    assert integral > 0 and non_integral > 0


@pytest.mark.parametrize("gens,order", DIRECT_BASES, ids=range(len(DIRECT_BASES)))
def test_division_table_entries_are_monic(gens, order):
    """A remainder does not change when a divisor is scaled: a basis and its
    monic form have the same division-table entries and divide alike, and
    each entry's lead plus its negated tail is the element over its lead
    coefficient."""
    gens = tuple(parse_poly(XY, g) for g in gens)
    monic = tuple(g.scale(1 / Fraction(leading_term(g, order)[1])) for g in gens)
    gb, gb_monic = GroebnerBasis(gens, order), GroebnerBasis(monic, order)
    assert gb._leads == gb_monic._leads
    for g, m, lm in zip(gens, monic, gb._leads):
        lead, tail = entry = _divisor(g, lm)
        assert entry == _divisor(m, lm)
        assert Polynomial(XY, {lead: 1, **{e: -c for e, c in tail}}) == m
        assert all(stored_coefficient(c) for _, c in tail)
    rng = random.Random(f"monic/{gens}")
    for f in _direct_samples(rng, not order.is_global()):
        assert normal_form(f, gb) == normal_form(f, gb_monic)
        assert leading_normal_exponent(f, gb) == leading_normal_exponent(f, gb_monic)


def _from_sympy(expr, symbols, ring: RingContext) -> Polynomial:
    import sympy

    terms = sympy.Poly(expr, *symbols).terms()
    return Polynomial(ring, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


def _monic_key(f: Polynomial, order: MonomialOrder) -> tuple:
    top = max(f.terms, key=lambda e: ref_key(order, e))
    return f.scale(1 / Fraction(f.terms[top])).key()


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

# gr26.ideal has 15 variables: its grids would hold 3^15 points and more.
FAN_PRESENTATIONS = sorted(p.name for p in FIXTURES.glob("*.ideal")
                           if p.name not in ("bad.ideal", "gr26.ideal"))
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
def test_integer_grid_matches_classify_weights_on_the_rational_grid(name):
    """enumerate_fan builds its grid from integer points and sorts nothing;
    classify_weights on `WeightVector`s of the same rational grid, sorted
    as before, is the reference."""
    P = _presentation(name)
    for box, denominator in ((1, 1), (2, 1), (1, 2), (2, 2)):
        steps = range(-box * denominator, box * denominator + 1)
        grid = [W(*(Fraction(p, denominator) for p in point))
                for point in itertools.product(steps, repeat=P.ring.dim)]
        expected = []
        for gens, members in classify_weights(P, grid):
            members.sort(key=lambda v: v.weights)
            free = not contains_monomial(list(gens), P.ring)[0] if gens else True
            expected.append((members[0], gens, free, tuple(members)))
        expected.sort(key=lambda c: c[0].weights)
        classes = enumerate_fan(P, box, denominator)
        got = [(c.representative, c.initial_gens, c.monomial_free, c.members)
               for c in classes]
        assert got == expected, (box, denominator)
        members = [m for c in classes for m in c.members]
        assert len(members) == len(grid)
        for m in members:
            assert all(type(x) is Fraction for x in m.weights)
            assert (m.int_weights, m.int_scale) == integer_weights(m.weights)


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


# -- division-table Buchberger ------------------------------------------------------

# `buchberger` runs on division-table entries; `oracle_buchberger` is the same
# run on `Polynomial`s, with pairs taken smallest lcm first in the run's order
# instead of by the lcm's degree first.  They must give the same gens, term
# for term, and the same leads.  Term order is not compared: the oracle keeps
# a lone surviving input in its own order, and `buchberger` writes it largest
# term first.


def _assert_same_basis(gens, order) -> None:
    got, ref = buchberger(gens, order), oracle_buchberger(gens, order)
    assert [sorted(g.terms.items()) for g in got.gens] == \
        [sorted(g.terms.items()) for g in ref.gens], [str(g) for g in gens]
    assert [g.ring for g in got.gens] == [g.ring for g in ref.gens]
    assert got._leads == ref._leads and got.order == ref.order
    assert all(stored_coefficient(c) for g in got.gens for c in g.terms.values())


def _grid(dim: int) -> list[WeightVector]:
    return [W(*w) for w in itertools.product((-1, 0, 1, Fraction(1, 2)), repeat=dim)]


@pytest.mark.parametrize("name", FIXTURES_WITH_RELATIONS)
def test_buchberger_matches_the_polynomial_run_on_fixtures(name):
    P = load(name)
    gens = list(P.ideal_gens)
    orders = [MonomialOrder.grevlex(), MonomialOrder.lex()]
    orders += [MonomialOrder.weighted(w, tie) for w in _grid(P.ring.dim)
               if all(x >= 0 for x in w.weights) for tie in (GREVLEX, LEX)]
    for order in orders:
        _assert_same_basis(gens, order)
    # refined orders on the homogenized input, negative weights included
    H = HomogenizedIdeal(P)
    for w in _grid(P.ring.dim):
        _assert_same_basis(H.saturated, H.order(w))


def _gr25_tree_metrics() -> list[WeightVector]:
    """The 15 tree metrics on 5 leaves, on p12, p13, ..., p45: each tree is a
    caterpillar, cherry {a, b}, middle leaf c, cherry {d, e}, and two leaves
    at positions 1, 2, 3 along its spine are |difference| + 2 apart."""
    metrics = []
    for c in range(1, 6):
        rest = [leaf for leaf in range(1, 6) if leaf != c]
        for partner in rest[1:]:
            position = {c: 2}
            position.update((leaf, 1 if leaf in (rest[0], partner) else 3)
                            for leaf in rest)
            metrics.append(W(*(abs(position[i] - position[j]) + 2
                               for i, j in itertools.combinations(range(1, 6), 2))))
    return metrics


def test_buchberger_matches_the_polynomial_run_on_gr25_tree_metrics():
    """The five Plücker relations of Gr(2,5) are homogeneous, so every refined
    order runs on them, and on the homogenized pipeline input: each tree
    metric and its negation, where taking pairs by the order alone can
    rank a higher degree below a lower one."""
    ring = RingContext(tuple(f"p{i}{j}" for i, j in itertools.combinations(range(1, 6), 2)))
    gens = [parse_poly(ring, f"p{i}{j}*p{k}{l} - p{i}{k}*p{j}{l} + p{i}{l}*p{j}{k}")
            for i, j, k, l in itertools.combinations(range(1, 6), 4)]
    H = HomogenizedIdeal(Presentation(ring, tuple(gens)))
    metrics = _gr25_tree_metrics()
    assert len(set(metrics)) == 15
    for metric in metrics:
        for w in (metric, W(*(-x for x in metric.weights))):
            _assert_same_basis(gens, MonomialOrder.weighted(w))
            _assert_same_basis(H.saturated, H.order(w))


@pytest.mark.parametrize("name", [*FIXTURES_WITH_RELATIONS, "xyz_pair"])
def test_buchberger_matches_the_polynomial_run_on_pipeline_inputs(name, monkeypatch):
    """Every input that `classify_weights`, `_saturate`, `contains_monomial`
    and `_canonical_basis` hand to `buchberger` on the fixture (a fixture
    with no relations hands it none)."""
    from tropval import groebner

    P = _presentation(name)
    inputs = []
    run = groebner.buchberger

    def recording(gens, order):
        inputs.append((list(gens), order))
        return run(gens, order)

    monkeypatch.setattr(groebner, "buchberger", recording)
    for box, denominator in ((1, 1), (1, 2)):
        enumerate_fan(P, box, denominator)
    contains_monomial(list(P.ideal_gens), P.ring)
    monkeypatch.undo()
    assert {order.weights is None for _, order in inputs} == {True, False}
    for gens, order in inputs:
        _assert_same_basis(gens, order)


def _rational_polynomial(rng: random.Random, ring: RingContext) -> Polynomial:
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(ring.dim))
            terms[e] = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 4))
    return Polynomial(ring, terms)


def test_buchberger_matches_the_polynomial_run_on_rational_ideals():
    rng = random.Random(67)
    non_monic = 0
    for case in range(100):
        ring = RingContext(("x", "y", "z")[:2 + case % 2])
        gens = [_rational_polynomial(rng, ring) for _ in range(rng.randint(1, 3))]
        order = random_order(rng, ring.dim)
        if not order.is_global():
            order = MonomialOrder(tuple(abs(w) for w in order.weights), order.tie_break)
        non_monic += any(leading_term(g, order)[1] != 1 for g in gens)
        _assert_same_basis(gens, order)
    assert non_monic > 60


def test_buchberger_matches_the_polynomial_run_on_edge_inputs():
    f, g = parse_poly(XY, "2*x^2 - 3*y"), parse_poly(XY, "x*y - 1/2")
    h = parse_poly(XY, "1/2 - 3*y + 2*x^2")  # terms not in descending order
    cases = [
        [f, f], [f, g, f.scale(5)], [g, f, f, g],  # repeats, once monic
        [parse_poly(XY, "x^2"), parse_poly(XY, "x")],  # a later input is kept
        [parse_poly(XY, "2*x + 1"), parse_poly(XY, "y + 3")],  # coprime leads
        [f, parse_poly(XY, "3")], [f, g, parse_poly(XY, "x + 1")],  # unit ideals
        [], [f], [g], [parse_poly(XY, "-1/3")],  # empty and single inputs
        [h], [h, h.scale(3)], [h, parse_poly(XY, "x") * h],  # one survivor
    ]
    for gens in cases:
        for order in (MonomialOrder.grevlex(), MonomialOrder.lex()):
            _assert_same_basis(gens, order)
    assert buchberger([f, f.scale(5)], MonomialOrder.lex()).gens == (f.scale(Fraction(1, 2)),)
    # a single input keeps its own term order; a lone survivor of several
    # inputs is written largest term first
    for gens, terms in (([h], [(0, 0), (0, 1), (2, 0)]),
                        ([h, h.scale(3)], [(2, 0), (0, 1), (0, 0)]),
                        ([h, parse_poly(XY, "x") * h], [(2, 0), (0, 1), (0, 0)])):
        assert [list(g.terms) for g in buchberger(gens, MonomialOrder.grevlex()).gens] \
            == [terms]
    unit = buchberger([f, g, parse_poly(XY, "x + 1")], MonomialOrder.grevlex())
    assert unit.gens == (parse_poly(XY, "1"),)


def test_cone_inequalities_match_the_face_walk(monkeypatch):
    """Every cone `classify_weights` finds on every fixture, against every
    grid weight (box 2, denominators 1 and 2): the inequality vectors and
    the faces of the refined basis give the same verdict."""
    found = []
    initial_of = HomogenizedIdeal.initial_of

    def recording(self, gb):
        gens, cone = initial_of(self, gb)
        found.append((gb, cone))
        return gens, cone

    monkeypatch.setattr(HomogenizedIdeal, "initial_of", recording)
    checked = inside = 0
    for name in [*FAN_PRESENTATIONS, "xyz_pair"]:
        P = _presentation(name)
        for denominator in (1, 2):
            found.clear()
            grid = [W(*(Fraction(p, denominator) for p in point))
                    for point in itertools.product(range(-2 * denominator,
                                                         2 * denominator + 1),
                                                   repeat=P.ring.dim)]
            classify_weights(P, grid)
            for gb, cone in found:
                faces = [top_split(g, gb.order.int_weights) for g in gb.gens]
                for w in grid:
                    ws = integer_weights(P.effective_weights(w).weights)[0] + (0,)
                    verdict = _in_cone(cone, ws)
                    assert verdict == in_cone_by_faces(faces, ws), (name, w)
                    checked += 1
                    inside += verdict
    assert inside > 3000 and checked - inside > 50000


def ref_initial_form(f: Polynomial, w: WeightVector) -> Polynomial:
    """The terms of f of largest `Fraction` weight, found in one pass."""
    best, top = None, {}
    for e, c in f.terms.items():
        weight = w.dot(e)
        if best is None or weight > best:
            best, top = weight, {e: c}
        elif weight == best:
            top[e] = c
    return Polynomial(f.ring, top)


@pytest.mark.parametrize("name", [*FAN_PRESENTATIONS, "xyz_pair"])
def test_initial_form_matches_the_fraction_loop(name):
    """`initial_form` and prevariety membership split terms on integer
    weights; the `Fraction` loop is the reference, on the generators and
    random polynomials, at every grid weight (box 2, denominators 1 and 2)
    and at its t-adic pinned form."""
    P = _presentation(name)
    rng = random.Random(5)
    polys = [*P.ideal_gens, *(random_polynomial(rng, P.ring, 3, 5) for _ in range(6))]
    splits = set()
    for denominator in (1, 2):
        for point in itertools.product(range(-2 * denominator, 2 * denominator + 1),
                                       repeat=P.ring.dim):
            w = W(*(Fraction(p, denominator) for p in point))
            for weight in (w, P.effective_weights(w)):
                for f in polys:
                    got, expected = initial_form(f, weight), ref_initial_form(f, weight)
                    assert list(got.terms.items()) == list(expected.terms.items())
                    assert all(stored_coefficient(c) for c in got.terms.values())
                    splits.add(len(got.terms) < len(f.terms))
            member = all(len(ref_initial_form(g, P.effective_weights(w)).terms) >= 2
                         for g in P.ideal_gens)
            assert check_trop_membership(P, w, "prevariety").ok == member
    assert splits == {True, False}


# -- division memo ------------------------------------------------------------------

# A basis memoizes each monomial's order key, one-step rewrite and
# normal-form lead.  Division by the same table with the plain order key and
# rewrite (`_memo_free_terms`) is the memo-free reference.


def _check_warm_memo(gb: GroebnerBasis, samples: list[Polynomial]) -> None:
    for f in samples:  # warm the memo
        normal_form(f, gb)
        leading_normal_exponent(f, gb)
    keys, steps, leads = gb._memo
    assert len(keys) > 0 and len(steps) > 0 and len(leads) > 0
    for f in reversed(samples):
        terms = list(_memo_free_terms(f, gb))
        plain = Polynomial(f.ring, {e: Fraction(c) for e, c in terms})
        assert normal_form(f, gb).key() == plain.key()
        e = leading_normal_exponent(f, gb)
        assert e == (terms[0][0] if terms else None)
        assert e == (None if plain.is_zero else leading_term(plain, gb.order)[0])
    # Every lead entry is the leading term of its monomial's normal form.
    for m, lead in list(leads.items()):
        first = next(_memo_free_terms(Polynomial.monomial(gb.gens[0].ring, m), gb), None)
        if first is None:
            assert lead is None
        else:
            assert lead == (gb.order._descending_key(first[0]), *first)


@pytest.mark.parametrize("c,lead", [(1, None), (-2, ((0, 2), 3))])
def test_lead_memo_sums_a_target_equal_to_the_best_lead(c, lead):
    """x^2 rewrites to x*y - c*y^2, and NF(x*y) = y^2 ties with the second
    target, so the walk must not stop at it: the two sum to 1 - c times
    y^2, which cancels at c = 1 and leaves NF(x^2) = 0 to division."""
    gb = GroebnerBasis((parse_poly(XY, "x*y - y^2"),
                        parse_poly(XY, f"x^2 - x*y + ({c})*y^2")), MonomialOrder.grevlex())
    x2 = parse_poly(XY, "x^2")
    assert leading_normal_exponent(x2, gb) == (None if lead is None else lead[0])
    entry = gb._memo[2][(2, 0)]
    assert entry == (None if lead is None
                     else (gb.order._descending_key(lead[0]), *lead))
    first = next(_memo_free_terms(x2, gb), None)
    assert first == lead


def test_lead_memo_skips_a_target_that_reduces_to_zero():
    """The basis of (x^2, x*y - y^2) gains y^3, so x*y^2 rewrites to y^3,
    whose lead entry says its normal form is zero, and so is NF(x^2*y)."""
    P = parse_presentation("ring x y; ideal x^2, x*y - y^2;").presentation
    gb = buchberger(P.ideal_gens, MonomialOrder.grevlex())
    f = parse_poly(XY, "x^2*y + x*y^2")
    assert leading_normal_exponent(f, gb) is None
    assert normal_form(f, gb).is_zero
    _check_warm_memo(gb, [f])
    assert gb._memo[2][(0, 3)] is None


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
