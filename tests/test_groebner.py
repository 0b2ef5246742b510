import heapq
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import W, load
from oracle_macaulay import macaulay_member
from tropval import groebner
from tropval.groebner import (
    GroebnerBasis,
    MonomialOrder,
    ZeroPolynomialError,
    buchberger,
    contains_monomial,
    enumerate_fan,
    initial_form,
    initial_ideal,
    leading_normal_exponent,
    leading_term,
    normal_form,
    same_initial_ideal,
)
from tropval.poly import Polynomial, Presentation, RingContext, RingMismatchError
from tropval.textio import parse_poly, poly_to_str
from tropval.valuation import check_trop_membership, random_polynomial

XY = RingContext(("x", "y"))
XYZ = RingContext(("x", "y", "z"))


def gb_of(ring, order, *texts):
    return buchberger([parse_poly(ring, t) for t in texts], order)


def test_compare_examples():
    weighted = MonomialOrder.weighted(W(1, 0))
    assert weighted.compare((1, 0), (0, 1)) == 1  # x beats y on weight
    assert MonomialOrder.lex().compare((1, 0), (0, 1)) == 1
    assert weighted.compare((2, 3), (2, 3)) == 0


def test_compare_is_multiplicative():
    order = MonomialOrder.weighted(W(1, 2), tie_break="lex")
    rng = random.Random(4)
    for _ in range(200):
        e1 = (rng.randint(0, 4), rng.randint(0, 4))
        e2 = (rng.randint(0, 4), rng.randint(0, 4))
        shift = (rng.randint(0, 3), rng.randint(0, 3))
        lifted = (tuple(a + s for a, s in zip(e1, shift)),
                  tuple(a + s for a, s in zip(e2, shift)))
        assert order.compare(e1, e2) == order.compare(*lifted)


def test_normal_form_single_division_step():
    # Hand division: x^2 = 1*(x^2 - y) + y, so the remainder is y.
    gb = gb_of(XY, MonomialOrder.lex(), "x^2 - y")
    assert normal_form(parse_poly(XY, "x^2"), gb) == parse_poly(XY, "y")


def test_normal_form_membership_and_irreducible():
    gb = gb_of(XY, MonomialOrder.lex(), "x^2 - y")
    member = parse_poly(XY, "x^2 - y") * parse_poly(XY, "x + 3")
    assert normal_form(member, gb).is_zero
    # order in which x^2 leads keeps y fixed
    gb_w = gb_of(XY, MonomialOrder.weighted(W(1, 0)), "x^2 - y")
    assert normal_form(parse_poly(XY, "y"), gb_w) == parse_poly(XY, "y")


def test_buchberger_principal_and_unit():
    gb = gb_of(XY, MonomialOrder.grevlex(), "2*x + 2*y + 2")
    assert [poly_to_str(g) for g in gb.gens] == ["x + y + 1"]
    gb1 = gb_of(XY, MonomialOrder.lex(), "3")
    assert [poly_to_str(g) for g in gb1.gens] == ["1"]


def test_buchberger_twisted_cubic_lex():
    gb = gb_of(XYZ, MonomialOrder.lex(), "x^2 - y", "x^3 - z")
    rendered = {poly_to_str(g) for g in gb.gens}
    assert "y^3 - z^2" in rendered
    # every basis element is in the ideal according to the matrix oracle
    gens = [parse_poly(XYZ, "x^2 - y"), parse_poly(XYZ, "x^3 - z")]
    for g in gb.gens:
        assert macaulay_member(g, gens, 6)


def test_buchberger_deterministic():
    texts = ("x^2 + y^2 - 1", "x*y - 2")
    a = gb_of(XY, MonomialOrder.grevlex(), *texts)
    b = gb_of(XY, MonomialOrder.grevlex(), *texts)
    assert [g.key() for g in a.gens] == [g.key() for g in b.gens]


def test_buchberger_rejects_zero_generator():
    with pytest.raises(ZeroPolynomialError):
        buchberger([Polynomial.zero(XY)], MonomialOrder.lex())


XZ = RingContext(("x", "z"))


@pytest.mark.parametrize("second", [
    parse_poly(XZ, "x + z"),  # the leads meet, so an S-pair joins the rings
    parse_poly(XZ, "z"),  # coprime leads: no S-pair, z would reduce x + y as y
    parse_poly(XYZ, "x*z"),  # a larger ring
    parse_poly(XYZ, "z"),  # a larger ring, and the only element kept
], ids=["s-pair", "coprime", "larger-ring", "larger-ring-kept"])
def test_buchberger_rejects_generators_on_two_rings(second):
    for order in (MonomialOrder.grevlex(), MonomialOrder.lex()):
        for gens in ([parse_poly(XY, "x + y"), second],
                     [second, parse_poly(XY, "x + y")]):
            with pytest.raises(RingMismatchError, match="ring mismatch"):
                buchberger(gens, order)


def test_nonglobal_order_needs_homogeneous_input():
    order = MonomialOrder.weighted(W(-1, 0))
    with pytest.raises(ValueError):
        buchberger([parse_poly(XY, "x + 1")], order)
    # homogeneous generators are fine
    gb = buchberger([parse_poly(XY, "x + y")], order)
    assert leading_term(gb.gens[0], order)[0] == (0, 1)


PAIR_BOUND = 3000


def test_gr26_at_a_negated_tree_metric_pops_a_bounded_number_of_pairs(monkeypatch):
    """Gr(2,6) at the negated caterpillar metric: taken smallest lcm first
    in the (w, 0)-refined order, the S-pairs climbed through ever higher
    degrees, and the run did not end (over 100,000 pairs popped in 30 s).
    Taken by the lcm's degree first, the whole certified check pops a few
    hundred.  Pairs are counted, not timed: a division-heap entry is
    (key, exponent), and every longer entry is a pair, such as
    (degree, key, i, j).  The count stops the run once it passes the
    bound."""
    popped = 0

    def heappop(heap):
        nonlocal popped
        item = heapq.heappop(heap)
        if len(item) > 2:
            popped += 1
            if popped > PAIR_BOUND:
                raise RuntimeError(f"more than {PAIR_BOUND} pairs popped")
        return item

    monkeypatch.setattr(groebner, "heapq", SimpleNamespace(
        heapify=heapq.heapify, heappush=heapq.heappush, heappop=heappop))
    metric = W(-2, -3, -4, -5, -5, -3, -4, -5, -5, -3, -4, -4, -3, -3, -2)
    outcome = check_trop_membership(load("gr26.ideal"), metric)
    assert not outcome.ok and poly_to_str(outcome.witness) == "p34*p56"
    assert 0 < popped <= PAIR_BOUND


def test_nonhomogeneous_basis_fails_at_reduction_not_construction():
    order = MonomialOrder.weighted(W(-1, 0))
    gb = GroebnerBasis((parse_poly(XY, "y + 1"),), order)  # built without a check
    f = parse_poly(XY, "y^2")
    for _ in range(2):  # a failed check leaves nothing cached
        with pytest.raises(ValueError, match="needs homogeneous input"):
            normal_form(f, gb)


def test_basis_builds_its_division_table_once():
    gb = gb_of(XY, MonomialOrder.grevlex(), "x^2 + y^2 - 1", "x*y - 2")
    fresh = GroebnerBasis(gb.gens, gb.order)
    assert gb._memo is None
    f = parse_poly(XY, "x^3 + y^3")
    first = normal_form(f, gb)
    memo = gb._memo
    assert memo is not None and len(memo[0]) > 0 and len(memo[1]) > 0
    assert memo[2] == {}  # full division reads no leads
    lead = leading_normal_exponent(f, gb)
    assert lead == leading_term(first, gb.order)[0] and len(memo[2]) > 0
    sizes = [len(m) for m in memo]
    assert normal_form(f, gb) == first and leading_normal_exponent(f, gb) == lead
    assert gb._memo is memo and [len(m) for m in memo] == sizes
    assert gb == fresh and hash(gb) == hash(fresh) and repr(gb) == repr(fresh)


def test_initial_form_examples():
    f = parse_poly(XY, "x + y + 1")
    assert initial_form(f, W(0, 0)) == f
    assert initial_form(f, W(1, 0)) == parse_poly(XY, "x")
    assert initial_form(f, W(2, 2)) == parse_poly(XY, "x + y")
    with pytest.raises(ZeroPolynomialError):
        initial_form(Polynomial.zero(XY), W(0, 0))


def test_initial_form_respects_uniformizer_weight():
    P = load("tadic.ideal")  # ring t x, ideal t*x - 1, t pinned to -1
    f = parse_poly(P.ring, "t*x - 1")
    # requested weight for t is ignored; the pinned value makes both terms top
    assert initial_form(f, P.effective_weights(W(5, 1))) == f


def test_initial_ideal_line(line):
    assert [poly_to_str(g) for g in initial_ideal(line, W(0, 0))] == ["x + y + 1"]
    assert [poly_to_str(g) for g in initial_ideal(line, W(1, 1))] == ["x + y"]
    assert [poly_to_str(g) for g in initial_ideal(line, W(1, 0))] == ["x"]


def test_initial_ideal_zero_ideal():
    free = Presentation(XY, ())
    assert initial_ideal(free, W(1, -1)) == []


def test_contains_monomial_examples(line):
    found, witness = contains_monomial([parse_poly(XY, "x")], XY)
    assert found and poly_to_str(witness) == "x"

    # <x+y> is prime and contains no monomial: every monomial is nonzero at
    # the zero locus point (1, -1) while the ideal vanishes there.
    found, _ = contains_monomial([parse_poly(XY, "x + y")], XY)
    assert not found

    # <x+y, y+1> vanishes only at (1, -1) where monomials are +-1, so the
    # saturation test must come back negative as well.
    found, _ = contains_monomial(
        [parse_poly(XY, "x + y"), parse_poly(XY, "y + 1")], XY)
    assert not found


def test_contains_monomial_hidden_witness():
    # x = (x+y) - y lies in the ideal, so a monomial is present even though
    # no generator is monomial; the witness must be a true member.
    gens = [parse_poly(XY, "x + y"), parse_poly(XY, "y")]
    found, witness = contains_monomial(gens, XY)
    assert found
    assert witness.is_monomial()
    gb = buchberger(gens, MonomialOrder.grevlex())
    assert normal_form(witness, gb).is_zero


def test_contains_monomial_witness_beyond_power_500():
    # The ideal is (x^501, x^501*y): the smallest power of x*y in it is the
    # 501st, which a search bounded at 500 powers never reaches.
    gens = [parse_poly(XY, "x^501*y + x^501"), parse_poly(XY, "x^501*y + 2*x^501")]
    found, witness = contains_monomial(gens, XY)
    assert found
    assert witness == Polynomial.monomial(XY, (501, 501))


def test_principal_shortcut_matches_the_saturation_path():
    # A single non-monomial generator answers without the saturation run;
    # listing x*f next to f spans the same ideal and forces that run.
    rng = random.Random(23)
    cases = 0
    for dim in (2, 3, 4):
        ring = RingContext(("x", "y", "z", "w")[:dim])
        x = Polynomial.variable(ring, "x")
        while cases < 6 * (dim - 1):
            g = random_polynomial(rng, ring, 2, max_terms=3)
            if g.is_monomial():
                continue
            f = x ** rng.randint(0, 3) * g
            assert contains_monomial([f], ring) == (False, None)
            assert contains_monomial([f, x * f], ring) == (False, None)
            cases += 1
    # Two non-monomial generators whose ideal does hold a monomial.
    found, witness = contains_monomial(
        [parse_poly(XY, "x^3*(y + 1)"), parse_poly(XY, "x^3*(y + 2)")], XY)
    assert found and witness == Polynomial.monomial(XY, (3, 3))


def test_same_initial_ideal(line):
    assert same_initial_ideal(line, W(1, 0), W(1, 0))
    assert same_initial_ideal(line, W(1, 1), W(2, 2))
    assert not same_initial_ideal(line, W(0, 0), W(1, 0))


def test_enumerate_fan_line(line):
    classes = enumerate_fan(line, 1, 1)
    assert len(classes) == 7
    free = {c.representative.weights: len(c.members)
            for c in classes if c.monomial_free}
    assert free == {
        (Fraction(0), Fraction(0)): 1,
        (Fraction(1), Fraction(1)): 1,
        (Fraction(-1), Fraction(0)): 1,
        (Fraction(0), Fraction(-1)): 1,
    }
    assert sum(len(c.members) for c in classes) == 9


def test_enumerate_fan_zero_ideal_and_sign_split():
    free = Presentation(XY, ())
    assert len(enumerate_fan(free, 1, 1)) == 1
    diag = Presentation(XY, (parse_poly(XY, "x - y"),))
    classes = enumerate_fan(diag, 1, 1)
    # classes split by sign(w1 - w2)
    assert len(classes) == 3
    sizes = sorted(len(c.members) for c in classes)
    assert sizes == [3, 3, 3]


def test_nf_idempotence_and_weight_monotonicity():
    rng = random.Random(11)
    gens = [parse_poly(XYZ, "x^2 - y"), parse_poly(XYZ, "x*y - z")]
    w = W(1, 2, 3)
    gb = buchberger(gens, MonomialOrder.weighted(w))
    for _ in range(150):
        f = random_polynomial(rng, XYZ, 4)
        r = normal_form(f, gb)
        assert normal_form(r, gb) == r
        if not r.is_zero:
            top = max(w.dot(e) for e in r.terms)
            assert top <= max(w.dot(e) for e in f.terms)


def test_initial_form_multiplicative_in_free_ring():
    rng = random.Random(12)
    w = W(2, -1, 1)
    for _ in range(100):
        f = random_polynomial(rng, XYZ, 3)
        g = random_polynomial(rng, XYZ, 3)
        assert initial_form(f * g, w) == initial_form(f, w) * initial_form(g, w)


def test_membership_matches_macaulay_small():
    rng = random.Random(13)
    gens = [parse_poly(XYZ, "x^2 - y"), parse_poly(XYZ, "y*z - 1")]
    gb = buchberger(gens, MonomialOrder.grevlex())
    for _ in range(40):
        h1 = random_polynomial(rng, XYZ, 2)
        h2 = random_polynomial(rng, XYZ, 2)
        inside = h1 * gens[0] + h2 * gens[1]
        if not inside.is_zero:
            assert normal_form(inside, gb).is_zero
            assert macaulay_member(inside, gens, max(6, inside.total_degree()))
        outside = random_polynomial(rng, XYZ, 3)
        nf_zero = normal_form(outside, gb).is_zero
        # the matrix oracle is a sound membership certificate
        assert not macaulay_member(outside, gens, 6) or nf_zero
