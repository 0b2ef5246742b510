"""End-to-end acceptance checks, one test per criterion.

Everything is exact rational arithmetic with zero tolerance; sampling
checks are seeded and deterministic.  Run with ``pytest -v`` to get the
per-criterion pass/fail lines (add ``-s`` for the summary prints).
"""

import random
from fractions import Fraction

import pytest

from cli_corpus import CASES, USAGE_CASES, run_case
from conftest import FIXTURE_WEIGHTS, W, load
from oracle_macaulay import macaulay_member
from tropval.cones import arrow_check, cone_sum, facet_classes, implies_check
from tropval.graded import (
    GradedValuation,
    LexFunctional,
    associated_graded,
    check_graded_axioms,
    check_monoid_theorem,
    check_valuation_axioms,
    element_key,
    grade_sum,
    monomial_poly_ring,
    zero_divisor_search,
)
from tropval.groebner import MonomialOrder, buchberger, normal_form
from tropval.poly import Polynomial, Presentation, RingContext
from tropval.sl2 import (
    branching_dimension_report,
    sl2_branching_algebra,
    strict_branching_functional,
)
from tropval.textio import parse_poly, poly_to_str
from tropval.trop import trop
from tropval.valuation import (
    check_axioms,
    check_trop_membership,
    cross_presentation_consistency,
    make_weight_valuation,
    random_polynomial,
    tropicalize,
)

F = Fraction


@pytest.fixture(scope="module")
def tropical_valuations():
    """For every fixture ideal and on-variety weight: the valuation and its
    1000-pair axiom report (shared by criteria 2 and 3)."""
    out = {}
    for name, weights in FIXTURE_WEIGHTS.items():
        P = load(name)
        for i, w in enumerate(weights):
            v = make_weight_valuation(P, w)
            report = check_axioms(v, seed=100 + i, n_pairs=1000, degree_bound=3)
            out[(name, w.weights)] = (P, v, report)
    return out


@pytest.fixture(scope="module")
def branching6():
    return sl2_branching_algebra(6)


def test_criterion_01_univariate_degree_classification():
    ring = RingContext(("t",))
    P = Presentation(ring, ())
    for slope in (F(1), F(2), F(7, 3)):
        v = make_weight_valuation(P, W(slope))
        rng = random.Random(41)
        for _ in range(100):
            p = random_polynomial(rng, ring, 12)
            assert v.evaluate(p) == trop(slope * p.total_degree())
        report = check_axioms(v, seed=42, n_pairs=200, degree_bound=8)
        assert report.verdict == "valuation"
        assert not report.multiplicativity_failures
        assert not report.cancellation_failures
    print("[acceptance] criterion 1 PASS: univariate values are slope * degree")


def test_criterion_02_membership_of_tropicalized_valuations(tropical_valuations):
    for name in FIXTURE_WEIGHTS:
        P = load(name)
        # 50 seeded nonzero ideal elements per fixture
        rng = random.Random(77)
        elements = []
        while len(elements) < 50:
            combo = Polynomial.zero(P.ring)
            for g in P.ideal_gens:
                combo = combo + random_polynomial(rng, P.ring, 2) * g
            if not combo.is_zero:
                elements.append(combo)
        for w in FIXTURE_WEIGHTS[name]:
            _, v, report = tropical_valuations[(name, w.weights)]
            assert report.verdict == "valuation", (name, w)
            point = tropicalize(v)
            assert check_trop_membership(P, point, "certified").ok, (name, w)
            effective = P.effective_weights(point)
            for f in elements:
                top = max(effective.dot(e) for e in f.terms)
                hits = sum(1 for e in f.terms if effective.dot(e) == top)
                assert hits >= 2, (name, w, poly_to_str(f))
    print("[acceptance] criterion 2 PASS: 60 tropicalized valuations are "
          "certified members; ideal elements never have a unique top term")


def test_criterion_03_strict_drops_force_equal_values(tropical_valuations):
    drops_seen = 0
    for (name, _w), (P, v, report) in tropical_valuations.items():
        assert report.pairs_checked == 1000
        assert not report.cancellation_failures, (name, _w)
        # count genuine strict drops to show the property is exercised
        rng = random.Random(9)
        for _ in range(50):
            a = random_polynomial(rng, P.ring, 3)
            b = random_polynomial(rng, P.ring, 3)
            va, vb = v.evaluate(a), v.evaluate(b)
            if v.evaluate(a + b) != max(va, vb):
                drops_seen += 1
                assert va == vb
    assert drops_seen > 0
    print("[acceptance] criterion 3 PASS: 60 valuations x 1000 pairs, "
          f"zero cancellation violations ({drops_seen} strict drops checked)")


def test_criterion_04_cone_closure_and_scaling():
    free = Presentation(RingContext(("x", "y")), ())
    line = load("line.ideal")
    triples = []
    for lam1, lam2 in ((F(2), F(3)), (F(1), F(1)), (F(1, 2), F(5, 2)),
                       (F(3), F(1, 3)), (F(7, 3), F(2))):
        for base in (W(1, 1), W(2, 1)):
            triples.append((free, base, base.scale(lam1), base.scale(lam2)))
    for lam1, lam2 in ((F(1), F(2)), (F(2), F(2)), (F(1, 2), F(3)),
                       (F(3), F(5, 2)), (F(4), F(1))):
        for base in (W(1, 1), W(2, 2)):
            triples.append((line, base, base.scale(lam1), base.scale(lam2)))
    assert len(triples) == 20
    for P, vw, w1w, w2w in triples:
        v = make_weight_valuation(P, vw)
        w1 = make_weight_valuation(P, w1w)
        w2 = make_weight_valuation(P, w2w)
        for hyp in (implies_check(v, w1, exact_mode=True),
                    implies_check(v, w2, exact_mode=True)):
            assert hyp.status == "holds_certified"
        result = cone_sum(v, w1, w2, seed=5, n_samples=150, exact_mode=True)
        assert result.axiom_report.verdict == "valuation"
        assert not result.implies_verdict.refuted
    for name in FIXTURE_WEIGHTS:
        P = load(name)
        for w in FIXTURE_WEIGHTS[name][:4]:
            part = facet_classes(P, [w, w.scale(3)])
            assert len(part.classes) == 1, (name, w)
    print("[acceptance] criterion 4 PASS: 20 certified cone sums close; "
          "w and 3w share a facet on every fixture")


def test_criterion_05_certified_implication_yields_arrow():
    checked = 0
    for name in FIXTURE_WEIGHTS:
        P = load(name)
        for w in FIXTURE_WEIGHTS[name][:6]:
            for lam in (F(1), F(2), F(1, 2), F(7, 3)):
                v = make_weight_valuation(P, w)
                u = make_weight_valuation(P, w.scale(lam))
                verdict = implies_check(v, u, exact_mode=True)
                if verdict.status != "holds_certified":
                    continue
                arrow = arrow_check(P, v.weights, u.weights)
                assert not arrow.refuted, (name, w, lam)
                checked += 1
    assert checked >= 100
    print(f"[acceptance] criterion 5 PASS: {checked} certified strong pairs, "
          "zero weak-relation refutations")


def test_criterion_06_override_is_graded_but_not_a_valuation():
    A = monomial_poly_ring(3, 4)
    degree = LexFunctional.single((F(1), F(1), F(1)))
    mixed = {((1, 1, 0), 0): F(1), ((1, 0, 1), 0): F(1)}  # x*y + x*z
    gv = GradedValuation.build(degree, {element_key(mixed): trop(1)})
    graded_report = check_graded_axioms(A, gv, seed=0, n_samples=100)
    assert graded_report.verdict == "passes"
    full_report = check_valuation_axioms(A, gv, seed=0, n_samples=100)
    assert full_report.verdict == "fails"
    a, b, got, expected = full_report.multiplicativity_failures[0]
    assert a == {((1, 0, 0), 0): F(1)}
    assert b == {((0, 1, 0), 0): F(1), ((0, 0, 1), 0): F(1)}
    assert (got, expected) == (trop(1), trop(2))
    print("[acceptance] criterion 6 PASS: override passes the graded check "
          "and fails the full check with witness (x, y + z)")


def test_criterion_07_branching_algebra_top_component(branching6):
    B = branching6
    assert branching_dimension_report(B) == []
    h = strict_branching_functional()
    report = check_monoid_theorem(B, h, seed=11, n_samples=500)
    assert not report.cartan_missing
    assert not report.order_violations
    assert not report.grade_collisions
    assert report.samples == 500
    assert not report.conclusion_failures
    gr = associated_graded(B, h)
    for (b1, b2), expansion in gr.structure.items():
        # independent prediction: a single term at the grade sum, coeff 1
        assert expansion == (((grade_sum(b1[0], b2[0]), 0), F(1)),), (b1, b2)
    assert zero_divisor_search(gr) is None
    assert zero_divisor_search(B) is None
    print("[acceptance] criterion 7 PASS: top components always present, "
          "500 pairs fully multiplicative, associated graded is the "
          "predicted monoid algebra with no zero divisors")


def _random_proper_ideal(rng):
    n_vars = rng.choice((2, 3))
    ring = RingContext(("x", "y", "z")[:n_vars])
    while True:
        gens = [random_polynomial(rng, ring, 4)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero]
        gb = buchberger(gens, MonomialOrder.grevlex())
        if [poly_to_str(g) for g in gb.gens] != ["1"]:
            return ring, gens, gb


def test_criterion_08_normal_form_agrees_with_matrix_oracle():
    rng = random.Random(2024)
    idempotence_checks = 0
    for _ in range(30):
        ring, gens, gb = _random_proper_ideal(rng)
        # members constructed inside degree 6: both answers must be yes
        for _ in range(3):
            combo = Polynomial.zero(ring)
            for g in gens:
                room = max(0, 6 - g.total_degree())
                combo = combo + random_polynomial(rng, ring, min(2, room)) * g
            if combo.is_zero or combo.total_degree() > 6:
                continue
            assert normal_form(combo, gb).is_zero
            assert macaulay_member(combo, gens, 6)
        # random probes: a bounded matrix certificate forces a zero normal
        # form (members may exist whose representations need cofactors far
        # beyond the bound, so only this direction is assertable here)
        for _ in range(3):
            probe = random_polynomial(rng, ring, 5)
            nf_zero = normal_form(probe, gb).is_zero
            assert not macaulay_member(probe, gens, 6) or nf_zero
        for _ in range(17):
            f = random_polynomial(rng, ring, 5)
            r = normal_form(f, gb)
            assert normal_form(r, gb) == r
            idempotence_checks += 1
    assert idempotence_checks >= 500
    print("[acceptance] criterion 8 PASS: 30 seeded ideals, matrix-oracle "
          f"agreement, {idempotence_checks} idempotence checks")


def test_criterion_09_presentations_agree_on_shared_generators():
    ring = RingContext(("t",))
    ambient = Presentation(ring, ())
    one_gen = Presentation(RingContext(("g1",)), ())
    two_ring = RingContext(("g1", "g2"))
    two_gen = Presentation(two_ring, (parse_poly(two_ring, "g2 - g1^3"),))
    for a in (F(1), F(2), F(5, 2)):
        v = make_weight_valuation(ambient, W(a))
        result = cross_presentation_consistency(
            [(one_gen, [parse_poly(ring, "t")]),
             (two_gen, [parse_poly(ring, "t"), parse_poly(ring, "t^3")])],
            v)
        assert result.ok
        assert result.tuples[0] == (trop(a),)
        assert result.tuples[1] == (trop(a), trop(3 * a))
    print("[acceptance] criterion 9 PASS: generator tuples are (a) and "
          "(a, 3a) for a in {1, 2, 5/2}")


def test_criterion_10_cli_determinism_and_exit_codes():
    for name, argv, expected in CASES + USAGE_CASES:
        first_code, first_text = run_case(argv)
        second_code, second_text = run_case(argv)
        assert first_code == expected == second_code, name
        assert first_text == second_text, name
    print(f"[acceptance] criterion 10 PASS: {len(CASES) + len(USAGE_CASES)} "
          "CLI invocations byte-identical across runs with contract exit codes")
