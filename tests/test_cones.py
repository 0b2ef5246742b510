import itertools
import random
from fractions import Fraction

import pytest

from cli_corpus import fixture, run_case
from conftest import W, load
from tropval.cones import (
    HypothesisFailsError,
    arrow_check,
    cone_sum,
    facet_classes,
    implies_check,
    scale,
)
from tropval.groebner import HomogenizedIdeal, MonomialOrder, buchberger, initial_form
from tropval.poly import Presentation, RingContext
from tropval.textio import parse_poly, poly_to_str
from tropval.trop import trop, trop_mul
from tropval.valuation import (
    PointwiseSum,
    Scaled,
    make_weight_valuation,
    pullback,
    random_polynomial,
)

XY = RingContext(("x", "y"))
FREE_XY = Presentation(XY, ())


def val(P, *weights):
    return make_weight_valuation(P, W(*weights))


def test_implies_scaling_certificate():
    verdict = implies_check(val(FREE_XY, 1, 1), val(FREE_XY, 2, 2), exact_mode=True)
    assert verdict.status == "holds_certified"


def test_implies_refuted_with_monomial_pair():
    verdict = implies_check(val(FREE_XY, 2, 1), val(FREE_XY, 1, 0), exact_mode=True)
    assert verdict.refuted
    a, b = verdict.witness
    assert (poly_to_str(a), poly_to_str(b)) == ("x", "y^2")


def test_implies_reflexive():
    v = val(FREE_XY, 1, 7)
    assert implies_check(v, v).status == "holds_certified"


def test_implies_zero_target_and_zero_source():
    assert implies_check(val(FREE_XY, 3, 1), val(FREE_XY, 0, 0),
                         exact_mode=True).status == "holds_certified"
    assert implies_check(val(FREE_XY, 0, 0), val(FREE_XY, 1, 0),
                         exact_mode=True).refuted


def test_implies_on_quotient_without_certificate(line):
    # (1,0) induces the trivial valuation here, so no pair can refute; the
    # verdict stays at the honest sampling level.
    verdict = implies_check(val(line, 1, 1), val(line, 1, 0), seed=3, n_samples=150)
    assert verdict.status == "holds_no_counterexample"
    assert verdict.n_samples == 150


def test_implies_exact_decision_agrees_with_sampling():
    rng = random.Random(9)
    for _ in range(25):
        v = val(FREE_XY, rng.randint(-3, 3), rng.randint(-3, 3))
        w = val(FREE_XY, rng.randint(-3, 3), rng.randint(-3, 3))
        verdict = implies_check(v, w, exact_mode=True, seed=1)
        if verdict.refuted:
            a, b = verdict.witness
            assert v.evaluate(a) <= v.evaluate(b)
            assert w.evaluate(a) > w.evaluate(b)
        else:
            # sampling must not find a counterexample either
            assert not implies_check(v, w, seed=2, n_samples=150).refuted


def test_implies_transitive_on_certified_chain():
    v, w, u = val(FREE_XY, 1, 2), val(FREE_XY, 2, 4), val(FREE_XY, 3, 6)
    assert implies_check(v, w, exact_mode=True).status == "holds_certified"
    assert implies_check(w, u, exact_mode=True).status == "holds_certified"
    assert implies_check(v, u, exact_mode=True).status == "holds_certified"


def test_cone_sum_free_and_scaling_case():
    res = cone_sum(val(FREE_XY, 1, 1), val(FREE_XY, 2, 2), val(FREE_XY, 3, 3),
                   exact_mode=True)
    assert res.valuation.weights == W(5, 5)
    assert res.axiom_report.verdict == "valuation"
    assert not res.implies_verdict.refuted
    v = val(FREE_XY, 1, 2)
    doubled = cone_sum(v, v, v, exact_mode=True)
    assert doubled.valuation.weights == W(2, 4)


def test_cone_sum_on_quotient(line):
    res = cone_sum(val(line, 1, 1), val(line, 1, 1), val(line, 2, 2),
                   seed=0, n_samples=150)
    assert res.valuation.weights == W(3, 3)
    assert res.axiom_report.verdict == "valuation"
    assert not res.implies_verdict.refuted


def test_cone_job_shares_one_homogenization(buchberger_calls):
    # one weight-independent run, then one refined run each for v, w1, w2
    # and the sum (3, 3); building each on its own homogenization made 8
    code, out = run_case(["cone", "--ideal", fixture("line.ideal"), "--v", "1 1",
                          "--w1", "1 1", "--w2", "2 2"])
    assert code == 0 and "sum_weights: 3 3" in out
    assert len(buchberger_calls) == 5


def test_scale_reuses_the_refined_bases(line, buchberger_calls):
    v = val(line, 1, 1)
    before = len(buchberger_calls)
    scaled = scale(v, 3)
    # one refined run for the scaled weight, then one grevlex run for each
    # side of the initial-ideal check; rerunning both refined bases made 5
    assert len(buchberger_calls) - before == 3
    assert scaled.weights == W(3, 3)
    assert scaled.homogenized is v.homogenized


def test_cone_sum_of_pullbacks_is_pointwise():
    t_ring = RingContext(("t",))
    ambient = Presentation(t_ring, ())
    u_ring = RingContext(("u",))
    sub = Presentation(u_ring, ())
    t2, t3 = parse_poly(t_ring, "t^2"), parse_poly(t_ring, "t^3")
    v = pullback([t2], make_weight_valuation(ambient, W(1)), sub)
    w1 = pullback([t2], make_weight_valuation(ambient, W(2)), sub)
    w2 = pullback([t3], make_weight_valuation(ambient, W(1)), sub)
    res = cone_sum(v, w1, w2, seed=0, n_samples=100)
    total = res.valuation
    assert isinstance(total, PointwiseSum)
    assert res.axiom_report.verdict == "valuation"
    assert not res.implies_verdict.refuted
    tripled = scale(total, 3)
    assert isinstance(tripled, Scaled)
    rng = random.Random(16)
    for _ in range(40):
        f = random_polynomial(rng, u_ring, 5)
        assert total.evaluate(f) == trop_mul(w1.evaluate(f), w2.evaluate(f))
        assert total.evaluate(f) == trop(7 * f.total_degree())
        assert tripled.evaluate(f) == trop(21 * f.total_degree())


def test_cone_sum_hypothesis_failure():
    with pytest.raises(HypothesisFailsError):
        cone_sum(val(FREE_XY, 2, 1), val(FREE_XY, 1, 0), val(FREE_XY, 2, 1),
                 exact_mode=True)


def test_scale_preserves_facet_and_values(line):
    v = val(line, 1, 0)
    tripled = scale(v, 3)
    assert tripled.weights == W(3, 0)
    assert scale(v, 1).weights == v.weights
    t_ring = RingContext(("t",))
    vt = make_weight_valuation(Presentation(t_ring, ()), W(2))
    halved = scale(vt, Fraction(1, 2))
    p = parse_poly(t_ring, "t^3 + t")
    assert halved.evaluate(p) == trop(3)
    with pytest.raises(ValueError):
        scale(v, 0)


def test_scale_wraps_pullback_valuations():
    t_ring = RingContext(("t",))
    ambient = Presentation(t_ring, ())
    v = make_weight_valuation(ambient, W(2))
    sub_ring = RingContext(("u",))
    restricted = pullback([parse_poly(t_ring, "t^2")], v, Presentation(sub_ring, ()))
    doubled = scale(restricted, 2)
    u = parse_poly(sub_ring, "u^3")
    assert restricted.evaluate(u) == trop(12)
    assert doubled.evaluate(u) == trop(24)


def test_arrow_reflexive_and_iterated_cases(line):
    assert arrow_check(line, W(1, 1), W(1, 1)).status == "holds_certified"
    assert arrow_check(line, W(2, 2), W(1, 1)).status == "holds_certified"
    assert arrow_check(line, W(1, 0), W(1, 1)).status == "holds_certified"


def test_arrow_refuted(line):
    # in_w(I) = <x> for w = (1,0); taking v = (0,-1) initials gives <x>
    # again, while in_v(I) = <x + 1>: the two sides differ.
    verdict = arrow_check(line, W(0, -1), W(1, 0))
    assert verdict.refuted
    assert verdict.witness is not None


def _arrow_reference(H: HomogenizedIdeal, v, w) -> bool:
    """Both sides of the arrow relation, each from its own Groebner bases."""
    P = H.presentation
    inner, _ = H.initial(w)
    P_inner = Presentation(P.ring, tuple(inner), P.coeff_valuation)
    return HomogenizedIdeal(P_inner).canonical_basis(v) == H.canonical_basis(v)


@pytest.mark.parametrize("name", ["line.ideal", "hyperbola.ideal", "cubic.ideal",
                                  "cone.ideal", "plane.ideal", "tadic.ideal",
                                  "free_xy.ideal", "free_t.ideal"])
def test_arrow_shortcut_matches_both_sides(name):
    # When every generator is w-homogeneous, arrow_check answers without a
    # Groebner basis; the reference computes in_w(I) and both sides anyway.
    P = load(name)
    H = HomogenizedIdeal(P)
    ideal_basis = buchberger(list(P.ideal_gens), MonomialOrder.grevlex()).gens
    n = P.ring.dim
    shortcuts = 0
    for w in itertools.product((-1, 0, 1), repeat=n):
        w = W(*w)
        weff = P.effective_weights(w)
        shortcut = all(initial_form(g, weff) == g for g in P.ideal_gens)
        if shortcut:
            shortcuts += 1
            assert H.canonical_basis(w) == ideal_basis  # in_w(I) = I
        for v in itertools.product((-1, 1), repeat=n):
            v = W(*v)
            verdict = arrow_check(P, v, w)
            assert (not verdict.refuted) == _arrow_reference(H, v, w)
            if shortcut:
                assert verdict.note == "iterated initial ideal matches"
    assert shortcuts > 0


def test_arrow_on_an_initial_ideal_equal_to_the_ideal_runs_no_buchberger(
        buchberger_calls):
    code, out = run_case(["arrow", "--ideal", fixture("line.ideal"),
                          "--v", "1 1", "--w", "0 0"])
    assert code == 0 and "status: holds_certified" in out
    assert buchberger_calls == []
    # the shortcut still rejects a v of the wrong dimension
    assert run_case(["arrow", "--ideal", fixture("line.ideal"),
                     "--v", "1 1 1", "--w", "0 0"]) == (
        2, "input_error: weight vector has wrong dimension for this ring\n")


def test_facet_classes(line):
    part = facet_classes(line, [W(1, 1), W(2, 2)])
    assert len(part.classes) == 1
    part = facet_classes(line, [W(0, 0), W(1, 0)])
    assert len(part.classes) == 2
    assert facet_classes(line, []).classes == ()


def test_facet_scaling_invariance():
    for name in ("line.ideal", "hyperbola.ideal", "cubic.ideal"):
        P = load(name)
        rng = random.Random(14)
        for _ in range(6):
            w = W(*[rng.randint(-2, 2) for _ in range(P.ring.dim)])
            r = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            part = facet_classes(P, [w, w.scale(r)])
            assert len(part.classes) == 1


def test_certified_implies_gives_arrow(line, hyperbola, cubic):
    # whenever the strong relation is certified for weight vectors, the
    # iterated-initial-ideal relation must hold on every presentation
    for P in (line, hyperbola, cubic):
        dims = P.ring.dim
        rng = random.Random(15)
        for _ in range(8):
            base = [rng.randint(-2, 2) for _ in range(dims)]
            lam = rng.choice((1, 2, 3, Fraction(1, 2)))
            v = make_weight_valuation(P, W(*base))
            w = make_weight_valuation(P, W(*base).scale(lam))
            verdict = implies_check(v, w, exact_mode=True)
            assert verdict.status == "holds_certified"
            assert not arrow_check(P, v.weights, w.weights).refuted
