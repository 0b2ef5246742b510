import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from cli_corpus import run_case
from conftest import FIXTURE_WEIGHTS, W, _memo_free_terms, load, stored_coefficient
from tropval.cones import (
    HOLDS_CERTIFIED,
    HOLDS_NO_COUNTEREXAMPLE,
    REFUTED,
    RelationVerdict,
    implies_check,
)
from tropval import groebner
from tropval.groebner import _homogenize
from tropval.poly import Polynomial, Presentation, RingContext
from tropval.textio import parse_poly, poly_to_str
from tropval.trop import BOTTOM, TropicalValue, trop, trop_add, trop_mul
from tropval.valuation import (
    AxiomReport,
    CandidateValuation,
    NonfiniteGeneratorValueError,
    NotAHomomorphismError,
    PointwiseSum,
    Pullback,
    Scaled,
    WeightValuation,
    _draw_ranked_exponent,
    _ranked_exponents,
    _unrank_exponent,
    check_axioms,
    check_trop_membership,
    cross_presentation_consistency,
    make_weight_valuation,
    pullback,
    random_polynomial,
    tropicalize,
)

T_RING = RingContext(("t",))
FREE_T = Presentation(T_RING, ())


def test_univariate_degree_valuation():
    v = make_weight_valuation(FREE_T, W(2))
    assert v.evaluate(parse_poly(T_RING, "3*t^4 + t")) == trop(8)
    assert v.evaluate(parse_poly(T_RING, "5")) == trop(0)
    assert v.evaluate(Polynomial.zero(T_RING)) == BOTTOM
    rng = random.Random(20)
    for _ in range(60):
        p = random_polynomial(rng, T_RING, 12)
        assert v.evaluate(p) == trop(2 * p.total_degree())
    assert check_axioms(v, seed=1, n_pairs=120, degree_bound=8).verdict == "valuation"


def test_zero_weights_give_trivial_valuation(line):
    v = make_weight_valuation(line, W(0, 0))
    assert v.evaluate(parse_poly(line.ring, "x^3 - 7*y")) == trop(0)
    member = parse_poly(line.ring, "x + y + 1") * parse_poly(line.ring, "x - y")
    assert v.evaluate(member) == BOTTOM
    assert check_axioms(v, seed=2, n_pairs=100).verdict == "valuation"


def test_cancellation_in_the_quotient(line):
    v = make_weight_valuation(line, W(1, 1))
    f = parse_poly(line.ring, "x + y")
    assert poly_to_str(v.normal_form_of(f)) == "-1"
    assert v.evaluate(f) == trop(0)
    assert tropicalize(v) == W(1, 1)


def test_weight_outside_the_tropical_set_collapses(line):
    # The top-weight reduction at (1, 0) rewrites x to -y - 1, so every
    # nonzero class gets value 0: the candidate degenerates to the trivial
    # valuation, which is genuinely multiplicative, and its tropicalization
    # lands at the origin rather than at the requested weights.
    v = make_weight_valuation(line, W(1, 0))
    assert v.evaluate(parse_poly(line.ring, "x")) == trop(0)
    report = check_axioms(v, seed=7, n_pairs=300)
    assert report.verdict == "valuation"
    assert tropicalize(v) == W(0, 0)
    assert check_trop_membership(line, tropicalize(v), "certified").ok


def test_hyperbola_bad_weight_is_refuted(hyperbola):
    v = make_weight_valuation(hyperbola, W(1, 0))
    report = check_axioms(v, seed=7, n_pairs=200)
    assert report.verdict == "quasi_valuation_only"
    assert report.multiplicativity_failures
    a, b, got, expected = report.multiplicativity_failures[0]
    assert got < expected  # submultiplicative, never the other way


def test_hyperbola_balanced_weight_is_a_valuation(hyperbola):
    v = make_weight_valuation(hyperbola, W(1, -1))
    x = parse_poly(hyperbola.ring, "x")
    y = parse_poly(hyperbola.ring, "y")
    assert v.evaluate(x) == trop(1)
    assert v.evaluate(y) == trop(-1)
    assert v.evaluate(x * y) == trop(0)
    assert check_axioms(v, seed=7, n_pairs=200).verdict == "valuation"


def test_subadditivity_and_submultiplicativity_always_hold(cubic, hyperbola):
    # the floor holds for genuine valuations and for quasi-valuations alike
    candidates = [
        make_weight_valuation(cubic, W(1, 2, 3)),
        make_weight_valuation(hyperbola, W(1, 0)),  # fails multiplicativity
    ]
    for v in candidates:
        ring = v.presentation.ring
        rng = random.Random(3)
        for _ in range(120):
            a = random_polynomial(rng, ring, 3)
            b = random_polynomial(rng, ring, 3)
            va, vb = v.evaluate(a), v.evaluate(b)
            assert v.evaluate(a + b) <= max(va, vb)
            prod_cap = BOTTOM if (va.is_bottom or vb.is_bottom) \
                else trop(va.value + vb.value)
            assert v.evaluate(a * b) <= prod_cap


def test_strict_drop_forces_equal_values(cubic):
    v = make_weight_valuation(cubic, W(1, 2, 3))
    rng = random.Random(4)
    drops = 0
    for _ in range(400):
        a = random_polynomial(rng, cubic.ring, 3)
        b = random_polynomial(rng, cubic.ring, 3)
        va, vb = v.evaluate(a), v.evaluate(b)
        if v.evaluate(a + b) != max(va, vb):
            drops += 1
            assert va == vb
    assert drops > 0  # the sampler does exercise cancellations


def test_tropicalize_requires_finite_generators():
    ring = RingContext(("x", "y"))
    killed = Presentation(ring, (parse_poly(ring, "x"),))
    v = make_weight_valuation(killed, W(0, 0))
    with pytest.raises(NonfiniteGeneratorValueError):
        tropicalize(v)


def test_membership_modes(line):
    assert check_trop_membership(line, W(0, 0), "certified").ok
    res = check_trop_membership(line, W(1, 0), "prevariety")
    assert not res.ok
    assert poly_to_str(res.witness) == "x + y + 1"
    assert check_trop_membership(line, W(2, 2), "certified").ok
    res = check_trop_membership(line, W(1, 0), "certified")
    assert not res.ok and res.witness.is_monomial()


def test_membership_with_uniformizer():
    P = load("tadic.ideal")  # t*x = 1 with t pinned at weight -1
    assert check_trop_membership(P, W(-1, 1), "certified").ok
    # the pinned component makes the t-entry of the request irrelevant
    assert check_trop_membership(P, W(99, 1), "certified").ok
    assert not check_trop_membership(P, W(0, 2), "prevariety").ok


def test_pullback_identity_and_localization(hyperbola):
    v = make_weight_valuation(hyperbola, W(2, -2))
    # identity injection
    same = pullback([parse_poly(hyperbola.ring, "x"),
                     parse_poly(hyperbola.ring, "y")], v, hyperbola)
    rng = random.Random(5)
    for _ in range(40):
        f = random_polynomial(rng, hyperbola.ring, 3)
        assert same.evaluate(f) == v.evaluate(f)
    # chart inclusion determined together with v(y) = -v(x)
    axis = Presentation(RingContext(("x",)), ())
    vx = pullback([parse_poly(hyperbola.ring, "x")], v, axis)
    assert vx.evaluate(parse_poly(axis.ring, "x^3 + x")) == trop(6)
    assert v.evaluate(parse_poly(hyperbola.ring, "y")) == trop(-2)
    # tropicalizing the pullback reads values through the generator images
    assert tropicalize(vx) == W(2)


def test_pullback_composition_law():
    ambient = Presentation(T_RING, ())
    v = make_weight_valuation(ambient, W(3))
    mid_ring = RingContext(("u",))
    top_ring = RingContext(("s",))
    mid = Presentation(mid_ring, ())
    top = Presentation(top_ring, ())
    f_star = pullback([parse_poly(T_RING, "t^2")], v, mid)
    g_then_f = pullback([parse_poly(mid_ring, "u^3")], f_star, top)
    composite = pullback([parse_poly(T_RING, "t^6")], v, top)
    rng = random.Random(6)
    for _ in range(40):
        p = random_polynomial(rng, top_ring, 4)
        assert g_then_f.evaluate(p) == composite.evaluate(p)


def test_pullback_rejects_non_homomorphisms(hyperbola):
    v = make_weight_valuation(hyperbola, W(1, -1))
    bad = Presentation(RingContext(("w",)),
                       (parse_poly(RingContext(("w",)), "w^2 - 1"),))
    with pytest.raises(NotAHomomorphismError):
        pullback([parse_poly(hyperbola.ring, "x")], v, bad)


def test_cross_presentation_redundant_generator():
    square_ring = RingContext(("a", "b"))
    ambient = Presentation(T_RING, ())
    v = make_weight_valuation(ambient, W(Fraction(3, 2)))
    redundant = Presentation(
        square_ring, (parse_poly(square_ring, "b - a^2"),))
    plain = Presentation(RingContext(("a",)), ())
    res = cross_presentation_consistency(
        [(plain, [parse_poly(T_RING, "t")]),
         (redundant, [parse_poly(T_RING, "t"), parse_poly(T_RING, "t^2")])],
        v)
    assert res.ok
    assert res.tuples[1][1].value == 2 * res.tuples[1][0].value


def test_cross_presentation_single_presentation_is_vacuous():
    ambient = Presentation(T_RING, ())
    v = make_weight_valuation(ambient, W(1))
    res = cross_presentation_consistency(
        [(Presentation(RingContext(("g",)), ()), [parse_poly(T_RING, "t")])], v)
    assert res.ok


def test_cross_presentation_dictionary_mismatch():
    ambient = Presentation(T_RING, ())
    v = make_weight_valuation(ambient, W(1))
    with pytest.raises(ValueError):
        cross_presentation_consistency(
            [(Presentation(RingContext(("g", "h")), ()), [parse_poly(T_RING, "t")])],
            v)


def test_evaluate_is_defined_once_on_the_base_class():
    # perfbench/tracing.py wraps vars(CandidateValuation)["evaluate"]; a
    # subclass override would escape that wrapper.
    assert "evaluate" in vars(CandidateValuation)
    subclasses, stack = set(), [CandidateValuation]
    while stack:
        for cls in stack.pop().__subclasses__():
            subclasses.add(cls)
            stack.append(cls)
    assert {WeightValuation, Pullback, PointwiseSum, Scaled} <= subclasses
    for cls in subclasses:
        assert "evaluate" not in vars(cls)


def _randint_choice_sampler(rng, ring, degree_bound, max_terms=3):
    """The sampler as first written, on `randint` and `choice`."""
    while True:
        terms: dict = {}
        for _ in range(rng.randint(1, max_terms)):
            while True:
                e = tuple(rng.randint(0, degree_bound) for _ in range(ring.dim))
                if sum(e) <= degree_bound:
                    break
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            terms[e] = terms.get(e, 0) + c
        p = Polynomial._trusted(ring, {e: Fraction(c) for e, c in terms.items() if c})
        if not p.is_zero:
            return p


def test_sampler_draws_the_randint_choice_stream():
    """Same polynomials and the same generator state after them; CI runs
    this on every supported Python, which pins the stream on each."""
    for dim in range(1, 6):
        ring = RingContext(tuple(f"v{i}" for i in range(dim)))
        for degree_bound in range(7):
            for max_terms in range(1, 7):
                for seed in range(4):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    for _ in range(3):
                        assert (random_polynomial(ours, ring, degree_bound, max_terms)
                                == _randint_choice_sampler(theirs, ring, degree_bound,
                                                           max_terms))
                    assert ours.getrandbits(64) == theirs.getrandbits(64)


@pytest.mark.parametrize("degree_bound,max_terms", [(-1, 3), (-5, 3), (3, 0), (3, -2)])
def test_sampler_rejects_empty_ranges(degree_bound, max_terms):
    with pytest.raises(ValueError, match="degree_bound >= 0 and max_terms >= 1"):
        random_polynomial(random.Random(0), T_RING, degree_bound, max_terms)


def test_unranking_is_a_bijection_onto_the_bounded_exponent_vectors():
    for n in range(1, 6):
        for d in range(5):
            vectors = sorted(e for e in itertools.product(range(d + 1), repeat=n)
                             if sum(e) <= d)
            assert len(vectors) == math.comb(n + d, d)
            assert [_unrank_exponent(r, n, d) for r in range(len(vectors))] == vectors


def test_ranked_draw_is_uniform():
    rng = random.Random(11)
    counts = Counter(_draw_ranked_exponent(rng.getrandbits, 2, 3) for _ in range(10_000))
    # 10 vectors, each drawn with probability 1/10: within 5 standard deviations
    assert len(counts) == 10
    sd = math.sqrt(10_000 * 0.1 * 0.9)
    assert all(abs(c - 1000) <= 5 * sd for c in counts.values()), counts


class _CountingRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_sampler_draws_ranks_where_coordinate_draws_are_rare():
    # the coordinate draw is kept wherever it is accepted at least 1/64 of
    # the time, every fixture ring (at most 3 variables) included
    assert not any(_ranked_exponents(n, d) for n in range(1, 6) for d in range(7))
    assert _ranked_exponents(7, 3) and not _ranked_exponents(6, 3)
    ring = RingContext(tuple(f"v{i}" for i in range(15)))
    rng = _CountingRandom(4)
    for _ in range(200):
        assert random_polynomial(rng, ring, 3).total_degree() <= 3
    # about 6.5 draws a polynomial (term count, ranks, coefficients); the
    # coordinate draw took tens of millions a term at this size
    assert rng.calls < 200 * 20


def test_val_check_on_fifteen_variables_finishes_in_seconds(tmp_path):
    # Gr(2,6): the 15 three-term Plücker relations, under a caterpillar
    # tree metric (leaves 1, 2 | 3 | 4 | 5, 6)
    pairs = list(itertools.combinations(range(1, 7), 2))
    relations = [f"p{i}{j}*p{k}{l} - p{i}{k}*p{j}{l} + p{i}{l}*p{j}{k}"
                 for i, j, k, l in itertools.combinations(range(1, 7), 4)]
    ideal = tmp_path / "gr26.ideal"
    ideal.write_text("ring " + " ".join(f"p{i}{j}" for i, j in pairs) + ";\n"
                     + "".join(f"ideal {r};\n" for r in relations))
    position = {1: 1, 2: 1, 3: 2, 4: 3, 5: 4, 6: 4}
    metric = " ".join(str(abs(position[i] - position[j]) + 2) for i, j in pairs)
    start = time.perf_counter()
    code, out = run_case(["val-check", "--ideal", str(ideal), "--weight", metric,
                          "--seed", "1", "--samples", "50"])
    assert time.perf_counter() - start < 30
    assert code == 0
    assert "pairs_checked: 50\n" in out and "verdict: valuation\n" in out


# -- the int-coefficient checks against the Fraction-coefficient loop -----------------

OFF_VARIETY_WEIGHTS = {
    "hyperbola.ideal": [W(1, 0), W(2, 1)],
    "cone.ideal": [W(1, 0, 0), W(0, 1, 0)],
    "cubic.ideal": [W(1, 0, 0)],
}
# tadic pins t at -1, so its first entry is ignored; free_xy takes negative
# weights, a non-global order on the free algebra.
EXTRA_WEIGHTS = {
    "tadic.ideal": [W(-1, 1), W(0, 2), W(5, -1), W(-1, 0)],
    "free_xy.ideal": [W(-1, 2), W(1, -1), W(-2, -1), W(-1, 0), W(0, 0)],
}
ORACLE_SEEDS = range(10)
ORACLE_DEGREE_BOUNDS = range(1, 6)
ORACLE_PAIRS = 4
COMPOSITE_SEEDS = range(3)
COMPOSITE_DEGREE_BOUNDS = range(1, 4)


def _oracle_cases():
    """(fixture name, weight list) for every fixture the oracle covers."""
    names = sorted({*FIXTURE_WEIGHTS, *OFF_VARIETY_WEIGHTS, *EXTRA_WEIGHTS})
    return [(name, FIXTURE_WEIGHTS.get(name, []) + OFF_VARIETY_WEIGHTS.get(name, [])
             + EXTRA_WEIGHTS.get(name, [])) for name in names]


def _memo_free_key(v: WeightValuation, f: Polynomial):
    """The key of f by early-stop division of a homogenized copy of f,
    without the basis's memos."""
    if f.is_zero:
        return None
    for e, _ in _memo_free_terms(_homogenize(f, v.homogenized.ext), v.basis):
        return sum(map(mul, v.basis.order.int_weights, e))
    return None


def _fraction_evaluate(v: WeightValuation, f: Polynomial):
    """Evaluation as first written: divide a homogenized copy of f."""
    key = _memo_free_key(v, f)
    return BOTTOM if key is None else TropicalValue(Fraction(key, v.basis.order.scale))


def _fraction_value(v: CandidateValuation, f: Polynomial):
    """Each kind of valuation evaluated as first written, on `TropicalValue`s."""
    if isinstance(v, WeightValuation):
        return _fraction_evaluate(v, f)
    if isinstance(v, PointwiseSum):
        return trop_mul(_fraction_value(v.first, f), _fraction_value(v.second, f))
    if isinstance(v, Scaled):
        inner = _fraction_value(v.source, f)
        return BOTTOM if inner.is_bottom else TropicalValue(inner.value * v.factor)
    assert isinstance(v, Pullback)
    return _fraction_value(v.source, f.substitute(v.images))


SCALED_FACTORS = (Fraction(-1), Fraction(3, 2), Fraction(2, 5))


def _composites(P: Presentation, vals: list) -> list:
    """For each weight valuation v on P and the next one w: v (x) w and v at
    every factor of `SCALED_FACTORS`.  Every fourth v is also pulled back
    along u_i -> x_i + x_{i+1} from a free algebra (a homomorphism, since no
    relation needs killing); substitution makes these the slow ones."""
    ring = P.ring
    free = Presentation(RingContext(tuple(f"u{i}" for i in range(ring.dim))), ())
    x = [Polynomial.variable(ring, name) for name in ring.variables]
    images = [x[i] + x[(i + 1) % ring.dim] for i in range(ring.dim)]
    out = []
    for i, (v, w) in enumerate(zip(vals, vals[1:] + vals[:1])):
        out.append(PointwiseSum(v, w))
        out += [Scaled(v, factor) for factor in SCALED_FACTORS]
        if i % 4 == 0:
            out.append(Pullback(free, images, v))
    return out


def _fraction_check_axioms(v, seed, n_pairs, degree_bound):
    """The axiom loop as first written, on `Fraction`-coefficient samples."""
    rng = random.Random(seed)
    ring = v.presentation.ring
    mult_failures, cancellation_failures = [], []
    for _ in range(n_pairs):
        a = _randint_choice_sampler(rng, ring, degree_bound)
        b = _randint_choice_sampler(rng, ring, degree_bound)
        va, vb = _fraction_value(v, a), _fraction_value(v, b)
        vab = _fraction_value(v, a * b)
        expected = trop_mul(va, vb)
        if vab != expected:
            mult_failures.append((a, b, vab, expected))
        vsum = _fraction_value(v, a + b)
        if vsum != trop_add(va, vb) and va != vb:
            cancellation_failures.append((a, b))
    return AxiomReport(n_pairs, tuple(mult_failures), tuple(cancellation_failures))


def _fraction_implies(v, w, seed, n_samples, degree_bound):
    """The sampled branch of `implies_check` as first written."""
    rng = random.Random(seed)
    for _ in range(n_samples):
        a = _randint_choice_sampler(rng, v.presentation.ring, degree_bound)
        b = _randint_choice_sampler(rng, v.presentation.ring, degree_bound)
        if (_fraction_value(v, a) <= _fraction_value(v, b)
                and _fraction_value(w, a) > _fraction_value(w, b)):
            return RelationVerdict("implies", REFUTED, witness=(a, b))
    return RelationVerdict("implies", HOLDS_NO_COUNTEREXAMPLE, n_samples=n_samples)


def _assert_fraction_values(report: AxiomReport) -> None:
    for _, _, got, expected in report.multiplicativity_failures:
        for value in (got, expected):
            assert value.is_bottom or type(value.value) is Fraction


def test_int_sample_axiom_reports_match_the_fraction_loop():
    """Equal reports: the same counts, witness pairs in order, and values.

    `AxiomReport` equality compares the polynomials with `==`, which cannot
    tell 3 from Fraction(3); the coefficient types are checked separately.
    The composites of `_composites` run on fewer seeds and degree bounds.
    """
    runs = with_failures = with_two = 0
    composite_runs = {PointwiseSum: 0, Scaled: 0, Pullback: 0}
    composite_failures = dict(composite_runs)
    for name, weights in _oracle_cases():
        P = load(name)
        vals = [make_weight_valuation(P, w) for w in weights]
        for v in vals + _composites(P, vals):
            kind = type(v)
            seeds, bounds = ((ORACLE_SEEDS, ORACLE_DEGREE_BOUNDS) if kind is WeightValuation
                             else (COMPOSITE_SEEDS, COMPOSITE_DEGREE_BOUNDS))
            for seed in seeds:
                for degree_bound in bounds:
                    ours = check_axioms(v, seed=seed, n_pairs=ORACLE_PAIRS,
                                        degree_bound=degree_bound)
                    assert ours == _fraction_check_axioms(
                        v, seed, ORACLE_PAIRS, degree_bound), (name, v, seed, degree_bound)
                    _assert_fraction_values(ours)
                    failures = (len(ours.multiplicativity_failures)
                                + len(ours.cancellation_failures))
                    if kind is WeightValuation:
                        runs += 1
                        with_failures += failures > 0
                        with_two += failures > 1
                    else:
                        composite_runs[kind] += 1
                        composite_failures[kind] += failures > 0
    assert runs == 74 * len(ORACLE_SEEDS) * len(ORACLE_DEGREE_BOUNDS)
    assert with_failures > 200 and with_two > 50  # the comparison is not vacuous
    per_weight = len(COMPOSITE_SEEDS) * len(COMPOSITE_DEGREE_BOUNDS)
    assert composite_runs == {PointwiseSum: 74 * per_weight, Scaled: 3 * 74 * per_weight,
                              Pullback: 21 * per_weight}
    # A weight valuation pulled back along an injective map stays one, so
    # only the off-variety weights give pullbacks failures.
    assert composite_failures[PointwiseSum] > 100 and composite_failures[Scaled] > 300
    assert composite_failures[Pullback] >= 5


def test_evaluate_is_the_key_over_the_scale():
    """For every kind of valuation, `evaluate` is `_key` over `scale`, and
    both agree with evaluation as first written: on seeded samples, on
    elements of the ideal (bottom) and on zero."""
    kinds, bottoms = set(), 0
    for name, weights in _oracle_cases():
        P = load(name)
        vals = [make_weight_valuation(P, w) for w in weights]
        rng = random.Random(name)
        ideal = [g * random_polynomial(rng, P.ring, 2) for g in P.ideal_gens]
        for v in vals + _composites(P, vals):
            kinds.add(type(v))
            assert type(v.scale) is int and v.scale > 0
            ring = v.presentation.ring
            samples = [random_polynomial(rng, ring, 4) for _ in range(12)]
            samples.append(Polynomial.zero(ring))
            if ring == P.ring:
                samples += ideal
            for f in samples:
                key, value = v._key(f), v.evaluate(f)
                if key is None:
                    assert value == BOTTOM
                    bottoms += 1
                else:
                    assert type(key) is int
                    assert value == TropicalValue(Fraction(key, v.scale))
                    assert type(value.value) is Fraction
                assert value == _fraction_value(v, f), (name, v, f)
            for f in ideal if ring == P.ring else ():
                assert v._key(f) is None
    assert kinds == {WeightValuation, PointwiseSum, Scaled, Pullback}
    assert bottoms > 500


@pytest.fixture
def divided_leads(monkeypatch):
    """Every lead that `groebner` finds by division, after a top cancelled."""
    calls = []
    original = groebner._divided_lead

    def counting(work, keys, steps):
        lead = original(work, keys, steps)
        calls.append(lead)
        return lead

    monkeypatch.setattr(groebner, "_divided_lead", counting)
    return calls


def test_key_matches_memo_free_division_on_samples_and_products(divided_leads):
    """`_key` reads leads from the basis's lead memo; the reference divides
    each element anew.  Samples, their products, sums and triple products,
    on every fixture and weight of the oracle, with cancelled tops among
    them."""
    cases = bottoms = 0
    for name, weights in _oracle_cases():
        P = load(name)
        rng = random.Random(f"lead-memo/{name}")
        for w in weights:
            v = make_weight_valuation(P, w)
            samples = [random_polynomial(rng, P.ring, 4) for _ in range(10)]
            elements = list(samples)
            for a, b, c in zip(samples, samples[1:], samples[2:]):
                elements += [a * b, a + b, a * b * c]
            elements += [g * s for g, s in zip(P.ideal_gens, samples)]
            for f in elements:
                key = v._key(f)
                assert key == _memo_free_key(v, f), (name, w, f)
                cases += 1
                bottoms += key is None
    assert cases > 2000 and bottoms > 10
    assert len(divided_leads) > 10


def test_a_cancelled_top_is_divided(line, divided_leads):
    """At w = (1, 1) on x + y + 1, NF(x^2) and NF(x*y) both lead with y^2,
    with opposite signs, so the lead of NF(x^2 + x*y) comes from division:
    it is y, of value 1."""
    v = make_weight_valuation(line, W(1, 1))
    for text in ("x^2", "x*y"):
        assert v._key(parse_poly(line.ring, text)) == 2 * v.scale
    assert divided_leads == []
    f = parse_poly(line.ring, "x^2 + x*y")
    assert v._key(f) == v.scale == _memo_free_key(v, f)
    assert len(divided_leads) == 1
    assert v.evaluate(f) == TropicalValue(1)


@pytest.mark.parametrize("weights,slope", [((1, 1), 1), ((0, -1), 0)])
def test_a_deep_rewrite_chain_needs_no_recursion(line, weights, slope):
    """x^d rewrites through d reducible monomials; the lead memo fills them
    on a stack of its own, one entry each, since the walk stops at the
    first target below the best lead."""
    for d in (300, 3000):
        v = make_weight_valuation(line, W(*weights))
        f = Polynomial.monomial(line.ring, (d, 0))
        assert v.evaluate(f) == TropicalValue(slope * d)
        assert len(v.basis._memo[2]) == d


def test_composites_reject_parts_on_another_ring(hyperbola):
    v = make_weight_valuation(hyperbola, W(1, -1))
    on_t = make_weight_valuation(FREE_T, W(1))
    t = parse_poly(T_RING, "t")
    with pytest.raises(ValueError, match="two valuations on one ring"):
        PointwiseSum(v, on_t)
    with pytest.raises(ValueError, match="ambient algebra's ring"):
        Pullback(FREE_T, [t], v)
    with pytest.raises(ValueError, match="one image per"):
        Pullback(FREE_T, [], on_t)
    composites = [PointwiseSum(v, v), Scaled(v, Fraction(2)),
                  Pullback(FREE_T, [parse_poly(hyperbola.ring, "x")], v)]
    for candidate in [v, *composites]:
        foreign = t if candidate.presentation.ring == hyperbola.ring \
            else parse_poly(hyperbola.ring, "x")
        with pytest.raises(ValueError, match="element from a different ring"):
            candidate.evaluate(foreign)


def test_int_sample_implies_verdicts_match_the_fraction_loop():
    """`implies_check` samples at the fixed degree bound 3, so the oracle
    varies the seed alone, over enough seeds that each verdict is met over
    1,000 times (and each composite one over 500)."""
    statuses, composite_statuses = [], []
    seeds, composite_seeds = range(60), range(9)
    for name, weights in _oracle_cases():
        P = load(name)
        vals = [make_weight_valuation(P, w) for w in weights]
        for v, w in zip(vals, vals[1:]):
            for seed in seeds:
                ours = implies_check(v, w, seed=seed, n_samples=ORACLE_PAIRS)
                if ours.status == HOLDS_CERTIFIED:
                    continue
                assert ours == _fraction_implies(v, w, seed, ORACLE_PAIRS, 3), (name, seed)
                statuses.append(ours.status)
        # Neighbouring sums and multiples: keys over two different scales.
        comps = [c for c in _composites(P, vals) if not isinstance(c, Pullback)]
        for v, w in zip(comps, comps[1:]):
            for seed in composite_seeds:
                ours = implies_check(v, w, seed=seed, n_samples=ORACLE_PAIRS)
                assert ours == _fraction_implies(v, w, seed, ORACLE_PAIRS, 3), (name, seed)
                composite_statuses.append(ours.status)
    assert statuses.count(REFUTED) > 1000
    assert len(statuses) - statuses.count(REFUTED) > 1000
    assert composite_statuses.count(REFUTED) > 500
    assert composite_statuses.count(HOLDS_NO_COUNTEREXAMPLE) > 500


def test_reported_polynomials_have_fraction_coefficients(hyperbola):
    """Witnesses and draws hold rationals in their one stored form: ints,
    since every sample has small int coefficients."""
    free_xy = load("free_xy.ideal")
    # Off-variety weights fail multiplicativity; a negated valuation fails
    # cancellation, since it takes the min of two distinct values.
    candidates = [make_weight_valuation(hyperbola, W(1, 0)),
                  make_weight_valuation(hyperbola, W(2, 1)),
                  Scaled(make_weight_valuation(free_xy, W(1, 2)), Fraction(-1))]
    reported, kinds = [], set()
    for v in candidates:
        for seed in range(3):
            report = check_axioms(v, seed=seed, n_pairs=60)
            for a, b, _, _ in report.multiplicativity_failures:
                reported += [a, b]
                kinds.add("multiplicativity")
            for pair in report.cancellation_failures:
                reported += list(pair)
                kinds.add("cancellation")
    assert kinds == {"multiplicativity", "cancellation"}
    v, w = make_weight_valuation(free_xy, W(1, 2)), make_weight_valuation(free_xy, W(2, 1))
    refuted = 0
    for seed in range(20):
        verdict = implies_check(v, w, seed=seed, n_samples=20)
        if verdict.refuted:
            refuted += 1
            reported += list(verdict.witness)
    assert refuted > 10
    exact = implies_check(v, w, exact_mode=True)  # a monomial pair
    assert exact.refuted
    reported += list(exact.witness)
    for dim in (1, 2, 3):
        ring = RingContext(tuple(f"v{i}" for i in range(dim)))
        rng = random.Random(dim)
        reported += [random_polynomial(rng, ring, 4) for _ in range(50)]
    assert all(stored_coefficient(c) for p in reported for c in p.terms.values())


def test_check_axioms_rejects_a_degree_bound_below_one(hyperbola):
    v = make_weight_valuation(hyperbola, W(1, 0))
    for degree_bound in (0, -1):
        with pytest.raises(ValueError, match="degree_bound >= 1"):
            check_axioms(v, degree_bound=degree_bound)
