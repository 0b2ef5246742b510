"""Candidate valuations on presented algebras and the axiom machinery.

A weight vector w on the generators of A = K[X]/I induces a candidate
valuation: the value of f is the top weight among the terms of the normal
form of f against a w-refined basis of I (bottom for elements of I).  The
order compares that weight first, so the value is the weight of the normal
form's leading term, and evaluation divides only until that term appears
(`leading_normal_exponent`).  This is always subadditive and
submultiplicative; whether multiplicativity holds exactly is what
`check_axioms` probes by seeded sampling.  The report never claims more
than "no counterexample among the sampled pairs".

Pullbacks along injections, pointwise sums, and scalings are represented by
the same class with different evaluation strategies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .groebner import (
    GroebnerBasis,
    MonomialOrder,
    _dehomogenize,
    _homogenize,
    buchberger,
    contains_monomial,
    initial_form,
    initial_ideal,
    leading_normal_exponent,
    normal_form,
    weight_refined_basis,
)
from .poly import Polynomial, Presentation, RingContext, WeightVector
from .trop import BOTTOM, TropicalValue, trop_add, trop_mul


class NonfiniteGeneratorValueError(ValueError):
    """A generator evaluated to bottom where a finite value is required."""


class NotAHomomorphismError(ValueError):
    """The proposed generator images do not kill the subalgebra's relations."""


WEIGHT_INDUCED = "weight_induced"
PULLBACK = "pullback"
POINTWISE_SUM = "pointwise_sum"
SCALED = "scaled"


class CandidateValuation:
    """A candidate valuation on a presented algebra.

    Construct through `make_weight_valuation`, `pullback`, or the cone
    operations; instances are immutable after construction and safe to
    evaluate concurrently.
    """

    def __init__(self, kind: str, presentation: Presentation, *,
                 weights: WeightVector | None = None,
                 images: tuple[Polynomial, ...] | None = None,
                 source: "CandidateValuation | None" = None,
                 parts: tuple = (),
                 factor: Fraction | None = None):
        self.kind = kind
        self.presentation = presentation
        self.weights = weights
        self.images = images
        self.source = source
        self.parts = parts
        self.factor = factor
        self._cache: dict = {}
        self._gb: GroebnerBasis | None = None
        self._ext: RingContext | None = None
        if kind == WEIGHT_INDUCED:
            self._gb, self._ext = weight_refined_basis(presentation, weights)

    def normal_form_of(self, f: Polynomial) -> Polynomial:
        """Canonical coset representative used by weight-induced evaluation."""
        if self.kind != WEIGHT_INDUCED:
            raise ValueError("normal forms exist only for weight-induced valuations")
        if f.is_zero:
            return f
        reduced = normal_form(_homogenize(f, self._ext), self._gb)
        return _dehomogenize(reduced, self.presentation.ring)

    def evaluate(self, f: Polynomial) -> TropicalValue:
        if f.ring != self.presentation.ring:
            raise ValueError("element from a different ring")
        if f.is_zero:
            return BOTTOM
        key = f.key()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = self._evaluate(f)
        self._cache[key] = value
        return value

    def _evaluate(self, f: Polynomial) -> TropicalValue:
        if self.kind == WEIGHT_INDUCED:
            e = leading_normal_exponent(_homogenize(f, self._ext), self._gb)
            if e is None:
                return BOTTOM
            order = self._gb.order
            return TropicalValue(Fraction(sum(map(mul, order.int_weights, e)), order.scale))
        if self.kind == PULLBACK:
            return self.source.evaluate(f.substitute(list(self.images)))
        if self.kind == POINTWISE_SUM:
            a, b = self.parts
            return trop_mul(a.evaluate(f), b.evaluate(f))
        if self.kind == SCALED:
            inner = self.parts[0].evaluate(f)
            if inner.is_bottom:
                return BOTTOM
            return TropicalValue(inner.value * self.factor)
        raise AssertionError(f"unknown valuation kind {self.kind}")

    def __repr__(self) -> str:
        if self.kind == WEIGHT_INDUCED:
            return f"CandidateValuation(weights=({self.weights}))"
        return f"CandidateValuation(kind={self.kind!r})"


def make_weight_valuation(P: Presentation, w: WeightVector) -> CandidateValuation:
    """Weight-induced candidate valuation, its refined basis cached eagerly."""
    return CandidateValuation(WEIGHT_INDUCED, P, weights=w)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of refutation-based axiom sampling."""

    pairs_checked: int
    multiplicativity_failures: tuple
    cancellation_failures: tuple

    @property
    def verdict(self) -> str:
        if self.multiplicativity_failures or self.cancellation_failures:
            return "quasi_valuation_only"
        return "valuation"


def random_polynomial(rng: random.Random, ring: RingContext,
                      degree_bound: int, max_terms: int = 3) -> Polynomial:
    """Nonzero polynomial with small integer coefficients, seeded."""
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


def check_axioms(v: CandidateValuation, seed: int = 0, n_pairs: int = 200,
                 degree_bound: int = 3) -> AxiomReport:
    """Sample pairs and record every multiplicativity and cancellation failure.

    A multiplicativity failure is v(ab) != v(a) (x) v(b).  A cancellation
    failure is a strict drop v(a+b) < v(a) (+) v(b) with v(a) != v(b), which
    no valuation can exhibit.
    """
    rng = random.Random(seed)
    ring = v.presentation.ring
    mult_failures = []
    cancellation_failures = []
    for _ in range(n_pairs):
        a = random_polynomial(rng, ring, degree_bound)
        b = random_polynomial(rng, ring, degree_bound)
        va, vb = v.evaluate(a), v.evaluate(b)
        vab = v.evaluate(a * b)
        expected = trop_mul(va, vb)
        if vab != expected:
            mult_failures.append((a, b, vab, expected))
        vsum = v.evaluate(a + b)
        join = trop_add(va, vb)
        if vsum != join and va != vb:
            cancellation_failures.append((a, b))
    return AxiomReport(n_pairs, tuple(mult_failures), tuple(cancellation_failures))


def tropicalize(v: CandidateValuation,
                P: Presentation | None = None) -> WeightVector:
    """The tuple of generator values; every generator must be finite."""
    P = P or v.presentation
    values = []
    for name in P.ring.variables:
        t = v.evaluate(Polynomial.variable(P.ring, name))
        if t.is_bottom:
            raise NonfiniteGeneratorValueError(
                f"generator {name!r} has value -inf; no tropical point exists"
            )
        values.append(t.value)
    return WeightVector(tuple(values))


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    mode: str
    witness: Polynomial | None


def check_trop_membership(P: Presentation, w: WeightVector,
                          mode: str = "certified") -> MembershipResult:
    """Tropical membership of a weight vector for the presented ideal.

    ``prevariety``: every supplied generator has at least two terms of top
    weight.  ``certified``: the initial ideal contains no monomial, decided
    by saturation.  The witness on failure is the offending generator or the
    monomial found.
    """
    weff = P.effective_weights(w)
    if mode == "prevariety":
        for g in P.ideal_gens:
            if len(initial_form(g, weff).terms) < 2:
                return MembershipResult(False, mode, g)
        return MembershipResult(True, mode, None)
    if mode == "certified":
        gens = initial_ideal(P, w)
        if not gens:
            return MembershipResult(True, mode, None)
        found, witness = contains_monomial(gens, P.ring)
        return MembershipResult(not found, mode, witness)
    raise ValueError(f"unknown membership mode {mode!r}")


def pullback(images: list[Polynomial], v: CandidateValuation,
             P_sub: Presentation) -> CandidateValuation:
    """Pull a valuation back along a subalgebra inclusion.

    The images (elements of v's algebra) must send every relation of the
    subalgebra presentation to zero; injectivity of the induced map is the
    caller's assertion and is not checked.
    """
    ambient = v.presentation
    if len(images) != P_sub.ring.dim:
        raise ValueError("one image per subalgebra generator is required")
    for img in images:
        if img.ring != ambient.ring:
            raise ValueError("images must live in the ambient algebra's ring")
    if ambient.ideal_gens:
        gb = buchberger(list(ambient.ideal_gens), MonomialOrder.grevlex())
    else:
        gb = None
    for g in P_sub.ideal_gens:
        mapped = g.substitute(list(images))
        reduced = normal_form(mapped, gb) if gb is not None else mapped
        if not reduced.is_zero:
            raise NotAHomomorphismError(
                f"relation {g} maps to {reduced}, not zero"
            )
    return CandidateValuation(PULLBACK, P_sub, images=tuple(images), source=v)


@dataclass(frozen=True)
class ConsistencyResult:
    ok: bool
    tuples: tuple[tuple[TropicalValue, ...], ...]


def cross_presentation_consistency(
    entries: list[tuple[Presentation, list[Polynomial]]],
    v: CandidateValuation,
) -> ConsistencyResult:
    """Check that generator values agree across several presentations.

    Each entry supplies a presentation of (a subalgebra of) v's algebra and
    the images of its generators.  Generators of different presentations
    count as "the same" when their images agree modulo the ambient ideal,
    and then their tropicalization components must match.
    """
    ambient = v.presentation
    if ambient.ideal_gens:
        gb = buchberger(list(ambient.ideal_gens), MonomialOrder.grevlex())
    else:
        gb = None

    def reduce(p: Polynomial) -> Polynomial:
        return normal_form(p, gb) if gb is not None else p

    tuples = []
    flat: list[tuple[tuple, TropicalValue]] = []
    for presentation, images in entries:
        if len(images) != presentation.ring.dim:
            raise ValueError("generator dictionary does not match the presentation")
        row = tuple(v.evaluate(img) for img in images)
        tuples.append(row)
        for img, val in zip(images, row):
            flat.append((reduce(img).key(), val))
    seen: dict[tuple, TropicalValue] = {}
    ok = True
    for key, val in flat:
        if key in seen and seen[key] != val:
            ok = False
        seen.setdefault(key, val)
    return ConsistencyResult(ok, tuple(tuples))
