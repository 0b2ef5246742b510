"""Candidate valuations on presented algebras and the axiom machinery.

A weight vector w on the generators of A = K[X]/I induces a candidate
valuation: the value of f is the top weight among the terms of the normal
form of f against a w-refined basis of I (bottom for elements of I).  The
order compares that weight first, so the value is the weight of the normal
form's leading term.  Evaluation reads that term off the leads the basis
memoizes for f's monomials, and divides only when they cancel at the top.
Its work dict holds f homogenized (the extra variable's exponent appended
to each term), so no homogenized copy of f is built.
This is always subadditive and submultiplicative; whether
multiplicativity holds exactly is what `check_axioms` probes by seeded
sampling.  The report never claims more than "no counterexample among
the sampled pairs".

Values are integer keys.  Each valuation has one fixed positive int
`scale`, and its private `_key(f)` is the value of f times that scale, or
None for bottom (f = 0 included).  A weight valuation's scale is its
order's, so its key is the int weight dot product of the leading
remainder exponent; a pointwise sum, a rational multiple and a pullback
derive theirs from their parts' (see each class).  `check_axioms` and the
sampled search of `cones.implies_check` compare keys only: one
valuation's keys share one scale, so key order is value order.  A
`TropicalValue` is built in just two places: the public `evaluate`, which
every subclass inherits, and a reported witness.

Inside those two loops, samples and their products and sums have int
coefficients: they are draws of `random_polynomial`, whose coefficients
are small ints, and a reported witness is such a sample as drawn.

Weight valuations of one presentation can share one `HomogenizedIdeal`.
Values are not memoized per element, since nearly every sampled element
is new.  The refined basis a `WeightValuation` holds memoizes per monomial
instead (`GroebnerBasis`): the few hundred monomials the samples share
meet the same order keys, division steps and normal-form leads again and
again.  NF is linear, so the lead of NF(f) is the largest lead among f's
monomials unless the coefficients there cancel; then, for about 1% of
the keys of an axiom sweep, f is divided, stopping at the first
irreducible term.  `check_axioms` evaluates a + b only when v(a) != v(b),
the one case whose value it reads.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import TropvalError
from .groebner import (
    HomogenizedIdeal,
    MonomialOrder,
    _dehomogenize,
    _homogenize,
    _leading_remainder,
    _top_split,
    buchberger,
    contains_monomial,
    initial_ideal,
    normal_form,
)
from .poly import Polynomial, Presentation, RingContext, WeightVector, _rational
from .trop import BOTTOM, TropicalValue


class NonfiniteGeneratorValueError(TropvalError):
    """A generator evaluated to bottom where a finite value is required."""


class NotAHomomorphismError(TropvalError):
    """The proposed generator images do not kill the subalgebra's relations."""


class CandidateValuation:
    """A candidate valuation on a presented algebra.

    Each subclass sets the positive int ``scale`` and supplies `_key(f)`:
    the value of f times ``scale`` as an int, or None for bottom, f = 0
    included.  `_key` does not check f's ring; `evaluate` does, and each
    composite checks its parts' rings when it is built.  Construct one, or
    use `make_weight_valuation`, `pullback` or the cone operations.  Values
    do not change after construction; the only state written later is the
    division memo of a held basis, whose entries are written once and
    depend only on the monomial, so evaluating concurrently gives the same
    values.
    """

    scale: int

    def __init__(self, presentation: Presentation):
        self.presentation = presentation

    def evaluate(self, f: Polynomial) -> TropicalValue:
        if f.ring != self.presentation.ring:
            raise ValueError("element from a different ring")
        return _value(self._key(f), self.scale)


def _value(key: int | None, scale: int) -> TropicalValue:
    """The tropical value of a key over ``scale``; None is bottom."""
    return BOTTOM if key is None else TropicalValue(Fraction(key, scale))


class WeightValuation(CandidateValuation):
    """The valuation induced by `weights`, on a possibly shared `homogenized`.

    Its scale is that of the refined order, whose int weights give keys.
    """

    def __init__(self, homogenized: HomogenizedIdeal, weights: WeightVector):
        super().__init__(homogenized.presentation)
        self.homogenized = homogenized
        self.weights = weights
        self.basis = homogenized.refined_basis(weights)
        self.scale = self.basis.order.scale
        self._int_weights = self.basis.order.int_weights

    def normal_form_of(self, f: Polynomial) -> Polynomial:
        """Canonical coset representative: the normal form against `basis`."""
        if f.is_zero:
            return f
        reduced = normal_form(_homogenize(f, self.homogenized.ext), self.basis)
        return _dehomogenize(reduced, self.presentation.ring)

    def _key(self, f: Polynomial) -> int | None:
        # The work dict holds f homogenized: each exponent gets the power
        # d - |e| of the extra variable, with no homogenized copy of f.
        terms = f.terms
        if not terms:
            return None
        d = max(map(sum, terms))
        work = {e + (d - sum(e),): c for e, c in terms.items()}
        e = _leading_remainder(work, self.basis)
        return None if e is None else sum(map(mul, self._int_weights, e))


class Pullback(CandidateValuation):
    """A valuation read through generator images: f goes to source(f(images)).

    It keeps the source's scale.
    """

    def __init__(self, presentation: Presentation, images: list[Polynomial],
                 source: CandidateValuation):
        super().__init__(presentation)
        self.images = tuple(images)
        if len(self.images) != presentation.ring.dim:
            raise ValueError("one image per subalgebra generator is required")
        if any(img.ring != source.presentation.ring for img in self.images):
            raise ValueError("images must live in the ambient algebra's ring")
        self.source = source
        self.scale = source.scale

    def _key(self, f: Polynomial) -> int | None:
        return self.source._key(f.substitute(self.images))


class PointwiseSum(CandidateValuation):
    """The tropical product of two valuations on one algebra, pointwise.

    Its scale is the lcm of the parts' scales; each part's key is carried
    up to it before the two are added.
    """

    def __init__(self, first: CandidateValuation, second: CandidateValuation):
        if first.presentation.ring != second.presentation.ring:
            raise ValueError("a pointwise sum needs two valuations on one ring")
        super().__init__(first.presentation)
        self.first = first
        self.second = second
        self.scale = math.lcm(first.scale, second.scale)
        self._lifts = (self.scale // first.scale, self.scale // second.scale)

    def _key(self, f: Polynomial) -> int | None:
        k1 = self.first._key(f)
        if k1 is None:
            return None
        k2 = self.second._key(f)
        if k2 is None:
            return None
        m1, m2 = self._lifts
        return k1 * m1 + k2 * m2


class Scaled(CandidateValuation):
    """A valuation multiplied by a rational factor; bottom stays bottom.

    The key is the source's times the factor's numerator, over the source's
    scale times its denominator, so a negative factor keeps the scale
    positive.
    """

    def __init__(self, source: CandidateValuation, factor: Fraction):
        super().__init__(source.presentation)
        self.source = source
        self.factor = _rational(factor)
        self._numerator = self.factor.numerator
        self.scale = source.scale * self.factor.denominator

    def _key(self, f: Polynomial) -> int | None:
        inner = self.source._key(f)
        return None if inner is None else inner * self._numerator


def make_weight_valuation(P: Presentation, w: WeightVector) -> WeightValuation:
    """Weight-induced candidate valuation on a homogenized ideal of its own."""
    return WeightValuation(HomogenizedIdeal(P), w)


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


_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


@functools.lru_cache(maxsize=256)
def _ranked_exponents(n: int, d: int) -> bool:
    """Whether n coordinates drawn from 0..d, redrawn while their sum
    exceeds d, are accepted less than 1/64 of the time (C(n+d, d) vectors
    out of (d+1)^n), so that `random_polynomial` draws ranks instead."""
    return 64 * math.comb(n + d, d) < (d + 1) ** n


def _unrank_exponent(rank: int, n: int, d: int) -> tuple[int, ...]:
    """The exponent vector of degree at most d in n variables that has this
    rank, 0 <= rank < C(n+d, d), in lexicographic order.

    By stars and bars, C(k+m, k) vectors in k variables have degree at most
    m; each coordinate x skips the blocks of the smaller values before it.
    """
    e = []
    for k in range(n - 1, -1, -1):  # variables after this one
        x = 0
        block = math.comb(k + d, k)
        while rank >= block:
            rank -= block
            x += 1
            block = math.comb(k + d - x, k)
        e.append(x)
        d -= x
    return tuple(e)


def _draw_ranked_exponent(bits, n: int, d: int) -> tuple[int, ...]:
    """A uniform exponent vector of degree at most d in n variables: a rank
    below C(n+d, d), drawn by the `getrandbits` rejection rule (accepted at
    least half the time), unranked."""
    count = math.comb(n + d, d)
    k = count.bit_length()
    rank = bits(k)
    while rank >= count:
        rank = bits(k)
    return _unrank_exponent(rank, n, d)


def random_polynomial(rng: random.Random, ring: RingContext,
                      degree_bound: int, max_terms: int = 3) -> Polynomial:
    """Nonzero polynomial with small int coefficients, seeded.

    The term count is ``randint(1, max_terms)``, each exponent
    ``randint(0, degree_bound)`` (the vector redrawn while its degree
    exceeds the bound) and each coefficient ``choice(_COEFFICIENTS)``.
    Each draw is written out as CPython's rejection rule for those calls:
    for a range of n values, draw ``getrandbits(n.bit_length())`` until the
    draw is below n.  So the polynomial and the generator's state afterwards
    are those of the calls themselves, one C call per draw instead of three
    Python calls.

    Where that exponent draw is accepted less than 1/64 of the time (7 or
    more variables at degree bound 3), its cost grows exponentially with
    the number of variables; there each exponent vector is drawn by
    `_draw_ranked_exponent` instead, from the same uniform distribution on
    the same vectors.
    """
    if degree_bound < 0 or max_terms < 1:
        raise ValueError(f"a random polynomial needs degree_bound >= 0 and "
                         f"max_terms >= 1, got {degree_bound} and {max_terms}")
    ranked = _ranked_exponents(ring.dim, degree_bound)
    bits = rng.getrandbits
    span = degree_bound + 1
    k_exp, k_terms = span.bit_length(), max_terms.bit_length()
    n_coeffs = len(_COEFFICIENTS)
    k_coeff = n_coeffs.bit_length()
    dims = range(ring.dim)
    while True:
        terms: dict = {}
        count = bits(k_terms)
        while count >= max_terms:
            count = bits(k_terms)
        for _ in range(count + 1):
            if ranked:
                e = _draw_ranked_exponent(bits, ring.dim, degree_bound)
            else:
                while True:
                    e = []
                    for _ in dims:
                        x = bits(k_exp)
                        while x >= span:
                            x = bits(k_exp)
                        e.append(x)
                    if sum(e) <= degree_bound:
                        break
                e = tuple(e)
            i = bits(k_coeff)
            while i >= n_coeffs:
                i = bits(k_coeff)
            terms[e] = terms.get(e, 0) + _COEFFICIENTS[i]
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            return Polynomial._trusted(ring, terms)


def check_axioms(v: CandidateValuation, seed: int = 0, n_pairs: int = 200,
                 degree_bound: int = 3) -> AxiomReport:
    """Sample pairs and record every multiplicativity and cancellation failure.

    A multiplicativity failure is v(ab) != v(a) (x) v(b).  A cancellation
    failure is a strict drop v(a+b) < v(a) (+) v(b) with v(a) != v(b), which
    no valuation can exhibit.  The samples are those of `random_polynomial`,
    and values are compared as keys.  A witness pair is reported as drawn,
    with its values as `TropicalValue`s.  A degree bound below 1 is
    rejected: every sample would be a constant, and any candidate would
    pass.
    """
    if degree_bound < 1:
        raise ValueError(f"axiom sampling needs degree_bound >= 1, got {degree_bound}")
    rng = random.Random(seed)
    ring = v.presentation.ring
    key = v._key
    mult_failures = []
    cancellation_failures = []
    for _ in range(n_pairs):
        a = random_polynomial(rng, ring, degree_bound)
        b = random_polynomial(rng, ring, degree_bound)
        # Keys over v's one scale; None is bottom, which absorbs in the
        # product and is least in the join.
        va, vb = key(a), key(b)
        vab = key(a * b)
        expected = None if va is None or vb is None else va + vb
        if vab != expected:
            mult_failures.append((a, b, _value(vab, v.scale), _value(expected, v.scale)))
        if va != vb:  # equal values allow any drop, so a + b is not evaluated
            join = vb if va is None else va if vb is None else max(va, vb)
            if key(a + b) != join:
                cancellation_failures.append((a, b))
    return AxiomReport(n_pairs, tuple(mult_failures), tuple(cancellation_failures))


def tropicalize(v: CandidateValuation) -> WeightVector:
    """The tuple of generator values; every generator must be finite."""
    ring = v.presentation.ring
    values = []
    for name in ring.variables:
        t = v.evaluate(Polynomial.variable(ring, name))
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
            if len(_top_split(g.terms, weff.int_weights)[0]) < 2:
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
    pulled = Pullback(P_sub, images, v)  # checks the images' count and ring
    gb = buchberger(list(v.presentation.ideal_gens), MonomialOrder.grevlex())
    for g in P_sub.ideal_gens:
        reduced = normal_form(g.substitute(list(images)), gb)
        if not reduced.is_zero:
            raise NotAHomomorphismError(
                f"relation {g} maps to {reduced}, not zero"
            )
    return pulled


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
    gb = buchberger(list(v.presentation.ideal_gens), MonomialOrder.grevlex())
    tuples = []
    flat: list[tuple[tuple, TropicalValue]] = []
    for presentation, images in entries:
        if len(images) != presentation.ring.dim:
            raise ValueError("generator dictionary does not match the presentation")
        row = tuple(v.evaluate(img) for img in images)
        tuples.append(row)
        for img, val in zip(images, row):
            flat.append((normal_form(img, gb).key(), val))
    seen: dict[tuple, TropicalValue] = {}
    ok = True
    for key, val in flat:
        if key in seen and seen[key] != val:
            ok = False
        seen.setdefault(key, val)
    return ConsistencyResult(ok, tuple(tuples))
