"""Order relations between valuations and the cone structure they generate.

Two relations are implemented.  The strong one ("implies") asks that every
inequality v(a) <= v(b) forces w(a) <= w(b); it quantifies over the whole
algebra, so the verdict is three-valued: certified, refuted with a concrete
pair, or merely "no counterexample found" after seeded sampling.  An exact
decision is available on free polynomial algebras, where the condition is a
half-space containment of weight vectors.  The weak relation ("arrow")
compares iterated initial ideals on a named presentation and is always
decided exactly there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .groebner import HomogenizedIdeal, _top_split, classify_weights
from .poly import Polynomial, Presentation, WeightVector, _rational, integer_weights
from .valuation import (
    AxiomReport,
    CandidateValuation,
    PointwiseSum,
    Scaled,
    WeightValuation,
    check_axioms,
    random_polynomial,
)

HOLDS_CERTIFIED = "holds_certified"
HOLDS_NO_COUNTEREXAMPLE = "holds_no_counterexample"
REFUTED = "refuted"


class HypothesisFailsError(PreconditionError):
    """A cone operation was invoked with a refuted hypothesis."""


@dataclass(frozen=True)
class RelationVerdict:
    relation: str  # "implies" | "arrow"
    status: str
    n_samples: int | None = None
    witness: tuple | None = None
    note: str = ""

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED


def _parallel_factor(v: WeightVector, w: WeightVector) -> Fraction | None:
    """Return positive lambda with w = lambda * v, if one exists."""
    ratio: Fraction | None = None
    for a, b in zip(v.weights, w.weights):
        if a == 0:
            if b != 0:
                return None
            continue
        r = b / a
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    if ratio is None or ratio <= 0:
        return None
    return ratio


def _halfspace_witness(v: WeightVector, w: WeightVector) -> tuple[int, ...]:
    """Integer direction d with v.d <= 0 < w.d, for w outside the ray of v."""
    n = len(v.weights)
    if all(x == 0 for x in v.weights):
        i = next(i for i, x in enumerate(w.weights) if x != 0)
        d = [0] * n
        d[i] = 1 if w.weights[i] > 0 else -1
        return tuple(d)
    vv = sum(x * x for x in v.weights)
    wv = sum(a * b for a, b in zip(w.weights, v.weights))
    u = [wi * vv - vi * wv for wi, vi in zip(w.weights, v.weights)]
    if all(x == 0 for x in u):
        # w is a non-positive multiple of v; go straight against v.
        u = [-x for x in v.weights]
    return integer_weights(u)[0]


def _direction_to_pair(P: Presentation, d: tuple[int, ...]) -> tuple[Polynomial, Polynomial]:
    plus = tuple(max(x, 0) for x in d)
    minus = tuple(max(-x, 0) for x in d)
    return (Polynomial.monomial(P.ring, plus), Polynomial.monomial(P.ring, minus))


def implies_check(v: CandidateValuation, w: CandidateValuation,
                  seed: int = 0, n_samples: int = 200,
                  exact_mode: bool = False) -> RelationVerdict:
    """Does every v-inequality force the corresponding w-inequality?

    Certificates: identity, w a positive multiple of v, w the zero weight
    vector (its valuation is the trivial coarsening), and full half-space
    decision on free algebras in exact mode.  Otherwise the verdict comes
    from seeded refutation search, on the samples of `check_axioms` at its
    default degree bound, 3, with values compared as keys; a witness pair
    is reported as drawn.
    """
    if v.presentation.key() != w.presentation.key():
        raise ValueError("relation checks need valuations on the same algebra")
    P = v.presentation
    if v is w:
        return RelationVerdict("implies", HOLDS_CERTIFIED, note="identical valuation")
    if isinstance(v, WeightValuation) and isinstance(w, WeightValuation):
        wv = P.effective_weights(v.weights)
        ww = P.effective_weights(w.weights)
        if wv.weights == ww.weights:
            return RelationVerdict("implies", HOLDS_CERTIFIED, note="equal weights")
        if ww.is_zero:
            return RelationVerdict("implies", HOLDS_CERTIFIED,
                                   note="target is the trivial valuation")
        factor = _parallel_factor(wv, ww)
        if factor is not None:
            return RelationVerdict("implies", HOLDS_CERTIFIED,
                                   note=f"positive scaling by {factor}")
        if exact_mode and not P.ideal_gens:
            d = _halfspace_witness(wv, ww)
            a, b = _direction_to_pair(P, d)
            return RelationVerdict(
                "implies", REFUTED, witness=(a, b),
                note="half-space containment fails on a monomial pair")
    rng = random.Random(seed)
    v_key, w_key = v._key, w._key
    for _ in range(n_samples):
        a = random_polynomial(rng, P.ring, 3)
        b = random_polynomial(rng, P.ring, 3)
        # v(a) <= v(b) and w(a) > w(b), on each valuation's keys, with None
        # (bottom) the least key.
        va, vb = v_key(a), v_key(b)
        if va is None or (vb is not None and va <= vb):
            wa, wb = w_key(a), w_key(b)
            if wa is not None and (wb is None or wa > wb):
                return RelationVerdict("implies", REFUTED, witness=(a, b))
    return RelationVerdict("implies", HOLDS_NO_COUNTEREXAMPLE, n_samples=n_samples)


@dataclass(frozen=True)
class ConeSumResult:
    valuation: CandidateValuation
    axiom_report: AxiomReport
    implies_verdict: RelationVerdict


def cone_sum(v: CandidateValuation, w1: CandidateValuation, w2: CandidateValuation,
             seed: int = 0, n_samples: int = 200,
             exact_mode: bool = False) -> ConeSumResult:
    """Sum of two valuations below v in the cone order.

    Requires that neither hypothesis check is refuted; the sum is then built
    (weight-induced: sum of weight vectors; otherwise pointwise), its axioms
    sampled, and the relation v => sum checked.  Every sample is drawn at
    the samplers' default degree bound, 3.
    """
    for name, w in (("w1", w1), ("w2", w2)):
        verdict = implies_check(v, w, seed=seed, n_samples=n_samples,
                                exact_mode=exact_mode)
        if verdict.refuted:
            raise HypothesisFailsError(f"hypothesis v => {name} is refuted")
    if isinstance(w1, WeightValuation) and isinstance(w2, WeightValuation):
        total = WeightValuation(w1.homogenized, w1.weights + w2.weights)
    else:
        total = PointwiseSum(w1, w2)
    report = check_axioms(total, seed=seed, n_pairs=n_samples)
    verdict = implies_check(v, total, seed=seed, n_samples=n_samples,
                            exact_mode=exact_mode)
    return ConeSumResult(total, report, verdict)


def scale(v: CandidateValuation, R: Fraction | int) -> CandidateValuation:
    """Scale a valuation by a positive rational; facet class is preserved."""
    R = _rational(R)
    if R <= 0:
        raise ValueError("scaling factor must be positive")
    if isinstance(v, WeightValuation):
        H = v.homogenized
        scaled = WeightValuation(H, v.weights.scale(R))
        if H.canonical_basis_of(v.basis) != H.canonical_basis_of(scaled.basis):
            raise RuntimeError("scaling changed the initial ideal; this is a bug")
        return scaled
    return Scaled(v, R)


def arrow_check(P: Presentation, v: WeightVector, w: WeightVector) -> RelationVerdict:
    """Per-presentation check that in_v(in_w(I)) equals in_v(I).

    If every generator is w-homogeneous, in_w(I) = I: no basis is needed.
    """
    ws = P.effective_weights(w).int_weights
    P.effective_weights(v)  # rejects a v of the wrong dimension
    if not any(_top_split(g.terms, ws)[1] for g in P.ideal_gens):
        return RelationVerdict("arrow", HOLDS_CERTIFIED,
                               note="iterated initial ideal matches")
    H = HomogenizedIdeal(P)
    inner, _ = H.initial(w)
    P_inner = Presentation(P.ring, tuple(inner), P.coeff_valuation)
    left = HomogenizedIdeal(P_inner).canonical_basis(v)
    right = H.canonical_basis(v)
    if left == right:
        return RelationVerdict("arrow", HOLDS_CERTIFIED,
                               note="iterated initial ideal matches")
    left_keys = {p.key(): p for p in left}
    right_keys = {p.key(): p for p in right}
    only_left = [p for k, p in sorted(left_keys.items()) if k not in right_keys]
    only_right = [p for k, p in sorted(right_keys.items()) if k not in left_keys]
    witness = (only_left[0] if only_left else None,
               only_right[0] if only_right else None)
    return RelationVerdict("arrow", REFUTED, witness=witness,
                           note="reduced bases of the two sides differ")


@dataclass(frozen=True)
class FacetClass:
    representative: WeightVector
    members: tuple[WeightVector, ...]


@dataclass(frozen=True)
class FacetPartition:
    classes: tuple[FacetClass, ...]


def facet_classes(P: Presentation, ws: list[WeightVector]) -> FacetPartition:
    """Partition weight vectors by equality of their initial ideals."""
    classes = []
    for _, members in classify_weights(P, ws):
        members.sort(key=lambda x: x.weights)
        classes.append(FacetClass(members[0], tuple(members)))
    classes.sort(key=lambda c: c.representative.weights)
    return FacetPartition(tuple(classes))
