"""Weight-refined monomial orders, Buchberger's algorithm, and initial ideals.

Orders compare a rational weight dot product first and break ties with
graded-reverse-lex or lex, so they are total and multiplicative.  A
weight-refined order is global (a well-order on monomials) exactly when all
weights are non-negative; with negative weights, division and Buchberger are
only guaranteed to terminate on homogeneous input.  `initial_ideal` therefore
routes every weight vector, including ones with negative entries, through a
homogenization pipeline:

  1. homogenize the generators with a fresh last variable and compute a
     graded-reverse-lex basis,
  2. strip the common powers of the homogenizing variable (this saturates,
     yielding a basis of the homogenized ideal),
  3. recompute a basis for the weight-refined order, all input homogeneous,
  4. take top-weight forms and set the homogenizing variable to 1,
  5. group weights by Groebner cone.  Let G be the reduced (w,0)-refined
     basis of the homogeneous ideal J from step 2.  If, for every g in G,
     a second weight w' selects the same top-weight exponents of g as w,
     then G has the same leading terms under the (w',0)-refined order, a
     degree-wise dimension count (J is homogeneous) makes G a Groebner
     basis for that order too, and in_(w',0)(J) = in_(w,0)(J); so the
     initial ideals of the original ideal agree (Mora & Robbiano, "The
     Groebner fan of an ideal", JSC 6, 1988; Fukuda, Jensen & Thomas,
     "Computing Groebner fans", Math. Comp. 76, 2007; Sturmfels, "Groebner
     Bases and Convex Polytopes", chs. 1-2).  `classify_weights` tests each
     weight against the cones found so far with integer dot products on
     the weight's `integer_weights`, building no order, and runs steps 3-4
     (and builds the refined order) only for a weight outside all of them.
     The test is sufficient, not necessary: a weight that misses every cone
     takes the full path, and equal initial ideals still merge classes.

Steps 1-4 yield generators of the initial ideal of the original ideal for
the given weights.  Steps 1-2 do not depend on the weight:
`HomogenizedIdeal` does them once for its owner, an entry-point call or
the weight valuations that hold it; nothing is cached at module level.
Monomial containment is decided by saturating at the product of all
variables via the extra-variable trick.  A single non-monomial generator
needs no saturation: Q[x] is a UFD, so a divisor of a monomial is a
monomial times a constant, and a principal ideal on a non-monomial holds
no monomial.  The witness power is found by reducing powers of the product
one multiplication at a time, with no bound on the exponent.

Orders compare monomials by flat integer keys: rational weights are scaled
once per order by the LCM of their denominators (`integer_weights`), so no
key computation in division or Buchberger touches a `Fraction`.  Division
(`_remainder_terms`) takes a work dict, exponent to int or `Fraction`,
that its caller fills: `normal_form` and `leading_normal_exponent` from
f's terms, after checking f's ring, with integral coefficients as Python
ints.  A weight valuation fills it from f's terms with the homogenizing
exponent appended, so homogenization costs no polynomial of its own
(`_homogenize` stays for building bases and for `normal_form_of`).
Division yields the remainder's terms largest first and keeps integral
coefficients as ints, making a `Fraction` only where a rational tail or a
leading coefficient other than 1 needs one; `normal_form` collects every
term as a `Fraction`, and `leading_normal_exponent` stops at the first.

Division reads one table per basis, a `GroebnerBasis`, with one entry per
element (leading monomial and coefficient, negated tail).  A basis built
from generators alone, such as a `buchberger` result, builds its table, and
runs the termination check for non-global orders, once, on its first
reduction.  Such a finished basis is divided by many times, so it also
memoizes two things per monomial: its order key, and its one-step rewrite
(the first dividing element's tail shifted onto it, or "irreducible").
`_remainder_terms` stays the only division loop and reads both through
`GroebnerBasis._lookups`.  `buchberger` hands its working bases their
table and they get no memo: each S-polynomial is reduced once against a
growing basis, so its entries would rarely be read again.  `buchberger`
builds each element's entry once, when the element joins, and checks
termination once, at entry: homogeneous input gives homogeneous
S-polynomials and remainders.  It interreduces the minimal basis in one
pass: each remainder is monic, keeps its lead and has no term divisible by
any lead, and the reduced-basis element with a given lead is unique.

A table of whole monomial normal forms would also be correct, since the
normal form is linear in f, but it gives up the early stop of
`leading_normal_exponent`: at a high degree bound it computes full
remainders that evaluation never reads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import add, le, mul, neg, sub

from .errors import TropvalError
from .poly import (
    ExponentVector,
    Polynomial,
    Presentation,
    RingContext,
    WeightVector,
)

GREVLEX = "grevlex"
LEX = "lex"


class ZeroPolynomialError(TropvalError):
    """Raised when an operation needs a nonzero polynomial."""


def integer_weights(weights: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The weights times the positive LCM of their denominators, and that LCM.

    Scaling by a positive constant keeps every comparison of weight dot
    products, so the integer tuple can stand in for the weights.
    """
    scale = math.lcm(*(w.denominator for w in weights))
    return tuple(w.numerator * (scale // w.denominator) for w in weights), scale


@dataclass(frozen=True)
class MonomialOrder:
    """A total multiplicative order: weight dot product, then a tie-break.

    ``weights`` stays the public rational vector.  ``int_weights`` and
    ``scale`` are its `integer_weights`, so keys are integers.
    """

    weights: tuple[Fraction, ...] | None = None
    tie_break: str = GREVLEX
    int_weights: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False)
    scale: int = field(default=1, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tie_break not in (GREVLEX, LEX):
            raise ValueError(f"unknown tie break {self.tie_break!r}")
        if self.weights is not None:
            weights = tuple(w if type(w) is Fraction else Fraction(w)
                            for w in self.weights)
            int_weights, scale = integer_weights(weights)
            object.__setattr__(self, "weights", weights)
            object.__setattr__(self, "scale", scale)
            object.__setattr__(self, "int_weights", int_weights)

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls(None, GREVLEX)

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls(None, LEX)

    @classmethod
    def weighted(cls, w: WeightVector, tie_break: str = GREVLEX) -> "MonomialOrder":
        return cls(tuple(w.weights), tie_break)

    def is_global(self) -> bool:
        """True when every variable is larger than 1 (termination guarantee)."""
        return self.int_weights is None or all(w >= 0 for w in self.int_weights)

    def _descending_key(self, e: ExponentVector) -> tuple[int, ...]:
        """Flat int tuple that is smaller exactly when the monomial is larger.

        This is the negation of `sort_key`, computed directly so that heaps
        and ``min`` can pick the largest monomial without negating keys.
        """
        if self.tie_break == GREVLEX:
            tie = (-sum(e), *e[::-1])
        else:
            tie = tuple(map(neg, e))
        ws = self.int_weights
        if ws is None:
            return tie
        if len(ws) != len(e):
            raise ValueError("dimension mismatch between order and exponent vector")
        return (-sum(map(mul, ws, e)), *tie)

    def sort_key(self, e: ExponentVector) -> tuple[int, ...]:
        """Key whose natural ordering realizes the monomial order.

        A flat int tuple: the integer weight dot product (when weighted), then
        the degree and reversed negated exponents (grevlex) or the exponents
        themselves (lex).
        """
        return tuple(map(neg, self._descending_key(e)))

    def compare(self, e1: ExponentVector, e2: ExponentVector) -> int:
        """-1, 0, or 1; zero only for identical exponent vectors."""
        if len(e1) != len(e2):
            raise ValueError("dimension mismatch in monomial comparison")
        k1, k2 = self._descending_key(e1), self._descending_key(e2)
        if k1 > k2:
            return -1
        if k1 < k2:
            return 1
        return 0


def leading_term(f: Polynomial, order: MonomialOrder) -> tuple[ExponentVector, Fraction]:
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no leading term")
    e = min(f.terms, key=order._descending_key)
    return e, f.terms[e]


def _divides(d: ExponentVector, e: ExponentVector) -> bool:
    return all(map(le, d, e))


class _Memo(dict):
    """A dict that fills each missing entry once, from ``fill(key)``."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


@dataclass(frozen=True)
class GroebnerBasis:
    """A basis together with its order; reduced bases are canonical."""

    gens: tuple[Polynomial, ...]
    order: MonomialOrder
    _leads: tuple = field(default=(), repr=False, compare=False)
    # The division table, one `_divisor` entry per element.  When it is not
    # given, the first reduction builds it (see `_divisors`).
    _table: list | None = field(default=None, repr=False, compare=False)
    # A basis that builds its own table is finished and is divided by again
    # and again, so it memoizes each monomial's order key and one-step
    # rewrite (see `_lookups`).  Entries are written once and depend only
    # on the monomial.
    _memo: tuple[_Memo, _Memo] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self._leads) != len(self.gens):
            leads = tuple(leading_term(g, self.order) for g in self.gens)
            object.__setattr__(self, "_leads", leads)

    def _divisors(self) -> list:
        """The division table, built once with the termination check.

        Non-global orders are safe only against homogeneous bases: every
        reduction then stays inside the finitely many monomials of one
        degree.  So the check runs here, before the first reduction.
        """
        if self._table is None:
            _check_termination(self.order, self.gens)
            table = [_divisor(g, lm, lc) for g, (lm, lc) in zip(self.gens, self._leads)]
            object.__setattr__(self, "_table", table)
            object.__setattr__(self, "_memo", (
                _Memo(self.order._descending_key), _Memo(partial(_rewrite, table))))
        return self._table

    def _lookups(self) -> tuple:
        """The order key and the one-step rewrite of a monomial, as functions.

        Memoized for a basis that built its own table; plain for
        `buchberger`'s working bases, which are handed theirs.
        """
        table = self._divisors()
        if self._memo is not None:
            keys, steps = self._memo
            return keys.__getitem__, steps.__getitem__
        return self.order._descending_key, partial(_rewrite, table)


def _check_termination(order: MonomialOrder, polys) -> None:
    if order.is_global():
        return
    if all(p.is_homogeneous() for p in polys):
        return
    raise ValueError(
        "non-global order (negative weights) needs homogeneous input; "
        "use initial_ideal / valuation evaluation, which homogenize internally"
    )


def _divisor(g: Polynomial, lm: ExponentVector, lc: Fraction) -> tuple:
    """Division-table entry of one basis element: leading monomial, leading
    coefficient (None when it is 1) and negated tail, integral coefficients
    as ints."""
    return (lm, None if lc == 1 else lc,
            [(eg, -(cg.numerator if cg.denominator == 1 else cg))
             for eg, cg in g.terms.items() if eg != lm])


def _rewrite(table: list, e: ExponentVector) -> tuple | None:
    """One division step on the monomial e against a division table.

    The leading coefficient (None when it is 1) and the negated tail,
    shifted onto e, of the first element whose lead divides e; None when
    no lead divides e.
    """
    for lm, lc, tail in table:
        if all(map(le, lm, e)):  # `_divides`, inlined on the hot path
            shift = tuple(map(sub, e, lm))
            return lc, [(tuple(map(add, eg, shift)), cg) for eg, cg in tail]
    return None


def _remainder_terms(work: dict, gb: GroebnerBasis):
    """Terms (exponent, coefficient) of the remainder by the basis.

    ``work`` maps the dividend's exponents, in the basis ring, to nonzero
    int or `Fraction` coefficients; the caller fills it and it is consumed.
    Terms come largest first under the basis order.  Integral coefficients
    are reduced as Python ints; a coefficient is a `Fraction` only once a
    division or a rational tail makes it one.
    """
    key, step = gb._lookups()
    # Max-heap of pending terms by order key.  A term that cancels stays in
    # the heap and is skipped when popped; every term a reduction step adds
    # is smaller than the term being reduced, so a popped term never returns
    # and the terms are yielded in descending order.
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e, None)
        if c is None:
            continue
        rewrite = step(e)
        if rewrite is None:
            yield e, c
            continue
        lc, tail = rewrite
        factor = c if lc is None else Fraction(c) / lc
        for target, cg in tail:
            old = work.get(target)
            if old is None:
                work[target] = factor * cg
                heapq.heappush(heap, (key(target), target))
            else:
                s = old + factor * cg
                if s == 0:
                    del work[target]
                else:
                    work[target] = s


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of multivariate division of f by the basis.

    No term of the result is divisible by a leading monomial of the basis,
    and f minus the result lies in the ideal the basis generates.  Every
    coefficient of the result is a `Fraction`.
    """
    if not gb.gens or f.is_zero:
        return f
    if f.ring != gb.gens[0].ring:
        raise ValueError("polynomial and basis live in different rings")
    work = {e: c.numerator if c.denominator == 1 else c for e, c in f.terms.items()}
    return Polynomial._trusted(f.ring, {
        e: c if type(c) is Fraction else Fraction(c)
        for e, c in _remainder_terms(work, gb)})


def leading_normal_exponent(f: Polynomial,
                            gb: GroebnerBasis) -> ExponentVector | None:
    """Leading exponent of `normal_form(f, gb)` under the basis order.

    None when the normal form is zero.  Division stops at the first
    irreducible term, which leads the remainder, so the rest is never
    computed.
    """
    if gb.gens and f.ring != gb.gens[0].ring:
        raise ValueError("polynomial and basis live in different rings")
    work = {e: c.numerator if c.denominator == 1 else c for e, c in f.terms.items()}
    for e, _ in _remainder_terms(work, gb):
        return e
    return None


def _s_poly(f: Polynomial, ef: ExponentVector,
            g: Polynomial, eg: ExponentVector) -> Polynomial:
    """S-polynomial of two monic polynomials with leading monomials ef, eg."""
    lcm = tuple(map(max, ef, eg))
    return (Polynomial.monomial(f.ring, tuple(map(sub, lcm, ef))) * f
            - Polynomial.monomial(g.ring, tuple(map(sub, lcm, eg))) * g)


def buchberger(gens: list[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span.

    Deterministic for a fixed input: pairs are processed in normal strategy
    (smallest lcm first, ties by index), and the final basis is
    interreduced, made monic, and sorted by descending leading monomial.
    """
    for g in gens:
        if g.is_zero:
            raise ZeroPolynomialError("ideal generators must be nonzero")
    # Homogeneous input gives homogeneous S-polynomials and remainders, so
    # one check here covers every reduction below.
    _check_termination(order, gens)
    basis: list[Polynomial] = []
    leads: list[tuple[ExponentVector, Fraction]] = []
    table: list = []
    pairs: list[tuple[tuple[int, ...], int, int]] = []

    def join(g: Polynomial) -> None:
        """Append g scaled to leading coefficient 1, unless already present."""
        lm, lc = leading_term(g, order)
        if lc != 1:
            g = g.scale(Fraction(1) / lc)
        if g in basis:
            return
        for i, (ei, _) in enumerate(leads):
            heapq.heappush(pairs, (order.sort_key(tuple(map(max, ei, lm))),
                                   i, len(basis)))
        basis.append(g)
        leads.append((lm, Fraction(1)))
        table.append(_divisor(g, lm, 1))

    for g in gens:
        join(g)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        ei, ej = leads[i][0], leads[j][0]
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue  # coprime leading monomials: s-poly reduces to zero
        r = normal_form(_s_poly(basis[i], ei, basis[j], ej),
                        GroebnerBasis(tuple(basis), order, tuple(leads), table))
        if not r.is_zero:
            join(r)

    # Minimalize: drop generators whose lead is divisible by another lead.
    lms = [lm for lm, _ in leads]
    keep = [i for i, lm in enumerate(lms)
            if not any(j != i and _divides(lms[j], lm) and (lms[j] != lm or j < i)
                       for j in range(len(basis)))]
    keep.sort(key=lambda i: order._descending_key(lms[i]))
    reduced = [basis[i] for i in keep]
    # Interreduce in one pass.  No lead of a minimal basis divides another,
    # so each remainder is monic with the same lead, and no term of it is
    # divisible by any lead.  The reduced-basis element with that lead is
    # unique, so the partners' own tails do not matter.
    if len(keep) > 1:
        reduced = [normal_form(basis[i], GroebnerBasis(
                       tuple(basis[j] for j in keep if j != i), order,
                       tuple(leads[j] for j in keep if j != i),
                       [table[j] for j in keep if j != i]))
                   for i in keep]
    return GroebnerBasis(tuple(reduced), order, tuple(leads[i] for i in keep))


# -- initial forms and initial ideals -----------------------------------------


def initial_form(f: Polynomial, w: WeightVector) -> Polynomial:
    """Sum of the terms of f attaining the maximum weight."""
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no initial form")
    if len(w.weights) != f.ring.dim:
        raise ValueError("weight vector has wrong dimension for this ring")
    best: Fraction | None = None
    top: dict[ExponentVector, Fraction] = {}
    for e, c in f.terms.items():
        weight = w.dot(e)
        if best is None or weight > best:
            best = weight
            top = {e: c}
        elif weight == best:
            top[e] = c
    return Polynomial(f.ring, top)


def _extended_ring(ring: RingContext, stem: str) -> RingContext:
    """The ring with one more variable last, named stem plus underscores."""
    name = stem
    while name in ring.variables:
        name += "_"
    return RingContext(ring.variables + (name,))


def _homogenize(f: Polynomial, ext: RingContext) -> Polynomial:
    d = f.total_degree()
    return Polynomial._trusted(ext, {e + (d - sum(e),): c for e, c in f.terms.items()})


def _dehomogenize(f: Polynomial, ring: RingContext) -> Polynomial:
    # Inputs are homogeneous, so dropping the last exponent merges no terms.
    return Polynomial._trusted(ring, {e[:-1]: c for e, c in f.terms.items()})


def _strip_last_variable(f: Polynomial, ext: RingContext) -> Polynomial:
    k = min(e[-1] for e in f.terms)
    if k == 0:
        return f
    return Polynomial._trusted(
        ext, {e[:-1] + (e[-1] - k,): c for e, c in f.terms.items()})


# A face of one weight-refined basis element: the exponents attaining its top
# weight, and the remaining exponents.
_Face = tuple[tuple[ExponentVector, ...], tuple[ExponentVector, ...]]


def _top_split(g: Polynomial, ws: tuple[int, ...]) -> _Face:
    """Exponents of g of top weight under the integer weights ws, and the rest."""
    dots = {e: sum(map(mul, ws, e)) for e in g.terms}
    best = max(dots.values())
    return (tuple(e for e, d in dots.items() if d == best),
            tuple(e for e, d in dots.items() if d != best))


def _in_cone(faces: list[_Face], ws: tuple[int, ...]) -> bool:
    """Does every basis element keep exactly its top exponents under ws?"""
    for top, rest in faces:
        best = sum(map(mul, ws, top[0]))
        if any(sum(map(mul, ws, e)) != best for e in top[1:]):
            return False
        if any(sum(map(mul, ws, e)) >= best for e in rest):
            return False
    return True


def _canonical_basis(gens: list[Polynomial]) -> tuple[Polynomial, ...]:
    """Reduced grevlex basis of an initial ideal: its canonical form."""
    if not gens:
        return ()
    return buchberger(gens, MonomialOrder.grevlex()).gens


class HomogenizedIdeal:
    """Steps 1 and 2 of the pipeline for one presentation, done once.

    The saturated homogenized grevlex basis does not depend on the weight,
    so an entry point that handles several weights of one presentation
    builds one instance and reads every weight off it.  An instance lives
    for one such call, or as long as the weight valuations that share it.
    Normal forms against ``refined_basis(w)`` in ``ext`` realize division
    by a w-refined basis of the original ideal, for any rational w.
    """

    __slots__ = ("presentation", "ext", "saturated")

    def __init__(self, P: Presentation):
        self.presentation = P
        self.ext = _extended_ring(P.ring, "h0")
        self.saturated: list[Polynomial] = []
        if P.ideal_gens:
            homogenized = [_homogenize(g, self.ext) for g in P.ideal_gens]
            g1 = buchberger(homogenized, MonomialOrder.grevlex())
            self.saturated = [_strip_last_variable(g, self.ext) for g in g1.gens]

    def order(self, w: WeightVector) -> MonomialOrder:
        """The (w, 0)-refined order on the extended ring, w made effective."""
        return MonomialOrder(
            self.presentation.effective_weights(w).weights + (Fraction(0),))

    def refined_basis(self, w: WeightVector) -> GroebnerBasis:
        """Step 3: the reduced basis for the (w, 0)-refined order."""
        order = self.order(w)
        if not self.saturated:
            return GroebnerBasis((), order)
        return buchberger(self.saturated, order)

    def initial(self, w: WeightVector) -> tuple[list[Polynomial], list[_Face]]:
        """Step 4: generators of the initial ideal at w, sorted by key.

        Also returns the face of each refined basis element, the data of
        the Groebner cone of w (step 5).
        """
        return self.initial_of(self.refined_basis(w))

    def initial_of(self, gb: GroebnerBasis) -> tuple[list[Polynomial], list[_Face]]:
        """`initial` at the weight of ``gb``, a basis from `refined_basis`."""
        faces = [_top_split(g, gb.order.int_weights) for g in gb.gens]
        gens = []
        for g, (top, _) in zip(gb.gens, faces):
            top_form = Polynomial._trusted(self.ext, {e: g.terms[e] for e in top})
            gens.append(_dehomogenize(top_form, self.presentation.ring))
        gens.sort(key=Polynomial.key)
        return gens, faces

    def canonical_basis(self, w: WeightVector) -> tuple[Polynomial, ...]:
        """Reduced grevlex basis of the initial ideal at w."""
        return self.canonical_basis_of(self.refined_basis(w))

    def canonical_basis_of(self, gb: GroebnerBasis) -> tuple[Polynomial, ...]:
        """`canonical_basis` at the weight of ``gb``, a basis from `refined_basis`."""
        return _canonical_basis(self.initial_of(gb)[0])


def initial_ideal(P: Presentation, w: WeightVector) -> list[Polynomial]:
    """Generators of the initial ideal of the presented ideal at w.

    Computed as the top-weight forms of a weight-refined basis; the empty
    list is returned for the zero ideal.
    """
    return HomogenizedIdeal(P).initial(w)[0]


def contains_monomial(gens: list[Polynomial], ring: RingContext) -> tuple[bool, Polynomial | None]:
    """Does the ideal spanned by the generators contain a monomial?

    Decided by adjoining u and the generator u*x_1*...*x_n - 1: the extended
    ideal is the unit ideal exactly when some monomial lies in the original.
    The witness is a generator that is itself a monomial when one exists,
    otherwise the smallest power of the product of all variables that lies
    in the ideal.
    """
    gens = [g for g in gens]
    for g in gens:
        if g.is_zero:
            raise ZeroPolynomialError("generators must be nonzero")
    if not gens:
        return False, None
    for g in gens:
        if g.is_monomial():
            e, _ = next(iter(g.terms.items()))
            return True, Polynomial.monomial(ring, e)
    if len(gens) == 1:
        # Q[x] is a UFD: a divisor of a monomial is a monomial times a
        # constant, so a principal ideal on a non-monomial holds none.
        return False, None
    ext = _extended_ring(ring, "u0")
    lifted = [Polynomial(ext, {e + (0,): c for e, c in g.terms.items()}) for g in gens]
    product_exps = (1,) * ring.dim + (1,)
    lifted.append(Polynomial(ext, {product_exps: Fraction(1),
                                   (0,) * ext.dim: Fraction(-1)}))
    gb = buchberger(lifted, MonomialOrder.grevlex())
    is_unit = len(gb.gens) == 1 and gb.gens[0] == Polynomial.constant(ext, 1)
    if not is_unit:
        return False, None
    # Some power of the product lies in the ideal.  Normal forms are unique
    # modulo the ideal, so reducing r * product keeps r the normal form of
    # product^k, which is zero exactly when product^k lies in the ideal.
    base = buchberger(gens, MonomialOrder.grevlex())
    product = Polynomial.monomial(ring, (1,) * ring.dim)
    r, k = normal_form(Polynomial.constant(ring, 1), base), 0
    while not r.is_zero:
        r, k = normal_form(r * product, base), k + 1
    return True, Polynomial.monomial(ring, (k,) * ring.dim)


def canonical_initial_key(P: Presentation, w: WeightVector) -> tuple:
    """Hashable canonical form of the initial ideal: its reduced grevlex basis."""
    return tuple(g.key() for g in HomogenizedIdeal(P).canonical_basis(w))


def same_initial_ideal(P: Presentation, w1: WeightVector, w2: WeightVector) -> bool:
    """Equality of initial ideals, via reduced bases under a fixed order."""
    H = HomogenizedIdeal(P)
    return H.canonical_basis(w1) == H.canonical_basis(w2)


def classify_weights(
    P: Presentation, ws: list[WeightVector],
) -> list[tuple[tuple[Polynomial, ...], list[WeightVector]]]:
    """Group weight vectors by their initial ideal, one Buchberger run per cone.

    Returns one (initial-ideal generators, members) pair per class, in order
    of first appearance; members keep input order, and the generators are
    those of the class's first member.  A weight inside a Groebner cone
    already found joins that cone's class without a Buchberger run (step 5).
    """
    H = HomogenizedIdeal(P)
    cones: list[tuple[tuple, list[_Face]]] = []
    classes: dict[tuple, tuple[tuple[Polynomial, ...], list[WeightVector]]] = {}
    for w in ws:
        # `H.order(w).int_weights`, read without building the order.
        ws_int = integer_weights(P.effective_weights(w).weights)[0] + (0,)
        key = next((k for k, faces in cones if _in_cone(faces, ws_int)), None)
        if key is None:
            gens, faces = H.initial(w)
            key = tuple(g.key() for g in _canonical_basis(gens))
            cones.append((key, faces))
            classes.setdefault(key, (tuple(gens), []))
        classes[key][1].append(w)
    return list(classes.values())


@dataclass(frozen=True)
class FanClass:
    """One equivalence class of grid weights with a common initial ideal."""

    representative: WeightVector
    initial_gens: tuple[Polynomial, ...]
    monomial_free: bool
    members: tuple[WeightVector, ...]


def enumerate_fan(P: Presentation, box: int, denominator: int = 1) -> list[FanClass]:
    """Group all grid weights in [-box, box]^n with the given denominator.

    Classes are keyed by equality of initial ideals, listed by their
    lexicographically smallest representative.  Intended for small instances.
    """
    if box < 0 or denominator <= 0:
        raise TropvalError("box must be non-negative and denominator positive")
    values = [Fraction(p, denominator)
              for p in range(-box * denominator, box * denominator + 1)]
    grid = [WeightVector(point)
            for point in itertools.product(values, repeat=P.ring.dim)]
    classes = []
    for gens, members in classify_weights(P, grid):
        members.sort(key=lambda v: v.weights)
        free, _ = contains_monomial(list(gens), P.ring) if gens else (False, None)
        classes.append(FanClass(members[0], gens, not free, tuple(members)))
    classes.sort(key=lambda c: c.representative.weights)
    return classes
