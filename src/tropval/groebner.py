"""Weight-refined monomial orders, Buchberger's algorithm, and initial ideals.

Orders compare a rational weight dot product first and break ties with
graded-reverse-lex or lex, so they are total and multiplicative.  A
weight-refined order is global (a well-order on monomials) exactly when all
weights are non-negative; with negative weights, division and Buchberger are
only guaranteed to terminate on homogeneous input.  `initial_ideal` therefore
routes every weight vector, including ones with negative entries, through a
homogenization pipeline:

  1. homogenize the generators with a fresh last variable h,
  2. saturate at h with `_saturate`, giving a basis of the homogenized
     ideal: a graded-reverse-lex run, each element divided by its highest
     power of h (Bayer's trick; h is already last, so nothing is permuted),
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
Monomial containment is decided with the same `_saturate`: the
homogenized ideal is saturated at h and then at x_n, ..., x_1, one
graded-reverse-lex run each and no extra variable, until one saturation
holds a monomial (then the original ideal does) or all of them are done
(then it holds none).  A single non-monomial generator needs no
saturation: Q[x] is a UFD, so a divisor of a monomial is a monomial times
a constant, and a principal ideal on a non-monomial holds no monomial.
The witness power is found by reducing powers of the product one
multiplication at a time, with no bound on the exponent.

Orders compare monomials by flat integer keys: rational weights are scaled
once per order by the LCM of their denominators (`integer_weights`), so no
key computation touches a `Fraction`.  Division has one loop,
`_remainder_terms`.  It consumes a work dict, exponent to int or
`Fraction`, that its caller fills (a weight valuation appends the
homogenizing exponent to f's exponents there, so homogenization costs no
polynomial of its own), and yields the remainder's terms largest first.
Integral coefficients stay ints; a `Fraction` is made only where a
rational tail or a leading coefficient other than 1 needs one.
`normal_form` collects every term as a `Fraction`, and
`leading_normal_exponent` stops at the first: a table of whole monomial
normal forms would lose that early stop.

The loop reads the order key and the one-step rewrite of a monomial (the
first dividing element's tail shifted onto it, or "irreducible") as
functions.  A `GroebnerBasis` builds its division table, one entry per
element (leading monomial and coefficient, negated tail), on its first
reduction, after the termination check for non-global orders, and
memoizes both functions per monomial, since a basis is divided by many
times.  `buchberger` builds no `GroebnerBasis` while it runs: it keeps its
own growing table, adds each element's entry once, when the element
joins, and divides with the plain key and rewrite, since each
S-polynomial is reduced once.  It checks termination once, at entry
(homogeneous input gives homogeneous S-polynomials and remainders), and
interreduces the minimal basis in one pass: each remainder is monic,
keeps its lead and has no term divisible by any lead, and the
reduced-basis element with a given lead is unique.
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
    # Each monomial's order key and one-step rewrite, filled on first use
    # (see `_lookups`); entries are written once and depend only on it.
    _memo: tuple[_Memo, _Memo] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self._leads) != len(self.gens):
            leads = tuple(leading_term(g, self.order) for g in self.gens)
            object.__setattr__(self, "_leads", leads)

    def _lookups(self) -> tuple:
        """The memoized order key and one-step rewrite of a monomial.

        Built on the first call, after the termination check: non-global
        orders are safe only against homogeneous bases, whose reductions
        stay inside the finitely many monomials of one degree.
        """
        if self._memo is None:
            _check_termination(self.order, self.gens)
            table = [_divisor(g, lm, lc) for g, (lm, lc) in zip(self.gens, self._leads)]
            object.__setattr__(self, "_memo", (
                _Memo(self.order._descending_key), _Memo(partial(_rewrite, table))))
        keys, steps = self._memo
        return keys.__getitem__, steps.__getitem__


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


def _remainder_terms(work: dict, key, step):
    """Terms (exponent, coefficient) of the remainder, largest first.

    ``work`` maps the dividend's exponents to nonzero int or `Fraction`
    coefficients; the caller fills it and it is consumed.  ``key`` and
    ``step`` are an order's descending key and a table's one-step rewrite,
    as `GroebnerBasis._lookups` gives them.  A coefficient is a `Fraction`
    only once a division or a rational tail makes it one.
    """
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


def _reduce(f: Polynomial, key, step) -> Polynomial:
    """The remainder of f by `_remainder_terms`, with `Fraction` coefficients."""
    work = {e: c.numerator if c.denominator == 1 else c for e, c in f.terms.items()}
    return Polynomial._trusted(f.ring, {
        e: c if type(c) is Fraction else Fraction(c)
        for e, c in _remainder_terms(work, key, step)})


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
    return _reduce(f, *gb._lookups())


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
    return next((e for e, _ in _remainder_terms(work, *gb._lookups())), None)


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
    key, step = order._descending_key, partial(_rewrite, table)  # no memo

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
        r = _reduce(_s_poly(basis[i], ei, basis[j], ej), key, step)
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
        reduced = [_reduce(basis[i], key,
                           partial(_rewrite, [table[j] for j in keep if j != i]))
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


def _swap_last(f: Polynomial, i: int) -> Polynomial:
    """f with the exponents of variables i and last exchanged (an involution)."""
    return Polynomial._trusted(f.ring, {
        e[:i] + e[-1:] + e[i + 1:-1] + e[i:i + 1]: c for e, c in f.terms.items()})


def _saturate(gens: list[Polynomial], i: int) -> list[Polynomial]:
    """Homogeneous generators of J : x_i^inf, for nonzero homogeneous ones of J.

    Bayer's trick: in a grevlex basis of J with x_i last, x_i divides an
    element's lead exactly when it divides the element, so the elements
    divided by their highest powers of x_i form a Groebner basis of
    J : x_i^inf (D. Bayer, thesis, Harvard 1982; Sturmfels, "Groebner Bases
    and Convex Polytopes", Lemma 12.1).  Any other x_i trades places with
    the last variable around the run.
    """
    last = gens[0].ring.dim - 1
    if i != last:
        gens = [_swap_last(g, i) for g in gens]
    out = []
    for g in buchberger(gens, MonomialOrder.grevlex()).gens:
        k = min(e[-1] for e in g.terms)
        if k:
            g = Polynomial._trusted(
                g.ring, {e[:-1] + (e[-1] - k,): c for e, c in g.terms.items()})
        out.append(g if i == last else _swap_last(g, i))
    return out


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
        homogenized = [_homogenize(g, self.ext) for g in P.ideal_gens]
        self.saturated = _saturate(homogenized, P.ring.dim) if homogenized else []

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

    Decided on the homogenized ideal J, saturated one variable at a time
    with `_saturate`, at h and then at x_n, ..., x_1: I holds a monomial
    exactly when J : (x_1*...*x_n*h)^inf is the unit ideal, and it does as
    soon as one of the saturations holds a monomial.  The witness is a
    generator that is itself a monomial when one exists, otherwise the
    smallest power of the product of all variables that lies in the ideal.
    """
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
    ext = _extended_ring(ring, "h0")
    saturated = [_homogenize(g, ext) for g in gens]
    for i in range(ring.dim, -1, -1):
        saturated = _saturate(saturated, i)
        if any(g.is_monomial() for g in saturated):
            break
    else:
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
