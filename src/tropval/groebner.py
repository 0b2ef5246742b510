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
     Bases and Convex Polytopes", chs. 1-2).  `classify_weights` holds
     each cone it finds as inequality vectors, each once: for every g in G
     with top-weight exponents t_0, ..., t_k, the equalities t_i - t_0
     (dot product 0) and, for every other exponent e of g, the strict
     inequality t_0 - e (dot product > 0).  It tests each weight against
     the cones found so far with integer dot products on the integer form
     that every `WeightVector` holds (`poly.integer_weights`), building no
     order, and runs steps 3-4 (and builds the refined order) only for a
     weight outside all of them.
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
by the LCM of their denominators (`integer_weights`), once per weight
vector, and an order built from a `WeightVector` takes that integer form
over, so no key computation touches a `Fraction`.  Division has one loop,
`_remainder_terms`.  It consumes a work dict, exponent to int or
`Fraction`, that its caller fills (a weight valuation appends the
homogenizing exponent to f's exponents there, so homogenization costs no
polynomial of its own), and yields the remainder's terms largest first.
A `Polynomial` already stores integral coefficients as ints, so its terms
go into the work dict as they are; a `Fraction` is made only where a
rational dividend or tail needs one, and `normal_form` stores each
remainder term in the one coefficient form of `poly`.

The loop reads the order key and the one-step rewrite of a monomial (the
first dividing element's tail shifted onto it, or "irreducible") as
functions.  A division-table entry (`_divisor`) is an element's leading
monomial and its negated tail over the leading coefficient: a remainder
does not change when a divisor is scaled, so every entry is that of a
monic element and division multiplies by the dividend's coefficient
alone.  A `GroebnerBasis` builds its table, each tail sorted descending,
on its first reduction, after the termination check for non-global
orders, and memoizes both functions per monomial, since a basis is
divided by many times.  It memoizes a third thing per reducible
monomial: the leading term of its normal form, or "zero" (`_fill_lead`);
an irreducible monomial is its own lead.  Normal forms are linear, so
`leading_normal_exponent` and a weight valuation's key read the lead of
NF(f) off these entries (`_leading_remainder`): the largest lead among
f's monomials, with the coefficients there summed.  Only when that sum
cancels does f go through the division loop, which stops at its first
irreducible term; that is about 1% of the keys of an axiom sweep.  No
whole monomial normal form is stored, so an entry costs one term.

`buchberger` keeps each basis element only as its division-table entry:
the lead and the negated monic tail in the one coefficient form of `poly`,
made once, when the element joins.  Each S-polynomial x^sj*(-tail_j) -
x^si*(-tail_i) of a pair (i, j) goes straight into the work dict of
`_remainder_terms`, whose first remainder term is the new element's lead,
so a pair costs no leading-term scan and no `Polynomial` arithmetic.
Repeated inputs are found on (lead, tail), and `Polynomial`s are built
only for the result.  Pairs are taken by the total degree of their lcm
first, then by the run's order on the lcm (Giovini, Mora, Niesi, Robbiano
& Traverso, "One sugar cube, please", ISSAC 1991, without the sugar).  A
non-global order runs only on homogeneous input, where the lcm's degree
is the S-polynomial's degree, so each degree is finished before the next
one starts; smallest lcm first alone lets an order with a negative
weight rank a higher degree below a lower one, and the run could then
climb through ever higher degrees without end (Gr(2,6) at a negated tree
metric).  A global order ends under any selection.  Division uses the
plain key and rewrite, since each S-polynomial is reduced once.  The run
checks once, at entry, that the generators share one ring and that it
terminates (homogeneous input gives homogeneous S-polynomials and
remainders), and interreduces the minimal basis in one pass: each
remainder is monic, keeps its lead and has no term divisible by any lead,
and the reduced-basis element with a given lead is unique.
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
    RingMismatchError,
    WeightVector,
    _coefficient,
)

GREVLEX = "grevlex"
LEX = "lex"


class ZeroPolynomialError(TropvalError):
    """Raised when an operation needs a nonzero polynomial."""


@dataclass(frozen=True)
class MonomialOrder:
    """A total multiplicative order: weight dot product, then a tie-break.

    ``weights`` may be given as rationals or as a `WeightVector`, and is
    stored as the public rational tuple.  ``int_weights`` and ``scale`` are
    its `integer_weights`, so keys are integers; a `WeightVector` hands
    over the integer form it holds.
    """

    weights: tuple[Fraction, ...] | None = None
    tie_break: str = GREVLEX
    int_weights: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False)
    scale: int = field(default=1, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tie_break not in (GREVLEX, LEX):
            raise ValueError(f"unknown tie break {self.tie_break!r}")
        w = self.weights
        if w is not None:
            if not isinstance(w, WeightVector):
                w = WeightVector(tuple(w))
            object.__setattr__(self, "weights", w.weights)
            object.__setattr__(self, "scale", w.int_scale)
            object.__setattr__(self, "int_weights", w.int_weights)

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls(None, GREVLEX)

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls(None, LEX)

    @classmethod
    def weighted(cls, w: WeightVector, tie_break: str = GREVLEX) -> "MonomialOrder":
        return cls(w, tie_break)

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
    # Each monomial's order key and one-step rewrite, and each reducible
    # monomial's normal-form lead, filled on first use (see `_lookups` and
    # `_fill_lead`); entries are written once and depend only on the
    # monomial.
    _memo: tuple[_Memo, _Memo, dict] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self._leads) != len(self.gens):
            leads = tuple(leading_term(g, self.order)[0] for g in self.gens)
            object.__setattr__(self, "_leads", leads)

    def _lookups(self) -> tuple:
        """The memoized order key and one-step rewrite of a monomial.

        Built on the first call, after the termination check: non-global
        orders are safe only against homogeneous bases, whose reductions
        stay inside the finitely many monomials of one degree.  Each tail
        is sorted descending here, once; the order is multiplicative, so
        every rewrite's targets come out descending too.
        """
        if self._memo is None:
            _check_termination(self.order, self.gens)
            key = self.order._descending_key
            table = [_divisor(g, lm) for g, lm in zip(self.gens, self._leads)]
            for _, tail in table:
                tail.sort(key=lambda term: key(term[0]))
            object.__setattr__(self, "_memo", (
                _Memo(key), _Memo(partial(_rewrite, table)), {}))
        keys, steps, _ = self._memo
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


def _monic_tail(terms, lc) -> list:
    """Negated tail of a division-table entry: the (exponent, coefficient)
    terms other than the lead, divided by the lead coefficient lc."""
    if lc != 1:
        inv = Fraction(1) / lc
        terms = [(e, inv * c) for e, c in terms]
    return [(e, -_coefficient(c)) for e, c in terms]


def _divisor(g: Polynomial, lm: ExponentVector) -> tuple:
    """Division-table entry of one basis element with leading monomial lm:
    lm and the negated tail over the leading coefficient.

    A remainder does not change when a divisor is scaled, so the entry is
    that of the monic element, whatever g's leading coefficient is.
    """
    terms = g.terms
    return lm, _monic_tail([(e, c) for e, c in terms.items() if e != lm], terms[lm])


def _rewrite(table: list, e: ExponentVector) -> list | None:
    """One division step on the monomial e against a division table.

    The negated monic tail, shifted onto e, of the first element whose lead
    divides e; None when no lead divides e.
    """
    for lm, tail in table:
        if all(map(le, lm, e)):  # `_divides`, inlined on the hot path
            shift = tuple(map(sub, e, lm))
            return [(tuple(map(add, eg, shift)), cg) for eg, cg in tail]
    return None


def _remainder_terms(work: dict, key, step):
    """Terms (exponent, coefficient) of the remainder, largest first.

    ``work`` maps the dividend's exponents to nonzero int or `Fraction`
    coefficients; the caller fills it and it is consumed.  ``key`` and
    ``step`` are an order's descending key and a table's one-step rewrite,
    as `GroebnerBasis._lookups` gives them.  A coefficient is a `Fraction`
    only once a rational dividend or tail makes it one.
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
        tail = step(e)
        if tail is None:
            yield e, c
            continue
        for target, cg in tail:
            old = work.get(target)
            if old is None:
                work[target] = c * cg
                heapq.heappush(heap, (key(target), target))
            else:
                s = old + c * cg
                if s == 0:
                    del work[target]
                else:
                    work[target] = s


_UNFILLED = object()


def _divided_lead(work: dict, keys: _Memo, steps: _Memo) -> tuple | None:
    """The leading remainder term of ``work`` by division, as a lead entry."""
    for e, c in _remainder_terms(work, keys.__getitem__, steps.__getitem__):
        return keys[e], e, c
    return None


def _fill_lead(e: ExponentVector, keys: _Memo, steps: _Memo,
               leads: dict) -> tuple | None:
    """Fill ``leads[e]``, the leading term of e's normal form, and return it.

    e is reducible; an irreducible monomial is its own lead and gets no
    entry.  An entry is (descending key, exponent, coefficient), or None
    when e reduces to zero; ``keys``, ``steps`` and ``leads`` are a basis's
    memos.  Normal forms are linear, so NF(e) is the sum of the normal
    forms of its rewrite's targets, each times its coefficient in the
    monic tail.  The targets come largest first; each is read through its
    own entry, and the walk stops at the first target below the best lead
    so far, since NF(t) has no term above t.  When the coefficients at the
    best lead sum to 0, the entries do not decide the lead, and e is
    divided instead.  A reducible target without an entry is filled first,
    on an explicit stack rather than by recursion: a chain of rewrites can
    be thousands of steps long.
    """
    # A frame: the monomial, its rewrite's targets, the next target's index,
    # and the best lead key so far, its exponent and coefficient sum.
    stack = [[e, steps[e], 0, None, None, 0]]
    while True:
        frame = stack[-1]
        e, tail, i, best, best_e, total = frame
        rewrite = None
        for i in range(i, len(tail)):
            t, c = tail[i]
            if best is not None and keys[t] > best:
                break
            lead = leads.get(t, _UNFILLED)
            if lead is _UNFILLED:
                rewrite = steps[t]
                if rewrite is not None:
                    break
                k, lead_e = keys[t], t  # t is its own lead
            elif lead is None:
                continue
            else:
                k, lead_e, c = lead[0], lead[1], c * lead[2]
            if best is None or k < best:
                best, best_e, total = k, lead_e, c
            elif k == best:
                total += c
        if rewrite is not None:  # fill t, then come back to it
            frame[2:] = i, best, best_e, total
            stack.append([t, rewrite, 0, None, None, 0])
            continue
        stack.pop()
        if best is None:
            lead = None
        elif total:
            lead = best, best_e, total
        else:  # the top cancels
            lead = _divided_lead({e: 1}, keys, steps)
        leads[e] = lead
        if not stack:
            return lead


def _leading_remainder(work: dict, gb: GroebnerBasis) -> ExponentVector | None:
    """Leading exponent of the remainder of ``work`` by gb, None for zero.

    ``work`` is a dividend as `_remainder_terms` takes it.  The lead is the
    largest of its monomials' leads (`_fill_lead`), with the coefficients
    there summed; a monomial below the best lead so far needs no lead of
    its own.  Only when that sum is 0 is ``work`` divided, with the early
    stop, and consumed.
    """
    if gb._memo is None:
        gb._lookups()
    keys, steps, leads = gb._memo
    best = best_e = None
    total = 0
    for e, c in work.items():
        lead = leads.get(e, _UNFILLED)
        if lead is _UNFILLED:
            k = keys[e]
            if best is not None and k > best:
                continue  # below the best lead, and so is NF(e)
            if steps[e] is None:
                lead_e = e  # e is its own lead
            else:
                lead = _fill_lead(e, keys, steps, leads)
        if lead is None:
            continue
        if lead is not _UNFILLED:
            k, lead_e, c = lead[0], lead[1], c * lead[2]
        if best is None or k < best:
            best, best_e, total = k, lead_e, c
        elif k == best:
            total += c
    if best is None or total:
        return best_e
    lead = _divided_lead(work, keys, steps)
    return None if lead is None else lead[1]


def _remainder_polynomial(ring: RingContext, work: dict, key, step) -> Polynomial:
    """The remainder of ``work`` by `_remainder_terms`, as a `Polynomial`."""
    return Polynomial._trusted(ring, {
        e: _coefficient(c) for e, c in _remainder_terms(work, key, step)})


def _reduce(f: Polynomial, key, step) -> Polynomial:
    """The remainder of f by `_remainder_terms`."""
    return _remainder_polynomial(f.ring, dict(f.terms), key, step)


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of multivariate division of f by the basis.

    No term of the result is divisible by a leading monomial of the basis,
    and f minus the result lies in the ideal the basis generates.
    """
    if not gb.gens or f.is_zero:
        return f
    if f.ring != gb.gens[0].ring:
        raise ValueError("polynomial and basis live in different rings")
    return _reduce(f, *gb._lookups())


def leading_normal_exponent(f: Polynomial,
                            gb: GroebnerBasis) -> ExponentVector | None:
    """Leading exponent of `normal_form(f, gb)` under the basis order.

    None when the normal form is zero.  Read off the memoized leads of f's
    monomials' normal forms (`_leading_remainder`), dividing only when
    their top coefficients cancel.
    """
    if gb.gens and f.ring != gb.gens[0].ring:
        raise ValueError("polynomial and basis live in different rings")
    return _leading_remainder(dict(f.terms), gb)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span.

    Deterministic for a fixed input: pairs are processed by the total
    degree of their lcm first, then smallest lcm in the run's order, ties by
    index, and the final basis is interreduced, made monic, and sorted by
    descending leading monomial.
    The generators must be nonzero and live in one ring.  A single
    generator comes back made monic, in its own term insertion order; the
    elements of a run on several are written out largest term first.
    """
    if not gens:
        return GroebnerBasis((), order)
    ring = gens[0].ring
    for g in gens:
        if g.is_zero:
            raise ZeroPolynomialError("ideal generators must be nonzero")
        if g.ring != ring:
            raise RingMismatchError(
                f"ring mismatch: {ring.variables} vs {g.ring.variables}")
    # Homogeneous input gives homogeneous S-polynomials and remainders, so
    # one check here covers every reduction below.
    _check_termination(order, gens)
    key = order._descending_key
    if len(gens) == 1:
        # The general run below gives the same basis, but three of four
        # inputs in a weight-fan pass are single generators (588 of 780),
        # and building their division-table entries costs about 7% of that
        # workload's wall time.
        g = gens[0]
        lm = min(g.terms, key=key)
        lc = g.terms[lm]
        return GroebnerBasis((g if lc == 1 else g.scale(Fraction(1) / lc),), order, (lm,))

    # The run keeps each element only as its division-table entry (lead,
    # negated monic tail), as `_divisor` makes it.
    table: list[tuple] = []
    pairs: list[tuple[int, tuple[int, ...], int, int]] = []
    step = partial(_rewrite, table)  # no memo: each S-polynomial is reduced once

    def join(lm: ExponentVector, tail: list) -> None:
        for i, (ei, _) in enumerate(table):
            lcm = tuple(map(max, ei, lm))
            heapq.heappush(pairs, (sum(lcm), order.sort_key(lcm), i, len(table)))
        table.append((lm, tail))

    # An input generator that is a repeat once monic joins once.  A
    # remainder never repeats an element, since no lead divides its lead.
    for g in gens:
        lm, tail = _divisor(g, min(g.terms, key=key))
        if not any(ei == lm and dict(ti) == dict(tail) for ei, ti in table):
            join(lm, tail)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        ei, tail_i = table[i]
        ej, tail_j = table[j]
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue  # coprime leading monomials: s-poly reduces to zero
        # The S-polynomial x^si*f_i - x^sj*f_j of the monic elements is
        # x^sj*(-tail_j) - x^si*(-tail_i): the leads cancel.
        lcm = tuple(map(max, ei, ej))
        si, sj = tuple(map(sub, lcm, ei)), tuple(map(sub, lcm, ej))
        work = {tuple(map(add, e, sj)): c for e, c in tail_j}
        for e, c in tail_i:
            e = tuple(map(add, e, si))
            s = work.get(e, 0) - c
            if s:
                work[e] = s
            else:
                del work[e]
        terms = _remainder_terms(work, key, step)
        lead = next(terms, None)  # the first remainder term is the lead
        if lead is not None:
            join(lead[0], _monic_tail(terms, lead[1]))

    # Minimalize: drop generators whose lead is divisible by another lead.
    lms = [lm for lm, _ in table]
    keep = [i for i, lm in enumerate(lms)
            if not any(j != i and _divides(lms[j], lm) and (lms[j] != lm or j < i)
                       for j in range(len(table)))]
    keep.sort(key=lambda i: key(lms[i]))
    # Interreduce in one pass.  No lead of a minimal basis divides another,
    # so each remainder is monic with the same lead, and no term of it is
    # divisible by any lead.  The reduced-basis element with that lead is
    # unique, so the partners' own tails do not matter.  A lone survivor
    # is only written out, largest term first.
    reduced = []
    for i in keep:
        lm, tail = table[i]
        work = {lm: 1}
        work.update((e, -c) for e, c in tail)
        others = partial(_rewrite, [table[j] for j in keep if j != i])
        reduced.append(_remainder_polynomial(ring, work, key, others))
    return GroebnerBasis(tuple(reduced), order, tuple(lms[i] for i in keep))


# -- initial forms and initial ideals -----------------------------------------


def _top_split(terms, ws: tuple[int, ...]) -> tuple[list[ExponentVector], list[ExponentVector]]:
    """The exponents of ``terms`` of largest dot product with the integer
    weights ``ws``, and the other exponents, each list in ``terms`` order.

    ``terms`` is nonempty.  A `WeightVector`'s ``int_weights`` are its
    weights times a positive scale, so they pick the same top exponents."""
    dots = {e: sum(map(mul, ws, e)) for e in terms}
    best = max(dots.values())
    top, rest = [], []
    for e, d in dots.items():
        (top if d == best else rest).append(e)
    return top, rest


def initial_form(f: Polynomial, w: WeightVector) -> Polynomial:
    """Sum of the terms of f attaining the maximum weight."""
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no initial form")
    if len(w.weights) != f.ring.dim:
        raise ValueError("weight vector has wrong dimension for this ring")
    top, _ = _top_split(f.terms, w.int_weights)
    return Polynomial._trusted(f.ring, {e: f.terms[e] for e in top})


def _extended_ring(ring: RingContext) -> RingContext:
    """The ring with one more variable last, named h0 plus underscores."""
    name = "h0"
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


# A Groebner cone as integer difference vectors of exponents: equalities,
# whose dot product with a weight of the cone is 0, and strict inequalities,
# whose dot product with it is positive.
_Cone = tuple[tuple[ExponentVector, ...], tuple[ExponentVector, ...]]


def _in_cone(cone: _Cone, ws: tuple[int, ...]) -> bool:
    """Do the integer weights ws satisfy every equality and inequality?"""
    equalities, inequalities = cone
    for v in equalities:
        if sum(map(mul, ws, v)):
            return False
    for v in inequalities:
        if sum(map(mul, ws, v)) <= 0:
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
        self.ext = _extended_ring(P.ring)
        homogenized = [_homogenize(g, self.ext) for g in P.ideal_gens]
        self.saturated = _saturate(homogenized, P.ring.dim) if homogenized else []

    def order(self, w: WeightVector) -> MonomialOrder:
        """The (w, 0)-refined order on the extended ring, w made effective."""
        w = self.presentation.effective_weights(w)
        return MonomialOrder(WeightVector._trusted(
            w.weights + (Fraction(0),), w.int_weights + (0,), w.int_scale))

    def refined_basis(self, w: WeightVector) -> GroebnerBasis:
        """Step 3: the reduced basis for the (w, 0)-refined order."""
        order = self.order(w)
        if not self.saturated:
            return GroebnerBasis((), order)
        return buchberger(self.saturated, order)

    def initial(self, w: WeightVector) -> tuple[list[Polynomial], _Cone]:
        """Step 4: generators of the initial ideal at w, sorted by key.

        Also returns the Groebner cone of w (step 5): for each refined
        basis element, with top-weight exponents t_0, ..., t_k and other
        exponents e, the equalities t_i - t_0 and the inequalities t_0 - e,
        each vector once.
        """
        return self.initial_of(self.refined_basis(w))

    def initial_of(self, gb: GroebnerBasis) -> tuple[list[Polynomial], _Cone]:
        """`initial` at the weight of ``gb``, a basis from `refined_basis`."""
        ws = gb.order.int_weights
        gens = []
        equalities: dict[ExponentVector, None] = {}
        inequalities: dict[ExponentVector, None] = {}
        for g in gb.gens:
            top, rest = _top_split(g.terms, ws)
            for e in top[1:]:
                equalities[tuple(map(sub, e, top[0]))] = None
            for e in rest:
                inequalities[tuple(map(sub, top[0], e))] = None
            top_form = Polynomial._trusted(self.ext, {e: g.terms[e] for e in top})
            gens.append(_dehomogenize(top_form, self.presentation.ring))
        gens.sort(key=Polynomial.key)
        return gens, (tuple(equalities), tuple(inequalities))

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
    ext = _extended_ring(ring)
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
    cones: list[tuple[tuple, _Cone]] = []
    classes: dict[tuple, tuple[tuple[Polynomial, ...], list[WeightVector]]] = {}
    for w in ws:
        # `H.order(w).int_weights`, read without building the order.
        ws_int = P.effective_weights(w).int_weights + (0,)
        key = next((k for k, cone in cones if _in_cone(cone, ws_int)), None)
        if key is None:
            gens, cone = H.initial(w)
            key = tuple(g.key() for g in _canonical_basis(gens))
            cones.append((key, cone))
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

    The grid is held as integer points p over the one denominator d, and
    each point's `WeightVector` is built once from them: its integer form
    is p / g over the scale d / g, with g = gcd(d, p).  `itertools.product`
    lists the points in ascending lexicographic order, which is also the
    order of the rational points p / d, and `classify_weights` keeps input
    order; so members come ascending and classes in the order of their
    smallest member, with no sort.
    """
    if box < 0 or denominator <= 0:
        raise TropvalError("box must be non-negative and denominator positive")
    n = P.ring.dim
    numerators = range(-box * denominator, box * denominator + 1)
    values = [Fraction(p, denominator) for p in numerators]
    grid = []
    for point, weights in zip(itertools.product(numerators, repeat=n),
                              itertools.product(values, repeat=n)):
        g = math.gcd(denominator, *point)
        grid.append(WeightVector._trusted(
            weights, tuple(p // g for p in point), denominator // g))
    classes = []
    for gens, members in classify_weights(P, grid):
        free, _ = contains_monomial(list(gens), P.ring) if gens else (False, None)
        classes.append(FanClass(members[0], gens, not free, tuple(members)))
    return classes
