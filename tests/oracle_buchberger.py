"""Buchberger on `Polynomial`s, kept as a reference for the division-table run.

This is the `buchberger` `tropval.groebner` used before its run kept each
basis element only as a division-table entry: every S-polynomial is built
with `Polynomial` products and a difference, reduced with `_reduce`, and
made monic with `scale`.  Joins, minimalization and interreduction
follow the same steps.  The pair order differs: this run takes the
smallest lcm in the run's order first, while `buchberger` takes the lcm's
total degree first.  A reduced basis and its leads do not depend on the
order pairs are taken in, so the two runs must still agree term for term
and in the leads.  Term order can differ: a lone surviving input keeps its
own order here, while `buchberger` writes every element of a run on
several generators largest term first.  `in_cone_by_faces` is the face walk the
Groebner-cone test used before cones were held as inequality vectors.
"""

import heapq
from fractions import Fraction
from functools import partial
from operator import mul, sub

from tropval.groebner import (
    GroebnerBasis,
    MonomialOrder,
    ZeroPolynomialError,
    _check_termination,
    _divides,
    _divisor,
    _reduce,
    _rewrite,
    leading_term,
)
from tropval.poly import ExponentVector, Polynomial


def _s_poly(f: Polynomial, ef: ExponentVector,
            g: Polynomial, eg: ExponentVector) -> Polynomial:
    """S-polynomial of two monic polynomials with leading monomials ef, eg."""
    lcm = tuple(map(max, ef, eg))
    return (Polynomial.monomial(f.ring, tuple(map(sub, lcm, ef))) * f
            - Polynomial.monomial(g.ring, tuple(map(sub, lcm, eg))) * g)


def oracle_buchberger(gens: list[Polynomial], order: MonomialOrder) -> GroebnerBasis:
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
    leads: list[ExponentVector] = []
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
        for i, ei in enumerate(leads):
            heapq.heappush(pairs, (order.sort_key(tuple(map(max, ei, lm))),
                                   i, len(basis)))
        basis.append(g)
        leads.append(lm)
        table.append(_divisor(g, lm))

    for g in gens:
        join(g)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        ei, ej = leads[i], leads[j]
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue  # coprime leading monomials: s-poly reduces to zero
        r = _reduce(_s_poly(basis[i], ei, basis[j], ej), key, step)
        if not r.is_zero:
            join(r)

    # Minimalize: drop generators whose lead is divisible by another lead.
    keep = [i for i, lm in enumerate(leads)
            if not any(j != i and _divides(leads[j], lm) and (leads[j] != lm or j < i)
                       for j in range(len(basis)))]
    keep.sort(key=lambda i: order._descending_key(leads[i]))
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


# A face of one weight-refined basis element: the exponents attaining its top
# weight, and the remaining exponents.
Face = tuple[tuple[ExponentVector, ...], tuple[ExponentVector, ...]]


def top_split(g: Polynomial, ws: tuple[int, ...]) -> Face:
    """Exponents of g of top weight under the integer weights ws, and the rest."""
    dots = {e: sum(map(mul, ws, e)) for e in g.terms}
    best = max(dots.values())
    return (tuple(e for e, d in dots.items() if d == best),
            tuple(e for e, d in dots.items() if d != best))


def in_cone_by_faces(faces: list[Face], ws: tuple[int, ...]) -> bool:
    """Does every basis element keep exactly its top exponents under ws?"""
    for top, rest in faces:
        best = sum(map(mul, ws, top[0]))
        if any(sum(map(mul, ws, e)) != best for e in top[1:]):
            return False
        if any(sum(map(mul, ws, e)) >= best for e in rest):
            return False
    return True
