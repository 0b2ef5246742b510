"""Saturation by an extra variable, kept as an independent reference.

For an ideal I of Q[x] and a product m of variables, the saturation
I : m^inf is the elimination ideal (I + (u*m - 1)) cap Q[x] in Q[x, u]; in
particular I holds a monomial exactly when I + (u*x_1*...*x_n - 1) is the
unit ideal.  This is the lifted run `tropval.groebner` used before Bayer's
trick replaced it.  It needs no homogeneous input and shares nothing with
`groebner._saturate` beyond `buchberger`, so it checks that saturation.
"""

from fractions import Fraction

from tropval.groebner import MonomialOrder, buchberger
from tropval.poly import Polynomial, RingContext


def _lifted(gens, ring: RingContext, indices) -> list[Polynomial]:
    """The generators in Q[x, u], and u times the product of x_i (i in
    indices) minus 1."""
    name = "u"
    while name in ring.variables:
        name += "_"
    ext = RingContext(ring.variables + (name,))
    lifted = [Polynomial(ext, {e + (0,): c for e, c in g.terms.items()}) for g in gens]
    product = tuple(int(i in indices) for i in range(ring.dim)) + (1,)
    lifted.append(Polynomial(ext, {product: Fraction(1), (0,) * ext.dim: Fraction(-1)}))
    return lifted


def lifted_contains_monomial(gens, ring: RingContext) -> bool:
    """Does a grevlex run on I + (u*x_1*...*x_n - 1) give the unit ideal?"""
    gb = buchberger(_lifted(gens, ring, range(ring.dim)), MonomialOrder.grevlex())
    return len(gb.gens) == 1 and gb.gens[0].total_degree() == 0


def lifted_saturation(gens, ring: RingContext, indices) -> list[tuple]:
    """Keys of the reduced grevlex basis of I : (prod of x_i, i in indices)^inf.

    A weight on u alone makes the order eliminate u: a basis element whose
    lead has no u has no u anywhere, and those elements form a basis of the
    elimination ideal.
    """
    order = MonomialOrder((Fraction(0),) * ring.dim + (Fraction(1),))
    gb = buchberger(_lifted(gens, ring, indices), order)
    kept = [Polynomial(ring, {e[:-1]: c for e, c in g.terms.items()})
            for g in gb.gens if all(e[-1] == 0 for e in g.terms)]
    return [g.key() for g in buchberger(kept, MonomialOrder.grevlex()).gens]
