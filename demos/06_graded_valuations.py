"""
Graded valuations: multiplicativity on homogeneous elements only
================================================================

Grade Q[x,y,z] by its monomials and weight every variable 1.  Assigning
the inhomogeneous element x*y + x*z the value 1 (instead of 2) is
perfectly consistent with multiplicativity on homogeneous pairs, but it
cannot come from a valuation: the factorization x * (y + z) drops value.
The override machinery finds that factorization deterministically by
solving a linear system against the structure constants.
"""

from fractions import Fraction

from tropval import (
    GradedValuation,
    LexFunctional,
    check_graded_axioms,
    check_valuation_axioms,
    graded_value,
    monomial_poly_ring,
)
from tropval.graded import element_key
from tropval.trop import trop

F = Fraction
A = monomial_poly_ring(3, 4)          # x, y, z monomial grading, degree <= 4
degree = LexFunctional.single((F(1), F(1), F(1)))

mixed = {((1, 1, 0), 0): F(1), ((1, 0, 1), 0): F(1)}   # x*y + x*z
gv = GradedValuation.build(degree, {element_key(mixed): trop(1)})

print("value of x*y + x*z with the override:",
      graded_value(gv, mixed).to_str())
print("value of the homogeneous element x*y:",
      graded_value(gv, A.basis_element(((1, 1, 0), 0))).to_str())

graded_report = check_graded_axioms(A, gv, seed=0, n_samples=100)
print("\ngraded axioms:", graded_report.verdict,
      f"({graded_report.pairs_checked} products checked)")

full_report = check_valuation_axioms(A, gv, seed=0, n_samples=100)
print("full valuation axioms:", full_report.verdict)
a, b, got, expected = full_report.multiplicativity_failures[0]
print("  witness factors:", dict(a), "and", dict(b))
print(f"  v(product) = {got.to_str()} but v(a) + v(b) = {expected.to_str()}")
