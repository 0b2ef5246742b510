"""
The SL2 triple-tensor branching algebra, degenerated to a monoid algebra
========================================================================

The algebra lives on six generators with one straightening relation, and
is graded by five-tuples (a, b, c, eta, d): three outer weights, the
intermediate weight eta, and the final weight d.  Products are exact in
everything except eta, which can drop in steps of two, always keeping its
top component.  A functional that is strictly positive in the eta
direction (with lex tie-breaking rows to totally order the grades)
filters the algebra so that the associated graded is the monoid algebra
on the admissible grades: every product collapses to a single term with
coefficient one.
"""

from tropval import (
    associated_graded,
    check_lower_triangular,
    check_monoid_theorem,
    sl2_branching_algebra,
    zero_divisor_search,
)
from tropval.graded import grade_sum
from tropval.sl2 import (
    branching_dimension_report,
    collapse_functional,
    grade_of_exponents,
    root_functional,
    strict_branching_functional,
)

B = sl2_branching_algebra(4)
print(f"algebra up to ambient degree 4: {len(B.components)} grades, "
      f"{len(B.structure)} products")
print("grade dimensions match the character computation:",
      branching_dimension_report(B) == [])

x2 = (grade_of_exponents((0, 1, 0, 0, 0, 0)), 0)
z13 = (grade_of_exponents((0, 0, 0, 0, 1, 0)), 0)
print("\nx2 * z13 spreads over eta:")
for target, coeff in B.basis_product(x2, z13):
    print(f"  grade {target[0]}  coefficient {coeff}")

h = strict_branching_functional()
ok, _ = check_lower_triangular(B, h)
report = check_monoid_theorem(B, h, seed=3, n_samples=200)
print("\nlower triangular:", ok)
print("top component present in every product:", not report.cartan_missing)
print("sampled full multiplicativity:", report.conclusion_holds)

gr = associated_graded(B, h)
single = all(len(e) == 1 and e[0][1] == 1 and
             e[0][0][0] == grade_sum(p[0][0], p[1][0])
             for p, e in gr.structure.items())
print("\nassociated graded is the monoid algebra on the grades:", single)
print("zero divisors up to the bound:", zero_divisor_search(gr))

_, up = root_functional((0, 0, 0, 1, 0))
collapsed, flat = collapse_functional(h, 0)
print("\neta-positive functional is strict on the root direction:", up.strict)
print("collapsing the eta row keeps nonnegativity but loses strictness:",
      flat.nonnegative and not flat.strict)
