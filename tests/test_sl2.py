from fractions import Fraction

import pytest

from tropval.graded import (
    GradedAlgebra,
    LexFunctional,
    associated_graded,
    check_lower_triangular,
    check_monoid_theorem,
    grade_sum,
)
from tropval.sl2 import (
    branching_dimension_report,
    clebsch_gordan_multiplicity,
    collapse_functional,
    grade_of_exponents,
    root_direction_report,
    root_functional,
    sl2_branching_algebra,
    sl2_rep_ring,
    strict_branching_functional,
)

F = Fraction


def test_rep_ring_dimensions_and_products():
    R = sl2_rep_ring(2)
    assert R.components[(1,)] == 2
    assert R.components[(2,)] == 3
    # x * y inside the weight-one component lands in a single grade
    assert R.basis_product(((1,), 0), ((1,), 1)) == ((((2,), 1), F(1)),)


def test_rep_ring_satisfies_monoid_theorem():
    R = sl2_rep_ring(4)
    w = LexFunctional.single((F(1),))
    report = check_monoid_theorem(R, w, seed=0, n_samples=120)
    assert report.hypotheses_hold
    assert report.conclusion_holds


def test_clebsch_gordan_from_characters():
    assert clebsch_gordan_multiplicity(1, 1, 0) == 1
    assert clebsch_gordan_multiplicity(1, 1, 2) == 1
    assert clebsch_gordan_multiplicity(1, 1, 1) == 0  # parity
    assert clebsch_gordan_multiplicity(2, 1, 5) == 0  # out of range
    assert clebsch_gordan_multiplicity(3, 2, 1) == 1


def test_branching_grades_read_off_monomials():
    # z12 lowers eta by two relative to the outer weights
    assert grade_of_exponents((0, 0, 0, 1, 0, 0)) == (1, 1, 0, 0, 0)
    assert grade_of_exponents((1, 0, 0, 0, 0, 1)) == (1, 1, 1, 2, 1)
    assert grade_of_exponents((0, 1, 0, 0, 1, 0)) == (1, 1, 1, 2, 1)


def test_branching_products():
    B = sl2_branching_algebra(4)
    z12 = (grade_of_exponents((0, 0, 0, 1, 0, 0)), 0)
    sq = B.basis_product(z12, z12)
    assert sq == ((((2, 2, 0, 0, 0), 0), F(1)),)

    x2 = (grade_of_exponents((0, 1, 0, 0, 0, 0)), 0)
    z13 = (grade_of_exponents((0, 0, 0, 0, 1, 0)), 0)
    spread = B.basis_product(x2, z13)
    etas = sorted(target[0][3] for target, _ in spread)
    assert etas == [0, 2]  # straightening spreads over two eta-grades
    cartan = grade_sum(x2[0], z13[0])
    assert any(target[0] == cartan for target, _ in spread)


def test_branching_components_match_character_oracle():
    B = sl2_branching_algebra(4)
    assert all(size == 1 for size in B.components.values())
    assert branching_dimension_report(B) == []
    # the standard monomial of grade (a, b, c, eta, d) has degree (a + b + c + d) / 2
    assert all((a + b + c + d) // 2 <= 4 for a, b, c, eta, d in B.components)


def test_branching_dimension_report_lists_each_mismatch():
    components = dict(sl2_branching_algebra(3).components)
    del components[(0, 0, 1, 0, 1)]
    # 1 x 1 = 0 + 2 has no eta = 1 part, so the characters predict nothing here
    components[(1, 1, 1, 1, 1)] = 2
    A = GradedAlgebra(5, components, {}, 3)
    assert branching_dimension_report(A) == [((0, 0, 1, 0, 1), 0, 1),
                                             ((1, 1, 1, 1, 1), 2, 0)]


def test_lower_triangular_depends_on_root_sign():
    B = sl2_branching_algebra(3)
    up = LexFunctional.single((F(0), F(0), F(0), F(1), F(0)))
    ok, witness = check_lower_triangular(B, up)
    assert ok and witness is None
    down = LexFunctional.single((F(0), F(0), F(0), F(-1), F(0)))
    ok, witness = check_lower_triangular(B, down)
    assert not ok and witness is not None


def test_associated_graded_is_monoid_and_idempotent():
    B = sl2_branching_algebra(3)
    h = strict_branching_functional()
    gr = associated_graded(B, h)
    for (b1, b2), expansion in gr.structure.items():
        assert len(expansion) == 1
        target, coeff = expansion[0]
        assert target[0] == grade_sum(b1[0], b2[0])
        assert coeff == 1
    again = associated_graded(gr, h)
    assert again.structure == gr.structure


def test_root_functional_reports():
    _, report = root_functional((0, 0, 0, 1, 0))
    assert report.strict and report.nonnegative
    _, report = root_functional((0, 0, 0, 0, 0))
    assert report.nonnegative and not report.strict
    _, report = root_functional((0, 0, 0, -1, 0))
    assert not report.nonnegative


def test_collapse_functional():
    h = strict_branching_functional()
    collapsed, report = collapse_functional(h, 0)
    assert report.nonnegative and not report.strict
    all_zero = h
    for i in range(len(h.rows)):
        all_zero, _ = collapse_functional(all_zero, i)
    assert all(all(x == 0 for x in row) for row in all_zero.rows)
    # collapsing loses information: some grade now gets a different value
    grade = (1, 1, 0, 2, 2)
    assert collapsed.value(grade) != h.value(grade)
    with pytest.raises(IndexError):
        collapse_functional(h, 99)


def test_strict_functional_orders_grades():
    B = sl2_branching_algebra(3)
    h = strict_branching_functional()
    assert h.separates(B.components) is None
    report = root_direction_report(h)
    assert report.strict
