import random
from fractions import Fraction

import pytest

from tropval.graded import (
    AssociativityError,
    GradedAlgebra,
    GradedValuation,
    LexFunctional,
    TruncationError,
    associated_graded,
    check_graded_axioms,
    check_lower_triangular,
    check_monoid_theorem,
    check_valuation_axioms,
    coarsen,
    element_key,
    graded_value,
    monomial_poly_ring,
    zero_divisor_search,
)
from tropval.sl2 import ambient_degree, sl2_branching_algebra, sl2_rep_ring
from tropval.textio import graded_algebra_to_str, parse_graded_algebra
from tropval.trop import BOTTOM, trop

F = Fraction


def unit_rows(dim):
    rows = []
    for i in range(dim):
        rows.append(tuple(F(1 if j == i else 0) for j in range(dim)))
    return LexFunctional(tuple(rows))


def test_monomial_ring_builds_and_multiplies():
    A = monomial_poly_ring(3, 6)
    x = A.basis_element(((1, 0, 0), 0))
    y = A.basis_element(((0, 1, 0), 0))
    assert A.multiply(x, y) == {((1, 1, 0), 0): F(1)}
    with pytest.raises(TruncationError):
        big = A.basis_element(((4, 0, 0), 0))
        A.multiply(big, A.multiply(big, big))


def test_associativity_violation_is_detected():
    components = {(0,): 0, (1,): 1, (2,): 1, (3,): 1, (4,): 1}
    structure = {
        (((1,), 0), ((1,), 0)): ((((2,), 0), F(1)),),
        (((2,), 0), ((2,), 0)): ((((4,), 0), F(1)),),
        (((1,), 0), ((2,), 0)): ((((3,), 0), F(1)),),
        (((1,), 0), ((3,), 0)): ((((4,), 0), F(5)),),
    }
    with pytest.raises(AssociativityError) as err:
        GradedAlgebra(1, components, structure, 4)
    assert err.value.triple == (((1,), 0), ((1,), 0), ((2,), 0))


BUILTINS = (
    [(sl2_rep_ring, (n,)) for n in range(2, 9)]
    + [(sl2_branching_algebra, (n,)) for n in range(2, 5)]
    + [(monomial_poly_ring, (2, 5)), (monomial_poly_ring, (3, 4))]
)


@pytest.mark.parametrize("builder,args", BUILTINS,
                         ids=[f"{b.__name__}{a}" for b, a in BUILTINS])
def test_builtin_algebras_are_associative(builder, args):
    # builders skip the construction-time check: their tables are read off
    # an associative ring, and this test is what holds them to that
    builder(*args)._validate_associativity()


def test_parsed_files_keep_the_associativity_check():
    A = sl2_branching_algebra(3)
    assert parse_graded_algebra(graded_algebra_to_str(A)).key() == A.key()
    pair = next(p for p in sorted(A.structure)
                if ambient_degree(p[0][0]) == ambient_degree(p[1][0]) == 1
                and A.structure[p])
    A.structure[pair] = tuple((t, 2 * c) for t, c in A.structure[pair])
    with pytest.raises(AssociativityError):
        parse_graded_algebra(graded_algebra_to_str(A))


def _random_functional_case(rng):
    dim = rng.randint(1, 5)
    rows = tuple(
        tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))) for _ in range(dim))
        for _ in range(rng.randint(1, 5))
    )
    grades = [tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(8)]
    return rows, grades


def test_functional_values_match_a_fresh_recomputation():
    rng = random.Random(11)
    for _ in range(60):
        rows, grades = _random_functional_case(rng)
        h = LexFunctional(rows)
        for _ in range(2):
            for g in grades:
                expected = tuple(sum((r * x for r, x in zip(row, g)), F(0))
                                 for row in rows)
                assert h.first(g) == expected[0]
                assert h.value(g) == expected


def test_functional_equality_ignores_evaluated_grades():
    rng = random.Random(12)
    for _ in range(20):
        rows, grades = _random_functional_case(rng)
        used, fresh = LexFunctional(rows), LexFunctional(rows)
        for g in grades:
            used.value(g)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        gv_used, gv_fresh = GradedValuation(used), GradedValuation(fresh)
        assert gv_used == gv_fresh and hash(gv_used) == hash(gv_fresh)


def test_graded_value_examples():
    A = monomial_poly_ring(3, 6)
    degree = LexFunctional.single((F(1), F(1), F(1)))
    gv = GradedValuation.build(A, degree)
    e = A.basis_element(((2, 1, 0), 0))
    assert graded_value(A, gv, e) == trop(3)
    assert graded_value(A, gv, {}) == BOTTOM
    mixed = {((1, 1, 0), 0): F(1), ((1, 0, 1), 0): F(1)}
    assert graded_value(A, gv, mixed) == trop(2)


def test_override_validation():
    A = monomial_poly_ring(3, 6)
    degree = LexFunctional.single((F(1), F(1), F(1)))
    mixed = {((1, 1, 0), 0): F(1), ((1, 0, 1), 0): F(1)}
    with pytest.raises(ValueError):
        GradedValuation.build(A, degree, {element_key(mixed): trop(5)})
    homogeneous = {((1, 0, 0), 0): F(1)}
    with pytest.raises(ValueError):
        GradedValuation.build(A, degree, {element_key(homogeneous): trop(0)})


def test_override_counterexample_graded_vs_full():
    A = monomial_poly_ring(3, 4)
    degree = LexFunctional.single((F(1), F(1), F(1)))
    mixed = {((1, 1, 0), 0): F(1), ((1, 0, 1), 0): F(1)}  # x*y + x*z
    gv = GradedValuation.build(A, degree, {element_key(mixed): trop(1)})

    graded_report = check_graded_axioms(A, gv, seed=0, n_samples=80)
    assert graded_report.verdict == "passes"

    full_report = check_valuation_axioms(A, gv, seed=0, n_samples=80)
    assert full_report.verdict == "fails"
    a, b, got, expected = full_report.multiplicativity_failures[0]
    assert a == {((1, 0, 0), 0): F(1)}                      # x
    assert b == {((0, 1, 0), 0): F(1), ((0, 0, 1), 0): F(1)}  # y + z
    assert (got, expected) == (trop(1), trop(2))


def test_plain_monoid_algebra_passes_both_checks():
    A = monomial_poly_ring(2, 5)
    for rows in ((F(1), F(1)), (F(2), F(0)), (F(1), F(-1))):
        gv = GradedValuation.build(A, LexFunctional.single(rows))
        assert check_graded_axioms(A, gv, seed=1, n_samples=60).verdict == "passes"
        assert check_valuation_axioms(A, gv, seed=1, n_samples=60).verdict == "passes"


def test_lower_triangular_monoid_algebra_always():
    A = monomial_poly_ring(2, 4)
    for rows in ((F(1), F(2)), (F(-1), F(0))):
        ok, witness = check_lower_triangular(A, LexFunctional.single(rows))
        assert ok and witness is None


def test_monoid_theorem_on_monoid_algebra():
    A = monomial_poly_ring(2, 5)
    w = unit_rows(2)
    report = check_monoid_theorem(A, w, seed=2, n_samples=150)
    assert report.hypotheses_hold
    assert report.conclusion_holds
    assert report.samples > 0


def test_monoid_theorem_detects_missing_top_component():
    # truncated dual-number style algebra: the square of the degree-one
    # element vanishes, so its product has no component in grade 2
    components = {(0,): 1, (1,): 1, (2,): 1}
    structure = {
        (((0,), 0), ((0,), 0)): ((((0,), 0), F(1)),),
        (((0,), 0), ((1,), 0)): ((((1,), 0), F(1)),),
        (((0,), 0), ((2,), 0)): ((((2,), 0), F(1)),),
        (((1,), 0), ((1,), 0)): (),
    }
    A = GradedAlgebra(1, components, structure, 2)
    report = check_monoid_theorem(A, unit_rows(1), seed=0, n_samples=50)
    assert not report.hypotheses_hold
    assert report.cartan_missing


def test_associated_graded_monoid_algebra_unchanged():
    A = monomial_poly_ring(2, 4)
    h = LexFunctional.single((F(1), F(1)))
    gr = associated_graded(A, h)
    assert gr.structure == A.structure
    zero = LexFunctional.single((F(0), F(0)))
    assert associated_graded(A, zero).structure == A.structure


def test_zero_divisor_search():
    assert zero_divisor_search(monomial_poly_ring(2, 4), 4) is None
    # coordinate-axes algebra: x*y = 0
    components = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1, (0, 2): 1}
    structure = {
        (((0, 0), 0), ((0, 0), 0)): ((((0, 0), 0), F(1)),),
        (((0, 0), 0), ((1, 0), 0)): ((((1, 0), 0), F(1)),),
        (((0, 0), 0), ((0, 1), 0)): ((((0, 1), 0), F(1)),),
        (((1, 0), 0), ((1, 0), 0)): ((((2, 0), 0), F(1)),),
        (((0, 1), 0), ((0, 1), 0)): ((((0, 2), 0), F(1)),),
        (((1, 0), 0), ((0, 1), 0)): (),
    }
    A = GradedAlgebra(2, components, structure, 2)
    witness = zero_divisor_search(A, 2)
    assert witness == (((0, 1), 0), ((1, 0), 0))


def test_coarsening_keeps_graded_verdict():
    # a valuation that passes the full check stays a graded valuation after
    # the grading is pushed to total degree
    fine = monomial_poly_ring(2, 5)
    degree = LexFunctional.single((F(1), F(1)))
    gv_fine = GradedValuation.build(fine, degree)
    assert check_valuation_axioms(fine, gv_fine, seed=3, n_samples=80).verdict == "passes"
    coarse = coarsen(fine, ((1, 1),))
    assert coarse.components[(3,)] == 4  # four cubic monomials
    gv_coarse = GradedValuation.build(coarse, LexFunctional.single((F(1),)))
    assert check_graded_axioms(coarse, gv_coarse, seed=3, n_samples=80).verdict == "passes"


def test_same_preorder_functionals_share_the_full_verdict():
    A = monomial_poly_ring(2, 4)
    base = LexFunctional.single((F(2), F(3)))
    gv = GradedValuation.build(A, base)
    assert check_valuation_axioms(A, gv, seed=4, n_samples=60).verdict == "passes"
    for factor in (F(2), F(1, 2), F(7, 3)):
        scaled = LexFunctional.single(tuple(factor * r for r in base.rows[0]))
        gv2 = GradedValuation.build(A, scaled)
        assert check_valuation_axioms(A, gv2, seed=4, n_samples=60).verdict == "passes"
