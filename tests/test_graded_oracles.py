"""Oracles for the integer and sparse paths of the graded layer.

Each fast path is checked against a test-local copy of the Fraction code
it replaced: dense Gauss-Jordan for `solve_linear`, Fraction dot products
for `LexFunctional`, the converting constructor loop for `GradedAlgebra`,
and the per-element basis scan of the override factor probe.
"""

import random
from fractions import Fraction

import pytest

from tropval.graded import (
    GradedAlgebra,
    GradedValuation,
    LexFunctional,
    _override_factor_probe,
    graded_value,
    monomial_poly_ring,
)
from tropval.linalg import solve_linear
from tropval.sl2 import sl2_rep_ring
from tropval.trop import trop_mul

F = Fraction


# -- solve_linear ----------------------------------------------------------------


def ref_solve_linear(columns, target):
    """Dense Fraction Gauss-Jordan over rows sorted by repr."""
    support = {k for col in columns for k, v in col.items() if v != 0}
    if any(v != 0 and k not in support for k, v in target.items()):
        return None
    rows = sorted({k for col in columns for k in col} | set(target),
                  key=lambda k: (repr(type(k)), repr(k)))
    row_index = {k: i for i, k in enumerate(rows)}
    m, n = len(rows), len(columns)
    matrix = [[F(0)] * (n + 1) for _ in range(m)]
    for j, col in enumerate(columns):
        for k, v in col.items():
            matrix[row_index[k]][j] = F(v)
    for k, v in target.items():
        matrix[row_index[k]][n] = F(v)
    pivot_cols = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        pv = matrix[row][col]
        matrix[row] = [x / pv for x in matrix[row]]
        for r in range(m):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row])]
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if matrix[r][n] != 0:
            return None
    solution = [F(0)] * n
    for r, col in enumerate(pivot_cols):
        solution[col] = matrix[r][n]
    return solution


def _rank(vectors, keys):
    rows = [[v.get(k, F(0)) for k in keys] for v in vectors]
    rank = 0
    for col in range(len(keys)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# Row keys of several hashable types at once, as basis refs and anything
# else a caller might index rows by.
MIXED_KEYS = [((0,), 0), ((1,), 0), ((1,), 1), ((2, 0), 0), 3, -1, "a", "b",
              ("x", 2), frozenset({1})]


def _random_system(rng):
    keys = rng.sample(MIXED_KEYS, rng.randint(1, len(MIXED_KEYS)))
    n = rng.randint(0, 6)
    columns = []
    for _ in range(n):
        if columns and rng.random() < 0.3:
            # a combination of earlier columns: rank deficient
            a, b = rng.choice(columns), rng.choice(columns)
            s, t = F(rng.randint(-3, 3), rng.randint(1, 4)), F(rng.randint(-3, 3))
            col = {k: s * a.get(k, 0) + t * b.get(k, 0) for k in set(a) | set(b)}
        else:
            col = {k: F(rng.choice((-6, -4, -3, -2, 2, 3, 5, 1)), rng.choice((1, 2, 3)))
                   for k in rng.sample(keys, rng.randint(0, len(keys)))}
        if col and rng.random() < 0.3:
            col[rng.choice(keys)] = rng.choice((0, F(0)))  # explicit zero entry
        columns.append(col)
    if columns and rng.random() < 0.5:
        # in the span of the columns: consistent
        target = {}
        for col in columns:
            x = F(rng.randint(-3, 3), rng.randint(1, 3))
            for k, v in col.items():
                target[k] = target.get(k, 0) + x * v
    else:
        target = {k: F(rng.randint(-3, 3), rng.randint(1, 2))
                  for k in rng.sample(keys, rng.randint(0, len(keys)))}
    if rng.random() < 0.2:
        target[rng.choice(keys)] = 0
    return columns, target


def test_solve_linear_matches_dense_gauss_jordan():
    rng = random.Random(2024)
    seen = set()
    for _ in range(1500):
        columns, target = _random_system(rng)
        got = solve_linear(columns, target)
        assert got == ref_solve_linear(columns, target)
        assert got is None or all(type(x) is Fraction for x in got)
        keys = list({k for col in columns for k in col} | set(target))
        rank = _rank(columns, keys)
        if got is None:
            seen.add("inconsistent")
        elif rank < len(columns):
            seen.add("rank deficient")
        else:
            seen.add("unique")
        if any(v != 0 and v != 1 for col in columns for v in col.values()):
            seen.add("non-unit entries")
        if any(v == 0 for col in columns for v in col.values()):
            seen.add("explicit zero")
    assert seen == {"inconsistent", "rank deficient", "unique", "non-unit entries",
                    "explicit zero"}


def test_solve_linear_does_not_mutate_its_input():
    columns = [{"a": F(2), "b": F(4)}, {"b": F(3)}]
    target = {"a": F(1), "b": F(1)}
    snapshot = ([dict(c) for c in columns], dict(target))
    assert solve_linear(columns, target) == [F(1, 2), F(-1, 3)]
    assert ([dict(c) for c in columns], dict(target)) == snapshot


# -- LexFunctional ---------------------------------------------------------------


def ref_value(rows, grade):
    return tuple(sum((F(r) * g for r, g in zip(row, grade)), F(0)) for row in rows)


def _cmp(a, b):
    return (a > b) - (a < b)


def test_functional_keys_order_like_exact_values():
    rng = random.Random(77)
    for _ in range(80):
        dim = rng.randint(1, 5)
        rows = tuple(
            tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 9)))
                  for _ in range(dim))
            for _ in range(rng.randint(2, 4)))
        h = LexFunctional(rows)
        grades = [tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(12)]
        grades += [tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(6)]
        exact = {g: ref_value(rows, g) for g in grades}
        for g in grades:
            assert h.value(g) == exact[g]
            assert h.first(g) == exact[g][0]
            assert all(type(x) is Fraction for x in h.value(g))
            assert all(type(k) is int for k in h.key(g))
        for g1 in grades:
            for g2 in grades:
                assert _cmp(h.key(g1), h.key(g2)) == _cmp(exact[g1], exact[g2])
                # a grade sum's key is the sum of the keys
                g12 = tuple(a + b for a, b in zip(g1, g2))
                assert h.key(g12) == tuple(a + b for a, b in zip(h.key(g1), h.key(g2)))


def test_functional_rows_with_ties_only_in_later_rows():
    h = LexFunctional(((F(1, 2), F(1, 3)), (F(-2, 5), F(7, 10))))
    # equal first rows: the second row decides, as it does for the values
    a, b = (2, 0), (0, 3)
    assert h.first(a) == h.first(b) == 1
    assert (h.key(a) < h.key(b)) == (ref_value(h.rows, a) < ref_value(h.rows, b))
    assert h.separates([a, b]) is None
    assert LexFunctional(h.rows[:1]).separates([a, b]) == (b, a)


# -- GradedAlgebra construction --------------------------------------------------


def ref_structure(components, structure):
    """The old constructor loop: convert every field, check every ref.

    Like terms are then summed and zero sums dropped, as the constructor
    now does.
    """
    comps = {tuple(int(x) for x in g): int(s) for g, s in components.items() if s > 0}

    def check(ref):
        grade, idx = ref
        size = comps.get(tuple(grade))
        if size is None or not (0 <= idx < size):
            raise ValueError(f"unknown basis element {ref}")

    out = {}
    for (b1, b2), expansion in structure.items():
        check(b1)
        check(b2)
        terms = []
        for (g, k), c in expansion:
            c = F(c)
            if c != 0:
                terms.append(((tuple(int(x) for x in g), int(k)), c))
        clean = tuple(sorted(terms))
        for target, _ in clean:
            check(target)
        sums = {}
        for target, c in clean:
            sums[target] = sums.get(target, 0) + c
        out[(b1, b2) if b1 <= b2 else (b2, b1)] = tuple(
            (target, c) for target, c in sums.items() if c)
    return out


COMPONENTS = {(0, 0): 1, (1, 0): 2, (0, 1): 1, (2, 0): 1, (1, 1): 2, (0, 2): 0}


def _random_table(rng):
    refs = [(g, i) for g, s in COMPONENTS.items() for i in range(s)]
    structure = {}
    for _ in range(rng.randint(1, 8)):
        b1, b2 = rng.choice(refs), rng.choice(refs)
        expansion = []
        for _ in range(rng.randint(0, 4)):
            g, k = rng.choice(refs)
            form = rng.randrange(4)
            if form == 1:
                g = list(g)  # a list grade
            elif form == 2:
                g, k = tuple(F(x) for x in g), F(k)  # equal to the ints
            coeff = rng.choice((
                rng.randint(-3, 3), str(rng.randint(-3, 3)),
                f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}",
                F(rng.randint(-3, 3), rng.randint(1, 3)), 0, "0", F(0)))
            expansion.append(((g, k), coeff))
        structure[(b1, b2)] = tuple(expansion)
    return structure


def test_constructor_stores_what_the_converting_loop_stored():
    rng = random.Random(5)
    for _ in range(300):
        structure = _random_table(rng)
        A = GradedAlgebra(2, COMPONENTS, structure, 4, validate=False)
        expected = ref_structure(COMPONENTS, structure)
        assert A.structure == expected
        assert repr(sorted(A.structure.items())) == repr(sorted(expected.items()))
        for expansion in A.structure.values():
            for (g, k), c in expansion:
                assert type(c) is Fraction and type(k) is int
                assert type(g) is tuple and all(type(x) is int for x in g)


BAD_REFS = [((1, 0), 2), ((0, 2), 0), ((3, 3), 0), ((1,), 0)]
GOOD = ((1, 0), 1)
BAD_TABLES = (
    [{(bad, GOOD): ((((2, 0), 0), 1),)} for bad in BAD_REFS]
    + [{(GOOD, bad): ((((2, 0), 0), 1),)} for bad in BAD_REFS]
    + [{(GOOD, GOOD): ((((2, 0), 0), 1), (bad, "1/2"))}
       for bad in BAD_REFS + [([1, 0], 5), ([1, 0, 0], 0)]])


@pytest.mark.parametrize("structure", BAD_TABLES)
def test_constructor_rejects_unknown_refs_in_every_position(structure):
    with pytest.raises(ValueError) as err:
        ref_structure(COMPONENTS, structure)
    expected = str(err.value)
    assert expected.startswith("unknown basis element")
    with pytest.raises(ValueError) as err:
        GradedAlgebra(2, COMPONENTS, structure, 4, validate=False)
    assert str(err.value) == expected


def test_constructor_zero_coefficient_skips_its_ref():
    structure = {(((1, 0), 0), ((1, 0), 0)): ((((9, 9), 0), 0), (((2, 0), 0), 2))}
    A = GradedAlgebra(2, COMPONENTS, structure, 4, validate=False)
    assert A.structure == ref_structure(COMPONENTS, structure)


# -- override factor probe -------------------------------------------------------


def ref_override_factor_probe(A, gv):
    """Scan the whole basis for each element's candidates; dense solve."""
    failures = []
    basis = A.basis()
    for key, _ in gv.overrides:
        target = {ref: c for ref, c in key}
        for a_ref in basis:
            candidates = [b for b in basis if A.basis_product(a_ref, b) is not None]
            if not candidates:
                continue
            columns = [{t: c for t, c in A.basis_product(a_ref, b)} for b in candidates]
            solution = ref_solve_linear(columns, target)
            if solution is None:
                continue
            factor = {b: c for b, c in zip(candidates, solution) if c != 0}
            if not factor:
                continue
            a_el = A.basis_element(a_ref)
            lhs = graded_value(A, gv, target)
            rhs = trop_mul(graded_value(A, gv, a_el), graded_value(A, gv, factor))
            if lhs != rhs:
                failures.append((a_el, factor, lhs, rhs))
    return failures


def _two_lines():
    """(1:0) and (1:1) have the same product with each other and themselves,
    so a factorization through them is not unique and column order picks it."""
    line = {(g, 0) for g in ((1,), (2,))}
    structure = {(((0,), 0), ((0,), 0)): ((((0,), 0), 1),)}
    for ref in sorted(line | {((1,), 1)}):
        structure[(((0,), 0), ref)] = ((ref, 1),)
    for i in (0, 1):
        for j in (i, 1):
            structure[(((1,), i), ((1,), j))] = ((((2,), 0), 1),)
    return GradedAlgebra(1, {(0,): 1, (1,): 2, (2,): 1}, structure, 2)


def test_override_probe_matches_the_basis_scan():
    A = _two_lines()
    gv = GradedValuation.build(A, LexFunctional.single((F(1),)),
                               {((((1,), 0), F(1)), (((2,), 0), F(1))): 1})
    got = _override_factor_probe(A, gv)
    assert got == ref_override_factor_probe(A, gv)
    # the witness factor takes the first column that reaches the target
    assert got[0][1] == {((0,), 0): F(1), ((1,), 0): F(1)}
    rng = random.Random(9)
    for A in (monomial_poly_ring(2, 4), monomial_poly_ring(3, 3), sl2_rep_ring(4)):
        refs = A.basis()
        h = LexFunctional.single(tuple(F(rng.randint(1, 3)) for _ in range(A.monoid_dim)))
        for _ in range(6):
            r1, r2 = rng.sample(refs, 2)
            if r1[0] == r2[0]:
                continue
            element = ((r1, F(rng.randint(1, 3))), (r2, F(rng.randint(-3, -1))))
            cap = max(h.first(r1[0]), h.first(r2[0]))
            gv = GradedValuation.build(A, h, {tuple(sorted(element)): cap - 1})
            assert _override_factor_probe(A, gv) == ref_override_factor_probe(A, gv)
