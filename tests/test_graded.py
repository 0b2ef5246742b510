import random
import re
import time
from fractions import Fraction

import pytest

from conftest import stored_coefficient
from tropval.errors import TropvalError
from tropval.graded import (
    AssociativityError,
    GradedAlgebra,
    GradedValuation,
    LexFunctional,
    NotLowerTriangularError,
    NothingCheckedError,
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
from tropval.graded import _PairSampler, _monomial_algebra, _times
from tropval.groebner import MonomialOrder, _divides, buchberger, normal_form
from tropval.linalg import solve_linear
from tropval.poly import Polynomial, RingContext
from tropval.sl2 import (
    AMBIENT_RING,
    GRADE_ROWS,
    collapse_functional,
    root_functional,
    sl2_branching_algebra,
    sl2_rep_ring,
    straightening_basis,
    strict_branching_functional,
)
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


# -- reference builders: the hand-written table loops that one
# polynomial-quotient builder replaced, kept here as its oracle -------------


def reference_poly_ring(n_vars, truncation):
    grades = []

    def extend(prefix, remaining, budget):
        if remaining == 0:
            grades.append(tuple(prefix))
            return
        for v in range(budget + 1):
            extend(prefix + [v], remaining - 1, budget - v)

    extend([], n_vars, truncation)
    components = {g: 1 for g in grades}
    structure = {}
    for g1 in grades:
        for g2 in grades:
            if g1 <= g2 and sum(g1) + sum(g2) <= truncation:
                structure[((g1, 0), (g2, 0))] = (
                    ((tuple(a + b for a, b in zip(g1, g2)), 0), F(1)),)
    return GradedAlgebra(n_vars, components, structure, truncation, validate=False)


def reference_rep_ring(truncation):
    components = {(n,): n + 1 for n in range(truncation + 1)}
    structure = {}
    for n in range(truncation + 1):
        for m in range(n, truncation + 1 - n):
            for i in range(n + 1):
                for j in range(m + 1):
                    left, right = ((n,), i), ((m,), j)
                    if right < left:
                        left, right = right, left
                    structure[(left, right)] = ((((n + m,), i + j), F(1)),)
    return GradedAlgebra(1, components, structure, truncation, validate=False)


def reference_branching(truncation):
    def grade(e):
        p1, p2, p3, q12, q13, q23 = e
        a, b, c = p1 + q12 + q13, p2 + q12 + q23, p3 + q13 + q23
        return (a, b, c, a + b - 2 * q12, p1 + p2 + p3)

    monomials = []

    def extend(prefix, budget):
        if len(prefix) == 6:
            if not (prefix[1] >= 1 and prefix[4] >= 1):  # no x2*z13
                monomials.append(tuple(prefix))
            return
        for v in range(budget + 1):
            extend(prefix + [v], budget - v)

    extend([], truncation)
    monomials.sort()
    gb = straightening_basis()
    structure = {}
    for i, e1 in enumerate(monomials):
        for e2 in monomials[i:]:
            if sum(e1) + sum(e2) > truncation:
                continue
            product = tuple(x + y for x, y in zip(e1, e2))
            reduced = normal_form(Polynomial.monomial(AMBIENT_RING, product), gb)
            structure[((grade(e1), 0), (grade(e2), 0))] = tuple(sorted(
                ((grade(m), 0), c) for m, c in reduced.terms.items()))
    components = {grade(e): 1 for e in monomials}
    return GradedAlgebra(5, components, structure, truncation, validate=False)


REFERENCE_BUILDS = (
    [(sl2_rep_ring, reference_rep_ring, (n,)) for n in range(1, 14)]
    + [(sl2_branching_algebra, reference_branching, (n,)) for n in range(2, 7)]
    + [(monomial_poly_ring, reference_poly_ring, (v, t))
       for v in range(1, 5) for t in range(7)]
)


@pytest.mark.parametrize("builder,reference,args", REFERENCE_BUILDS,
                         ids=[f"{b.__name__}{a}" for b, _, a in REFERENCE_BUILDS])
def test_builtin_algebras_match_the_reference_loops(builder, reference, args):
    A, R = builder(*args), reference(*args)
    assert A.components == R.components
    assert A.structure == R.structure
    assert A.truncation == R.truncation
    assert graded_algebra_to_str(A) == graded_algebra_to_str(R)


def test_parsed_files_keep_the_associativity_check():
    A = sl2_branching_algebra(3)
    assert parse_graded_algebra(graded_algebra_to_str(A)).key() == A.key()
    # a pair of degree-1 elements; grade (a, b, c, eta, d) has degree (a + b + c + d) / 2
    pair = next(p for p in sorted(A.structure)
                if all(sum(g) - g[3] == 2 for g, _ in p) and A.structure[p])
    A.structure[pair] = tuple((t, 2 * c) for t, c in A.structure[pair])
    with pytest.raises(AssociativityError):
        parse_graded_algebra(graded_algebra_to_str(A))


# -- trusted tables: a built-in, and gr and coarsenings of one, are stored as
# the builder made them, with no canonicalization and no associativity
# check; these tests run both where they are cheap -----------------------------


def _functionals_used_on(A):
    """The functionals that the tests, demos, goldens and argv fuzz corpus
    apply to a built-in of A's monoid dimension; each is lower-triangular."""
    n = A.monoid_dim
    if n == 1:  # sl2-rep-ring and polyring:1
        return [LexFunctional.single((r,)) for r in (F(1), F(2), F(0), F(-1), F(1, 2))]
    if n == 5:  # sl2-branching
        strict = strict_branching_functional()
        return [strict, root_functional((0, 0, 0, 1, 0))[0],
                collapse_functional(strict, 0)[0], LexFunctional.single((F(0),) * 5)]
    return [LexFunctional.single((F(1),) * n), LexFunctional.single((F(0),) * n),
            unit_rows(n), LexFunctional(unit_rows(n).rows[::-1]),
            LexFunctional.single(tuple(F(k + 2) for k in range(n)))]


TRUST_ORACLE = (
    [(sl2_rep_ring, (n,)) for n in range(1, 9)]
    + [(sl2_branching_algebra, (n,)) for n in range(2, 7)]
    + [(monomial_poly_ring, (v, t)) for v in range(1, 4) for t in range(5)]
)


@pytest.mark.parametrize("builder,args", TRUST_ORACLE,
                         ids=[f"{b.__name__}{a}" for b, a in TRUST_ORACLE])
def test_gr_of_a_builtin_is_associative(builder, args):
    # gr of a trusted algebra skips the construction-time check; this is
    # the full check it skips, on every functional gr meets a built-in with
    A = builder(*args)
    assert A.trusted
    for h in _functionals_used_on(A):
        gr = associated_graded(A, h)
        assert gr.trusted
        gr._validate_associativity()
    if builder is sl2_branching_algebra:
        # a trusted input still takes the lower-triangular check
        with pytest.raises(NotLowerTriangularError):
            associated_graded(A, LexFunctional.single((F(0), F(0), F(0), F(-1), F(0))))


@pytest.mark.parametrize("builder,args", [(b, a) for b, _, a in REFERENCE_BUILDS],
                         ids=[f"{b.__name__}{a}" for b, _, a in REFERENCE_BUILDS])
def test_trusted_tables_are_what_the_constructor_would_store(builder, args):
    # so are the tables derived from a parsed file, which are stored as
    # built too, but stay untrusted
    A = builder(*args)
    parsed = parse_graded_algebra(graded_algebra_to_str(A))
    total_degree = (tuple(1 for _ in range(A.monoid_dim)),)
    for source in (A, parsed):
        tables = [source, coarsen(source, total_degree)]
        tables += [associated_graded(source, h) for h in _functionals_used_on(A)]
        for T in tables:
            assert T.trusted == (source is A)
            canonical = GradedAlgebra(T.monoid_dim, T.components, T.structure,
                                      T.truncation, validate=False)
            assert canonical.key() == T.key()
            assert canonical.truncation == T.truncation
            assert all(_int_fields(ref) for pair in T.structure for ref in pair)
            assert all(stored_coefficient(c) and _int_fields(ref)
                       for expansion in T.structure.values() for ref, c in expansion)


ROUND_TRIPS = (
    [(sl2_branching_algebra, n, strict_branching_functional()) for n in range(2, 6)]
    + [(sl2_rep_ring, n, LexFunctional.single((F(1),))) for n in range(2, 10)]
)


@pytest.mark.parametrize("builder,n,h", ROUND_TRIPS,
                         ids=[f"{b.__name__}{n}" for b, n, _ in ROUND_TRIPS])
def test_trusted_gr_matches_gr_of_the_parsed_file(monkeypatch, builder, n, h):
    checked = []
    check = GradedAlgebra._validate_associativity

    def counted(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(GradedAlgebra, "_validate_associativity", counted)
    A = builder(n)
    trusted_gr = associated_graded(A, h)
    assert checked == []
    # input from outside keeps its check, and so does all that derives from it
    parsed = parse_graded_algebra(graded_algebra_to_str(A))
    parsed_gr = associated_graded(parsed, h)
    coarse = coarsen(parsed, (tuple(1 for _ in range(A.monoid_dim)),))
    assert checked == [parsed, parsed_gr, coarse]
    assert not (parsed.trusted or parsed_gr.trusted or coarse.trusted)
    assert graded_algebra_to_str(trusted_gr) == graded_algebra_to_str(parsed_gr)


def _fraction_first_failure(A):
    """The associativity check in Fraction arithmetic: first failing triple."""
    def times(expansion, b):
        out = {}
        for t, c in expansion:
            inner = A.basis_product(t, b)
            if inner is None:
                return None
            for t2, c2 in inner:
                out[t2] = out.get(t2, F(0)) + c * c2
        return {t: c for t, c in out.items() if c != 0}

    partners = {}
    for b1, b2 in A.structure:
        partners.setdefault(b1, set()).add(b2)
        partners.setdefault(b2, set()).add(b1)
    for b1, b2 in sorted(A.structure):
        for b3 in sorted(c for c in partners[b1] & partners[b2] if c >= b2):
            sides = [times(A.basis_product(x, y), z)
                     for x, y, z in ((b1, b2, b3), (b2, b3, b1), (b1, b3, b2))]
            if None not in sides and not sides[0] == sides[1] == sides[2]:
                return (b1, b2, b3)
    return None


def _integer_check_failure(A):
    try:
        A._validate_associativity()
    except AssociativityError as err:
        return err.triple
    return None


def _changed_basis_ring(rng, truncation):
    """k[x, y] graded by degree, in a random upper-triangular rational basis.

    Basis element k of degree d is sum_m B_d[k][m] * x^m y^(d-m); the table
    is associative, and its constants have denominators other than 1.
    """
    def entry():
        return F(rng.choice((-5, -3, -2, -1, 1, 2, 4)), rng.choice((1, 2, 3, 5, 6)))

    change = {d: [{m: (entry() if m == k else rng.choice((F(0), entry())))
                   for m in range(k, d + 1)} for k in range(d + 1)]
              for d in range(truncation + 1)}

    def coordinates(d, monomial_vector):
        # back-substitution: v_m = sum_{k <= m} c_k * B_d[k][m]
        c = []
        for m in range(d + 1):
            rest = monomial_vector.get(m, F(0)) - sum(
                (c[k] * change[d][k][m] for k in range(m)), F(0))
            c.append(rest / change[d][m][m])
        return c

    structure = {}
    for a in range(truncation + 1):
        for b in range(a, truncation + 1 - a):
            for i in range(a + 1):
                for j in range(b + 1):
                    v = {}
                    for m, cm in change[a][i].items():
                        for n, cn in change[b][j].items():
                            v[m + n] = v.get(m + n, F(0)) + cm * cn
                    coords = coordinates(a + b, v)
                    structure[(((a,), i), ((b,), j))] = tuple(
                        (((a + b,), k), c) for k, c in enumerate(coords) if c != 0)
    components = {(d,): d + 1 for d in range(truncation + 1)}
    return components, structure


def _perturbed(rng, structure):
    structure = dict(structure)
    key = rng.choice(sorted(structure))
    expansion = list(structure[key])
    move = rng.randrange(3)
    if move == 0 and expansion:
        k = rng.randrange(len(expansion))
        expansion[k] = (expansion[k][0], 2 * expansion[k][1])
    elif move == 1:
        grade = tuple(x + y for x, y in zip(key[0][0], key[1][0]))
        target = (grade, rng.randrange(grade[0] + 1))
        expansion = [(t, c) for t, c in expansion if t != target]
        expansion.append((target, F(rng.choice((-1, 1)), rng.choice((2, 3)))))
    else:
        expansion = []
    structure[key] = tuple(sorted(expansion))
    return structure


def _random_table(rng, truncation):
    components = {(d,): rng.randint(1, 2) for d in range(truncation + 1)}
    structure = {}
    for a in range(truncation + 1):
        for b in range(a, truncation + 1 - a):
            for i in range(components[(a,)]):
                for j in range(components[(b,)]):
                    if a == b and j < i:
                        continue
                    targets = [((a + b,), k) for k in range(components[(a + b,)])]
                    structure[(((a,), i), ((b,), j))] = tuple(
                        (t, F(rng.randint(-3, 3), rng.choice((1, 2, 4))))
                        for t in targets if rng.random() < 0.7)
    return components, structure


def test_integer_associativity_check_matches_fraction_arithmetic():
    rng = random.Random(5)
    verdicts, scaled = [], 0
    for n in range(90):
        truncation = rng.randint(2, 4)
        if n % 3 == 2:
            components, structure = _random_table(rng, truncation)
        else:
            components, structure = _changed_basis_ring(rng, truncation)
            if n % 3 == 1:
                structure = _perturbed(rng, structure)
        A = GradedAlgebra(1, components, structure, truncation, validate=False)
        denominators = {c.denominator for exp in A.structure.values() for _, c in exp}
        scaled += max(denominators, default=1) > 1
        expected = _fraction_first_failure(A)
        assert _integer_check_failure(A) == expected
        if n % 3 == 0:
            assert expected is None
        verdicts.append(expected is None)
    assert 20 < sum(verdicts) < 80 and scaled > 80


ORACLE_BASES = (
    [(sl2_branching_algebra, (n,)) for n in (3, 4)]
    + [(sl2_rep_ring, (n,)) for n in range(4, 9)]
    + [(monomial_poly_ring, (2, t)) for t in (3, 4)]
)


def _perturbed_builtin(rng, A, move):
    """A's table with one entry changed by `move` and, half the time, pairs dropped."""
    structure = dict(A.structure)
    keys = sorted(structure)
    key = rng.choice([k for k in keys if structure[k]])
    expansion = list(structure[key])
    k = rng.randrange(len(expansion))
    target, c = expansion[k]
    if move == "double":
        expansion[k] = (target, 2 * c)
    elif move == "replace":
        expansion = list(structure[rng.choice(keys)])
    elif move == "rational":
        expansion[k] = (target, F(c, 3))
    structure[key] = tuple(expansion)
    partial = rng.random() < 0.5
    if partial:
        for dropped in rng.sample(keys, rng.randint(1, max(1, len(keys) // 20))):
            del structure[dropped]
    return GradedAlgebra(A.monoid_dim, A.components, structure, A.truncation,
                         validate=False), partial


def _is_unit_term(A, b1, b2):
    expansion = A.basis_product(b1, b2)
    return expansion is not None and len(expansion) == 1 and expansion[0][1] == 1


def test_associativity_check_matches_fraction_arithmetic_on_builtin_tables():
    # built-in tables are mostly one-term products with constant 1, which
    # the check compares row against row; the random tables above almost
    # never are
    rng = random.Random(20)
    bases = [builder(*args) for builder, args in ORACLE_BASES]
    moves = ("double", "replace", "rational", "none")
    outcomes = {"pass": 0, "fail": 0, "unit_fail": 0, "mixed_fail": 0,
                "partial_pass": 0, "partial_fail": 0}
    for n in range(320):
        A, partial = _perturbed_builtin(rng, bases[n % len(bases)], moves[n % 4])
        expected = _fraction_first_failure(A)
        assert _integer_check_failure(A) == expected
        verdict = "pass" if expected is None else "fail"
        outcomes[verdict] += 1
        if partial:
            outcomes["partial_" + verdict] += 1
        if expected is not None:
            b1, b2, b3 = expected
            unit = all(_is_unit_term(A, x, y) for x, y in ((b1, b2), (b2, b3), (b1, b3)))
            outcomes["unit_fail" if unit else "mixed_fail"] += 1
    assert outcomes["pass"] >= 50 and outcomes["fail"] >= 50, outcomes
    assert min(outcomes.values()) >= 10, outcomes


def _ref_str(ref):
    grade, idx = ref
    return f"({','.join(map(str, grade))}:{idx})"


def test_doubled_entry_in_an_emitted_file_is_rejected():
    A = sl2_branching_algebra(3)
    # a pair of degree-1 elements; grade (a, b, c, eta, d) has degree (a + b + c + d) / 2
    pair = next(p for p in sorted(A.structure)
                if all(sum(g) - g[3] == 2 for g, _ in p) and A.structure[p])
    head = f"mult {_ref_str(pair[0])}*{_ref_str(pair[1])} ="
    lines = graded_algebra_to_str(A).splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(head))
    lines[k] = head + re.sub(r"(\d+(?:/\d+)?)\*\(",
                             lambda m: f"{2 * F(m.group(1))}*(", lines[k][len(head):])
    with pytest.raises(AssociativityError) as err:
        parse_graded_algebra("\n".join(lines) + "\n")
    structure = dict(A.structure)
    structure[pair] = tuple((t, 2 * c) for t, c in structure[pair])
    oracle = GradedAlgebra(A.monoid_dim, A.components, structure, A.truncation,
                           validate=False)
    assert err.value.triple == _fraction_first_failure(oracle) is not None


def _rank(rows):
    rows = [[F(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
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


def test_solve_linear_matches_a_rank_test():
    rng = random.Random(8)
    keys = [((g,), i) for g in range(3) for i in range(2)]
    outcomes = set()
    for _ in range(300):
        columns = [{k: F(rng.randint(-3, 3), rng.choice((1, 2)))
                    for k in rng.sample(keys[:4], rng.randint(0, 3))}
                   for _ in range(rng.randint(0, 3))]
        target = {k: F(rng.randint(-2, 2)) for k in rng.sample(keys, rng.randint(0, 3))}
        solution = solve_linear(columns, target)
        matrix = [[col.get(k, F(0)) for col in columns] for k in keys]
        augmented = [row + [target.get(k, F(0))] for row, k in zip(matrix, keys)]
        solvable = _rank(matrix) == _rank(augmented)
        assert (solution is not None) == solvable
        if solution is not None:
            for k in keys:
                assert sum((x * col.get(k, F(0)) for x, col in zip(solution, columns)),
                           F(0)) == target.get(k, F(0))
        outside = any(v != 0 and all(col.get(k, 0) == 0 for col in columns)
                      for k, v in target.items())
        outcomes.add((solvable, outside))
    assert outcomes == {(True, False), (False, False), (False, True)}


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


def test_checks_over_nothing_raise():
    empty = GradedAlgebra(1, {(0,): 1, (1,): 1}, {}, 1)
    gv = GradedValuation.build(LexFunctional.single((F(1),)))
    for check in (check_graded_axioms, check_valuation_axioms):
        with pytest.raises(NothingCheckedError, match="defines no products"):
            check(empty, gv)
    with pytest.raises(NothingCheckedError, match="defines no products"):
        check_monoid_theorem(empty, gv.functional)
    A = sl2_rep_ring(3)
    with pytest.raises(NothingCheckedError, match="conclusion is unchecked"):
        check_monoid_theorem(A, gv.functional, n_samples=0)
    assert check_monoid_theorem(A, gv.functional, n_samples=1).samples == 1


class _CountingRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_pair_sampler_draws_do_not_grow_with_the_grade_dimension():
    """The sampler draws ranks into the pair list and the basis, and a
    compatible partner is given up after 12 tries, so no rejection loop
    grows with the number of variables (about 19 calls a sample at 16)."""
    A = monomial_poly_ring(16, 2)
    rng = _CountingRandom(1)
    sampler = _PairSampler(A, rng)
    for _ in range(200):
        sampler.sample()
    assert rng.calls <= 40 * 200
    start = time.perf_counter()
    report = check_monoid_theorem(A, LexFunctional.single((1,) * 16), seed=1, n_samples=200)
    assert report.samples == 200 and time.perf_counter() - start < 2.0
    assert zero_divisor_search(A) is None


def test_polynomial_ring_needs_a_variable_and_a_truncation():
    for n_vars, truncation in ((0, 2), (2, -1), (-1, 0)):
        with pytest.raises(ValueError, match="at least one variable"):
            monomial_poly_ring(n_vars, truncation)
    assert len(monomial_poly_ring(1, 0).structure) == 1


def test_graded_value_examples():
    A = monomial_poly_ring(3, 6)
    degree = LexFunctional.single((F(1), F(1), F(1)))
    gv = GradedValuation.build(degree)
    e = A.basis_element(((2, 1, 0), 0))
    assert graded_value(gv, e) == trop(3)
    assert graded_value(gv, {}) == BOTTOM
    mixed = {((1, 1, 0), 0): F(1), ((1, 0, 1), 0): F(1)}
    assert graded_value(gv, mixed) == trop(2)


def test_override_validation():
    degree = LexFunctional.single((F(1), F(1), F(1)))
    mixed = {((1, 1, 0), 0): F(1), ((1, 0, 1), 0): F(1)}
    with pytest.raises(ValueError):
        GradedValuation.build(degree, {element_key(mixed): trop(5)})
    homogeneous = {((1, 0, 0), 0): F(1)}
    with pytest.raises(ValueError):
        GradedValuation.build(degree, {element_key(homogeneous): trop(0)})


@pytest.mark.parametrize("key", [
    ((((0, 1), 0), F(0)), (((1, 0), 0), F(1))),  # x padded with a zero term
    ((((0, 1), 0), F(0)), (((1, 0), 0), F(0))),  # all zero
    ((((1, 0), 0), F(1)), (((0, 1), 0), F(1))),  # refs descending
])
def test_override_key_must_be_an_element_key(key):
    # the padded key never applies to x, yet its factor probe made the
    # full check report 2 failures on polyring:2:3
    with pytest.raises(TropvalError, match="is not an element key"):
        GradedValuation.build(LexFunctional.single((F(1), F(1))), {key: trop(0)})


def test_override_counterexample_graded_vs_full():
    A = monomial_poly_ring(3, 4)
    degree = LexFunctional.single((F(1), F(1), F(1)))
    mixed = {((1, 1, 0), 0): F(1), ((1, 0, 1), 0): F(1)}  # x*y + x*z
    gv = GradedValuation.build(degree, {element_key(mixed): trop(1)})

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
        gv = GradedValuation.build(LexFunctional.single(rows))
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


def test_like_terms_are_merged_and_cancelling_terms_vanish():
    x, x2, x3 = ((1,), 0), ((2,), 0), ((3,), 0)
    components = {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    structure = {
        (((0,), 0), ((0,), 0)): ((((0,), 0), F(1)),),
        (((0,), 0), x): ((x, F(1)),),
        (((0,), 0), x2): ((x2, F(1)),),
        (((0,), 0), x3): ((x3, F(1)),),
        # the square of x cancels; x * x^2 lists x^3 three times, out of order
        (x, x): ((x2, F(1)), (x2, F(-1))),
        (x, x2): ((x3, F(1, 2)), (x2, F(0)), (x3, F(-1)), (x3, 3)),
    }
    A = GradedAlgebra(1, components, structure, 3)
    assert A.structure[(x, x)] == ()
    assert A.structure[(x, x2)] == ((x3, F(5, 2)),)
    # one cancelling pair among other terms leaves the others in place
    B = GradedAlgebra(1, components, {(x, x): ((x3, 1), (x2, 2), (x3, -1))}, 3,
                      validate=False)
    assert B.structure[(x, x)] == ((x2, F(2)),)
    # the zero product makes the top component of x * x missing
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


def test_associated_graded_keeps_only_terms_at_the_grade_sum():
    # x*x = x lies below the grade sum 2, so x*x is zero in gr
    x = ((1,), 0)
    components = {(0,): 1, (1,): 1, (2,): 1}
    structure = {
        (((0,), 0), ((0,), 0)): ((((0,), 0), F(1)),),
        (((0,), 0), x): ((x, F(1)),),
        (((0,), 0), ((2,), 0)): ((((2,), 0), F(1)),),
        (x, x): ((x, F(1)),),
    }
    A = GradedAlgebra(1, components, structure, 2)
    gr = associated_graded(A, LexFunctional.single((F(1),)))
    assert gr.structure == {**structure, (x, x): ()}
    assert zero_divisor_search(gr) == (x, x)


def test_zero_divisor_search():
    assert zero_divisor_search(monomial_poly_ring(2, 4)) is None
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
    witness = zero_divisor_search(A)
    assert witness == (((0, 1), 0), ((1, 0), 0))


def _int_fields(ref):
    grade, idx = ref
    return all(type(x) is int for x in grade) and type(idx) is int


def test_pair_keys_are_stored_with_canonical_refs():
    # Refs that compare equal to a basis element, given with float or bool
    # fields and in swapped order, are stored as that element's int form.
    one, x, x2 = ((0,), 0), ((1,), 0), ((2,), 0)
    structure = {
        (((1,), False), ((0.0,), 0)): (),
        (((1.0,), 0), ((1,), 0)): ((((2.0,), 0), F(1)),),
        (((0,), 0), ((0,), False)): ((((0,), 0), F(1)),),
    }
    A = GradedAlgebra(1, {(0,): 1, (1,): 1, (2,): 1}, structure, 2, validate=False)
    assert list(A.structure) == [(one, one), (one, x), (x, x)]
    assert all(_int_fields(b1) and _int_fields(b2) for b1, b2 in A.structure)
    assert A.structure[(x, x)] == ((x2, F(1)),)
    assert _int_fields(A.structure[(x, x)][0][0])
    witness = zero_divisor_search(A)
    assert witness == (one, x) and all(_int_fields(ref) for ref in witness)
    with pytest.raises(TropvalError, match="unknown basis element"):
        GradedAlgebra(1, {(0,): 1}, {(((0.5,), 0), ((0,), 0)): ()}, 0)


class _PairList:
    """A structure given as (pair, expansion) items: a dict cannot hold a
    pair whose grade is a list, but a mapping's ``items`` can yield one."""

    def __init__(self, items):
        self._items = items

    def items(self):
        return iter(self._items)


def test_list_grades_in_refs_are_unknown_basis_elements():
    # a list grade equals no basis element (it cannot be a dict key), in a
    # pair ref and in an expansion target alike, even when its entries do
    one = ((0,), 0)
    for pair in ((([0], 0), one), (one, ([0], 0)), (([0], 0), ([0.0], False))):
        with pytest.raises(TropvalError, match=re.escape("unknown basis element ([0], 0)")):
            GradedAlgebra(1, {(0,): 1}, _PairList([(pair, [(one, 1)])]), 0)
    for target in (([0], 0), ([0.5], 0), ([1], 0)):
        with pytest.raises(TropvalError, match=re.escape(f"unknown basis element {target}")):
            GradedAlgebra(1, {(0,): 1}, _PairList([((one, one), [(target, 1)])]), 0)
    # unknown targets that cannot be ordered: the first one is named
    for targets in ([(("a",), 0), ((5,), 0)], [((5,), 0), (("a",), 0)]):
        with pytest.raises(TropvalError, match=re.escape(f"unknown basis element {targets[0]}")):
            GradedAlgebra(1, {(0,): 1}, {(one, one): [(t, 1) for t in targets]}, 0)
    for bad in ([0.5], [1]):
        with pytest.raises(TropvalError, match=re.escape(f"unknown basis element ({bad}, 0)")):
            GradedAlgebra(1, {(0,): 1}, _PairList([(((bad, 0), one), ())]), 0)


class _FreshExpansions:
    """A structure whose ``items`` makes a new expansion list at each step,
    so the list of one step is freed during the next ones."""

    def __init__(self, structure):
        self._structure = structure

    def items(self):
        for pair, expansion in self._structure.items():
            yield pair, list(expansion)


def test_constructor_memo_is_not_fooled_by_a_reused_id():
    # A memo keyed by id() that let go of its expansions would hand a later
    # pair the stored form of a freed list at the same address.
    for A in (monomial_poly_ring(2, 3), sl2_branching_algebra(2)):
        pairs = list(A.structure.values())
        assert all(pairs[i] != pairs[i + 1] for i in range(len(pairs) - 1))
        given = dict(A.structure)
        expected = GradedAlgebra(A.monoid_dim, A.components, given, A.truncation)
        got = GradedAlgebra(A.monoid_dim, A.components, _FreshExpansions(given),
                            A.truncation)
        assert got.structure == expected.structure == A.structure
        assert list(got.structure) == list(expected.structure)


def test_non_integer_grades_and_indices_are_rejected():
    # int() would truncate each of these to a valid grade or ref
    with pytest.raises(ValueError, match=re.escape("bad grade (1.5,)")):
        GradedAlgebra(1, {(0,): 1, (1.5,): 1}, {}, 1)
    # and a size to a smaller one, or to 0, which would drop the component
    for size in (1.5, 0.5, "2"):
        with pytest.raises(ValueError, match=re.escape(f"bad size {size!r} for grade (1,)")):
            GradedAlgebra(1, {(0,): 1, (1,): size}, {}, 1)
    assert GradedAlgebra(1, {(0,): 1, (1,): 2.0, (2,): 0}, {}, 2).components == {
        (0,): 1, (1,): 2}
    one, half = ((0,), 0), ((0,), 1.5)
    for structure in ({(half, one): ()}, {(one, half): ()},
                      {(one, one): ((half, 1),)}, {(one, one): ((one, 1), (half, 2))}):
        with pytest.raises(TropvalError, match=re.escape("unknown basis element ((0,), 1.5)")):
            GradedAlgebra(1, {(0,): 2}, structure, 0, validate=False)
    with pytest.raises(TropvalError, match="unknown basis element"):
        GradedAlgebra(1, {(0,): 2}, {}, 0).basis_element(half)


def test_coarsening_must_keep_grades_non_negative():
    A = monomial_poly_ring(2, 2)
    with pytest.raises(ValueError, match="coarsening matrix must keep grades non-negative"):
        coarsen(A, ((1, -1),))


def test_coarsening_keeps_graded_verdict():
    # a valuation that passes the full check stays a graded valuation after
    # the grading is pushed to total degree
    fine = monomial_poly_ring(2, 5)
    degree = LexFunctional.single((F(1), F(1)))
    gv_fine = GradedValuation.build(degree)
    assert check_valuation_axioms(fine, gv_fine, seed=3, n_samples=80).verdict == "passes"
    coarse = coarsen(fine, ((1, 1),))
    assert coarse.components[(3,)] == 4  # four cubic monomials
    gv_coarse = GradedValuation.build(LexFunctional.single((F(1),)))
    assert check_graded_axioms(coarse, gv_coarse, seed=3, n_samples=80).verdict == "passes"


def test_same_preorder_functionals_share_the_full_verdict():
    A = monomial_poly_ring(2, 4)
    base = LexFunctional.single((F(2), F(3)))
    gv = GradedValuation.build(base)
    assert check_valuation_axioms(A, gv, seed=4, n_samples=60).verdict == "passes"
    for factor in (F(2), F(1, 2), F(7, 3)):
        scaled = LexFunctional.single(tuple(factor * r for r in base.rows[0]))
        gv2 = GradedValuation.build(scaled)
        assert check_valuation_axioms(A, gv2, seed=4, n_samples=60).verdict == "passes"


# -- every table is held in ascending order: grades, pairs, and the terms of
# each expansion; the scans read it in that order and report the first hit ---


def _assert_ascending(A):
    grades, pairs = list(A.components), list(A.structure)
    assert grades == sorted(grades)
    assert pairs == sorted(pairs)
    assert all(b1 <= b2 for b1, b2 in pairs)
    assert all(list(expansion) == sorted(expansion) for expansion in A.structure.values())


ORDER_CASES = (
    [(sl2_branching_algebra, (n,)) for n in (2, 3, 5)]
    + [(sl2_rep_ring, (n,)) for n in (1, 4, 8)]
    + [(monomial_poly_ring, args) for args in ((1, 3), (2, 4), (3, 3))]
)


@pytest.mark.parametrize("builder,args", ORDER_CASES,
                         ids=[f"{b.__name__}{a}" for b, a in ORDER_CASES])
def test_builtin_tables_and_their_gr_and_coarsenings_are_ascending(builder, args):
    A = builder(*args)
    n = A.monoid_dim
    # reversing the grade coordinates reorders the grades and the pairs
    reverse = tuple(tuple(int(j == n - 1 - i) for j in range(n)) for i in range(n))
    degree = ((1,) * n,)
    grs = [associated_graded(A, h) for h in _functionals_used_on(A)]
    coarse = [coarsen(T, m) for T in [A, *grs] for m in (reverse, degree)]
    grs_of_coarse = [associated_graded(C, LexFunctional.single((F(1),)))
                     for C in coarse[1::2]]
    for T in [A, *grs, *coarse, *grs_of_coarse]:
        _assert_ascending(T)


def test_parsed_tables_are_ascending_whatever_the_statement_order():
    rng = random.Random(5)
    swap = re.compile(r"^mult (\([^)]*\))\*(\([^)]*\)) =")
    for A in (sl2_branching_algebra(3), sl2_rep_ring(5), monomial_poly_ring(2, 4)):
        first, *statements = graded_algebra_to_str(A).splitlines()
        rng.shuffle(statements)
        # half of the pairs written the other way round
        statements = [swap.sub(r"mult \2*\1 =", line) if rng.random() < 0.5 else line
                      for line in statements]
        parsed = parse_graded_algebra("\n".join([first, *statements]) + "\n")
        _assert_ascending(parsed)
        assert parsed.key() == A.key()
        assert graded_algebra_to_str(parsed) == graded_algebra_to_str(A)


def test_constructor_sorts_tables_given_in_any_order():
    for A in (sl2_branching_algebra(3), monomial_poly_ring(3, 3)):
        components = dict(reversed(A.components.items()))
        structure = {(b2, b1): expansion[::-1]
                     for (b1, b2), expansion in reversed(A.structure.items())}
        B = GradedAlgebra(A.monoid_dim, components, structure, A.truncation)
        _assert_ascending(B)
        assert B.key() == A.key()


def _exponents(n_vars: int, budget: int) -> list[tuple[int, ...]]:
    """Every exponent vector in n_vars variables of degree at most budget."""
    if n_vars == 0:
        return [()]
    return [(v, *rest) for v in range(budget + 1)
            for rest in _exponents(n_vars - 1, budget - v)]


def degree_ordered_tables(rows, truncation, basis=None):
    """The table loop `_monomial_algebra` ran before it built in basis order:
    monomials by ascending (degree, exponent), and each one's partners from
    itself on, until the degree sum passes the truncation.  Each product is
    its monomial's normal form.  Also returns each pair's product exponent
    and each standard monomial's ref."""
    leads = basis._leads if basis is not None else ()
    monomials = sorted((e for e in _exponents(len(rows[0]), truncation)
                        if not any(_divides(lm, e) for lm in leads)),
                       key=lambda e: (sum(e), e))
    components, ref_of = {}, {}
    for e in monomials:
        g = _times(rows, e)
        index = components.get(g, 0)
        ref_of[e] = (g, index)
        components[g] = index + 1
    structure, products = {}, {}
    for i, e1 in enumerate(monomials):
        room = truncation - sum(e1)
        for e2 in monomials[i:]:
            if sum(e2) > room:
                break
            product = tuple(x + y for x, y in zip(e1, e2))
            if basis is None:
                expansion = ((ref_of[product], F(1)),)
            else:
                reduced = normal_form(Polynomial.monomial(basis.gens[0].ring, product), basis)
                expansion = tuple(sorted((ref_of[m], c) for m, c in reduced.terms.items()))
            r1, r2 = ref_of[e1], ref_of[e2]
            pair = (r1, r2) if r1 <= r2 else (r2, r1)
            structure[pair] = expansion
            products[pair] = product
    return components, structure, products, ref_of


CHAIN_RING = RingContext(("x", "y", "z"))


def chain_basis():
    """A homogeneous basis whose rewrites of x^k y^k run k steps deep.

    The single relation 2xy - z^2 - yz has lead xy under grevlex, so x^k y^k
    rewrites to (x^(k-1) y^(k-1) z^2 + x^(k-1) y^k z) / 2, whose terms are
    reducible again; the monic tail has Fraction coefficients.
    """
    x, y, z = (Polynomial.variable(CHAIN_RING, v) for v in CHAIN_RING.variables)
    return buchberger([(x * y).scale(2) - z * z - y * z], MonomialOrder.grevlex())


def _rewrite_depth(basis, e) -> int:
    """The longest chain of one-step rewrites from the monomial e."""
    step = basis._lookups()[1]
    tail = step(e)
    return 0 if tail is None else 1 + max(_rewrite_depth(basis, t) for t, _ in tail)


MONOMIAL_CASES = (
    [("sl2-branching", n) for n in range(2, 7)]
    + [("sl2-rep-ring", n) for n in range(1, 10)]
    + [(f"polyring:{v}", t) for v in range(1, 4) for t in range(5)]
    + [("chain", t) for t in range(2, 8)]
)


@pytest.mark.parametrize("kind,truncation", MONOMIAL_CASES,
                         ids=[f"{k}:{t}" for k, t in MONOMIAL_CASES])
def test_monomial_algebra_matches_the_degree_ordered_loop(kind, truncation):
    if kind == "sl2-branching":
        rows, basis = GRADE_ROWS, straightening_basis()
    elif kind == "sl2-rep-ring":
        rows, basis = ((1, 1),), None
    elif kind == "chain":
        # two grade rows, so that components hold several monomials
        rows, basis = ((1, 1, 1), (0, 1, 2)), chain_basis()
        k = truncation // 2  # x^k * y^k is a pair of the table
        assert _rewrite_depth(basis, (k, k, 0)) == k
    else:
        v = int(kind.split(":")[1])
        rows, basis = tuple(tuple(int(i == j) for j in range(v)) for i in range(v)), None
    A = _monomial_algebra(rows, truncation, basis)
    components, structure, products, ref_of = degree_ordered_tables(rows, truncation, basis)
    assert A.components == components
    assert A.structure == structure
    _assert_ascending(A)
    # one expansion object per product monomial, and none shared by two
    object_of = {}
    for pair, expansion in A.structure.items():
        assert object_of.setdefault(products[pair], expansion) is expansion
    distinct = [x for x in object_of.values() if x]  # () is one shared object
    assert len({id(x) for x in distinct}) == len(distinct)
    assert all(stored_coefficient(c) for x in object_of.values() for _, c in x)
    # each non-standard product's expansion is the sorted terms of its normal
    # form, in coefficient type too
    for product, expansion in object_of.items():
        if product in ref_of:
            continue
        reduced = normal_form(Polynomial.monomial(basis.gens[0].ring, product), basis)
        want = sorted((ref_of[m], c, type(c)) for m, c in reduced.terms.items())
        assert [(ref, c, type(c)) for ref, c in expansion] == want
