"""Degree-bounded ideal membership by exact linear algebra.

Independent oracle for cross-checking normal-form membership: f lies in the
span of {monomial * generator} with all products of total degree at most the
bound, decided by Gaussian elimination over Q.  Deliberately self-contained:
no Groebner machinery, its own elimination.
"""

from fractions import Fraction
from itertools import product


def monomials_up_to(n_vars: int, degree: int):
    out = []
    for exps in product(range(degree + 1), repeat=n_vars):
        if sum(exps) <= degree:
            out.append(exps)
    return sorted(out)


def _shift(terms: dict, by: tuple) -> dict:
    return {tuple(a + b for a, b in zip(e, by)): c for e, c in terms.items()}


def macaulay_member(f, gens, degree_bound: int) -> bool:
    """Is f a combination sum h_i g_i with every deg(h_i g_i) <= bound?"""
    if not f.terms:
        return True
    if f.total_degree() > degree_bound:
        return False
    n = f.ring.dim
    columns = []
    for g in gens:
        room = degree_bound - g.total_degree()
        for m in monomials_up_to(n, room) if room >= 0 else []:
            columns.append(_shift(g.terms, m))
    rows = sorted({e for col in columns for e in col} | set(f.terms))
    index = {e: i for i, e in enumerate(rows)}
    matrix = [[Fraction(0)] * (len(columns) + 1) for _ in rows]
    for j, col in enumerate(columns):
        for e, c in col.items():
            matrix[index[e]][j] = Fraction(c)
    for e, c in f.terms.items():
        matrix[index[e]][-1] = Fraction(c)

    # forward elimination with back substitution folded in
    n_rows, n_cols = len(rows), len(columns)
    rank_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank_row, n_rows) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank_row], matrix[pivot] = matrix[pivot], matrix[rank_row]
        pv = matrix[rank_row][col]
        matrix[rank_row] = [x / pv for x in matrix[rank_row]]
        for r in range(n_rows):
            if r != rank_row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b
                             for a, b in zip(matrix[r], matrix[rank_row])]
        rank_row += 1
        if rank_row == n_rows:
            break
    return all(matrix[r][-1] == 0 for r in range(rank_row, n_rows))
