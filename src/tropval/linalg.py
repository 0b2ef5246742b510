"""Exact linear solving over Q, for structure-constant factor searches."""

from __future__ import annotations

from fractions import Fraction


def solve_linear(columns: list[dict], target: dict) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target exactly, or return None.

    Columns and target are sparse vectors (mapping -> Fraction) over any
    hashable row index set.  Free variables are set to zero.
    """
    support = {k for col in columns for k, v in col.items() if v != 0}
    if any(v != 0 and k not in support for k, v in target.items()):
        return None  # that coordinate's equation reads 0 = nonzero
    rows = sorted({k for col in columns for k in col} | set(target),
                  key=lambda k: (repr(type(k)), repr(k)))
    row_index = {k: i for i, k in enumerate(rows)}
    m, n = len(rows), len(columns)
    matrix = [[Fraction(0)] * (n + 1) for _ in range(m)]
    for j, col in enumerate(columns):
        for k, v in col.items():
            matrix[row_index[k]][j] = Fraction(v)
    for k, v in target.items():
        matrix[row_index[k]][n] = Fraction(v)

    pivot_cols: list[int] = []
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
    solution = [Fraction(0)] * n
    for r, col in enumerate(pivot_cols):
        solution[col] = matrix[r][n]
    return solution
