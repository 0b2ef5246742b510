"""Exact linear solving over Q, for structure-constant factor searches.

Gauss-Jordan elimination runs on sparse rows (one dict of nonzero entries
per equation), so normalization and elimination touch only nonzero
entries.  Columns are eliminated in their given order and each takes the
first remaining row with a nonzero entry as its pivot.  The reduced row
echelon form does not depend on the order of the rows, so neither does
the returned solution: rows need no sorting, and any hashable row keys
may be mixed.
"""

from __future__ import annotations

from fractions import Fraction


def solve_linear(columns: list[dict], target: dict) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target exactly, or return None.

    Columns and target are sparse vectors (mapping -> int or Fraction) over
    any hashable row index set.  Free variables are set to zero.
    """
    support = {k for col in columns for k, v in col.items() if v != 0}
    if any(v != 0 and k not in support for k, v in target.items()):
        return None  # that coordinate's equation reads 0 = nonzero
    n = len(columns)  # the target's entries sit in column n
    equations: dict = {}
    for j, col in enumerate(columns):
        for k, v in col.items():
            if v != 0:
                equations.setdefault(k, {})[j] = Fraction(v)
    for k, v in target.items():
        if v != 0:
            equations[k][n] = Fraction(v)

    rows = list(equations.values())
    pending = list(rows)  # rows that have not been a pivot row yet
    pivots: list[tuple[int, dict]] = []
    for col in range(n):
        pivot = next((row for row in pending if col in row), None)
        if pivot is None:
            continue
        pending.remove(pivot)
        pv = pivot[col]
        if pv != 1:
            for k in pivot:
                pivot[k] /= pv
        for row in rows:
            if row is pivot:
                continue
            factor = row.get(col)
            if factor is None:
                continue
            for k, v in pivot.items():
                s = row.get(k, 0) - factor * v
                if s:
                    row[k] = s
                else:
                    del row[k]
        pivots.append((col, pivot))
        if not pending:
            break
    # Every column entry of a row that never pivoted has been eliminated,
    # so such a row reads 0 = its target entry.
    if any(pending):
        return None
    solution = [Fraction(0)] * n
    for col, row in pivots:
        if n in row:
            solution[col] = row[n]
    return solution
