"""The sparse solver `tropval.linalg` used before its rows were indexed by
column, kept as a reference.

Every entry is made a `Fraction` up front, each column's pivot is the first
pending row holding it, found by a scan of every pending row, and the
elimination scans every row.  The column-indexed solver picks the same
pivot rows, so the two must return equal solutions of the same types.
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
