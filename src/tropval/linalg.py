"""Exact linear algebra: solving over Q, and integer row reduction over Z.

`solve_linear` serves structure-constant factor searches;
`integer_echelon` is the start of a lattice kernel, and decides whether a
binomial ideal holds a monomial (`groebner.contains_monomial`).

In `solve_linear`, Gauss-Jordan elimination runs on sparse rows (one
dict of nonzero entries per equation), so normalization and elimination
touch only nonzero entries.  The rows are also indexed by column: each column keeps the set
of rows holding it, so the pivot search and the elimination of a column
visit only those rows, never every pending one.  Columns are eliminated
in their given order and each takes the first remaining row (in the order
the equations were met) with a nonzero entry as its pivot.  The reduced
row echelon form does not depend on the order of the rows, so neither
does the returned solution: rows need no sorting, and any hashable row
keys may be mixed.

Entries stay as given, ints or `Fraction`s, and a pivot other than 1
divides exactly: an int quotient stays an int, so an integral system
makes no `Fraction` until a pivot leaves a remainder.  The solution is
returned as `Fraction`s.

`integer_echelon` brings integer rows to echelon form with unimodular row
operations only: swap two rows, or subtract an integer multiple of one row
from another.  Each column is cleared below its pivot by Euclid's
algorithm on the entries there: the entry of least absolute value becomes
the pivot, the rows below it take floor quotients, and this repeats until
only the pivot is nonzero.  The product U of the operations is unimodular
and U*A is the echelon form, so the rows of U at the zero rows of U*A
span the integer left kernel of A: any y with y*A = 0 is z*U for an
integer z, and z*U*A = 0 forces z to vanish at the nonzero rows, which
are linearly independent.  Each row carries a value through the same
operations, in multiplicative form (a row subtracted q times divides the
value by the other row's value to the q-th), so a zero row's value is the
product of the input values raised to that row of U; the input is never
copied into a transform matrix.
"""

from __future__ import annotations

from fractions import Fraction


def _quotient(v, pv):
    """v / pv, an int when both are ints and pv divides v."""
    if type(v) is int and type(pv) is int:
        q, r = divmod(v, pv)
        if not r:
            return q
        return Fraction(v, pv)
    return v / pv


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
                equations.setdefault(k, {})[j] = v
    for k, v in target.items():
        if v != 0:
            equations[k][n] = v

    rows = list(equations.values())
    # holders[j]: the indices of the rows with an entry in column j
    holders: list[set] = [set() for _ in range(n + 1)]
    for r, row in enumerate(rows):
        for j in row:
            holders[j].add(r)
    pending = set(range(len(rows)))  # rows that have not been a pivot row yet
    pivots: list[tuple[int, dict]] = []
    for col in range(n):
        candidates = holders[col] & pending
        if not candidates:
            continue
        p = min(candidates)
        pending.remove(p)
        pivot = rows[p]
        # the pivot row drops its own entry, which would read 1
        pv = pivot.pop(col)
        if pv != 1:
            for k, v in pivot.items():
                pivot[k] = _quotient(v, pv)
        others = holders[col]
        others.remove(p)
        for r in others:
            row = rows[r]
            factor = row.pop(col)
            for k, v in pivot.items():
                old = row.get(k)
                if old is None:
                    row[k] = -factor * v
                    holders[k].add(r)
                else:
                    s = old - factor * v
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                        holders[k].remove(r)
        pivots.append((col, pivot))
        if not pending:
            break
    # Every column entry of a row that never pivoted has been eliminated,
    # so such a row reads 0 = its target entry.
    if any(rows[r] for r in pending):
        return None
    solution = [Fraction(0)] * n
    for col, row in pivots:
        if n in row:
            solution[col] = Fraction(row[n])
    return solution


def integer_echelon(rows: list[list[int]], carried: list) -> int:
    """Bring integer rows to echelon form in place; return the rank.

    Afterwards rows[:rank] are the nonzero rows in echelon form and
    rows[rank:] are zero.  ``carried`` holds one value per row, anything
    with ``/`` and ``**`` by an int (a `Fraction`, say), and goes through
    the same swaps and subtractions multiplicatively; the rows of the
    unimodular transform at the zero rows span the left kernel.
    """
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        while True:
            live = [r for r in range(rank, len(rows)) if rows[r][col]]
            if not live:
                break
            p = min(live, key=lambda r: abs(rows[r][col]))
            rows[rank], rows[p] = rows[p], rows[rank]
            carried[rank], carried[p] = carried[p], carried[rank]
            pivot, value = rows[rank], carried[rank]
            a = pivot[col]
            cleared = True
            for r in range(rank + 1, len(rows)):
                row = rows[r]
                if row[col]:
                    q = row[col] // a
                    rows[r] = row = [x - q * y for x, y in zip(row, pivot)]
                    carried[r] = carried[r] / value ** q
                    cleared = cleared and not row[col]
            if cleared:
                rank += 1
                break
    return rank
