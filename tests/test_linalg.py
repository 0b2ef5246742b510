"""`integer_echelon` on small seeded integer matrices.

Each row carries its own row of the transform, as a `_Tracked` vector that
turns the multiplicative updates into additive ones, so the test can read
off U with U*A equal to the echelon form.  U must be unimodular, and its
rows at the zero rows must span the integer left kernel of A, checked by
brute force over small integer vectors.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from tropval.linalg import integer_echelon, solve_linear


class _Tracked:
    """An integer vector written multiplicatively: a / b subtracts and
    a ** k scales, the two operations `integer_echelon` applies."""

    def __init__(self, v):
        self.v = tuple(v)

    def __truediv__(self, other):
        return _Tracked(x - y for x, y in zip(self.v, other.v))

    def __pow__(self, k):
        return _Tracked(k * x for x in self.v)


def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        p = next((r for r in range(col, len(m)) if m[r][col]), None)
        if p is None:
            return Fraction(0)
        if p != col:
            m[col], m[p] = m[p], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _matrices():
    rng = random.Random(83)
    out = [[[1, -1], [1, -1]], [[2, 0], [0, 3], [4, 6]], [[0, 0, 1]], []]
    while len(out) < 120:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        out.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
    return out


def test_zero_rows_span_the_integer_left_kernel():
    kernels = 0
    for a in _matrices():
        m = len(a)
        rows = [list(row) for row in a]
        carried = [_Tracked(int(i == j) for j in range(m)) for i in range(m)]
        rank = integer_echelon(rows, carried)
        u = [c.v for c in carried]
        width = len(a[0]) if a else 0
        # U * A is the echelon form, and U is unimodular
        assert [[sum(u[i][k] * a[k][j] for k in range(m)) for j in range(width)]
                for i in range(m)] == rows
        assert m == 0 or abs(_det(u)) == 1
        assert all(not any(row) for row in rows[rank:])
        leads = [next(j for j, x in enumerate(row) if x) for row in rows[:rank]]
        assert leads == sorted(set(leads))
        # every small y with y * A = 0 is an integer combination of the
        # transform's rows at the zero rows
        basis = u[rank:]
        for y in itertools.product(range(-2, 3), repeat=m):
            if any(sum(y[k] * a[k][j] for k in range(m)) for j in range(width)):
                continue
            columns = [dict(enumerate(b)) for b in basis]
            z = solve_linear(columns, dict(enumerate(y)))
            assert z is not None and all(x.denominator == 1 for x in z), (a, y)
            kernels += any(y)
    assert kernels > 500


def test_carried_fractions_multiply_along_the_transform():
    rng = random.Random(89)
    for a in _matrices()[:60]:
        m = len(a)
        values = [Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2))) for _ in range(m)]
        tracked = [_Tracked(int(i == j) for j in range(m)) for i in range(m)]
        rows, carried = [list(row) for row in a], list(values)
        integer_echelon([list(row) for row in a], tracked)
        integer_echelon(rows, carried)
        for c, t in zip(carried, tracked):
            product = Fraction(1)
            for v, k in zip(values, t.v):
                product *= v ** k
            assert c == product
