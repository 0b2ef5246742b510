import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from tropval.groebner import _divisor, _remainder_terms, _rewrite
from tropval.poly import WeightVector
from tropval.textio import parse_presentation

FIXTURES = Path(__file__).parent / "fixtures"


def stored_coefficient(c) -> bool:
    """Is c in the one form a coefficient is stored in: an int when it is
    integral, otherwise a `Fraction` with denominator > 1?"""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def W(*entries) -> WeightVector:
    return WeightVector(tuple(Fraction(e) for e in entries))


def load(name: str):
    return parse_presentation((FIXTURES / name).read_text()).presentation


F = Fraction
H = F(1, 2)
# The 60 on-variety (fixture, weight) pairs of the acceptance suite.
FIXTURE_WEIGHTS = {
    "line.ideal": [
        W(1, 1), W(2, 2), W(3, 3), W(H, H), W(F(7, 3), F(7, 3)), W(0, 0),
        W(0, -1), W(0, -2), W(0, F(-5, 2)), W(-1, 0), W(-3, 0), W(-H, 0),
    ],
    "hyperbola.ideal": [
        W(a, -a) for a in
        (0, 1, -1, 2, -2, H, -H, 3, F(5, 2), F(-5, 2), F(7, 3), -3)
    ],
    "cubic.ideal": [
        W(t, 2 * t, 3 * t) for t in
        (0, 1, -1, 2, -2, H, -H, 3, -3, F(5, 2), F(-5, 2), F(7, 3))
    ],
    "cone.ideal": [
        W(0, 0, 0), W(1, 1, 1), W(2, 1, 0), W(0, 1, 2), W(1, 0, -1),
        W(-1, 0, 1), W(2, 2, 2), W(1, 2, 3), W(3, 2, 1), W(-1, -1, -1),
        W(H, H, H), W(4, 3, 2),
    ],
    "plane.ideal": [
        W(0, 0, 0), W(1, 1, 0), W(0, 1, 1), W(1, 0, 1), W(1, 1, 1),
        W(2, 2, 2), W(H, H, 0), W(2, 2, -1), W(-1, 3, 3),
        W(F(7, 3), F(7, 3), F(7, 3)), W(-1, -1, -1), W(3, 3, 1),
    ],
}


# Division by a basis's own table with the plain order key and rewrite: the
# reference for its per-monomial memos, which it neither reads nor fills.


def _memo_free_lookups(gb) -> tuple:
    table = [_divisor(g, lm) for g, lm in zip(gb.gens, gb._leads)]
    return gb.order._descending_key, partial(_rewrite, table)


def _memo_free_terms(f, gb):
    """The remainder terms of f by gb, largest first, as a generator."""
    return _remainder_terms(dict(f.terms), *_memo_free_lookups(gb))


@pytest.fixture
def line():
    return load("line.ideal")


@pytest.fixture
def hyperbola():
    return load("hyperbola.ideal")


@pytest.fixture
def cubic():
    return load("cubic.ideal")


@pytest.fixture
def buchberger_calls(monkeypatch):
    """The order of every Buchberger run, counted at each tropval binding."""
    from tropval import groebner

    calls = []
    original = groebner.buchberger

    def counting(gens, order):
        calls.append(order)
        return original(gens, order)

    for name, module in list(sys.modules.items()):
        if ((name == "tropval" or name.startswith("tropval."))
                and vars(module).get("buchberger") is original):
            monkeypatch.setattr(module, "buchberger", counting)
    return calls
