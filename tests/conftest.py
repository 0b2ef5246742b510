import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tropval.poly import WeightVector
from tropval.textio import parse_presentation

FIXTURES = Path(__file__).parent / "fixtures"


def W(*entries) -> WeightVector:
    return WeightVector(tuple(Fraction(e) for e in entries))


def load(name: str):
    return parse_presentation((FIXTURES / name).read_text()).presentation


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
