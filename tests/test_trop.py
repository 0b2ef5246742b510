from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropval.textio import parse_tropical_value
from tropval.trop import (
    BOTTOM,
    TropicalValue,
    monomial_weight,
    trop,
    trop_add,
    trop_mul,
)

scalars = st.one_of(
    st.just(BOTTOM),
    st.fractions(min_value=-50, max_value=50).map(TropicalValue),
)


def test_add_examples():
    assert trop_add(trop(3), trop(5)) == trop(5)
    assert trop_add(BOTTOM, trop(2)) == trop(2)
    assert trop_add(trop(Fraction(7, 2)), trop(Fraction(7, 2))) == trop(Fraction(7, 2))


def test_mul_examples():
    assert trop_mul(trop(3), trop(5)) == trop(8)
    assert trop_mul(BOTTOM, trop(5)) == BOTTOM
    assert trop_mul(trop(Fraction(-1, 2)), trop(Fraction(1, 2))) == trop(0)


def test_monomial_weight_examples():
    w = (Fraction(1), Fraction(2))
    assert monomial_weight(w, (3, 1), trop(0)) == trop(5)
    assert monomial_weight((Fraction(0), Fraction(0)), (9, 9), trop(0)) == trop(0)
    assert monomial_weight((Fraction(1), Fraction(1)), (2, 0), BOTTOM) == BOTTOM


def test_monomial_weight_dimension_mismatch():
    with pytest.raises(ValueError):
        monomial_weight((Fraction(1),), (1, 2), trop(0))


def test_ordering_and_serialization():
    assert BOTTOM < trop(-1000)
    assert trop(Fraction(1, 3)).to_str() == "1/3"
    assert parse_tropical_value("-inf") == BOTTOM
    assert parse_tropical_value("7/2") == trop(Fraction(7, 2))


@given(scalars, scalars)
def test_add_commutative(a, b):
    assert trop_add(a, b) == trop_add(b, a)


@given(scalars, scalars, st.just(BOTTOM) | scalars)
def test_add_associative(a, b, c):
    assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))


@given(scalars)
def test_add_idempotent_and_identity(a):
    assert trop_add(a, a) == a
    assert trop_add(a, BOTTOM) == a


@given(scalars, scalars, scalars)
def test_mul_associative_commutative(a, b, c):
    assert trop_mul(a, b) == trop_mul(b, a)
    assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))


@given(scalars, scalars, scalars)
def test_mul_distributes_over_add(a, b, c):
    assert trop_mul(a, trop_add(b, c)) == trop_add(trop_mul(a, b), trop_mul(a, c))


@given(scalars)
def test_bottom_absorbs(a):
    assert trop_mul(a, BOTTOM) == BOTTOM
