"""Exact max-plus semiring over the rationals with a bottom element.

Scalars are elements of Q together with a least element ``bottom`` that
stands for minus infinity.  Addition is ``max`` and multiplication is
ordinary ``+``, with ``bottom`` acting as the additive identity and as an
absorbing element for multiplication.  Everything is exact: values are
`fractions.Fraction`, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class TropicalValue:
    """A rational number or the bottom element (minus infinity)."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction | int | str | None = None):
        self.value: Fraction | None
        if value is None or type(value) is Fraction:
            self.value = value
        else:
            self.value = Fraction(value)

    @property
    def is_bottom(self) -> bool:
        return self.value is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropicalValue):
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other: "TropicalValue") -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def __hash__(self) -> int:
        return hash(("trop", self.value))

    def __repr__(self) -> str:
        return f"TropicalValue({self.to_str()!r})"

    def to_str(self) -> str:
        """Serialize as ``p/q``, ``p``, or ``-inf``."""
        if self.value is None:
            return "-inf"
        return str(self.value)


BOTTOM = TropicalValue(None)


def trop(value: Fraction | int | str) -> TropicalValue:
    """Shorthand constructor for a finite tropical value."""
    return TropicalValue(value)


def trop_add(a: TropicalValue, b: TropicalValue) -> TropicalValue:
    """Tropical sum: max of the two values, bottom is the identity."""
    return a if b < a else b


def trop_mul(a: TropicalValue, b: TropicalValue) -> TropicalValue:
    """Tropical product: ordinary sum, bottom is absorbing."""
    if a.value is None or b.value is None:
        return BOTTOM
    return TropicalValue(a.value + b.value)


def monomial_weight(weights, exponents, coeff_val: TropicalValue) -> TropicalValue:
    """Weight of a scaled monomial: ``coeff_val (x) sum(w_i * e_i)``.

    ``weights`` is a sequence of Fractions, ``exponents`` a same-length
    sequence of non-negative integers.  A bottom coefficient (zero
    coefficient in the classical world) absorbs everything.
    """
    ws = tuple(weights)
    if len(ws) != len(exponents):
        raise ValueError(
            f"dimension mismatch: {len(ws)} weights vs {len(exponents)} exponents"
        )
    if coeff_val.value is None:
        return BOTTOM
    acc = coeff_val.value
    for w, e in zip(ws, exponents):
        if e:
            acc += w * e
    return TropicalValue(acc)
