"""Exact multivariate polynomials over Q and presentations of algebras.

A polynomial lives in a fixed `RingContext` (an ordered tuple of variable
names) and is stored sparsely as a map from exponent tuples to nonzero
rational coefficients.  A coefficient has one stored form (`_coefficient`):
an int when it is integral, otherwise a `Fraction` with denominator > 1.
The zero polynomial is the empty map.  Values are immutable after
construction; all arithmetic returns new objects.

A `Presentation` packages a ring, a list of ideal generators, and a
coefficient valuation: either the trivial one (every nonzero constant has
value 0) or a t-adic one encoded by reserving a ring variable as the
uniformizer and pinning its weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import TropvalError

ExponentVector = tuple[int, ...]


class RingMismatchError(TropvalError):
    """Raised when combining values from different ring contexts."""


@dataclass(frozen=True)
class RingContext:
    """An ordered list of variable names defining a polynomial ring over Q."""

    variables: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable in ring {self.variables}")

    @property
    def dim(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __str__(self) -> str:
        return "ring " + " ".join(self.variables) + ";"


def _coefficient(c):
    """The stored form of a rational coefficient: an int when it is integral,
    otherwise the `Fraction` itself.

    c is an int or a `Fraction`; anything else, a float included, is a
    `TypeError`.  Every place that can make an integral `Fraction` in a
    `Polynomial` or a graded table stores its result through this.
    """
    try:
        return c.numerator if c.denominator == 1 else c
    except AttributeError:
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction") from None


def _rational(x) -> Fraction:
    """A caller's number as a `Fraction`.

    x is an int, a `Fraction` or a string that `Fraction` reads; a float is
    a `TypeError`, because its binary value is rarely the number meant
    (``0.1`` is 3602879701896397/36028797018963968).  Every public entry
    point that turns a number it is given into a `Fraction` calls this.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; give an int, a Fraction or a string")
    return Fraction(x)


def _check_same_ring(a: "Polynomial", b: "Polynomial") -> None:
    if a.ring != b.ring:
        raise RingMismatchError(
            f"ring mismatch: {a.ring.variables} vs {b.ring.variables}"
        )


class Polynomial:
    """Sparse exact polynomial: exponent tuple -> nonzero coefficient.

    A coefficient is an int when it is integral, otherwise a `Fraction`.
    An exponent is stored as an int; one that does not equal its int (1.5,
    or the string "2") is a `ValueError`.
    """

    __slots__ = ("ring", "terms", "_key")

    def __init__(self, ring: RingContext,
                 terms: Mapping[ExponentVector, int | Fraction]):
        clean: dict[ExponentVector, int | Fraction] = {}
        n = ring.dim
        for exps, coeff in terms.items():
            c = _coefficient(coeff)
            if c == 0:
                continue
            e = tuple(int(x) for x in exps)
            if e != tuple(exps):
                raise ValueError(f"exponent vector {exps!r} has a non-integer entry")
            if len(e) != n:
                raise ValueError(f"exponent vector {e} has wrong length for {ring}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            clean[e] = c
        self.ring = ring
        self.terms = clean
        self._key: tuple | None = None

    @classmethod
    def _trusted(cls, ring: RingContext,
                 terms: dict[ExponentVector, int | Fraction]) -> "Polynomial":
        """Wrap terms that are already clean, without copying or validating.

        The caller guarantees int-tuple exponents of length ``ring.dim``, no
        negative entries, and nonzero coefficients in their stored form
        (`_coefficient`); the dict is taken over, not copied.
        """
        out = cls.__new__(cls)
        out.ring = ring
        out.terms = terms
        out._key = None
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingContext) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: RingContext, c: Fraction | int) -> "Polynomial":
        return cls(ring, {(0,) * ring.dim: c})

    @classmethod
    def variable(cls, ring: RingContext, name: str) -> "Polynomial":
        i = ring.index(name)
        e = [0] * ring.dim
        e[i] = 1
        return cls(ring, {tuple(e): 1})

    @classmethod
    def monomial(
        cls, ring: RingContext, exps: Iterable[int], coeff: Fraction | int = 1
    ) -> "Polynomial":
        return cls(ring, {tuple(exps): coeff})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def key(self) -> tuple:
        """Canonical hashable form (sorted terms), for dict keys and caches."""
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, self.key()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        _check_same_ring(self, other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            old = res.get(e)
            if old is None:
                res[e] = c
            else:
                s = old + c
                if s == 0:
                    del res[e]
                else:
                    res[e] = _coefficient(s)
        return Polynomial._trusted(self.ring, res)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        _check_same_ring(self, other)
        res: dict[ExponentVector, int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                old = res.get(e)
                if old is None:
                    res[e] = c1 * c2
                else:
                    s = old + c1 * c2
                    if s == 0:
                        del res[e]
                    else:
                        res[e] = s
        return Polynomial._trusted(
            self.ring, {e: _coefficient(c) for e, c in res.items()})

    def scale(self, c: Fraction | int) -> "Polynomial":
        c = _coefficient(c)
        if c == 0:
            return Polynomial.zero(self.ring)
        return Polynomial._trusted(
            self.ring, {e: _coefficient(c * v) for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def substitute(self, images: "list[Polynomial]") -> "Polynomial":
        """Evaluate self at images[i] in place of variable i.

        The images must all live in one common ring, which becomes the ring
        of the result.
        """
        if len(images) != self.ring.dim:
            raise ValueError("one image per variable is required")
        target = images[0].ring if images else self.ring
        for img in images:
            if img.ring != target:
                raise RingMismatchError("images live in different rings")
        acc = Polynomial.zero(target)
        for e, c in self.terms.items():
            term = Polynomial.constant(target, c)
            for img, exp in zip(images, e):
                if exp:
                    term = term * (img ** exp)
            acc = acc + term
        return acc

    # -- printing ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[ExponentVector, int | Fraction]]:
        """Terms in descending graded-lex order (the printer order)."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), item[0]),
            reverse=True,
        )

    def __str__(self) -> str:
        from .textio import poly_to_str

        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def integer_weights(weights: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The weights times the positive LCM of their denominators, and that LCM.

    Scaling by a positive constant keeps every comparison of weight dot
    products, so the integer tuple can stand in for the weights.
    """
    scale = math.lcm(*(w.denominator for w in weights))
    return tuple(w.numerator * (scale // w.denominator) for w in weights), scale


@dataclass(frozen=True)
class WeightVector:
    """Rational weights on the ring variables, one per variable.

    ``weights`` is the public rational vector.  ``int_weights`` and
    ``int_scale`` are its `integer_weights`, computed once, so that orders
    and cone tests read integers.
    """

    weights: tuple[Fraction, ...]
    int_weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    int_scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(w if type(w) is Fraction else _rational(w) for w in self.weights)
        int_weights, int_scale = integer_weights(weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "int_weights", int_weights)
        object.__setattr__(self, "int_scale", int_scale)

    @classmethod
    def _trusted(cls, weights: tuple[Fraction, ...], int_weights: tuple[int, ...],
                 int_scale: int) -> "WeightVector":
        """Wrap a vector whose integer form the caller already holds.

        The caller guarantees that ``weights`` are `Fraction`s and that
        ``(int_weights, int_scale)`` is their `integer_weights`.
        """
        out = cls.__new__(cls)
        object.__setattr__(out, "weights", weights)
        object.__setattr__(out, "int_weights", int_weights)
        object.__setattr__(out, "int_scale", int_scale)
        return out

    @property
    def dim(self) -> int:
        return len(self.weights)

    def dot(self, exps: ExponentVector) -> Fraction:
        if len(exps) != len(self.weights):
            raise ValueError("dimension mismatch in weight dot product")
        return sum((w * e for w, e in zip(self.weights, exps)), Fraction(0))

    def __add__(self, other: "WeightVector") -> "WeightVector":
        if len(self.weights) != len(other.weights):
            raise ValueError("dimension mismatch in weight sum")
        return WeightVector(tuple(a + b for a, b in zip(self.weights, other.weights)))

    def scale(self, r: Fraction | int) -> "WeightVector":
        r = _rational(r)
        return WeightVector(tuple(r * w for w in self.weights))

    @property
    def is_zero(self) -> bool:
        return all(w == 0 for w in self.weights)

    def __str__(self) -> str:
        return " ".join(str(w) for w in self.weights)


TRIVIAL = "trivial"
T_ADIC = "tadic"


@dataclass(frozen=True)
class CoeffValuation:
    """Valuation on the coefficient field.

    ``trivial``: every nonzero constant has value 0.  ``tadic``: a ring
    variable is reserved as the uniformizer and its weight is pinned to
    ``t_weight`` in every weight vector used with the presentation.
    """

    kind: str = TRIVIAL
    t_index: int | None = None
    t_weight: Fraction | None = None

    def __post_init__(self):
        if self.kind not in (TRIVIAL, T_ADIC):
            raise ValueError(f"unknown coefficient valuation kind {self.kind!r}")
        if self.kind == T_ADIC:
            if self.t_index is None or self.t_weight is None:
                raise ValueError("tadic valuation needs a variable and a weight")
            object.__setattr__(self, "t_weight", _rational(self.t_weight))


TRIVIAL_COEFFS = CoeffValuation()


@dataclass(frozen=True)
class Presentation:
    """An algebra given as a polynomial ring modulo ideal generators."""

    ring: RingContext
    ideal_gens: tuple[Polynomial, ...]
    coeff_valuation: CoeffValuation = TRIVIAL_COEFFS

    def __post_init__(self):
        object.__setattr__(self, "ideal_gens", tuple(self.ideal_gens))
        for g in self.ideal_gens:
            if g.ring != self.ring:
                raise RingMismatchError("ideal generator from a different ring")
            if g.is_zero:
                raise TropvalError("ideal generators must be nonzero")
        cv = self.coeff_valuation
        if cv.kind == T_ADIC and not (0 <= cv.t_index < self.ring.dim):
            raise ValueError("uniformizer index outside the ring")

    def effective_weights(self, w: WeightVector) -> WeightVector:
        """Pin the uniformizer component of ``w`` when the presentation is t-adic."""
        if len(w.weights) != self.ring.dim:
            raise TropvalError("weight vector has wrong dimension for this ring")
        cv = self.coeff_valuation
        if cv.kind != T_ADIC or w.weights[cv.t_index] == cv.t_weight:
            return w
        ws = list(w.weights)
        ws[cv.t_index] = cv.t_weight
        return WeightVector(tuple(ws))

    def key(self) -> tuple:
        return (
            self.ring.variables,
            tuple(g.key() for g in self.ideal_gens),
            (self.coeff_valuation.kind, self.coeff_valuation.t_index,
             self.coeff_valuation.t_weight),
        )
