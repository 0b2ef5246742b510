"""Monoid-graded structure-constant algebras and graded valuations.

A `GradedAlgebra` is a vector space with a basis indexed by pairs
``(grade, i)``, where grades are tuples of non-negative integers added
componentwise, together with a finite multiplication table.  The table is
stored symmetrically (the product is commutative) and is *partial*: pairs
outside the truncation window are simply absent, and every universal claim
made by the checkers is "over the defined products".  Grading additivity is
not assumed — a product of two homogeneous elements may spread over several
grades; that spread is exactly what the lower-triangularity and
total-order checkers measure.

Values of graded valuations are rationals-or-bottom; orderings of grades
use full lexicographic tuples of rational functionals, since a single
rational row cannot totally order a higher-rank monoid.  Every order test
compares integer keys (`LexFunctional.key`: each row scaled by the lcm of
its denominators), and a `Fraction` value is built only where it leaves
the module: a graded value, `LexFunctional.value`/`first`, a witness.

Every table is held in ascending order: `GradedAlgebra.components` iterates
its grades ascending, `GradedAlgebra.structure` its pairs ascending, and
each expansion is sorted.  Only three places set that order (the
constructor, `_monomial_algebra` and `coarsen`); every scan reads the table
in order, so the first failing pair it meets is the least one, and the
printer writes the file's sorted order as it goes.

The built-in tables come from one builder, `_monomial_algebra`, on a
quotient Q[x]/I with a Gröbner basis of I.  It makes the standard
monomials degree by degree, raising only standard ones, and knows each
by an integer code in which a product's code is the sum of its factors'
codes, so a pair finds its product's expansion by one addition and one
lookup.  No normal form is computed: a non-standard product's expansion
is summed from the expansions of its one-step rewrite targets, which the
basis memoizes.

Pairs with equal products share one expansion object, under one rule:
all pairs that hold one nonempty object have one grade sum.
`_monomial_algebra` keeps one object per product monomial, the
constructor one per input object and grade sum, and `associated_graded`
and `coarsen` one per object of the table they derive from.  The empty
product ``()`` is one object shared by every zero pair, whatever its
grade sum, but it holds no term, so nothing computed from it depends on
that sum.  Every scan that works per product (the associativity check,
gr, the monoid-theorem hypotheses, the homogeneous-pair check, the
override probe, `coarsen` and the printer) is one walk of the table,
`GradedAlgebra._per_product`, which does the work once per object and
hands each pair its result in pair order; the work may read the grade sum
of the first pair that holds the object.  Objects are told apart by
their ids in `GradedAlgebra` alone.  Failures and witnesses are still
reported per pair, in pair order.  Sharing only saves work: a table whose
pairs hold equal but distinct expansions gives the same results.

Structure constants take the one coefficient form of `poly`: an int when
integral, otherwise a `Fraction`.  Inside the checks, element coefficients
are ints or `Fraction`s: the pair sampler draws ints,
`GradedAlgebra.multiply` keeps int products on an integral table, and
values are compared as scaled integer keys (`_value_key`), by the
samplers and the override factor probe alike.  Every sampled pair has a
defined product.  The elements handed out (a basis element, a report's
witness elements) and graded values have `Fraction`s.  A check over a
table that defines no products raises `NothingCheckedError` instead of
passing vacuously.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from operator import add, le, mul

from .errors import PreconditionError, TropvalError
from .linalg import solve_linear
from .poly import _coefficient, _rational, integer_weights
from .trop import BOTTOM, TropicalValue

Grade = tuple[int, ...]
BasisRef = tuple[Grade, int]
# BasisRef -> coefficient.  Coefficients are Fractions in the elements the
# module hands out; inside the checks they are ints or Fractions.
Element = dict


class TruncationError(TropvalError):
    """A product left the window where structure constants are defined."""


class AssociativityError(PreconditionError):
    def __init__(self, triple):
        super().__init__(f"multiplication is not associative on {triple}")
        self.triple = triple


class NotLowerTriangularError(PreconditionError):
    pass


class NothingCheckedError(PreconditionError):
    """A check would report a verdict without having checked anything."""


def _require_products(A: "GradedAlgebra") -> None:
    if not A.structure:
        raise NothingCheckedError(
            "the structure table defines no products; there is nothing to check")


def _pair_key(b1: BasisRef, b2: BasisRef) -> tuple[BasisRef, BasisRef]:
    return (b1, b2) if b1 <= b2 else (b2, b1)


def _merge_like_terms(terms: list) -> list:
    """Sorted (ref, coefficient) terms with equal refs summed, zero sums dropped."""
    out: list = []
    for ref, c in terms:
        if out and out[-1][0] == ref:
            c = _coefficient(c + out.pop()[1])
        if c:
            out.append((ref, c))
    return out


def _basis_ref(canon: dict, ref) -> BasisRef:
    """The basis element that a pair ref equals, as ``canon`` stores it."""
    try:
        stored = canon.get(ref)
    except TypeError:  # unhashable, e.g. a list grade
        stored = None
    if stored is None:
        raise TropvalError(f"unknown basis element {ref}")
    return stored


def _canonical_expansion(canon: dict, expansion) -> tuple:
    """The stored form of an expansion: each coefficient as `_coefficient`
    returns it (an int or a `Fraction`; anything else, a float or a
    string included, is a `TypeError`), each target of a nonzero term as
    the basis element it equals, sorted, like terms summed and zero sums
    dropped.  A target that equals no basis element is unknown: an
    unhashable one at once, otherwise the least unknown one is named, or
    the first when they cannot be ordered (a grade of strings and one of
    ints)."""
    terms = []
    misses = []
    for target, c in expansion:
        c = _coefficient(c)
        if c:
            try:
                ref = canon.get(target)
            except TypeError:  # unhashable, e.g. a list grade
                raise TropvalError(f"unknown basis element {target}") from None
            if ref is None:
                misses.append(target)
            else:
                terms.append((ref, c))
    if misses:
        try:
            miss = min(misses)
        except TypeError:
            miss = misses[0]
        raise TropvalError(f"unknown basis element {miss}")
    terms.sort()
    if len(terms) > 1:
        terms = _merge_like_terms(terms)
    return tuple(terms)


def grade_sum(g1: Grade, g2: Grade) -> Grade:
    """The componentwise sum of two grades (or of two key or value tuples)."""
    return tuple(map(add, g1, g2))


class GradedAlgebra:
    """Commutative algebra given by grading components and structure constants.

    Both tables are held in ascending order: ``components`` by grade,
    ``structure`` by pair ``(b1, b2)`` with ``b1 <= b2``, and each expansion
    by ref.  The constructor converts and checks every grade and size.  A
    pair ref, or the target of a nonzero term, is stored as the basis
    element it equals, found by one dict lookup, so ``((1.0,), 0)`` is
    stored as ``((1,), 0)``; a ref that equals none, or cannot be hashed
    (a list grade), is an unknown basis element.  A coefficient is stored
    as `_coefficient` returns it, so a float or a string is a `TypeError`.
    The constructor then sorts each expansion, sums like terms and drops
    zero sums (a product that cancels is stored as zero), sorts both
    tables, then checks associativity.  Parsed files take this path.  A
    table derived from a parsed one (`associated_graded`, `coarsen`) is
    already canonical, so it is stored as built and only takes the
    associativity check.  ``validate=False`` skips only that check, and is
    for hand-built tables in tests.

    A *trusted* algebra is stored as its builder made it (`_trusted`): the
    built-ins of `_monomial_algebra`, whose tables are read off the
    associative ring Q[x]/I, and `associated_graded` and `coarsen` of a
    trusted algebra.  gr of a built-in stays associative because the
    table is total up to the truncation and the relations are
    homogeneous, so ``(gr ab)·c`` is defined exactly when ``(ab)·c`` is.
    A parsed table may be partial, and gr of it can define a triple that
    the table's own check skipped.
    """

    trusted = False

    def __init__(self, monoid_dim: int, components: dict, structure: dict,
                 truncation: int, validate: bool = True):
        self.monoid_dim = int(monoid_dim)
        sizes = {}
        for grade, size in components.items():
            g = tuple(int(x) for x in grade)
            if (g != tuple(grade) or len(g) != self.monoid_dim
                    or any(x < 0 for x in g)):
                raise ValueError(f"bad grade {grade}")
            n = int(size)
            if n != size:
                raise ValueError(f"bad size {size!r} for grade {grade}")
            if n > 0:
                sizes[g] = n
        self.components = dict(sorted(sizes.items()))
        self.truncation = int(truncation)
        table = {}
        # Every basis element, keyed by itself in its stored int form: a ref
        # that compares equal to one, such as ((1.0,), 0), is stored as it.
        # A ref that finds no key is unknown; nothing is converted.
        canon = {ref: ref for ref in self.basis()}
        # Each input object is stored once per grade sum of the pairs that
        # hold it, which sets the sharing rule of the module docstring.  The
        # memo holds every object it has seen beside its stored form:
        # ``structure.items()`` may make each expansion afresh, and a freed
        # one's id could be reused by the next.
        stored: dict[tuple, tuple] = {}
        for (b1, b2), expansion in structure.items():
            b1, b2 = _basis_ref(canon, b1), _basis_ref(canon, b2)
            memo_key = (id(expansion), grade_sum(b1[0], b2[0]))
            hit = stored.get(memo_key)
            if hit is None:
                hit = stored[memo_key] = (expansion, _canonical_expansion(canon, expansion))
            table[_pair_key(b1, b2)] = hit[1]
        self.structure = dict(sorted(table.items()))
        del table, stored  # freed first: the check builds tables of its own
        if validate:
            self._validate_associativity()

    @classmethod
    def _trusted(cls, monoid_dim: int, components: dict, structure: dict,
                 truncation: int) -> "GradedAlgebra":
        """Wrap a table that is already canonical and associative, as it is.

        The dicts are taken over, not copied: no conversion, no ref check,
        no sort or merge and no associativity check (see the class
        docstring for who may call this).  The caller guarantees what the
        constructor would make: both dicts in ascending order and each
        expansion sorted, merged and zero-free.
        """
        A = cls.__new__(cls)
        A.monoid_dim = monoid_dim
        A.components = components
        A.structure = structure
        A.truncation = truncation
        A.trusted = True
        return A

    def _check_ref(self, ref: BasisRef) -> None:
        grade, idx = ref
        size = self.components.get(tuple(grade))
        # a range holds no index that is not an integer, such as 1.5
        if size is None or idx not in range(size):
            raise TropvalError(f"unknown basis element {ref}")

    def basis(self) -> list[BasisRef]:
        """Every basis element, in ascending order."""
        return [(grade, i) for grade, size in self.components.items()
                for i in range(size)]

    def _per_product(self, f):
        """Yield ``(pair, f(expansion, first))`` for every pair of the table,
        in table order, ``first`` the first pair that holds the pair's
        expansion object; f runs once per distinct object.

        By the sharing rule (module docstring), f may read the grade sum of
        ``first`` for any nonempty expansion.  The table holds every object,
        so no id is reused during the walk.
        """
        done = {}  # id -> f's value; f may return None, so done is the miss
        for pair, expansion in self.structure.items():
            value = done.get(id(expansion), done)
            if value is done:
                value = done[id(expansion)] = f(expansion, pair)
            yield pair, value

    # -- multiplication ----------------------------------------------------

    def basis_product(self, b1: BasisRef, b2: BasisRef):
        """Expansion of a basis-pair product, or None when undefined."""
        return self.structure.get(_pair_key(b1, b2))

    def multiply(self, e1: Element, e2: Element) -> Element:
        """Product of two elements.

        Int coefficients on an integral table give ints; a `Fraction` in
        either gives `Fraction`s, which may be integral.
        """
        out: Element = {}
        for b1, c1 in e1.items():
            for b2, c2 in e2.items():
                expansion = self.basis_product(b1, b2)
                if expansion is None:
                    raise TruncationError(
                        f"product {b1} * {b2} is outside the structure table")
                c12 = c1 * c2
                for target, coeff in expansion:
                    s = out.get(target, 0) + c12 * coeff
                    if s == 0:
                        out.pop(target, None)
                    else:
                        out[target] = s
        return out

    def basis_element(self, ref: BasisRef) -> Element:
        self._check_ref(ref)
        return {ref: Fraction(1)}

    # -- validation --------------------------------------------------------

    def _validate_associativity(self) -> None:
        # Commutativity is built into the symmetric table, so the axiom on
        # all ordered triples reduces to (ab)c = (bc)a = (ac)b per multiset.
        # Only triples whose three pairwise products are defined can be
        # checked; they are scanned as b1 <= b2 <= b3 in basis order, b2 and
        # b3 walked along ascending partner lists, and the first failing one
        # raises.  When b1*b2 is nonzero, b3 walks the partners of its first
        # term, which every checked b3 is among: that skips most undefined
        # triples of a truncated table without visiting them.
        #
        # Each side is a sum of products of two structure constants, so the
        # check runs on a local copy of the table with basis elements
        # numbered in sorted order and every constant scaled by D, the lcm
        # of their denominators: every side is then scaled by D^2, which
        # keeps the comparison exact with integer arithmetic only.  `times`
        # returns each side in the stored rows' canonical form (sorted by
        # number, merged, no zeros), so equal tuples are equal sums: a
        # one-term row (t, c) gives the stored row of t*b times c, the
        # stored row itself when c is 1, and any other row is summed.
        refs = self.basis()
        number = {ref: i for i, ref in enumerate(refs)}
        # D needs every distinct constant before the first row is scaled.
        distinct = {id(exp): exp for exp in self.structure.values()}.values()
        scale = math.lcm(*{c.denominator for exp in distinct for _, c in exp})
        table: list[dict[int, tuple]] = [{} for _ in refs]
        # The pairs come in ascending order, so each row of the table fills
        # in ascending j: first the pairs (j, i) with j < i, then (i, j).
        for (b1, b2), row in self._per_product(lambda exp, pair: tuple(
                (number[t], c.numerator * (scale // c.denominator)) for t, c in exp)):
            i, j = number[b1], number[b2]
            table[i][j] = table[j][i] = row
        partners = [list(row) for row in table]

        def times(expansion: tuple, b: int) -> tuple | None:
            if len(expansion) == 1:
                (t, c), = expansion
                inner = table[t].get(b)
                if inner is None or c == 1:
                    return inner
                return tuple((t2, c * c2) for t2, c2 in inner)
            out: dict[int, int] = {}
            for t, c in expansion:
                inner = table[t].get(b)
                if inner is None:
                    return None
                for t2, c2 in inner:
                    out[t2] = out.get(t2, 0) + c * c2
            return tuple(sorted(item for item in out.items() if item[1]))

        for b1, row1 in enumerate(table):
            p1 = partners[b1]
            for b2 in p1[bisect_left(p1, b1):]:
                row2, p2 = table[b2], partners[b2]
                r12 = row1[b2]
                if r12:  # b3 needs a product with r12's first term
                    p3 = partners[r12[0][0]]
                    walk = (b3 for b3 in islice(p3, bisect_left(p3, b2), None)
                            if b3 in row2)
                else:
                    walk = p2[bisect_left(p2, b2):]
                for b3 in walk:
                    if b3 not in row1:
                        continue
                    p12_3 = times(r12, b3)
                    p23_1 = times(row2[b3], b1)
                    p13_2 = times(row1[b3], b2)
                    if p12_3 is None or p23_1 is None or p13_2 is None:
                        continue
                    if not p12_3 == p23_1 == p13_2:
                        raise AssociativityError((refs[b1], refs[b2], refs[b3]))

    def key(self) -> tuple:
        return (
            self.monoid_dim,
            tuple(self.components.items()),
            tuple(self.structure.items()),
        )


def element_key(element: Element) -> tuple:
    return tuple(sorted(element.items()))


def element_add(a: Element, b: Element) -> Element:
    out = dict(a)
    for ref, c in b.items():
        s = out.get(ref, 0) + c
        if s == 0:
            out.pop(ref, None)
        else:
            out[ref] = s
    return out


@dataclass(frozen=True)
class LexFunctional:
    """Rational linear functionals on grades, compared lexicographically.

    The first row is the scalar value of a graded valuation; further rows
    only break ties, which is how total orders on higher-rank monoids are
    realized with exact arithmetic.

    Order tests use `key`: each row is scaled once by the lcm of its
    denominators (`poly.integer_weights`), a positive factor, so
    integer keys compare (``<``, ``==``) exactly as the rational values do,
    and the key of a grade sum is the sum of the keys.  `value` and `first`
    give the exact Fractions.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    # Derived from rows, so they take no part in == or hash: each row times
    # its scale (the lcm of its denominators), and the memoized key per grade.
    _int_rows: tuple = field(default=(), init=False, repr=False, compare=False)
    _scales: tuple = field(default=(), init=False, repr=False, compare=False)
    _keys: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False, hash=False)

    def __post_init__(self):
        rows = tuple(tuple(map(_rational, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("a functional needs at least one row")
        int_rows, scales = zip(*map(integer_weights, rows))
        object.__setattr__(self, "_scales", scales)
        object.__setattr__(self, "_int_rows", int_rows)

    @classmethod
    def single(cls, row) -> "LexFunctional":
        return cls((tuple(row),))

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def key(self, grade: Grade) -> tuple[int, ...]:
        """Integer sort key of a grade: its value, row i times the i-th scale."""
        hit = self._keys.get(grade)
        if hit is None:
            hit = tuple(sum(map(mul, row, grade)) for row in self._int_rows)
            self._keys[grade] = hit
        return hit

    def _fractions(self, key: tuple[int, ...]) -> tuple[Fraction, ...]:
        """The exact value tuple that an integer key (or a sum of keys) stands for."""
        return tuple(Fraction(k, scale) for k, scale in zip(key, self._scales))

    def value(self, grade: Grade) -> tuple[Fraction, ...]:
        return self._fractions(self.key(grade))

    def first(self, grade: Grade) -> Fraction:
        return Fraction(self.key(grade)[0], self._scales[0])

    def separates(self, grades) -> tuple[Grade, Grade] | None:
        """Return a colliding pair of distinct grades, or None when injective."""
        seen: dict[tuple, Grade] = {}
        for g in sorted(grades):
            key = self.key(g)
            if key in seen and seen[key] != g:
                return (seen[key], g)
            seen.setdefault(key, g)
        return None


@dataclass(frozen=True)
class GradedValuation:
    """A functional on grades plus finitely many inhomogeneous overrides."""

    functional: LexFunctional
    overrides: tuple = ()

    @classmethod
    def build(cls, functional: LexFunctional,
              overrides: dict | None = None) -> "GradedValuation":
        """The valuation of ``functional`` with ``overrides`` (element to value).

        An element is given as `element_key` gives it: refs strictly
        ascending, every coefficient nonzero.  It must be inhomogeneous, and
        its value at most the largest first-row value of its grades.
        """
        items = []
        for element, value in (overrides or {}).items():
            if element != element_key(dict(element)) or not all(c for _, c in element):
                raise TropvalError(
                    f"override key {element} is not an element key: its refs "
                    f"must be strictly ascending and its coefficients nonzero")
            grades = {ref[0] for ref, _ in element}
            if len(grades) <= 1:
                raise TropvalError(
                    "overrides are for inhomogeneous elements; homogeneous "
                    "values are fixed by the functional")
            cap = max(functional.first(g) for g in grades)
            if not isinstance(value, TropicalValue):
                value = TropicalValue(value)
            if not value.is_bottom and value.value > cap:
                raise TropvalError(
                    f"override value {value.to_str()} exceeds the component "
                    f"maximum {cap}")
            items.append((element, value))
        return cls(functional, tuple(sorted(items, key=lambda kv: kv[0])))

    def override_value(self, element: Element) -> TropicalValue | None:
        key = element_key(element)
        for stored, value in self.overrides:
            if stored == key:
                return value
        return None


def _value_key(gv: GradedValuation, element: Element):
    """An element's value times the first row's scale; None for bottom.

    That is the largest first-row key of its grades, or an override's value
    times the scale (a Fraction when the override is finer than the scale).
    Keys of the same valuation compare and add exactly as the values do.
    """
    if not element:
        return None
    if gv.overrides:
        hit = gv.override_value(element)
        if hit is not None:
            return None if hit.is_bottom else hit.value * gv.functional._scales[0]
    key = gv.functional.key
    return max(key(ref[0])[0] for ref in element)


def _unscale(gv: GradedValuation, value_key) -> TropicalValue:
    """The tropical value that a `_value_key` (or a sum of them) stands for."""
    if value_key is None:
        return BOTTOM
    return TropicalValue(Fraction(value_key, gv.functional._scales[0]))


def graded_value(gv: GradedValuation, element: Element) -> TropicalValue:
    """Value of an element under gv: its override if present, else the
    largest first-row value of its grades."""
    return _unscale(gv, _value_key(gv, element))


def _top_key(key, element: Element) -> tuple[int, ...] | None:
    """Largest grade key of an element (None for zero), `key` a LexFunctional.key."""
    if not element:
        return None
    return max(key(ref[0]) for ref in element)


def value_lex(functional: LexFunctional,
              element: Element) -> tuple[Fraction, ...] | None:
    """Lex-tuple value (None for zero), for totally ordered codomains."""
    top = _top_key(functional.key, element)
    return None if top is None else functional._fractions(top)


# -- samplers ------------------------------------------------------------------


_SAMPLE_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def _below(bits, n: int) -> int:
    """``rng._randbelow(n)`` for n > 0, ``bits`` being ``rng.getrandbits``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


class _PairSampler:
    """Seedable source of element pairs whose product is defined.

    Each ``rng.choice(seq)`` is written out as CPython's rejection rule for
    it (see `valuation.random_polynomial`), so the pairs and the
    generator's state afterwards are those of the calls themselves.  The
    table must define products (`_require_products`): on an empty one the
    first draw never ends.
    """

    def __init__(self, A: GradedAlgebra, rng: random.Random):
        self.A = A
        self.rng = rng
        self._bits = rng.getrandbits
        self.keys = list(A.structure)
        # Every ref in some pair, ascending; membership of a pair is asked
        # of the table itself, so no partner sets are built.
        self.sorted_basis = sorted(set(chain.from_iterable(self.keys)))

    def _pick_compatible(self, opposite: list[BasisRef]) -> BasisRef | None:
        bits, n = self._bits, len(self.sorted_basis)
        table = self.A.structure
        for _ in range(12):
            b = self.sorted_basis[_below(bits, n)]
            # b * t must be defined for every t: its pair (`_pair_key`,
            # inlined) must be in the table.
            for t in opposite:
                if ((b, t) if b <= t else (t, b)) not in table:
                    break
            else:
                return b
        return None

    def _coeff(self) -> int:
        return _SAMPLE_COEFFICIENTS[_below(self._bits, len(_SAMPLE_COEFFICIENTS))]

    def sample(self) -> tuple[Element, Element]:
        x, y = self.keys[_below(self._bits, len(self.keys))]
        a: Element = {x: self._coeff()}
        if self.rng.random() < 0.7:
            extra = self._pick_compatible([y])
            if extra is not None:
                a.setdefault(extra, self._coeff())
        b: Element = {y: self._coeff()}
        if self.rng.random() < 0.7:
            extra = self._pick_compatible(sorted(a))
            if extra is not None:
                b.setdefault(extra, self._coeff())
        return a, b


# -- axiom checks ---------------------------------------------------------------


@dataclass(frozen=True)
class GradedCheckReport:
    mode: str  # "graded" | "full"
    pairs_checked: int
    multiplicativity_failures: tuple
    subadditivity_failures: tuple

    @property
    def verdict(self) -> str:
        if self.multiplicativity_failures or self.subadditivity_failures:
            return "fails"
        return "passes"


def _with_fractions(element: Element) -> Element:
    """A sampled element as the module hands it out, with Fraction coefficients."""
    return {ref: Fraction(c) for ref, c in element.items()}


def _failure(gv: GradedValuation, a: Element, b: Element, lhs, rhs) -> tuple:
    """A reported failure: the sampled pair and the two sides as values."""
    return (_with_fractions(a), _with_fractions(b), _unscale(gv, lhs), _unscale(gv, rhs))


def _homogeneous_pair_failures(A: GradedAlgebra, gv: GradedValuation) -> list:
    """Multiplicativity on every defined basis pair, failures in pair order."""
    key = gv.functional.key
    found = []
    for (b1, b2), lhs in A._per_product(
            lambda expansion, pair: _value_key(gv, dict(expansion))):
        # overrides are inhomogeneous, so a basis element's value is its key
        rhs = key(b1[0])[0] + key(b2[0])[0]
        if lhs != rhs:
            found.append(_failure(gv, {b1: 1}, {b2: 1}, lhs, rhs))
    return found


def _subadditivity_failures(A: GradedAlgebra, gv: GradedValuation,
                            sampler: "_PairSampler", n_samples: int) -> list:
    failures = []
    for _ in range(n_samples):
        a, b = sampler.sample()
        lhs = _value_key(gv, element_add(a, b))
        if lhs is None:
            continue
        ka, kb = _value_key(gv, a), _value_key(gv, b)
        cap = kb if ka is None else ka if kb is None else max(ka, kb)
        if cap is None or cap < lhs:
            failures.append(_failure(gv, a, b, lhs, cap))
    return failures


def check_graded_axioms(A: GradedAlgebra, gv: GradedValuation,
                        seed: int = 0, n_samples: int = 100) -> GradedCheckReport:
    """Graded-valuation axioms: multiplicativity on homogeneous pairs only.

    Homogeneous basis pairs are checked exhaustively over the defined
    products; subadditivity is sampled on inhomogeneous combinations.
    """
    _require_products(A)
    sampler = _PairSampler(A, random.Random(seed))
    mult = _homogeneous_pair_failures(A, gv)
    subadd = _subadditivity_failures(A, gv, sampler, n_samples)
    return GradedCheckReport("graded", len(A.structure) + n_samples,
                             tuple(mult), tuple(subadd))


def _override_factor_probe(A: GradedAlgebra, gv: GradedValuation) -> list:
    """Factor each override target as (basis element) * (solved element).

    Solving a * x = k is linear in x once a is fixed, so every override is
    probed deterministically against every basis element.
    """
    failures = []
    if not gv.overrides:
        return failures
    # Per basis element a: the elements b with a * b defined, in ascending
    # order, and the products as columns.  The column order picks the
    # returned solution, hence the printed witness.  The pairs come in
    # ascending order, so each list fills in ascending order: first the
    # pairs (b, a) with b < a, then (a, b) with b >= a.  Pairs that share
    # an expansion share its column dict; `solve_linear` only reads them.
    partners: dict[BasisRef, list] = {ref: [] for ref in A.basis()}
    columns: dict[BasisRef, list] = {ref: [] for ref in partners}
    for (b1, b2), column in A._per_product(lambda expansion, pair: dict(expansion)):
        partners[b1].append(b2)
        columns[b1].append(column)
        if b1 != b2:
            partners[b2].append(b1)
            columns[b2].append(column)
    probes = [(a_ref, candidates, columns[a_ref])
              for a_ref, candidates in partners.items() if candidates]
    key = gv.functional.key
    for element, _ in gv.overrides:
        target = dict(element)
        lhs = _value_key(gv, target)
        for a_ref, candidates, columns in probes:
            solution = solve_linear(columns, target)
            if solution is None:
                continue
            factor = {b: c for b, c in zip(candidates, solution) if c != 0}
            # overrides are inhomogeneous, so a basis element's value is its key
            kf = _value_key(gv, factor)
            rhs = None if kf is None else key(a_ref[0])[0] + kf
            if lhs != rhs:
                failures.append((A.basis_element(a_ref), factor,
                                 _unscale(gv, lhs), _unscale(gv, rhs)))
    return failures


def check_valuation_axioms(A: GradedAlgebra, gv: GradedValuation,
                           seed: int = 0, n_samples: int = 100) -> GradedCheckReport:
    """Full valuation axioms: multiplicativity on inhomogeneous pairs too.

    Runs the graded check, then probes every override for factorizations
    (where inhomogeneous multiplicativity can break), then samples random
    inhomogeneous pairs.
    """
    _require_products(A)
    sampler = _PairSampler(A, random.Random(seed))
    mult = _homogeneous_pair_failures(A, gv)
    mult.extend(_override_factor_probe(A, gv))
    for _ in range(n_samples):
        a, b = sampler.sample()
        lhs = _value_key(gv, A.multiply(a, b))
        ka, kb = _value_key(gv, a), _value_key(gv, b)
        rhs = None if ka is None or kb is None else ka + kb
        if lhs != rhs:
            mult.append(_failure(gv, a, b, lhs, rhs))
    subadd = _subadditivity_failures(A, gv, sampler, n_samples)
    return GradedCheckReport("full", len(A.structure) + 2 * n_samples,
                             tuple(mult), tuple(subadd))


def _gr_pass(A: GradedAlgebra, h: LexFunctional) -> tuple[dict, tuple | None]:
    """One pass over A's table: the products of gr, and a triangularity witness.

    gr keeps, in the product of b1 and b2, the terms whose key is
    key(b1) + key(b2).  The witness ``(b1, b2, ref)`` is the first pair with
    a term above that key, and its first such term; the table is in
    ascending order, so that is the least pair.  None when every product is
    lower-triangular.  The products of gr come in A's order, and pairs that
    share an expansion share one product of gr.
    """
    key = h.key

    def split(expansion, pair) -> tuple:
        # A key is linear in the grade, so key(b1) + key(b2) is the key of
        # the grade sum.
        top = key(grade_sum(pair[0][0], pair[1][0]))
        kept = []
        above = None
        for t, c in expansion:
            k = key(t[0])
            if k == top:
                kept.append((t, c))
            elif k > top and above is None:
                above = t
        return tuple(kept), above

    structure = {}
    witness = None
    for pair, (kept, above) in A._per_product(split):
        if above is not None and witness is None:
            witness = (*pair, above)
        structure[pair] = kept
    return structure, witness


def check_lower_triangular(A: GradedAlgebra, h: LexFunctional):
    """Every product grade must weigh at most the sum of the factor grades.

    Returns ``(True, None)``, or ``(False, (b1, b2, ref))`` for the least
    failing pair and its first term above the cap.
    """
    _, witness = _gr_pass(A, h)
    return witness is None, witness


@dataclass(frozen=True)
class MonoidTheoremReport:
    cartan_missing: tuple
    order_violations: tuple
    grade_collisions: tuple
    conclusion_failures: tuple
    samples: int

    @property
    def hypotheses_hold(self) -> bool:
        return not (self.cartan_missing or self.order_violations
                    or self.grade_collisions)

    @property
    def conclusion_holds(self) -> bool:
        return not self.conclusion_failures


def check_monoid_theorem(A: GradedAlgebra, w: LexFunctional,
                         seed: int = 0, n_samples: int = 200) -> MonoidTheoremReport:
    """Hypotheses and conclusion of the top-component multiplicativity theorem.

    Hypotheses: every defined basis-pair product has a nonzero component in
    the grade sum, that component is strictly top under w, and w totally
    orders the grades.  Conclusion, sampled on inhomogeneous pairs: the
    lex-tuple value is fully multiplicative.  Conclusion failures would
    contradict the theorem and are reported separately.
    """
    _require_products(A)
    if n_samples < 1:
        raise NothingCheckedError(
            "no sampled pair had a defined product; the conclusion is unchecked")
    key = w.key
    cartan_missing = []
    order_violations = []

    def hypotheses(expansion, pair) -> tuple:
        """Is the top component missing, and the terms that violate the order."""
        top_grade = grade_sum(pair[0][0], pair[1][0])
        top = key(top_grade)
        return (not any(t[0] == top_grade for t, _ in expansion),
                tuple(t for t, _ in expansion if t[0] != top_grade and key(t[0]) >= top))

    for (b1, b2), (missing, violating) in A._per_product(hypotheses):
        if missing:  # the pair's own sum: () is shared across grade sums
            cartan_missing.append((b1, b2, grade_sum(b1[0], b2[0])))
        for t in violating:
            order_violations.append((b1, b2, t))
    collision = w.separates(A.components)
    collisions = (collision,) if collision else ()
    sampler = _PairSampler(A, random.Random(seed))
    conclusion_failures = []
    for _ in range(n_samples):
        a, b = sampler.sample()
        product = A.multiply(a, b)
        # a and b are nonzero, so their top keys are never None
        if _top_key(key, product) != grade_sum(_top_key(key, a), _top_key(key, b)):
            conclusion_failures.append((
                _with_fractions(a), _with_fractions(b), value_lex(w, product),
                grade_sum(value_lex(w, a), value_lex(w, b))))
    return MonoidTheoremReport(tuple(cartan_missing), tuple(order_violations),
                               collisions, tuple(conclusion_failures), n_samples)


def _derived(A: GradedAlgebra, monoid_dim: int, components: dict,
             structure: dict) -> GradedAlgebra:
    """A table derived from A, stored as built: trusted when A is, else checked.

    It is as canonical as A's, but gr of a partial table can define a triple
    that A's check skipped."""
    B = GradedAlgebra._trusted(monoid_dim, components, structure, A.truncation)
    if not A.trusted:
        B.trusted = False
        B._validate_associativity()
    return B


def associated_graded(A: GradedAlgebra, h: LexFunctional) -> GradedAlgebra:
    """The associated graded algebra of the filtration by h.

    The product of b1 and b2 keeps exactly the terms whose key is
    key(b1) + key(b2), the top the filtration allows; a product with no
    term there lies in a lower filtration piece and is zero in gr.  Raises
    `NotLowerTriangularError` when some product has a term above that key.
    """
    structure, witness = _gr_pass(A, h)
    if witness is not None:
        raise NotLowerTriangularError(
            f"multiplication is not lower-triangular for this functional: {witness}")
    # a filter keeps keys canonical, expansions sorted and the table ascending
    return _derived(A, A.monoid_dim, A.components, structure)


def zero_divisor_search(A: GradedAlgebra):
    """The least pair of A's table whose product is zero, or None.

    The whole table is searched; it already stops at A's truncation.  None
    is refutation evidence, not a domain proof; it is complete for algebras
    whose graded components are at most one-dimensional.
    """
    return next((pair for pair, expansion in A.structure.items() if not expansion), None)


# -- builders -------------------------------------------------------------------


def _times(rows, v: tuple[int, ...]) -> tuple[int, ...]:
    """The integer matrix ``rows`` times the vector ``v``."""
    return tuple(sum(map(mul, row, v)) for row in rows)


def _monomial_algebra(rows, truncation: int, basis=None) -> GradedAlgebra:
    """Q[x]/(basis) up to degree ``truncation``, graded by ``rows``.

    The basis of the algebra is the standard monomials, those that no
    leading monomial of the Gröbner basis ``basis`` divides (all of them
    when ``basis`` is None); ``len(rows[0])`` is the number of variables.
    A monomial's grade is ``rows`` times its exponent, and within a grade
    the indices follow ascending (degree, exponent).  The product of each
    pair with degree sum at most ``truncation`` is the normal form of the
    product monomial.  The relations must be homogeneous, so that every
    normal form stays inside the truncation, where the integer codes below
    are one-to-one.

    The standard monomials are made degree by degree, each one once, from
    its parent, which has one less of its last variable: a divisor of a
    standard monomial is standard, so only standard monomials are raised,
    each in its last raised variable or a later one, and a raised
    monomial's grade is its parent's plus that variable's column of
    ``rows``.  Each degree is sorted once.  A monomial is also known by its
    integer code, the sum of e_i * (truncation + 1)^i: no exponent of a
    product inside the truncation passes ``truncation``, so the code of a
    product is the sum of its factors' codes and a pair finds its
    product's expansion by one integer addition and lookup.

    Each product monomial has one expansion object.  A standard product is
    its own normal form.  Normal forms are linear, so a non-standard
    product's expansion is the sum of its one-step rewrite targets'
    expansions (the rewrite memo of `groebner.GroebnerBasis._lookups`),
    each times its coefficient; a non-standard target without an
    expansion is expanded first, on an explicit stack, and is kept for
    any pair with that product.  No division runs.

    The tables are made in ascending order, with no sort of the finished
    table: the monomials are walked in basis order, and each one's partners
    of degree at most ``truncation`` minus its own, from itself on, are a
    slice of one ascending list per degree cap.
    """
    n_vars = len(rows[0])
    columns = tuple(zip(*rows))  # the grade of each variable
    place = tuple((truncation + 1) ** i for i in range(n_vars))
    leads = basis._leads if basis is not None else ()
    # the leads that can divide a standard monomial raised in variable i
    blockers = [[lm for lm in leads if lm[i]] for i in range(n_vars)]
    # (exponent, grade, code, last raised variable) of each standard
    # monomial of one degree, by ascending exponent
    level = [((0,) * n_vars, (0,) * len(rows), 0, 0)]
    sizes: dict[Grade, int] = {}
    monomials = []  # (ref, code, degree) of each standard monomial
    for degree in range(truncation + 1):
        raised = []
        for e, g, code, last in level:
            index = sizes.get(g, 0)
            sizes[g] = index + 1
            monomials.append(((g, index), code, degree))
            for i in range(last, n_vars):
                child = (*e[:i], e[i] + 1, *e[i + 1:])
                if not any(all(map(le, lm, child)) for lm in blockers[i]):
                    raised.append((child, tuple(map(add, g, columns[i])),
                                   code + place[i], i))
        raised.sort()
        level = raised
    monomials.sort()
    # fits[cap]: each monomial of degree at most cap, in basis order
    fits = [[m for m in monomials if m[2] <= cap] for cap in range(truncation + 1)]
    expansion_of = {code: ((ref, 1),) for ref, code, _ in monomials}
    if basis is not None:
        step = basis._lookups()[1]

    def expand(code: int) -> tuple:
        """Store and return the expansion of a non-standard monomial."""
        e, rest = [], code
        for _ in range(n_vars):
            rest, x = divmod(rest, truncation + 1)
            e.append(x)
        # A frame: the monomial's code, its rewrite's targets, the next
        # target's index and the sum so far, ref -> coefficient.
        stack = [[code, step(tuple(e)), 0, {}]]
        while True:
            frame = stack[-1]
            code, tail, i, total = frame
            pending = None
            for i in range(i, len(tail)):
                t, c = tail[i]
                target = sum(map(mul, t, place))
                expansion = expansion_of.get(target)
                if expansion is None:
                    pending = target
                    break
                for ref, x in expansion:
                    total[ref] = total.get(ref, 0) + c * x
            if pending is not None:  # expand t, then come back to it
                frame[2] = i
                stack.append([pending, step(t), 0, {}])
                continue
            stack.pop()
            expansion = expansion_of[code] = tuple(
                (ref, _coefficient(x)) for ref, x in sorted(total.items()) if x)
            if not stack:
                return expansion

    structure = {}
    for ref1, code1, degree1 in fits[truncation]:
        partners = fits[truncation - degree1]
        for ref2, code2, _ in partners[bisect_left(partners, (ref1,)):]:
            expansion = expansion_of.get(code1 + code2)
            if expansion is None:
                expansion = expand(code1 + code2)
            structure[ref1, ref2] = expansion
    return GradedAlgebra._trusted(
        len(rows), dict(sorted(sizes.items())), structure, truncation)


def monomial_poly_ring(n_vars: int, truncation: int) -> GradedAlgebra:
    """Polynomial ring graded by its own monomials (one-dimensional pieces)."""
    if n_vars < 1 or truncation < 0:
        raise TropvalError(
            f"a polynomial ring needs at least one variable and a truncation "
            f"of at least 0, got {n_vars} variables and truncation {truncation}")
    identity = tuple(tuple(int(i == j) for j in range(n_vars)) for i in range(n_vars))
    return _monomial_algebra(identity, truncation)


def coarsen(A: GradedAlgebra, matrix: tuple[tuple[int, ...], ...]) -> GradedAlgebra:
    """Push the grading through an integer matrix (rows = new coordinates)."""
    def push(grade: Grade) -> Grade:
        out = _times(matrix, grade)
        if any(x < 0 for x in out):
            raise ValueError("coarsening matrix must keep grades non-negative")
        return out

    offsets: dict[BasisRef, BasisRef] = {}
    components: dict[Grade, int] = {}
    for ref in A.basis():
        new_grade = push(ref[0])
        idx = components.get(new_grade, 0)
        components[new_grade] = idx + 1
        offsets[ref] = (new_grade, idx)
    def relabel(expansion, pair) -> tuple:
        return tuple(sorted((offsets[t], c) for t, c in expansion))

    structure = {_pair_key(offsets[b1], offsets[b2]): expansion
                 for (b1, b2), expansion in A._per_product(relabel)}
    # the relabelling is one-to-one, so the table is as canonical and as
    # associative as A's, but it can change the order of grades and pairs
    return _derived(A, len(matrix), dict(sorted(components.items())),
                    dict(sorted(structure.items())))
