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

Inside the checks, element coefficients are ints or `Fraction`s: the
pair sampler draws ints, `GradedAlgebra.multiply` keeps int products on
an integral table, and a sampled value is compared as a scaled integer
key (`_value_key`).  Everything handed out (a table, a graded value, a
report's witness elements) has `Fraction`s.  A check over a table that
defines no products raises `NothingCheckedError` instead of passing
vacuously.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul

from . import groebner
from .errors import PreconditionError, TropvalError
from .linalg import solve_linear
from .poly import Polynomial
from .trop import BOTTOM, TropicalValue, trop_mul

Grade = tuple[int, ...]
BasisRef = tuple[Grade, int]
# BasisRef -> coefficient.  Coefficients are Fractions in everything the
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
            c += out.pop()[1]
        if c:
            out.append((ref, c))
    return out


def grade_sum(g1: Grade, g2: Grade) -> Grade:
    """The componentwise sum of two grades (or of two key or value tuples)."""
    return tuple(map(add, g1, g2))


class GradedAlgebra:
    """Commutative algebra given by grading components and structure constants.

    Both tables are held in ascending order: ``components`` by grade,
    ``structure`` by pair ``(b1, b2)`` with ``b1 <= b2``, and each expansion
    by ref.  The constructor converts and checks every grade, ref and
    coefficient, sorts each expansion, sums like terms and drops zero sums
    (a product that cancels is stored as zero), sorts both tables, then
    checks associativity.  Parsed files take this path, and so does
    everything derived from them.
    ``validate=False`` skips only the last check, and is for hand-built
    tables in tests.

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
            if len(g) != self.monoid_dim or any(x < 0 for x in g):
                raise ValueError(f"bad grade {grade}")
            if size > 0:
                sizes[g] = int(size)
        self.components = dict(sorted(sizes.items()))
        self.truncation = int(truncation)
        table = {}
        # Every valid ref, keyed by itself in its stored int form: a ref
        # that compares equal to a key is stored as that key, which is what
        # converting its fields with int() would give.  Anything else takes
        # the full conversion and check.
        canon = {ref: ref for ref in self.basis()}
        for (b1, b2), expansion in structure.items():
            if b1 not in canon:
                self._check_ref(b1)
            if b2 not in canon:
                self._check_ref(b2)
            terms = []
            misses = []
            for target, c in expansion:
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    try:
                        ref = canon.get(target)
                    except TypeError:  # unhashable, e.g. a list grade
                        ref = None
                    if ref is None:
                        g, k = target
                        ref = (tuple(int(x) for x in g), int(k))
                        misses.append(ref)
                    terms.append((ref, c))
            if misses:
                for ref in sorted(misses):
                    self._check_ref(ref)
            terms.sort()
            if len(terms) > 1:
                terms = _merge_like_terms(terms)
            table[_pair_key(b1, b2)] = tuple(terms)
        self.structure = dict(sorted(table.items()))
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
        if size is None or not (0 <= idx < size):
            raise TropvalError(f"unknown basis element {ref}")

    def basis(self) -> list[BasisRef]:
        """Every basis element, in ascending order."""
        return [(grade, i) for grade, size in self.components.items()
                for i in range(size)]

    # -- multiplication ----------------------------------------------------

    def basis_product(self, b1: BasisRef, b2: BasisRef):
        """Expansion of a basis-pair product, or None when undefined."""
        return self.structure.get(_pair_key(b1, b2))

    def multiply(self, e1: Element, e2: Element) -> Element:
        """Product of two elements.

        An integral structure constant multiplies as its int numerator, so
        int coefficients on an integral table give ints, and Fraction
        coefficients give Fractions.
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
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
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

    def _partners(self) -> dict:
        partners: dict[BasisRef, set] = {}
        for b1, b2 in self.structure:
            partners.setdefault(b1, set()).add(b2)
            partners.setdefault(b2, set()).add(b1)
        return partners

    def _validate_associativity(self) -> None:
        # Commutativity is built into the symmetric table, so the axiom on
        # all ordered triples reduces to (ab)c = (bc)a = (ac)b per multiset.
        # Only triples whose three pairwise products are defined can be
        # checked; they are scanned as b1 <= b2 <= b3 in basis order, b2 and
        # b3 walked along ascending partner lists, and the first failing one
        # raises.
        #
        # Each side is a sum of products of two structure constants, so the
        # check runs on a local copy of the table with basis elements
        # numbered in sorted order and every constant scaled by D, the lcm
        # of their denominators: every side is then scaled by D^2, which
        # keeps the comparison exact with integer arithmetic only.
        refs = self.basis()
        number = {ref: i for i, ref in enumerate(refs)}
        scale = math.lcm(*{c.denominator for exp in self.structure.values()
                           for _, c in exp})
        table: list[dict[int, tuple]] = [{} for _ in refs]
        # unit[i][j] = t when b_i * b_j = 1 * b_t.  The pairs come in
        # ascending order, so each row of the table fills in ascending j:
        # first the pairs (j, i) with j < i, then (i, j) with j >= i.
        unit: list[dict[int, int]] = [{} for _ in refs]
        for (b1, b2), expansion in self.structure.items():
            i, j = number[b1], number[b2]
            row = tuple((number[t], c.numerator * (scale // c.denominator))
                        for t, c in expansion)
            table[i][j] = table[j][i] = row
            if len(row) == 1 and row[0][1] == scale:
                unit[i][j] = unit[j][i] = row[0][0]
        partners = [list(row) for row in table]

        def times(expansion: tuple, b: int) -> dict | None:
            out: dict[int, int] = {}
            for t, c in expansion:
                inner = table[t].get(b)
                if inner is None:
                    return None
                for t2, c2 in inner:
                    out[t2] = out.get(t2, 0) + c * c2
            return {t: c for t, c in out.items() if c}

        for b1, row1 in enumerate(table):
            unit1 = unit[b1]
            p1 = partners[b1]
            for b2 in p1[bisect_left(p1, b1):]:
                row2, unit2, p2 = table[b2], unit[b2], partners[b2]
                r12 = row1[b2]
                t12 = unit1.get(b2)
                for b3 in p2[bisect_left(p2, b2):]:
                    if b3 not in row1:
                        continue
                    if t12 is not None:
                        t23 = unit2.get(b3)
                        t13 = unit1.get(b3)
                        if t23 is not None and t13 is not None:
                            # stored rows are canonical (sorted, merged, no
                            # zeros), so equal rows are equal sums
                            p12_3 = table[t12].get(b3)
                            p23_1 = table[t23].get(b1)
                            p13_2 = table[t13].get(b2)
                            if p12_3 is None or p23_1 is None or p13_2 is None:
                                continue
                            if not p12_3 == p23_1 == p13_2:
                                raise AssociativityError((refs[b1], refs[b2], refs[b3]))
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
    denominators (`groebner.integer_weights`), a positive factor, so
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
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("a functional needs at least one row")
        int_rows, scales = zip(*map(groebner.integer_weights, rows))
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
    def build(cls, algebra: GradedAlgebra, functional: LexFunctional,
              overrides: dict | None = None) -> "GradedValuation":
        items = []
        for element, value in (overrides or {}).items():
            if isinstance(element, dict):
                element = element_key(element)
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


def graded_value(A: GradedAlgebra, gv: GradedValuation,
                 element: Element) -> TropicalValue:
    """Value of an element: override if present, else max over its grades."""
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
    it (see `valuation._random_int_polynomial`), so the pairs and the
    generator's state afterwards are those of the calls themselves.
    """

    def __init__(self, A: GradedAlgebra, rng: random.Random):
        self.A = A
        self.rng = rng
        self._bits = rng.getrandbits
        self.keys = list(A.structure)
        self.partners = A._partners()
        self.sorted_basis = sorted(self.partners)

    def _pick_compatible(self, opposite: list[BasisRef]) -> BasisRef | None:
        bits, n = self._bits, len(self.sorted_basis)
        for _ in range(12):
            b = self.sorted_basis[_below(bits, n)]
            if all(t in self.partners[b] for t in opposite):
                return b
        return None

    def _coeff(self) -> int:
        return _SAMPLE_COEFFICIENTS[_below(self._bits, len(_SAMPLE_COEFFICIENTS))]

    def sample(self) -> tuple[Element, Element]:
        if not self.keys:
            raise IndexError("Cannot choose from an empty sequence")
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
    for (b1, b2), expansion in A.structure.items():
        # overrides are inhomogeneous, so a basis element's value is its key
        rhs = key(b1[0])[0] + key(b2[0])[0]
        lhs = _value_key(gv, dict(expansion))
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
    if not graded_value(A, gv, {}).is_bottom:
        raise AssertionError("the zero element must have value -inf")
    sampler = _PairSampler(A, random.Random(seed))
    mult = _homogeneous_pair_failures(A, gv)
    subadd = _subadditivity_failures(A, gv, sampler, n_samples)
    return GradedCheckReport("graded", len(A.structure) + n_samples,
                             tuple(mult), tuple(subadd))


def _override_factor_probe(A: GradedAlgebra, gv: GradedValuation,
                           partners: dict | None = None) -> list:
    """Factor each override target as (basis element) * (solved element).

    Solving a * x = k is linear in x once a is fixed, so every override is
    probed deterministically against every basis element.  ``partners`` is
    ``A._partners()``, passed in by a caller that already has it.
    """
    failures = []
    if not gv.overrides:
        return failures
    if partners is None:
        partners = A._partners()
    # Per basis element a: the elements b with a * b defined, in sorted basis
    # order, and the products as columns.  The column order picks the
    # returned solution, hence the printed witness.
    probes = []
    for a_ref in sorted(partners):
        candidates = sorted(partners[a_ref])
        probes.append((a_ref, candidates,
                       [dict(A.basis_product(a_ref, b)) for b in candidates]))
    for key, _ in gv.overrides:
        target = {ref: c for ref, c in key}
        lhs = graded_value(A, gv, target)
        for a_ref, candidates, columns in probes:
            solution = solve_linear(columns, target)
            if solution is None:
                continue
            factor = {b: c for b, c in zip(candidates, solution) if c != 0}
            if not factor:
                continue
            a_el = A.basis_element(a_ref)
            rhs = trop_mul(graded_value(A, gv, a_el), graded_value(A, gv, factor))
            if lhs != rhs:
                failures.append((a_el, factor, lhs, rhs))
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
    mult.extend(_override_factor_probe(A, gv, sampler.partners))
    for _ in range(n_samples):
        a, b = sampler.sample()
        try:
            product = A.multiply(a, b)
        except TruncationError:
            continue
        lhs = _value_key(gv, product)
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
    lower-triangular.  The products of gr come in A's order.
    """
    key = h.key
    structure = {}
    witness = None
    for pair, expansion in A.structure.items():
        b1, b2 = pair
        top = grade_sum(key(b1[0]), key(b2[0]))
        kept = []
        for t, c in expansion:
            k = key(t[0])
            if k == top:
                kept.append((t, c))
            elif k > top and witness is None:
                witness = (b1, b2, t)
        structure[pair] = tuple(kept)
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
    key = w.key
    cartan_missing = []
    order_violations = []
    for (b1, b2), expansion in A.structure.items():
        top_grade = grade_sum(b1[0], b2[0])
        if not any(t[0] == top_grade for t, c in expansion):
            cartan_missing.append((b1, b2, top_grade))
        top = key(top_grade)
        for (g3, k), _ in expansion:
            if g3 != top_grade and key(g3) >= top:
                order_violations.append((b1, b2, (g3, k)))
    collision = w.separates(A.components)
    collisions = (collision,) if collision else ()
    sampler = _PairSampler(A, random.Random(seed))
    conclusion_failures = []
    checked = 0
    for _ in range(n_samples):
        a, b = sampler.sample()
        try:
            product = A.multiply(a, b)
        except TruncationError:
            continue
        checked += 1
        # a and b are nonzero, so their top keys are never None
        if _top_key(key, product) != grade_sum(_top_key(key, a), _top_key(key, b)):
            conclusion_failures.append((
                _with_fractions(a), _with_fractions(b), value_lex(w, product),
                grade_sum(value_lex(w, a), value_lex(w, b))))
    if not checked:
        raise NothingCheckedError(
            "no sampled pair had a defined product; the conclusion is unchecked")
    return MonoidTheoremReport(tuple(cartan_missing), tuple(order_violations),
                               collisions, tuple(conclusion_failures), checked)


def _derived(A: GradedAlgebra, monoid_dim: int, components: dict,
             structure: dict) -> GradedAlgebra:
    """A table derived from A: trusted when A is, else converted and checked."""
    if A.trusted:
        return GradedAlgebra._trusted(monoid_dim, components, structure, A.truncation)
    return GradedAlgebra(monoid_dim, components, structure, A.truncation)


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


def zero_divisor_search(A: GradedAlgebra, bound: int):
    """Search basis pairs with vanishing product; None means none found.

    This is refutation evidence, not a domain proof; it is complete for
    algebras whose graded components are at most one-dimensional.  The
    pair returned is the least vanishing one.
    """
    for pair, expansion in A.structure.items():
        b1, b2 = pair
        if not expansion and sum(b1[0]) <= bound and sum(b2[0]) <= bound:
            return pair
    return None


# -- builders -------------------------------------------------------------------


def _times(rows, v: tuple[int, ...]) -> tuple[int, ...]:
    """The integer matrix ``rows`` times the vector ``v``."""
    return tuple(sum(map(mul, row, v)) for row in rows)


def _exponents(n_vars: int, budget: int) -> list[tuple[int, ...]]:
    """Every exponent vector in n_vars variables of degree at most budget."""
    if n_vars == 0:
        return [()]
    return [(v, *rest) for v in range(budget + 1)
            for rest in _exponents(n_vars - 1, budget - v)]


def _monomial_algebra(rows, truncation: int, basis=None) -> GradedAlgebra:
    """Q[x]/(basis) up to degree ``truncation``, graded by ``rows``.

    The basis of the algebra is the standard monomials, those that no
    leading monomial of the Gröbner basis ``basis`` divides (all of them
    when ``basis`` is None); ``len(rows[0])`` is the number of variables.
    A monomial's grade is ``rows`` times its exponent, and within a grade
    the indices follow ascending (degree, exponent).  The
    product of each pair with degree sum at most ``truncation`` is the
    normal form of the product monomial; a standard product is its own
    normal form, so no division runs for it.  The relations must be
    homogeneous, so that every normal form stays inside the truncation.

    The tables are made in ascending order, with no sort of the finished
    table: the monomials are walked in basis order, and each one's partners
    of degree at most ``truncation`` minus its own, from itself on, are a
    slice of one ascending list per degree cap.
    """
    leads = [lm for lm, _ in basis._leads] if basis is not None else []
    sizes: dict[Grade, int] = {}
    ref_of: dict[tuple[int, ...], BasisRef] = {}
    for e in sorted((e for e in _exponents(len(rows[0]), truncation)
                     if not any(groebner._divides(lm, e) for lm in leads)),
                    key=lambda e: (sum(e), e)):
        g = _times(rows, e)
        index = sizes.get(g, 0)
        ref_of[e] = (g, index)
        sizes[g] = index + 1
    # fits[cap]: (ref, exponent) of each monomial of degree at most cap, in
    # basis order
    fits: list[list] = [[] for _ in range(truncation + 1)]
    for ref, e in sorted((ref, e) for e, ref in ref_of.items()):
        for cap in range(sum(e), truncation + 1):
            fits[cap].append((ref, e))
    components = {g: index + 1 for (g, index), _ in fits[truncation]}
    # Expansion of each product monomial: a standard one is its own normal
    # form; the others are divided once, when first met.
    expansion_of = {e: ((ref, Fraction(1)),) for e, ref in ref_of.items()}
    structure = {}
    for ref1, e1 in fits[truncation]:
        partners = fits[truncation - sum(e1)]
        for ref2, e2 in partners[bisect_left(partners, (ref1,)):]:
            product = tuple(map(add, e1, e2))
            expansion = expansion_of.get(product)
            if expansion is None:
                reduced = groebner.normal_form(
                    Polynomial.monomial(basis.gens[0].ring, product), basis)
                expansion = expansion_of[product] = tuple(sorted(
                    (ref_of[m], c) for m, c in reduced.terms.items()))
            structure[(ref1, ref2)] = expansion
    return GradedAlgebra._trusted(len(rows), components, structure, truncation)


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
    structure = {}
    for (b1, b2), expansion in A.structure.items():
        new_expansion = tuple(sorted(
            (offsets[t], c) for t, c in expansion
        ))
        structure[_pair_key(offsets[b1], offsets[b2])] = new_expansion
    # the relabelling is one-to-one, so the table is as canonical and as
    # associative as A's, but it can change the order of grades and pairs
    return _derived(A, len(matrix), dict(sorted(components.items())),
                    dict(sorted(structure.items())))
