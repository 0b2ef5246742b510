"""Job lists of the three benchmark workloads and their known answers.

Every job is one ``tropval`` command line.  Every expected outcome is
derived here from the mathematics of the inputs (tropical-variety
predicates, term supports of principal ideals, the Clebsch-Gordan rule),
never from tropval itself.  The workload seed draws the per-job ``--seed``
values and every random weight list; fan grids and built-in algebra sizes
are fixed.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("axiom-sweep", "weight-fan", "graded-algebras")

FIXTURES = {
    "line": "ring x y;\nideal x + y + 1;\n",
    "hyperbola": "ring x y;\nideal x*y - 1;\n",
    "cubic": "ring x y z;\nideal x^2 - y, x^3 - z;\n",
    "cone": "ring x y z;\nideal x*z - y^2;\n",
    "plane": "ring x y z;\nideal x + y + z;\n",
    "free_xy": "ring x y;\n",
}

# Exponent vectors of the single generator of each principal fixture.  The
# initial ideal of a principal ideal at w is generated by the initial form,
# so everything about it is decided by the terms attaining the top weight.
PRINCIPAL = {
    "line": ((1, 0), (0, 1), (0, 0)),
    "hyperbola": ((1, 1), (0, 0)),
    "cone": ((1, 0, 1), (0, 2, 0)),
    "plane": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}
DIM = {"line": 2, "hyperbola": 2, "cubic": 3, "cone": 3, "plane": 3, "free_xy": 2}

H = Fraction(1, 2)
# The 60 on-variety (fixture, weight) pairs of the acceptance suite.
ON_VARIETY = {
    "line": [(1, 1), (2, 2), (3, 3), (H, H), (Fraction(7, 3), Fraction(7, 3)),
             (0, 0), (0, -1), (0, -2), (0, Fraction(-5, 2)), (-1, 0), (-3, 0),
             (-H, 0)],
    "hyperbola": [(a, -a) for a in (0, 1, -1, 2, -2, H, -H, 3, Fraction(5, 2),
                                    Fraction(-5, 2), Fraction(7, 3), -3)],
    "cubic": [(t, 2 * t, 3 * t) for t in (0, 1, -1, 2, -2, H, -H, 3, -3,
                                          Fraction(5, 2), Fraction(-5, 2),
                                          Fraction(7, 3))],
    "cone": [(0, 0, 0), (1, 1, 1), (2, 1, 0), (0, 1, 2), (1, 0, -1), (-1, 0, 1),
             (2, 2, 2), (1, 2, 3), (3, 2, 1), (-1, -1, -1), (H, H, H), (4, 3, 2)],
    "plane": [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 2, 2),
              (H, H, 0), (2, 2, -1), (-1, 3, 3),
              (Fraction(7, 3), Fraction(7, 3), Fraction(7, 3)), (-1, -1, -1),
              (3, 3, 1)],
}
# Hand-derived weights off the tropical variety; sampling must refute them.
OFF_VARIETY = [("hyperbola", (1, 0)), ("hyperbola", (2, 1)), ("cone", (1, 0, 0)),
               ("cone", (0, 1, 0)), ("cubic", (1, 0, 0))]

STRICT_FUNCTIONAL = "0,0,0,1,0;1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,0,1"


@dataclass
class Job:
    """One CLI invocation, the check of its output, and an optional consumer.

    ``check(code, stdout)`` returns a description of the first disagreement
    with the known answer, or None.  ``on_output`` receives the stdout of
    the first run, for jobs whose output later jobs read as a file.
    """

    argv: list[str]
    verb: str
    check: Callable[[int, str], str | None]
    on_output: Callable[[str], None] | None = None


# -- rational weights and the tropical predicates --------------------------------


def wstr(w) -> str:
    return " ".join(str(Fraction(x)) for x in w)


def parse_w(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in text.split())


def dot(w, e) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(w, e)), Fraction(0))


def tops(exps, w, among=None) -> frozenset:
    """Indices of the terms of top weight, optionally among a subset."""
    idx = sorted(among) if among is not None else range(len(exps))
    vals = {i: dot(w, exps[i]) for i in idx}
    best = max(vals.values())
    return frozenset(i for i, v in vals.items() if v == best)


def on_variety(fixture: str, w) -> bool:
    """Membership in the tropical variety, from the fixture's own geometry."""
    w = tuple(Fraction(x) for x in w)
    if fixture == "cubic":
        return w[1] == 2 * w[0] and w[2] == 3 * w[0]
    return len(tops(PRINCIPAL[fixture], w)) >= 2


def rand_q(rng: random.Random, bound: int = 3) -> Fraction:
    den = rng.choice((1, 1, 2, 3))
    return Fraction(rng.randint(-bound * den, bound * den), den)


def rand_point(rng: random.Random, fixture: str) -> tuple[Fraction, ...]:
    return tuple(rand_q(rng) for _ in range(DIM[fixture]))


def on_point(rng: random.Random, fixture: str) -> tuple[Fraction, ...]:
    """A random point of the fixture's tropical variety."""
    r = abs(rand_q(rng)) + rng.choice((0, 1))
    if fixture == "cubic":
        t = rand_q(rng, 1)
        return (t, 2 * t, 3 * t)
    if fixture == "hyperbola":
        a = rand_q(rng)
        return (a, -a)
    if fixture == "cone":
        a, b = rand_q(rng, 2), rand_q(rng, 2)
        return (a, b, 2 * b - a)
    if fixture == "line":
        return rng.choice(((r, r), (Fraction(0), -r), (-r, Fraction(0))))
    if fixture == "plane":
        m = rand_q(rng)
        point = [m, m, m - r]
        rng.shuffle(point)
        return tuple(point)
    raise KeyError(fixture)


# -- report parsing ----------------------------------------------------------------


def result_block(out: str) -> dict[str, str]:
    lines = out.split("\n")
    try:
        start, end = lines.index("BEGIN-RESULT"), lines.index("END-RESULT")
    except ValueError:
        return {}
    return dict(line.split(": ", 1) for line in lines[start + 1:end] if ": " in line)


def after_result(out: str) -> str:
    marker = "END-RESULT\n"
    return out[out.index(marker) + len(marker):] if marker in out else ""


def expect(code: int, want_code: int, res: dict, **fields) -> str | None:
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    for key, value in fields.items():
        if res.get(key) != value:
            return f"{key} is {res.get(key)!r}, expected {value!r}"
    return None


CLASS_RE = re.compile(r"repr \(([^)]*)\), (?:size (\d+), monomial_free: (yes|no)"
                      r"|members \[([^\]]*)\])$")


def parse_classes(res: dict) -> list[tuple]:
    """(representative, size, free, members) per class line, in order."""
    out = []
    for i in range(int(res.get("class_count", "-1"))):
        m = CLASS_RE.match(res.get(f"class_{i}", ""))
        if m is None:
            raise ValueError(f"class_{i} line is malformed")
        members = [parse_w(t) for t in m.group(4).split(";")] if m.group(4) else None
        size = int(m.group(2)) if m.group(2) else len(members)
        out.append((parse_w(m.group(1)), size, m.group(3) == "yes", members))
    return out


def _distinct(make: Callable[[int], Job], count: int, seen: set) -> list[Job]:
    """``count`` jobs from ``make(i)``, redrawing any already in ``seen``."""
    jobs: list[Job] = []
    while len(jobs) < count:
        job = make(len(jobs))
        if tuple(job.argv) not in seen:
            seen.add(tuple(job.argv))
            jobs.append(job)
    return jobs


# -- axiom-sweep ---------------------------------------------------------------------


def _check_val(on: bool, samples: int):
    def check(code, out):
        res = result_block(out)
        if on:
            return expect(code, 0, res, verdict="valuation", failures="0",
                          pairs_checked=str(samples))
        if res.get("failures", "0") == "0":
            return "no counterexample found for an off-variety weight"
        return expect(code, 1, res, verdict="quasi_valuation_only")
    return check


def _check_cone(v, a, b):
    total = tuple((a + b) * x for x in v)

    def check(code, out):
        res = result_block(out)
        err = expect(code, 0, res, axiom_verdict="valuation",
                     implies_status="holds_certified")
        if err is None and parse_w(res.get("sum_weights", "")) != total:
            err = f"sum_weights {res.get('sum_weights')!r}, expected {wstr(total)!r}"
        return err
    return check


def _check_hypothesis_refuted(code, out):
    if code != 3 or not out.startswith("precondition_violation: hypothesis"):
        return f"exit {code}, expected a refuted cone hypothesis (exit 3)"
    return None


def axiom_sweep(rng: random.Random, workdir: Path) -> list[Job]:
    """val-check on and off the tropical variety, plus a few cone sums."""
    jobs = []

    def seed():
        return str(rng.randrange(10 ** 6))

    on_samples, off_samples, cone_samples = 40, 60, 40
    for fixture, weights in ON_VARIETY.items():
        for w in weights:
            jobs.append(Job(["val-check", "--ideal", f"{fixture}.ideal", "--weight",
                             wstr(w), "--seed", seed(), "--samples", str(on_samples)],
                            "val-check", _check_val(True, on_samples)))
    for fixture, w in OFF_VARIETY:
        for _ in range(6):
            jobs.append(Job(["val-check", "--ideal", f"{fixture}.ideal", "--weight",
                             wstr(w), "--seed", seed(), "--samples", str(off_samples)],
                            "val-check", _check_val(False, off_samples)))
    # Cone sums of positive multiples of v: certified hypotheses, and the sum
    # stays on the variety (line, s >= 0) or is a monomial valuation (free_xy).
    # On free_xy a non-parallel w1 is refuted exactly, so the command exits 3.
    for i in range(12):
        a, b = abs(rand_q(rng)) + 1, abs(rand_q(rng)) + 1
        if i < 6:
            s = abs(rand_q(rng)) + H
            fixture, v, exact = "line", (s, s), []
        else:
            fixture, v, exact = "free_xy", (rand_q(rng) or 1, rand_q(rng) or 1), ["--exact"]
        w1 = tuple(a * x for x in v)
        check = _check_cone(v, a, b)
        if i >= 9:
            # Not a multiple of v: the cross product with v is nonzero.
            w1 = (v[0] + 1, v[1] - 1) if v[1] != -v[0] else (v[0] + 1, v[1])
            check = _check_hypothesis_refuted
        jobs.append(Job(["cone", "--ideal", f"{fixture}.ideal", "--v", wstr(v),
                         "--w1", wstr(w1), "--w2", wstr(tuple(b * x for x in v)),
                         *exact, "--seed", seed(), "--samples", str(cone_samples)],
                        "cone", check))
    return jobs


# -- weight-fan ----------------------------------------------------------------------


def grid(dim: int, box: int, den: int) -> list[tuple[Fraction, ...]]:
    steps = range(-box * den, box * den + 1)
    return [tuple(Fraction(p, den) for p in point)
            for point in itertools.product(steps, repeat=dim)]


def _check_fan(fixture: str, box: int, den: int):
    points = grid(DIM[fixture], box, den)

    def check(code, out):
        res = result_block(out)
        if code != 0:
            return f"exit {code}, expected 0"
        classes = parse_classes(res)
        if [c[0] for c in classes] != sorted(c[0] for c in classes):
            return "classes are not sorted by representative"
        if sum(c[1] for c in classes) != len(points):
            return "class sizes do not cover the grid"
        if fixture in PRINCIPAL:
            groups: dict = {}
            for p in points:
                groups.setdefault(tops(PRINCIPAL[fixture], p), []).append(p)
            if len(classes) != len(groups):
                return f"{len(classes)} classes, expected {len(groups)}"
            for rep, size, free, _ in classes:
                members = groups.get(tops(PRINCIPAL[fixture], rep), [])
                if rep != min(members) or size != len(members):
                    return f"class of {wstr(rep)} disagrees with its term support"
                if free != on_variety(fixture, rep):
                    return f"monomial_free wrong for {wstr(rep)}"
            return None
        for rep, _, free, _ in classes:
            if free != on_variety(fixture, rep):
                return f"monomial_free wrong for {wstr(rep)}"
        free_points = sum(1 for p in points if on_variety(fixture, p))
        if sum(c[1] for c in classes if c[2]) != free_points:
            return "monomial-free classes do not hold exactly the variety's points"
        return None
    return check


def _check_facets(fixture: str, weights: list[tuple]):
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        classes = parse_classes(result_block(out))
        seen = sorted(m for c in classes for m in c[3])
        if seen != sorted(weights):
            return "classes do not partition the input weights"
        for rep, _, _, members in classes:
            if rep != min(members):
                return f"representative {wstr(rep)} is not the least member"
            if len({on_variety(fixture, m) for m in members}) != 1:
                return "a class mixes points on and off the variety"
        if fixture in PRINCIPAL:
            want = {}
            for w in weights:
                want.setdefault(tops(PRINCIPAL[fixture], w), set()).add(w)
            if sorted(map(sorted, want.values())) != sorted(sorted(c[3]) for c in classes):
                return "classes disagree with the initial-form supports"
        return None
    return check


def _check_arrow(fixture: str, v, w):
    exps = PRINCIPAL[fixture]
    holds = tops(exps, v, tops(exps, w)) == tops(exps, v)

    def check(code, out):
        res = result_block(out)
        if holds:
            return expect(code, 0, res, status="holds_certified")
        return expect(code, 1, res, status="refuted")
    return check


def _check_trop(member: bool):
    def check(code, out):
        res = result_block(out)
        if member:
            return expect(code, 0, res, member="yes", monomial_free="yes")
        return expect(code, 1, res, member="no", monomial_free="no")
    return check


def weight_fan(rng: random.Random, workdir: Path) -> list[Job]:
    """Fan grids, seeded facet lists, arrow pairs and certified memberships."""
    jobs = []
    grids = {"line": [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)],
             "hyperbola": [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)],
             "cone": [(1, 1), (2, 1), (1, 2)],
             "plane": [(1, 1), (2, 1), (1, 2)],
             "cubic": [(1, 1), (2, 1), (1, 2)]}
    for fixture, boxes in grids.items():
        for box, den in boxes:
            jobs.append(Job(["fan", "--ideal", f"{fixture}.ideal", "--box", str(box),
                             "--denominator", str(den)], "fan",
                            _check_fan(fixture, box, den)))
    fixtures = list(grids)
    principal = list(PRINCIPAL)
    seen: set = set()

    def facets(i):
        fixture = fixtures[i % len(fixtures)]
        weights: list[tuple] = []
        while len(weights) < 8:
            w = on_point(rng, fixture) if len(weights) % 2 else rand_point(rng, fixture)
            if w not in weights:
                weights.append(w)
        return Job(["facets", "--ideal", f"{fixture}.ideal",
                    "--weights", "; ".join(wstr(w) for w in weights)],
                   "facets", _check_facets(fixture, weights))

    def arrow(i):
        fixture = principal[i % len(principal)]
        v = rand_point(rng, fixture)
        w = on_point(rng, fixture) if i % 2 else rand_point(rng, fixture)
        return Job(["arrow", "--ideal", f"{fixture}.ideal", "--v", wstr(v),
                    "--w", wstr(w)], "arrow", _check_arrow(fixture, v, w))

    def trop_check(i):
        fixture = fixtures[i % len(fixtures)]
        w = on_point(rng, fixture) if i % 2 else rand_point(rng, fixture)
        return Job(["trop-check", "--ideal", f"{fixture}.ideal", "--weight",
                    wstr(w), "--mode", "certified"], "trop-check",
                   _check_trop(on_variety(fixture, w)))

    jobs += _distinct(facets, 25, seen)
    jobs += _distinct(arrow, 35, seen)
    jobs += _distinct(trop_check, 35, seen)
    return jobs


# -- graded-algebras -----------------------------------------------------------------


def cg(p: int, q: int, r: int) -> int:
    """Clebsch-Gordan: V(r) occurs in V(p) (x) V(q) once, or not at all."""
    return int(abs(p - q) <= r <= p + q and (p + q + r) % 2 == 0)


def branching_components(n: int) -> dict[tuple, int]:
    """Grades (a, b, c, eta, d) of the branching algebra up to degree n."""
    out = {}
    for a, b, c, d in itertools.product(range(2 * n + 1), repeat=4):
        if (a + b + c + d) % 2 or (a + b + c + d) // 2 > n:
            continue
        for eta in range(a + b + 1):
            dim = cg(a, b, eta) * cg(eta, c, d)
            if dim:
                out[(a, b, c, eta, d)] = dim
    return out


def branching_degree(grade) -> int:
    a, b, c, _, d = grade
    return (a + b + c + d) // 2


def rep_ring_components(n: int) -> dict[tuple, int]:
    return {(k,): k + 1 for k in range(n + 1)}


GRADE = r"\(([\d,]+):(\d+)\)"
COMPONENT_RE = re.compile(r"component ([\d,]+) size (\d+);")
MULT_RE = re.compile(r"mult " + GRADE + r"\*" + GRADE + r" = (.*);")
TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)\*" + GRADE + "$")


def _grade(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _check_algebra_file(text: str, components: dict, degree, truncation: int) -> str | None:
    got = {_grade(m.group(1)): int(m.group(2)) for m in COMPONENT_RE.finditer(text)}
    if got != components:
        return "component sizes disagree with the Clebsch-Gordan rule"
    basis = [(g, i) for g, size in components.items() for i in range(size)]
    pairs = sum(1 for x, y in itertools.combinations_with_replacement(basis, 2)
                if degree(x[0]) + degree(y[0]) <= truncation)
    if text.count("\nmult ") != pairs:
        return f"{text.count(chr(10) + 'mult ')} products listed, expected {pairs}"
    return None


def _check_sl2lab(builder: str, n: int):
    components = branching_components(n) if builder == "branching" else rep_ring_components(n)
    degree = branching_degree if builder == "branching" else (lambda g: g[0])

    def check(code, out):
        res = result_block(out)
        err = expect(code, 0, res, components=str(len(components)))
        return err or _check_algebra_file(after_result(out), components, degree, n)
    return check


def _check_gr(code, out):
    res = result_block(out)
    err = expect(code, 0, res, lower_triangular="yes", zero_divisors_to_bound="none")
    if err:
        return err
    for m in MULT_RE.finditer(after_result(out)):
        g1, g2 = _grade(m.group(1)), _grade(m.group(3))
        term = TERM_RE.match(m.group(5))
        if term is None or term.group(1) != "1":
            return f"product {m.group(0)!r} is not one term with coefficient 1"
        if _grade(term.group(2)) != tuple(x + y for x, y in zip(g1, g2)):
            return f"product {m.group(0)!r} does not land in the grade sum"
    return None


def _check_monoid(code, out):
    res = result_block(out)
    err = expect(code, 0, res, hypotheses="hold", conclusion="holds",
                 conclusion_failures="0")
    if err is None and int(res.get("samples", "0")) < 1:
        err = "no sample was checked"
    return err


def _check_rejected(code, out):
    if code != 3 or "not associative" not in out:
        return f"exit {code}, expected a rejected non-associative table (exit 3)"
    return None


def _check_override(code, out):
    res = result_block(out)
    err = expect(code, 1, res, mode="full", verdict="fails")
    if err is None and res.get("multiplicativity_failures") == "0":
        err = "the override's factorization was not found"
    return err


def _corrupt(text: str, rng: random.Random) -> str:
    """Double one product of two degree-1 elements.

    The branching algebra is an associative domain, and with truncation at
    least 3 every degree-1 third factor has all pairwise products defined,
    so associativity validation must fail.
    """
    lines = text.split("\n")
    candidates = [i for i, line in enumerate(lines)
                  if (m := MULT_RE.match(line))
                  and branching_degree(_grade(m.group(1))) == 1
                  and branching_degree(_grade(m.group(3))) == 1]
    i = rng.choice(candidates)
    lhs, rhs = lines[i].split(" = ")
    lines[i] = lhs + " = " + re.sub(r"(\d+(?:/\d+)?)\*\(",
                                    lambda m: f"{2 * Fraction(m.group(1))}*(", rhs)
    return "\n".join(lines)


def _monomials(n_vars: int, low: int, high: int) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(high + 1), repeat=n_vars)
            if low <= sum(e) <= high]


def _override_job(rng: random.Random, n_vars: int, trunc: int, seed: str) -> Job:
    """A full-mode check whose override is refuted by its own factorization.

    The override lowers the value of x_i * (c1*m1 + c2*m2) below its
    component maximum, which equals v(x_i) + v(c1*m1 + c2*m2), so
    multiplicativity must fail.
    """
    functional = [rng.randint(1, 3) for _ in range(n_vars)]
    i = rng.randrange(n_vars)
    m1, m2 = rng.sample(_monomials(n_vars, 1, trunc - 1), 2)
    g1 = tuple(x + (j == i) for j, x in enumerate(m1))
    g2 = tuple(x + (j == i) for j, x in enumerate(m2))
    cap = max(dot(functional, g1), dot(functional, g2))
    element = " + ".join(f"{rng.randint(1, 3)}*({','.join(map(str, g))}:0)"
                         for g in (g1, g2))
    return Job(["graded-check", "--algebra", f"polyring:{n_vars}:{trunc}",
                "--functional", ",".join(map(str, functional)),
                "--override", f"{element} = {cap - rng.randint(1, 2)}",
                "--mode", "full", "--seed", seed, "--samples", "30"],
               "graded-check", _check_override)


def graded_algebras(rng: random.Random, workdir: Path) -> list[Job]:
    """Built-in algebras, an emitted-file round trip, and corrupted files."""
    jobs = []

    def seed():
        return str(rng.randrange(10 ** 6))

    corrupt_seed = seed()

    def save_as(name: str):
        def write(out: str) -> None:
            text = after_result(out)
            (workdir / f"{name}.alg").write_text(text, encoding="utf-8")
            for k in range(6):
                bad = _corrupt(text, random.Random(f"{name}/{k}/{corrupt_seed}"))
                (workdir / f"{name}-bad{k}.alg").write_text(bad, encoding="utf-8")
        return write

    for n in range(2, 6):
        on_output = save_as(f"branching{n}") if n in (3, 4, 5) else None
        jobs.append(Job(["sl2lab", "branching", str(n)], "sl2lab",
                        _check_sl2lab("branching", n), on_output))
    for n in range(2, 14):
        jobs.append(Job(["sl2lab", "rep-ring", str(n)], "sl2lab",
                        _check_sl2lab("rep-ring", n)))
    for n in (2, 3, 4):
        for _ in range(4):
            jobs.append(Job(["monoid-check", "--algebra", f"sl2-branching:{n}",
                             "--functional", STRICT_FUNCTIONAL, "--seed", seed(),
                             "--samples", "60"], "monoid-check", _check_monoid))
    for n in range(4, 12):
        for _ in range({7: 4, 8: 8, 9: 12, 10: 5}.get(n, 2)):
            jobs.append(Job(["monoid-check", "--algebra", f"sl2-rep-ring:{n}",
                             "--functional", "1", "--seed", seed(), "--samples", "60"],
                            "monoid-check", _check_monoid))
    for n in (2, 3, 4):
        jobs.append(Job(["gr", "--algebra", f"sl2-branching:{n}", "--functional",
                         STRICT_FUNCTIONAL], "gr", _check_gr))
    for n in range(3, 10):
        jobs.append(Job(["gr", "--algebra", f"sl2-rep-ring:{n}", "--functional", "1"],
                        "gr", _check_gr))
    sizes = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5))
    jobs += _distinct(lambda i: _override_job(rng, *sizes[i % len(sizes)], seed()),
                      30, set())
    for n in (3, 4, 5):
        jobs.append(Job(["monoid-check", "--algebra", f"branching{n}.alg",
                         "--functional", STRICT_FUNCTIONAL, "--seed", seed(),
                         "--samples", "60"], "round-trip", _check_monoid))
    for n in (3, 4):
        jobs.append(Job(["gr", "--algebra", f"branching{n}.alg", "--functional",
                         STRICT_FUNCTIONAL], "round-trip", _check_gr))
    for n in (3, 4):
        for k in range(6):
            verb = "monoid-check" if k % 2 else "gr"
            extra = ["--seed", seed()] if verb == "monoid-check" else []
            jobs.append(Job([verb, "--algebra", f"branching{n}-bad{k}.alg",
                             "--functional", STRICT_FUNCTIONAL, *extra],
                            "corrupted", _check_rejected))
    return jobs


BUILDERS = {"axiom-sweep": axiom_sweep, "weight-fan": weight_fan,
            "graded-algebras": graded_algebras}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the fixture files and return the workload's job list."""
    for name, text in FIXTURES.items():
        (workdir / f"{name}.ideal").write_text(text, encoding="utf-8")
    rng = random.Random(f"perfbench/{workload}/{seed}")
    jobs = BUILDERS[workload](rng, workdir)
    argvs = [tuple(job.argv) for job in jobs]
    if len(set(argvs)) != len(argvs):
        raise AssertionError("a workload repeats a job")
    return jobs
