"""Span tracing of tropval's public functions, from outside the program.

`Tracer.install` wraps the public functions of each traced module and a
few hot methods, and rebinds every name in every ``tropval`` module that
refers to an original, so that ``from .groebner import normal_form`` in
``valuation`` and ``sl2`` is traced too.  Each call records a span
``[function id, start, end, parent span, job id, info]`` in memory;
`layer_metrics` turns the spans of one pass into per-layer numbers.

Leaf helpers that run per term or per sample in well under a microsecond
(all of ``trop``, ``groebner.leading_term`` and a few ``graded`` and
``sl2`` helpers) are left unwrapped: a wrapper would cost more than the
call.  Their cost shows in their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

MODULES = ("cli", "textio", "poly", "groebner", "valuation", "cones", "graded",
           "sl2", "linalg")
UNWRAPPED = {"groebner.leading_term", "graded.grade_sum", "graded.element_key",
             "graded.element_add", "graded.element_scale", "graded.tuple_sum",
             "graded.graded_value", "graded.value_lex", "sl2.grade_of_exponents",
             "cli.main"}
METHODS = (("poly", "Polynomial", "__mul__"),
           ("valuation", "CandidateValuation", "evaluate"),
           ("graded", "GradedAlgebra", "__init__"),
           ("graded", "GradedAlgebra", "multiply"))

FID, START, END, PARENT, JOB, INFO = range(6)


def _text_bytes(args, kwargs):
    return sum(len(a) for a in (*args, *kwargs.values()) if isinstance(a, str))


def _buchberger_input(args, kwargs):
    gens, order = args[0], args[1]
    return (tuple(g.key() for g in gens), order)


# Extra facts recorded on entry (from the arguments) or on exit (from the
# result); the aggregation below reads them.
ON_ENTER = {name: _text_bytes for name in (
    "textio.tokenize", "textio.parse_poly", "textio.parse_ring", "textio.parse_weights",
    "textio.parse_presentation", "textio.parse_graded_algebra",
    "textio.parse_functional", "textio.parse_graded_element")}
ON_ENTER["groebner.buchberger"] = _buchberger_input
ON_ENTER["graded.GradedAlgebra.__init__"] = (
    lambda args, kwargs: len(args[3] if len(args) > 3 else kwargs["structure"]))
ON_EXIT = {
    "groebner.normal_form": lambda args, result: result.is_zero,
    "valuation.check_axioms": lambda args, result: result.pairs_checked,
}


def traced_functions() -> dict[str, tuple[object, str, object]]:
    """Function id -> (owner, attribute, original) for everything wrapped."""
    out = {}
    for layer in MODULES:
        module = importlib.import_module(f"tropval.{layer}")
        for name, obj in vars(module).items():
            fid = f"{layer}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and fid not in UNWRAPPED
                    and not inspect.isgeneratorfunction(obj)):
                out[fid] = (module, name, obj)
    for layer, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"tropval.{layer}"), cls_name)
        out[f"{layer}.{cls_name}.{attr}"] = (cls, attr, vars(cls)[attr])
    return out


class Tracer:
    """Records spans of wrapped calls; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.functions = traced_functions()

    def _wrap(self, fid: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_enter, on_exit = ON_ENTER.get(fid), ON_EXIT.get(fid)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                   on_enter(args, kwargs) if on_enter else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_exit:
                rec[INFO] = on_exit(args, result)
            return result
        return traced

    def install(self) -> None:
        wrappers = {id(orig): (self._wrap(fid, orig), orig)
                    for fid, (_, _, orig) in self.functions.items()}
        for name, module in list(sys.modules.items()):
            if name != "tropval" and not name.startswith("tropval."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[1] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[0])
        for fid, (owner, attr, orig) in self.functions.items():
            if inspect.isclass(owner):
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrappers[id(orig)][0])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def profile_counts(functions: dict, call) -> Counter:
    """Count calls of each original function with the interpreter's profiler.

    This is independent of the wrappers: it sees a call however the function
    was reached, so a binding the tracer missed shows as a surplus here.
    """
    by_code = {orig.__code__: fid for fid, (_, _, orig) in functions.items()}
    counts: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            fid = by_code.get(frame.f_code)
            if fid is not None:
                counts[fid] += 1

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


# -- aggregation ----------------------------------------------------------------------


def _self_times(spans) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _inside(spans, fids: set) -> list[bool]:
    """Whether each span has an ancestor among the given functions."""
    out = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        out[i] = p >= 0 and (out[p] or spans[p][FID] in fids)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, times and ratios from the spans of one pass."""
    self_t = _self_times(spans)
    fids = [s[FID] for s in spans]

    def pick(match):
        return [i for i, f in enumerate(fids) if match(f)]

    def count(match):
        return len(pick(match))

    def self_s(match):
        return sum(self_t[i] for i in pick(match))

    def outer_s(names):
        names = set(names)
        inside = _inside(spans, names)
        return sum(spans[i][END] - spans[i][START] for i in pick(names.__contains__)
                   if not inside[i])

    def ratio(num, den):
        return num / den if den else 0.0

    def is_parse(f):
        return f in ON_ENTER and f.startswith("textio.")

    m: dict[str, float] = {}
    m["cli.jobs"] = count("cli.run".__eq__)
    m["cli.self_s"] = self_s(lambda f: f.startswith("cli."))

    parse_inside = _inside(spans, {f for f in set(fids) if is_parse(f)})
    parse_bytes = sum(spans[i][INFO] for i in pick(is_parse) if not parse_inside[i])
    m["textio.parse_calls"] = sum(1 for i in pick(is_parse) if not parse_inside[i])
    m["textio.parse_s"] = self_s(is_parse)
    m["textio.parse_bytes_per_s"] = ratio(parse_bytes, m["textio.parse_s"])
    m["textio.print_s"] = self_s(lambda f: f.endswith("_to_str") and f.startswith("textio."))

    m["poly.mul_calls"] = count("poly.Polynomial.__mul__".__eq__)
    m["poly.mul_s"] = outer_s({"poly.Polynomial.__mul__"})

    nf = pick("groebner.normal_form".__eq__)
    m["groebner.nf_calls"] = len(nf)
    m["groebner.nf_s"] = outer_s({"groebner.normal_form"})
    bb = pick("groebner.buchberger".__eq__)
    m["groebner.buchberger_calls"] = len(bb)
    m["groebner.buchberger_s"] = outer_s({"groebner.buchberger"})
    seen, repeats = set(), 0
    for i in bb:
        key = (spans[i][JOB], spans[i][INFO])
        repeats += key in seen
        seen.add(key)
    m["groebner.buchberger_repeat_ratio"] = ratio(repeats, len(bb))
    under = [i for i in nf if spans[i][PARENT] >= 0
             and fids[spans[i][PARENT]] == "groebner.buchberger"]
    m["groebner.spair_zero_ratio"] = ratio(sum(1 for i in under if spans[i][INFO]),
                                           len(under))
    m["groebner.initial_ideal_s"] = outer_s({"groebner.initial_ideal"})
    m["groebner.contains_monomial_s"] = outer_s({"groebner.contains_monomial"})

    m["valuation.make_calls"] = count("valuation.make_weight_valuation".__eq__)
    m["valuation.make_s"] = outer_s({"valuation.make_weight_valuation"})
    ev = pick("valuation.CandidateValuation.evaluate".__eq__)
    m["valuation.eval_calls"] = len(ev)
    m["valuation.eval_s"] = sum(self_t[i] for i in ev)
    with_nf = {spans[i][PARENT] for i in nf}
    m["valuation.eval_cache_hit_ratio"] = ratio(sum(1 for i in ev if i not in with_nf),
                                                len(ev))
    ax = pick("valuation.check_axioms".__eq__)
    m["valuation.pairs_per_s"] = ratio(sum(spans[i][INFO] for i in ax),
                                       outer_s({"valuation.check_axioms"}))

    m["cones.calls"] = count(lambda f: f.startswith("cones."))
    m["cones.self_s"] = self_s(lambda f: f.startswith("cones."))

    ctor = pick("graded.GradedAlgebra.__init__".__eq__)
    m["graded.construct_calls"] = len(ctor)
    m["graded.construct_s"] = outer_s({"graded.GradedAlgebra.__init__"})
    m["graded.structure_entries"] = sum(spans[i][INFO] for i in ctor)
    m["graded.multiply_calls"] = count("graded.GradedAlgebra.multiply".__eq__)
    m["graded.multiply_s"] = outer_s({"graded.GradedAlgebra.multiply"})
    m["graded.check_s"] = outer_s({"graded.check_graded_axioms",
                                   "graded.check_valuation_axioms",
                                   "graded.check_lower_triangular",
                                   "graded.check_monoid_theorem"})

    m["sl2.build_s"] = self_s({"sl2.sl2_rep_ring", "sl2.sl2_branching_algebra",
                               "sl2.straightening_basis"}.__contains__)
    m["sl2.oracle_s"] = outer_s({"sl2.sl2_character", "sl2.character_mul",
                                 "sl2.multiplicity_in_character",
                                 "sl2.clebsch_gordan_multiplicity",
                                 "sl2.branching_dimension_report"})

    m["linalg.solve_calls"] = count("linalg.solve_linear".__eq__)
    m["linalg.solve_s"] = outer_s({"linalg.solve_linear"})
    return m
