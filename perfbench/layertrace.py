"""Per-layer tracing of weylnf from outside the program.

``Tracer.installed()`` replaces the public entry points of each layer with
wrappers, at every module that binds them (a ``from .x import y`` makes a
second binding, and a class alias such as ``__rmul__ = __mul__`` a second
attribute), and puts every original back on exit.

Two kinds of wrapper:

* scalar methods of ``CycloScalar`` only count calls and add up the time of
  the outermost scalar call. There are millions of them, so they make no span.
  That time is also charged to the innermost open span, so span self times
  exclude it.
* every other entry point records a span ``[name, start, end, parent,
  scalar_s, note]`` in memory. ``note`` holds what a metric needs from the
  call: the exception raised, or a size taken from the arguments or result.

``layer_metrics`` turns one pass's spans and counts into the per-layer
metrics. ``operators.mul_s`` (and its ``by_*`` split),
``schur.schur_operator_s`` and ``criterion.classify_pair_s`` are self times:
a span's duration minus its child spans minus the scalar time charged to it.
``scalars.self_s`` is the total scalar time. Every other ``*_s`` is
inclusive: the duration of the outermost spans of its group, children
included.
"""

from __future__ import annotations

import contextlib
import sys
import time
from fractions import Fraction

from weylnf import criterion, gform, linalg, newton, operators, schur, scalars, suites

perf = time.perf_counter

SCALAR_METHODS = (("__init__", "new"), ("__mul__", "mul"), ("__rmul__", "mul"),
                  ("__add__", "add"), ("__radd__", "add"), ("__sub__", "add"),
                  ("__rsub__", "add"), ("__neg__", "add"), ("inv", "inv"))


def _terms(args, kwargs, result):
    if isinstance(result, operators.GradedOp):
        return sum(len(c) for c in result.components.values())
    return 0


def _schur(args, kwargs, result):
    return (result.depth, result.verified)


def _solve_n(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["rhs"])


def _nullspace_rows(args, kwargs, result):
    return len(args[0] if args else kwargs["matrix"])


def _case_failures(args, kwargs, result):
    return len(result)


# (owner, attribute, span name, note). The owner is a class or a module; a
# module function is rebound at every weylnf module that binds it.
SPAN_TARGETS = (
    (operators.GradedOp, "__mul__", "operators.mul", _terms),
    (operators.GradedOp, "__add__", "operators.add", None),
    (operators.GradedOp, "__radd__", "operators.add", None),
    (operators, "commutator", "criterion.commutator", None),
    (schur, "schur_operator", "schur.schur_operator", _schur),
    (schur, "invert_unit", "schur.invert_unit", None),
    (schur, "normal_form_report", "schur.normal_form_report", None),
    (gform, "fit_hcp", "gform.fit_hcp", None),
    (gform, "hcp_mul", "gform.hcp_mul", None),
    (gform.HcpSeries, "__mul__", "gform.series_mul", None),
    (gform, "check_Aqk", "gform.check_Aqk", None),
    (linalg, "solve_square", "linalg.solve_square", _solve_n),
    (linalg, "nullspace", "linalg.nullspace", _nullspace_rows),
    (newton, "classify_top_line", "newton.classify_top_line", None),
    (newton, "filtration_H", "newton.filtration", None),
    (newton, "filtration_HS", "newton.filtration", None),
    (newton, "weight_of", "newton.weight_of", None),
    (criterion, "classify_pair", "criterion.classify_pair", None),
    (criterion, "bc_certificate", "criterion.bc_certificate", None),
    (suites, "filtration_case", "suites.filtration_case", _case_failures),
)

# The caller spans that products of operators are split by.
MUL_CALLERS = ("schur.schur_operator", "schur.invert_unit", "schur.normal_form_report",
               "criterion.bc_certificate", "criterion.commutator")


def weylnf_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "weylnf" or name.startswith("weylnf."))]


class Tracer:
    """Span and counter recorder for one traced pass at a time."""

    def __init__(self):
        self.counts = {"mul": 0, "add": 0, "inv": 0, "new": 0}
        self.reset()

    def reset(self):
        self.spans: list[list] = []
        self.cur = -1
        self.scalar_s = 0.0
        self.in_scalar = False
        for key in self.counts:
            self.counts[key] = 0

    # -- wrappers ----------------------------------------------------------------

    def _scalar_wrapper(self, fn, kind):
        tr, counts = self, self.counts

        def wrapper(*args, **kwargs):
            counts[kind] += 1
            if tr.in_scalar:
                return fn(*args, **kwargs)
            tr.in_scalar = True
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tr.in_scalar = False
                tr.scalar_s += dt
                if tr.cur >= 0:
                    tr.spans[tr.cur][4] += dt
        return wrapper

    def _span_wrapper(self, fn, name, note):
        tr = self

        def wrapper(*args, **kwargs):
            parent = tr.cur
            rec = [name, 0.0, 0.0, parent, 0.0, None]
            tr.cur = len(tr.spans)
            tr.spans.append(rec)
            rec[1] = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = perf()
                tr.cur = parent
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result
        return wrapper

    # -- installing and restoring ------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        patched: list[tuple[object, str, object]] = []

        def patch(owner, attr, wrapper):
            patched.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

        try:
            cyclo = scalars.CycloScalar
            for attr, kind in SCALAR_METHODS:
                patch(cyclo, attr, self._scalar_wrapper(vars(cyclo)[attr], kind))
            modules = weylnf_modules()
            for owner, attr, name, note in SPAN_TARGETS:
                original = vars(owner)[attr]
                wrapper = self._span_wrapper(original, name, note)
                if isinstance(owner, type):
                    patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, bound, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            for owner, attr, original in patched:
                if vars(owner)[attr] is not original:
                    raise RuntimeError(f"tracer failed to restore {owner!r}.{attr}")

    # -- metrics -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]

        def dur(i):
            return spans[i][2] - spans[i][1]

        def self_time(i):
            return dur(i) - child[i] - spans[i][4]

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)

        def ids(name):
            return by_name.get(name, [])

        def calls(name):
            return len(ids(name))

        def self_s(name):
            return sum(self_time(i) for i in ids(name))

        def inclusive_s(name):
            return sum(dur(i) for i in ids(name)
                       if not any(spans[a][0] == name for a in ancestors(i)))

        def notes(name, kind=int):
            """The notes of ``name``'s spans that completed (a raise notes a str)."""
            return [spans[i][5] for i in ids(name) if isinstance(spans[i][5], kind)]

        m: dict[str, float] = {
            "scalars.mul_calls": self.counts["mul"],
            "scalars.add_calls": self.counts["add"],
            "scalars.inv_calls": self.counts["inv"],
            "scalars.new_calls": self.counts["new"],
            "scalars.self_s": self.scalar_s,
        }

        mul = ids("operators.mul")
        by_caller = dict.fromkeys(MUL_CALLERS, 0.0)
        bc_products = 0
        for i in mul:
            caller = next((spans[a][0] for a in ancestors(i)
                           if not spans[a][0].startswith("operators.")), None)
            if caller in by_caller:
                by_caller[caller] += self_time(i)
            if any(spans[a][0] == "criterion.bc_certificate" for a in ancestors(i)):
                bc_products += 1
        m["operators.mul_calls"] = len(mul)
        m["operators.mul_s"] = self_s("operators.mul")
        m["operators.add_calls"] = calls("operators.add")
        m["operators.out_terms"] = sum(notes("operators.mul"))
        for caller, seconds in by_caller.items():
            m[f"operators.mul_s.by_{caller.split('.', 1)[1]}"] = seconds

        solved = notes("schur.schur_operator", tuple)
        m["schur.schur_operator_s"] = self_s("schur.schur_operator")
        m["schur.invert_unit_s"] = inclusive_s("schur.invert_unit")
        m["schur.orders_solved"] = sum(depth for depth, _ in solved)
        m["schur.verified_frac"] = (sum(1 for _, ok in solved if ok) / len(solved)
                                    if solved else 0.0)

        fits = calls("gform.fit_hcp")
        fit_failed = notes("gform.fit_hcp", str).count("NotAnHcpError")
        m["gform.fit_calls"] = fits
        m["gform.fit_failed"] = fit_failed
        m["gform.fit_ok_ratio"] = (fits - fit_failed) / fits if fits else 0.0
        m["gform.fit_s"] = inclusive_s("gform.fit_hcp")
        m["gform.hcp_mul_calls"] = calls("gform.hcp_mul")
        m["gform.hcp_mul_s"] = inclusive_s("gform.hcp_mul")
        m["gform.series_mul_calls"] = calls("gform.series_mul")
        m["gform.series_mul_s"] = inclusive_s("gform.series_mul")
        m["gform.check_aqk_s"] = inclusive_s("gform.check_Aqk")

        m["linalg.solve_calls"] = calls("linalg.solve_square")
        m["linalg.solve_s"] = inclusive_s("linalg.solve_square")
        m["linalg.solve_max_n"] = max(notes("linalg.solve_square"), default=0)
        m["linalg.nullspace_calls"] = calls("linalg.nullspace")
        m["linalg.nullspace_s"] = inclusive_s("linalg.nullspace")
        m["linalg.nullspace_max_rows"] = max(notes("linalg.nullspace"), default=0)

        m["newton.classify_calls"] = calls("newton.classify_top_line")
        m["newton.classify_s"] = inclusive_s("newton.classify_top_line")
        m["newton.filtration_calls"] = calls("newton.filtration")
        m["newton.filtration_s"] = inclusive_s("newton.filtration")
        m["newton.weight_of_s"] = inclusive_s("newton.weight_of")

        m["criterion.classify_pair_s"] = self_s("criterion.classify_pair")
        m["criterion.commutator_s"] = inclusive_s("criterion.commutator")
        m["criterion.bc_s"] = inclusive_s("criterion.bc_certificate")
        m["criterion.bc_products"] = bc_products

        m["suites.cases"] = calls("suites.filtration_case")
        m["suites.case_failures"] = sum(notes("suites.filtration_case"))
        return m

    def span_dump(self) -> dict:
        """The pass's spans in a compact form for writing out."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {"fields": ["name", "start_s", "end_s", "parent", "scalar_s"],
                "names": names,
                "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], round(s[4], 7)]
                          for s in self.spans]}


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length of any Fraction inside ``obj``."""
    best, seen, stack = 0, set(), [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, Fraction):
            best = max(best, abs(o.numerator).bit_length(), o.denominator.bit_length())
            continue
        if o is None or isinstance(o, (bool, int, float, str)) or id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        else:
            stack.extend(vars(o).values() if hasattr(o, "__dict__") else ())
            for cls in type(o).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    stack.append(getattr(o, slot, None))
    return best
