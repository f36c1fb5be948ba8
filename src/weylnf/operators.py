"""Truncated exact arithmetic for ordinary differential operators.

Operators live in the completion of K[[x]][d] by the grading deg x = -1,
deg d = +1: an element is a sum of homogeneous components, the component of
order t collecting the monomials x^n d^(n+t). A :class:`GradedOp` stores
finitely much of such an element together with an explicit exactness window:

* ``floor``: smallest order at which components are complete (``None`` means
  every order is represented, nothing is missing below);
* ``top``: orders above ``top`` are known to vanish;
* per-component ``xcap``: largest x-degree at which the stored coefficients
  are guaranteed exact (absent means exact at every degree).

Every stored coefficient inside the window is an exact value of the
represented operator; the window algebra of :class:`Graded`, shared with
``gform.HcpSeries``, preserves this under sums and products. Multiplication
works through the diagonal action on monomials: the component of order t
sends x^j to nu(j) * x^(j-t), and composition is pointwise in nu, which both
respects the grading and yields the product window rule
``xcap(t) = min over t1+t2=t of min(xcap_left(t1), xcap_right(t2) - t1)``.
:func:`_sweep` is the one place that computes result orders, all of a
product's in one pass; the Schur solves call it one order at a time
(:func:`order_product`).

Nu sequences live as lanes, the integer-vector form that the ``scalars``
module docstring states. The triangular map between coefficients and values is
a binomial transform (perm(j, m) = comb(j, m) * m!), computed on the lanes
with integer additions and subtractions only (:meth:`Factor.nu`,
:meth:`Factor.differences`, :func:`_comp_of_lanes`).

Every operator is built over its own :class:`Factor`, and its ``components``
are a read-only view on it. The public constructor gives the factor the
checked coefficients; every other operation holds each order it makes as
lanes: the values nu(j) that determine it, reduced once
(``scalars._reduced``), so D_t need not be the lcm of the coefficients'
denominators. :func:`_sweep` multiplies and sums the lanes of its factors in
integers mod Phi_k, reading each operand order's cap, reach and lanes once per
product. A sum or difference adds lanes, the subtrahend's times -1, sharing an
order that one summand alone holds; a rational multiple scales the lanes by
its numerator and D_t by its denominator, and only any other scalar
multiplies them mod Phi_k. The view builds an order's
coefficients, each divided back once by ``scalars._from_lanes``, when a reader
(the Schur recurrence, ``==``, ``str``, ``to_dict``) first reads the order; a
G-form fit reads the held lanes, and the window queries and
``component_as_op`` build none.

Results are built unchecked by :func:`_op_of`, as they hold the invariant
that the public constructor checks: each component nonempty with no zero
coefficient, each x-degree n of order t at least max(0, -t) and at most the
order's cap, caps ints. No held component or lane is written once built, so
factors share them. A component view shares its operator's factor, and so do
the operators that the Schur solves build over their own factor, so each
sequence is computed once per factor; a longer sequence resumes the
difference table where the shorter one stopped.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from operator import add, sub

from .errors import (
    ContextMismatchError,
    PreconditionError,
    TruncationError,
    UndefinedOrderError,
)
from .scalars import (CycloScalar, _from_lanes, _join_signed, _lane_mul, _lanes,
                      _rational_or_scalar, _reduced, _signed_term, as_scalar, cyclotomic_poly)

INF = math.inf


@dataclass(frozen=True)
class XdMonomial:
    """A single monomial coeff * x^xdeg * d^ddeg."""

    xdeg: int
    ddeg: int
    coeff: CycloScalar

    def __post_init__(self):
        if self.xdeg < 0 or self.ddeg < 0:
            raise PreconditionError("monomial exponents must be nonnegative")
        if self.coeff.is_zero():
            raise PreconditionError("monomial coefficient must be nonzero")

    @property
    def order(self) -> int:
        return self.ddeg - self.xdeg


class Graded:
    """A graded sum of homogeneous components, one per order, on a window.

    ``components`` maps each order t to its nonzero component. With ``floor``
    None every order is represented and ``top`` is normalised to the largest
    order with content (0 if none), so equality is structural; with a floor,
    only orders floor..top are known and nothing is stored outside them.
    Instances are immutable.

    Subclasses fix the component type and supply ``one(k)``, the
    ``(k, components, floor, top)`` constructor, ``scalar_mul``, ``__add__``
    and ``__mul__`` (windows from :meth:`_sum_window` and
    :func:`product_floor`), :meth:`_agrees_at` and :meth:`_body_str`.
    """

    __slots__ = ("k", "components", "floor", "top")

    def _set_window(self, k: int, comps: dict, floor, top, known=()):
        """Store the slots with the window normalised; ``known`` lists more
        orders that count as content for ``top`` (a GradedOp's capped orders)."""
        if floor is None:
            top = max([*comps, *known], default=0)
        elif any(not floor <= t <= top for t in comps):
            comps = {t: c for t, c in comps.items() if floor <= t <= top}
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "floor", floor)
        object.__setattr__(self, "top", top)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, k: int):
        return cls(k, {}, None, 0)

    def floor_eff(self) -> float:
        return -INF if self.floor is None else self.floor

    def is_zero_in_window(self) -> bool:
        return not self.components

    def _check_ctx(self, other: "Graded"):
        if self.k != other.k:
            raise ContextMismatchError(f"cyclotomic order mismatch: {self.k} vs {other.k}")

    def _sum_window(self, other: "Graded"):
        """``(floor, top)`` of a sum: known where both summands are known."""
        floor = max((f for f in (self.floor, other.floor) if f is not None), default=None)
        return floor, max(self.top, other.top)

    def __neg__(self):
        return self.scalar_mul(-1)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            return self.scalar_mul(other)
        return NotImplemented

    def __pow__(self, e: int):
        """``e - 1`` products for e >= 1; ``one`` with no product for e = 0."""
        if e < 0:
            raise PreconditionError("negative powers are not defined")
        if e == 0:
            return type(self).one(self.k)
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    def agrees_with(self, other: "Graded") -> bool:
        """Equal components on the common window: from the larger floor (the
        lowest stored order, at most 0, when neither has one) to the larger top."""
        self._check_ctx(other)
        lo = max(self.floor_eff(), other.floor_eff())
        if lo == -INF:
            lo = min([*self.components, *other.components, 0])
        return all(self._agrees_at(other, t) for t in range(int(lo), max(self.top, other.top) + 1))

    def __str__(self):
        body = self._body_str()
        if self.floor is not None:
            body += f"  [window: ord >= {self.floor}]"
        return body


class GradedOp(Graded):
    """Window-truncated element of the graded operator completion.

    A component is a dict from x-degree n to the coefficient of x^n d^(n+t);
    ``xcaps`` adds the per-order exactness caps. ``_factor`` holds the
    operator's :class:`Factor`, which it is built over and which is no part
    of its value; ``components`` is the read-only view on the factor of the
    orders the operator holds, building an order's coefficients on first
    read. The constructor, like ``Fraction``'s, is ``__new__``: it checks the
    components, drops zero coefficients and those above their order's cap,
    and builds the operator over a factor of what is left.
    """

    __slots__ = ("xcaps", "_factor")

    def __new__(cls, k, components, floor, top, xcaps=None):
        caps = {t: int(c) for t, c in (xcaps or {}).items() if c != INF}
        comps = {}
        for t, comp in components.items():
            clean = {n: c for n, c in comp.items() if not c.is_zero()}
            for n in clean:
                if n < max(0, -t):
                    raise PreconditionError(f"monomial x^{n} d^{n + t} has negative d-power")
            cap = caps.get(t, INF)
            if clean := {n: c for n, c in clean.items() if n <= cap}:
                comps[t] = clean
        return _op_of(Factor(k, comps, caps), comps, floor, top, caps)

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, k: int) -> "GradedOp":
        return cls.from_monomials(k, [(0, 0, 1)])

    @classmethod
    def from_scalar(cls, k: int, value) -> "GradedOp":
        value = as_scalar(k, value)
        if value.is_zero():
            return cls.zero(k)
        return cls.from_monomials(k, [(0, 0, value)])

    @classmethod
    def from_monomials(cls, k: int, items) -> "GradedOp":
        """Total operator from (xdeg, ddeg, coeff) triples; everything exact."""
        comps: dict[int, dict[int, CycloScalar]] = {}
        top = 0
        for xdeg, ddeg, coeff in items:
            coeff = as_scalar(k, coeff)
            t = ddeg - xdeg
            comps.setdefault(t, {})
            comps[t][xdeg] = comps[t].get(xdeg, CycloScalar.zero(k)) + coeff
            top = max(top, t)
        return cls(k, comps, None, top)

    @classmethod
    def x_op(cls, k: int, power: int = 1) -> "GradedOp":
        return cls.from_monomials(k, [(power, 0, 1)])

    @classmethod
    def d_op(cls, k: int, power: int = 1) -> "GradedOp":
        return cls.from_monomials(k, [(0, power, 1)])

    # -- window bookkeeping ---------------------------------------------------

    def xcap(self, t: int):
        """Exactness cap of the order-t component (INF when exact everywhere)."""
        if self.floor is not None and t < self.floor:
            return -1  # nothing known
        if t > self.top:
            return INF
        return self.xcaps.get(t, INF)

    def active_orders(self) -> list[int]:
        """Orders that carry content or a finite cap (possible nonzero tail)."""
        orders = set(self.components) | set(self.xcaps)
        return sorted(orders)

    def lift_context(self, k_new: int) -> "GradedOp":
        """Re-embed a rational-context operator into Q(xi) of order k_new."""
        if k_new == self.k:
            return self
        if self.k != 1:
            raise ContextMismatchError(
                f"can only lift from the rational context, not k={self.k}")
        comps = {t: {n: CycloScalar.from_rational(k_new, c.rational_value())
                     for n, c in comp.items()}
                 for t, comp in self.components.items()}
        return GradedOp(k_new, comps, self.floor, self.top, self.xcaps)

    def restrict(self, floor=None, xcap=None) -> "GradedOp":
        """Weaken the window: raise the floor and/or clamp every cap."""
        new_floor = self.floor
        if floor is not None:
            new_floor = floor if new_floor is None else max(new_floor, floor)
        caps = dict(self.xcaps)
        if xcap is not None:
            lo = new_floor if new_floor is not None else min(self.components, default=0)
            for t in range(min(lo, self.top), self.top + 1):
                caps[t] = min(self.xcaps.get(t, xcap), xcap)
        # The constructor drops the coefficients above the clamped caps.
        return GradedOp(self.k, self.components, new_floor, self.top, caps)

    def component_as_op(self, t: int) -> "GradedOp":
        """The order-t component alone, keeping its exactness cap and sharing
        this operator's factor."""
        cap = self.xcap(t)
        if cap == -1:
            raise TruncationError(f"component at order {t} is below the window floor",
                                  {"floor": self.floor, "order": t})
        return _op_of(self._factor, [t] if t in self.components else [], None, t,
                      {} if cap == INF else {t: cap})

    # -- basic queries ---------------------------------------------------------

    def ord(self) -> int:
        if not self.components:
            if self.floor is None and not self.xcaps:
                raise UndefinedOrderError("ord of the zero operator is undefined")
            raise UndefinedOrderError(
                f"operator vanishes on its whole window (floor={self.floor})")
        return max(self.components)

    def sigma(self) -> "GradedOp":
        return self.component_as_op(self.ord())

    def is_monic(self) -> bool:
        try:
            p = self.ord()
        except UndefinedOrderError:
            return False
        comp = self.components[p]
        return comp == {0: CycloScalar.one(self.k)}

    def is_normalized(self) -> bool:
        """Monic with identically zero d^(p-1) coefficient, window-verified."""
        if not self.is_monic():
            return False
        p = self.ord()
        lo = self.floor if self.floor is not None else min(self.components, default=0)
        for t in range(min(lo, p - 1), p):
            n = p - 1 - t
            if n < 0:
                continue
            comp = self.components.get(t, {})
            if n in comp:
                return False
            if self.xcap(t) < n:
                raise TruncationError(
                    "cannot verify the d^(p-1) coefficient inside the window",
                    {"order": t, "xdeg": n})
        return True

    def ddeg(self) -> int:
        """Largest d-power among stored monomials."""
        best = -1
        for t, comp in self.components.items():
            for n in comp:
                best = max(best, n + t)
        return best

    def monomials(self):
        for t in sorted(self.components):
            for n in sorted(self.components[t]):
                yield XdMonomial(n, n + t, self.components[t][n])

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign * other, sign 1 or -1. Per order: share what one summand
        holds alone at the sum's cap (other only if sign is 1), else add lanes,
        other's over sign * D, extended on a copy if held alone and subtracted."""
        if isinstance(other, (int, Fraction, CycloScalar)):
            other = GradedOp.from_scalar(self.k, other)
        if not isinstance(other, GradedOp):
            return NotImplemented
        self._check_ctx(other)
        floor, top = self._sum_window(other)
        caps = {}
        for t in set(self.xcaps) | set(other.xcaps):
            cap = min(self.xcap(t), other.xcap(t))
            if cap != INF:
                caps[t] = cap
        out = Factor(self.k, {}, caps)
        for t in sorted({*self.components, *other.components}):
            if floor is not None and t < floor:
                continue
            cap = caps.get(t, INF)
            parts = [(X, s) for X, s in ((self, 1), (other, sign)) if t in X.components]
            if len(parts) == 1 and parts[0][1] == 1 and parts[0][0].xcap(t) == cap:
                out.take(t, parts[0][0]._factor)
                continue
            jmax, terms = max(X._factor.reach(t, cap) for X, _ in parts), []
            for X, s in parts:
                F = X._factor
                if s < 0 and (e := F.nus.get(t)) and e[2] is None and jmax >= len(e[1][0]):
                    F = Factor(self.k, {}, {})
                    F.nus[t] = e
                den, lanes = F.nu(t, jmax)
                terms.append((s * den, lanes, 0))
            if held := _lane_total(self.k, jmax, terms):
                out.nus[t] = (*held, None)
        return _op_of(out, [*out.comps, *out.nus], floor, top, caps)

    def scalar_mul(self, value) -> "GradedOp":
        """Each order's lanes times the scalar, reduced once by ``scalars._reduced``:
        a rational (-1 for a negation) scales them by its numerator and D_t by
        its denominator, any other scalar multiplies them by its lanes mod
        Phi_k. A zero scalar leaves no content but the window as it was."""
        k, value = self.k, _rational_or_scalar(self.k, value)
        if isinstance(value, CycloScalar):
            phi, (vden, vlanes) = cyclotomic_poly(k), _lanes(k, [value])
        F, out = self._factor, Factor(k, {}, self.xcaps)
        for t in self.components if value else ():
            jmax = F.reach(t, self.xcap(t))
            den, lanes = F.nu(t, jmax)
            lanes = [lane[:jmax + 1] for lane in lanes]
            if isinstance(value, CycloScalar):
                den, prod = den * vden, _lane_mul(phi, lanes, [v * (jmax + 1) for v in vlanes])
            else:
                den, num = den * value.denominator, value.numerator
                prod = [[num * x for x in lane] for lane in lanes]
            out.nus[t] = (*_reduced(den, tuple(prod)), None)
        return _op_of(out, out.nus, self.floor, self.top, self.xcaps)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            return self.scalar_mul(other)
        if not isinstance(other, GradedOp):
            return NotImplemented
        self._check_ctx(other)
        return _op_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, GradedOp):
            return NotImplemented
        return (self.k == other.k and self.floor == other.floor
                and self.top == other.top and self.xcaps == other.xcaps
                and self.components == other.components)

    def __hash__(self):
        return hash((self.k, self.floor, self.top,
                     tuple(sorted((t, tuple(sorted(c.items()))) for t, c in self.components.items()))))

    def _agrees_at(self, other: "GradedOp", t: int) -> bool:
        """Equal order-t coefficients up to the smaller cap (none below a floor)."""
        cap = min(self.xcap(t), other.xcap(t))
        a = self.components.get(t, {})
        b = other.components.get(t, {})
        zero = CycloScalar.zero(self.k)
        return all(a.get(n, zero) == b.get(n, zero) for n in set(a) | set(b) if n <= cap)

    # -- the action on polynomials (independent oracle route) -------------------

    def apply_to_poly(self, poly: dict[int, CycloScalar], through_degree: int | None = None
                      ) -> dict[int, CycloScalar]:
        """Act on a polynomial in x, exactly.

        ``poly`` maps x-degree to coefficient. When the operator window is
        truncated, only output degrees up to ``through_degree`` can be
        certified; omitting it then raises :class:`TruncationError`.
        """
        supp = sorted(n for n, c in poly.items() if not c.is_zero())
        if not supp:
            return {}
        if self.floor is None:
            lo_order = min(self.components, default=0)
            max_out = max(supp) - min(lo_order, 0)
            through = max_out if through_degree is None else through_degree
        else:
            if through_degree is None:
                raise TruncationError(
                    "action of a window-truncated operator needs through_degree",
                    {"floor": self.floor})
            through = through_degree
            pollution_from = min(supp) - self.floor + 1
            if through >= pollution_from:
                raise TruncationError(
                    "requested output degrees depend on orders below the floor",
                    {"floor": self.floor, "max_exact_degree": pollution_from - 1})
        for t in self.active_orders():
            cap = self.xcap(t)
            if cap == INF:
                continue
            for j in supp:
                if 0 <= j - t <= through and cap < j - t:
                    raise TruncationError(
                        "component cap too small for the requested action",
                        {"order": t, "needed_xcap": j - t, "xcap": cap})
        k = self.k
        out: dict[int, CycloScalar] = {}
        for t, comp in self.components.items():
            for j in supp:
                e = j - t
                if e < 0 or e > through:
                    continue
                pc = poly[j]
                acc = CycloScalar.zero(k)
                for n, c in comp.items():
                    f = math.perm(j, n + t) if n + t <= j else 0
                    if f:
                        acc = acc + c * f
                if not acc.is_zero():
                    out[e] = out.get(e, CycloScalar.zero(k)) + acc * pc
        return {e: c for e, c in out.items() if not c.is_zero()}

    # -- serialization and rendering ---------------------------------------------

    def to_dict(self) -> dict:
        comps = {}
        for t in sorted(self.components):
            comp = self.components[t]
            n0 = max(0, -t)
            hi = max(comp)
            cap = self.xcap(t)
            coeffs = [str(comp.get(n, CycloScalar.zero(self.k))) for n in range(n0, hi + 1)]
            comps[str(t)] = {"xcap": None if cap == INF else cap, "coeffs": coeffs}
        for t in sorted(self.xcaps):
            comps.setdefault(str(t), {"xcap": self.xcaps[t], "coeffs": []})
        return {"k": self.k, "floor": self.floor, "top": self.top, "components": comps}

    @classmethod
    def from_dict(cls, data: dict) -> "GradedOp":
        from .parsing import parse_scalar
        k = data["k"]
        comps = {}
        caps = {}
        for ts, entry in data["components"].items():
            t = int(ts)
            n0 = max(0, -t)
            comp = {}
            for i, s in enumerate(entry["coeffs"]):
                val = parse_scalar(k, s)
                if not val.is_zero():
                    comp[n0 + i] = val
            if comp:
                comps[t] = comp
            if entry.get("xcap") is not None:
                caps[t] = entry["xcap"]
        return cls(k, comps, data.get("floor"), data["top"], caps)

    def _body_str(self) -> str:
        monos = sorted(self.monomials(), key=lambda m: (-m.ddeg, m.xdeg))
        return _join_signed(_monomial_str(m.coeff, m.xdeg, m.ddeg) for m in monos)

    def __repr__(self):
        return f"GradedOp(k={self.k}, {self})"


def _op_of(F: "Factor", orders, floor, top, caps: dict) -> GradedOp:
    """Unchecked ``GradedOp`` over F of the ``orders`` F holds, with the
    window normalised as in the public constructor: no order or cap outside
    a floor's window."""
    if floor is not None:
        orders = [t for t in orders if floor <= t <= top]
        if caps:
            caps = {t: c for t, c in caps.items() if floor <= t <= top}
    out = object.__new__(GradedOp)
    out._set_window(F.k, _Comps(F, orders), floor, top, caps)
    object.__setattr__(out, "xcaps", caps)
    object.__setattr__(out, "_factor", F)
    return out


def _lane_total(k: int, jmax: int, terms: list):
    """``(D, lanes)`` over j = 0 .. jmax of the sum of lanes / d (a negative d
    subtracts), each placed from j = j0, over ``terms`` (d, lanes, j0); D is the
    lcm of the d, and the sum is reduced by ``scalars._reduced``. None when the
    sum vanishes."""
    den = math.lcm(*[d for d, _, _ in terms])
    acc = tuple([[0] * (jmax + 1) for _ in range(len(cyclotomic_poly(k)) - 1)])
    for d, lanes, j0 in terms:
        scale = den // d
        for a, lane in zip(acc, lanes):
            if any(lane):
                a[j0:] = map(add, a[j0:], lane if scale == 1 else [scale * x for x in lane])
    return _reduced(den, acc) if any(map(any, acc)) else None


class _Comps(Mapping):
    """The components of an operator: the orders it holds, each order's
    coefficients read from its factor, which builds them on first read."""

    __slots__ = ("factor", "orders")

    def __init__(self, factor: "Factor", orders):
        self.factor, self.orders = factor, dict.fromkeys(sorted(orders))

    def __getitem__(self, t):
        if t not in self.orders:
            raise KeyError(t)
        return self.factor.comp(t)

    def __contains__(self, t):
        return t in self.orders

    def __iter__(self):
        return iter(self.orders)

    def __len__(self):
        return len(self.orders)


def _monomial_str(coeff: CycloScalar, xdeg: int, ddeg: int) -> tuple[str, bool]:
    """``(body, negative)`` of one monomial, as :func:`scalars._join_signed` takes it."""
    powers = [("x", xdeg), ("d", ddeg)]
    if coeff.is_rational():
        return _signed_term(coeff.rational_value(), powers)
    return _signed_term(1, [(f"({coeff})", 1)] + powers)


# -- multiplication kernel -------------------------------------------------------


def product_floor(A, B):
    """Floor of the window of A * B, shared by :class:`GradedOp` and the HCP series.

    A product is complete from max(floor_A + top_B, floor_B + top_A) up;
    None means neither factor has a floor.
    """
    val = max(A.floor_eff() + B.top, B.floor_eff() + A.top)
    return None if val == -INF else int(val)


def _column(lane: list[int]) -> list[int]:
    """The forward differences of ``lane`` at j = 0, without trailing zeros
    (one entry at least): the difference-table row at j = 0."""
    col = []
    if any(lane):
        while lane:
            col.append(lane[0])
            lane = list(map(sub, lane[1:], lane))
        while not col[-1]:
            col.pop()
    return col or [0]


def _comp_of_lanes(k: int, lanes, den: int, t: int) -> dict[int, CycloScalar]:
    """The order-t component whose nu(j) is (lanes[i][j] / den)_i, j = 0, 1, ...

    The inverse of :meth:`Factor.nu`: m! * D * a_(m-t) is the m-th forward
    difference of D * nu at j = 0, where the lanes vanish for j < max(0, t).
    Each nonzero coefficient is divided back once, by D * m!.
    """
    out: dict[int, CycloScalar] = {}
    for m, b in enumerate(zip_longest(*map(_column, lanes), fillvalue=0)):
        if any(b):
            out[m - t] = _from_lanes(k, b, den * math.factorial(m))
    return out


def _difference_rows(comp: dict[int, CycloScalar], t: int, k: int):
    """D and, per lane, the difference-table row of D * nu at j = 0, for the
    diagonal action nu(j) = sum_n a_n * perm(j, n+t) of ``comp``.

    As perm(j, m) = comb(j, m) * m!, nu is a polynomial in j whose forward
    differences at j = 0 are c_m = m! * a_(m-t). A row holds Delta^m nu(j) up
    to the lane's degree; the step j -> j+1 adds Delta^(m+1) nu(j) to each
    entry, and the top entry stays constant. D is the lcm of the denominators.
    """
    den, lanes = _lanes(k, comp.values())
    rows = []
    for lane in lanes:
        row = [0] * (max(comp, default=-t) + t + 1)
        for n, a in zip(comp, lane):
            row[n + t] = a * math.factorial(n + t)
        while len(row) > 1 and not row[-1]:
            row.pop()
        rows.append(row)
    return den, rows


class Factor:
    """The orders an operator is built over: coefficients, caps and nu
    sequences.

    Each :class:`GradedOp` is born over one factor, kept in a slot that
    ``==``, hash, ``to_dict`` and ``str`` ignore. Operators that agree with a
    factor at every order they hold share it: a component view, or the
    result of an order-by-order solve over ``comps`` and ``caps``, which may
    be dicts that the solve keeps filling. An absent cap means exact
    everywhere. ``nus[t]`` is ``(D_t, lanes, rows)``: an order given as
    coefficients in ``comps`` (by the public constructor or a solve) has its
    nu sequence computed once, with the difference-table row where it
    stopped, so a longer one resumes there. An order born in a product, sum
    or scalar multiple is held as lanes alone (``rows`` None), the reduced
    values that determine it; :meth:`comp` builds its coefficients on first
    read. :func:`_sweep` reads ``caps``, ``nus`` and ``comps`` directly.
    """

    __slots__ = ("k", "comps", "caps", "nus")

    def __init__(self, k: int, comps: dict, caps: dict):
        self.k, self.comps, self.caps, self.nus = k, comps, caps, {}

    def take(self, t: int, F: "Factor"):
        """Hold order t as F holds it: its coefficients, its lanes, or both."""
        for mine, theirs in ((self.comps, F.comps), (self.nus, F.nus)):
            if t in theirs:
                mine[t] = theirs[t]

    def holds(self, t: int) -> bool:
        return t in self.nus or bool(self.comps.get(t))

    def comp(self, t: int) -> dict[int, CycloScalar]:
        """The coefficients of order t, built from its lanes on first read."""
        comp = self.comps.get(t)
        if comp is None:
            den, lanes, _ = self.nus[t]
            comp = self.comps[t] = _comp_of_lanes(self.k, lanes, den, t)
        return comp

    def differences(self, t: int) -> tuple[int, list[list[int]]]:
        """``(D_t, cols)``: per lane, D_t * nu_t's differences m! * D_t * a_(m-t) at j = 0."""
        entry = self.nus.get(t)
        if entry is None or entry[2] is not None and self.comps.get(t):
            return _difference_rows(self.comps[t], t, self.k)
        return entry[0], [_column(lane) for lane in entry[1]]

    def reach(self, t: int, cap=INF) -> int:
        """The last j whose value order t needs at x-cap ``cap``: cap + t, or
        for an exact order its top x-degree + t (a bound, for held lanes)."""
        if cap == INF and not self.comps.get(t):
            _, lanes, rows = self.nus[t]
            return (len(lanes[0]) if rows is None else max(map(len, rows))) - 1
        return (max(self.comps[t]) if cap == INF else cap) + t

    def nu(self, t: int, jmax: int) -> tuple[int, tuple[list[int], ...]]:
        """``(D_t, lanes)``: nu_t(j) has coefficient i equal to lanes[i][j] / D_t,
        for j = 0 .. at least jmax.

        Invariant: D_t > 0, and ``lanes`` is a tuple of exactly ``deg Phi_k``
        equally long lists of ints. Extending a sequence keeps D_t. An exact
        order held as lanes alone resumes past its values from the
        difference-table row at j = 0 that they determine.
        """
        entry = self.nus.get(t)
        if entry is None or entry[2] is None:
            if entry is not None and jmax < len(entry[1][0]):
                return entry[:2]
            den, rows = self.differences(t)
            entry = self.nus[t] = (den, tuple([] for _ in rows), rows)
        den, lanes, rows = entry
        for lane, row in zip(lanes, rows):
            steps = range(len(row) - 1)
            for _ in range(len(lane), jmax + 1):
                lane.append(row[0])
                for m in steps:  # in place: row[m + 1] is still the old entry
                    row[m] += row[m + 1]
        return den, lanes


def _sweep(pairs_by_t: dict, L: Factor, R: Factor) -> Factor:
    """A new factor holding, at each order t of ``pairs_by_t``, the sum of
    L_t1 * R_t2 over its pairs (t1, t2), both orders active, as lanes over
    j = 0 .. jmax, and its cap when finite, held or not: min(xcap_L(t1),
    xcap_R(t2) - t1) over the pairs, jmax = cap + t, or for an exact order the
    largest j a pair reaches (:func:`_reach`). One pass finds each order's cap,
    live pairs and jmax; each operand order's ``(D, lanes)`` is fetched once,
    to the largest j its pairs need; then each order sums nu_L,t1(j - t2) *
    nu_R,t2(j) over D_L * D_R scaled to their lcm, on the first lanes when no
    fetched lane past them holds content (rational operators over any Q(xi)),
    else by :func:`_lane_mul`, and reduces the sum once."""
    lcaps, rcaps, lnus, rnus, lcomps, rcomps = L.caps, R.caps, L.nus, R.nus, L.comps, R.comps
    out, plan, rl, nl = Factor(L.k, {}, {}), [], {}, {}
    rr, nr = (rl, nl) if L is R else ({}, {})
    for t, pairs in sorted(pairs_by_t.items()):
        cap, jmax, m0, kept = INF, -1, max(0, t), []
        for t1, t2 in pairs if lcaps or rcaps else ():
            c = rcaps.get(t2, INF) - t1
            if c < cap:
                cap = c
            c = lcaps.get(t1, INF)
            if c < cap:
                cap = c
        live = [(t1, t2) for t1, t2 in pairs
                if (t1 in lnus or lcomps.get(t1)) and (t2 in rnus or rcomps.get(t2))]
        if cap != INF:
            jmax = out.caps[t] = int(cap)
            jmax += t
        else:
            for t1, t2 in live:
                r = (rl[t1] if t1 in rl else _reach(L, t1, nl.get(t1, -1), rl)) + (
                    rr[t2] if t2 in rr else _reach(R, t2, nr.get(t2, -1), rr))
                if r > jmax:
                    jmax = r
        for t1, t2 in live:
            j0 = t2 if t2 > m0 else m0
            if j0 <= jmax:
                kept.append((t1, t2, j0))
                if nr.get(t2, -1) < jmax:
                    nr[t2] = jmax
                if nl.get(t1, -1) < jmax - t2:
                    nl[t1] = jmax - t2
        if kept:
            plan.append((t, jmax, kept))
    lv = {u: L.nu(u, j) for u, j in nl.items()}
    rv = lv if L is R else {u: R.nu(u, j) for u, j in nr.items()}
    phi = cyclotomic_poly(L.k)
    mixed = len(phi) > 2 and any(any(map(any, x[1:])) for v in (lv, rv) for _, x in v.values())
    for t, jmax, kept in plan:
        terms = [(lv[t1], rv[t2], t2, j0) for t1, t2, j0 in kept]
        if mixed:
            held = _lane_total(L.k, jmax, [(dl * dr, _lane_mul(
                phi, [x[j0:jmax + 1] for x in nur], [y[j0 - t2:jmax + 1 - t2] for y in nul]), j0)
                for (dl, nul), (dr, nur), t2, j0 in terms])
        else:
            den, acc = math.lcm(*[a[0] * b[0] for a, b, _, _ in terms]), [0] * (jmax + 1)
            for (dl, nul), (dr, nur), t2, j0 in terms:
                s, x, y = den // (dl * dr), nur[0], nul[0]
                for j in range(j0, jmax + 1):
                    acc[j] += s * x[j] * y[j - t2]
            held = any(acc) and _reduced(den, (acc, *[[0] * (jmax + 1) for _ in phi[2:]]))
        if held:
            out.nus[t] = (*held, None)
    return out


def _reach(F: Factor, t: int, n: int, memo: dict) -> int:
    """:meth:`Factor.reach` of exact order t once fetches reached j = n, kept in
    ``memo`` unless a later fetch may change it: lanes held alone reach their
    end until :meth:`Factor.nu` rebuilds them, which may cut it to the degree."""
    e = F.nus.get(t)
    if e and e[2] is None and not F.comps.get(t) and n < len(e[1][0]):
        return len(e[1][0]) - 1
    F.nu(t, n)  # what the fetches so far have done
    memo[t] = r = F.reach(t)
    return r


def order_product(t: int, pairs, L: Factor, R: Factor):
    """:func:`_sweep` of the one order t: ``(D, lanes)`` (None when it vanishes) and cap."""
    F = _sweep({t: pairs}, L, R)
    return F.nus[t][:2] if t in F.nus else None, F.caps.get(t, INF)


def _op_mul(A: GradedOp, B: GradedOp) -> GradedOp:
    top = A.top + B.top
    floor = product_floor(A, B)
    if floor is not None and floor > top:
        raise TruncationError(
            "product window is empty: the factor windows are too shallow",
            {"result_floor": floor, "result_top": top,
             "needed_extra_depth": floor - top})

    pairs: dict[int, list[tuple[int, int]]] = {}
    act_b = B.active_orders()
    for ta in A.active_orders():
        for tb in act_b:
            if floor is None or ta + tb >= floor:
                pairs.setdefault(ta + tb, []).append((ta, tb))
    return _op_of_products(pairs, A._factor, B._factor, floor, top)


def _op_of_products(pairs: dict, L: Factor, R: Factor, floor, top) -> GradedOp:
    """Unchecked ``GradedOp`` over the factor ``_sweep(pairs, L, R)``."""
    out = _sweep(pairs, L, R)
    return _op_of(out, out.nus, floor, top, out.caps)


# -- named operations -------------------------------------------------------------


def mono_mul(a: XdMonomial, b: XdMonomial) -> GradedOp:
    """Product of two monomials by the Leibniz expansion (oracle route)."""
    k = a.coeff.k
    if b.coeff.k != k:
        raise ContextMismatchError("cyclotomic order mismatch in mono_mul")
    items = []
    for j in range(0, min(a.ddeg, b.xdeg) + 1):
        f = math.comb(a.ddeg, j) * math.perm(b.xdeg, j)
        if f:
            items.append((a.xdeg + b.xdeg - j, a.ddeg + b.ddeg - j, a.coeff * b.coeff * f))
    return GradedOp.from_monomials(k, items)


def commutator(A: GradedOp, B: GradedOp) -> GradedOp:
    return A * B - B * A


def ad_pow(q: int, A: GradedOp, a: int) -> GradedOp:
    """(ad d^q)^a applied to A."""
    if q <= 0 or a < 0:
        raise PreconditionError("ad_pow needs q >= 1 and a >= 0")
    dq = GradedOp.d_op(A.k, q)
    out = A
    for _ in range(a):
        out = commutator(dq, out)
    return out


def poly_from_pairs(k: int, pairs) -> dict[int, CycloScalar]:
    out = {}
    for n, c in pairs:
        c = as_scalar(k, c)
        if not c.is_zero():
            out[n] = out.get(n, CycloScalar.zero(k)) + c
    return {n: c for n, c in out.items() if not c.is_zero()}
