"""Schur conjugation: S with S^-1 Q S = d^q, and normal forms P' = S^-1 P S.

S = 1 + (terms of negative order) is solved one homogeneous order at a time.
Order q + t of Q S = S d^q reads [d^q, S_t] = -R_t, where

    R_t = sum of Q_a S_b over a + b = q + t with t < b <= 0

is the part of Q S at that order fixed by the orders S_0 .. S_(t+1) already
solved (the remaining term Q_q S_t = d^q S_t is the unknown). R_t is one call
of the operator kernel's single-order product, ``operators.order_product``,
on exactly these pairs, so its x-window follows the product rule
min(xcap_Q(a), xcap_S(b) - a); the nu sequences of Q's components and of each
solved S_b are computed once and reused by every later order.
:func:`invert_unit` solves S^-1 the same way, one kernel sweep (``_sweep``) per
order of S T = 1. Q and S keep the solve's factors (``operators.Factor``),
as S^-1 keeps its own, so the verification products and the conjugation
extend those sequences.

Each homogeneous solve is an upward x-degree recurrence: the
equation at degree m determines s_(m+q) with the nonzero factor
comb(q,q) * (m+q)!/m!, and the q+t free low-degree coefficients (the kernel
of ad d^q, i.e. centralizer directions) are pinned to zero. The gauge is
therefore deterministic: recomputing at a larger depth extends the earlier
coefficients and never changes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    NotAnHcpError,
    PreconditionError,
    PropertyViolation,
    TruncationError,
)
from .gform import AqkReport, Hcp, HcpSeries, check_Aqk, fit_hcp
from .operators import (INF, Factor, GradedOp, _comp_of_lanes, _op_of, _op_of_products,
                        order_product)
from .scalars import CycloScalar


@dataclass
class SchurPair:
    """Conjugator S (order 0, S_0 = 1), its inverse, and the achieved window."""

    S: GradedOp
    Sinv: GradedOp
    q: int
    depth: int
    xcap: int
    verified: bool


def _require_diffop(A: GradedOp, name: str, max_ddeg: int):
    for t, comp in A.components.items():
        for n in comp:
            if n + t > max_ddeg:
                raise PreconditionError(
                    f"{name} has a monomial of d-degree {n + t}, above its order")


def schur_operator(Q: GradedOp, depth: int, xcap: int | None = None) -> SchurPair:
    """Compute S with S^-1 Q S = d^q exact down to ``depth`` orders below q.

    Q must be monic and normalized with ord(Q) = deg(Q) = q > 0. Q may carry
    a truncated window as long as it is deep enough to determine every
    requested order of S.
    """
    if depth < 1:
        raise PreconditionError("depth must be positive")
    if xcap is not None and xcap < 0:
        raise PreconditionError("xcap must be nonnegative")
    q = Q.ord()
    if q <= 0:
        raise PreconditionError("ord(Q) must be positive")
    if not Q.is_monic():
        raise PreconditionError("Q must be monic")
    if not Q.is_normalized():
        raise PreconditionError("Q must be normalized (no d^(q-1) term)")
    _require_diffop(Q, "Q", q)
    if xcap is None:
        xcap = 24 + q
    X = xcap
    k = Q.k
    one = CycloScalar.one(k)

    s_comps: dict[int, dict[int, CycloScalar]] = {0: {0: one}}
    s_caps: dict[int, int] = {}
    left, right = Q._factor, Factor(k, s_comps, s_caps)
    q_active = set(Q.active_orders())
    for t in range(-1, -depth - 1, -1):
        if Q.floor is not None and q + t < Q.floor:
            raise TruncationError(
                "Q's window is too shallow for the requested Schur depth",
                {"q_floor": Q.floor, "depth_reachable": q - Q.floor})
        pairs = [(q + t - b, b) for b in range(t + 1, 1) if q + t - b in q_active]
        held, cap = order_product(q + t, pairs, left, right)
        if cap < X - q:
            raise TruncationError("insufficient x-window while solving S",
                                  {"order": t, "xcap": cap})
        r_t = {} if held is None else _comp_of_lanes(k, held[1], held[0], q + t)
        n_min = max(0, -t)
        m_min = max(0, -(q + t))
        assert all(m >= m_min for m in r_t), "content below the structural range"
        s: dict[int, CycloScalar] = {}
        for m in range(m_min, X - q + 1):
            val = r_t.get(m)
            for j in range(1, q):
                sn = s.get(m + j)
                if sn is not None:
                    sn = sn * (math.comb(q, j) * math.perm(m + j, j))
                    val = sn if val is None else val + sn
            if val is not None and not val.is_zero():
                s[m + q] = val * Fraction(-1, math.perm(m + q, q))
        s = {n: c for n, c in s.items() if n >= n_min}
        if s:
            s_comps[t] = s
        s_caps[t] = X

    S = _op_of(right, s_comps, -depth, 0, s_caps)
    Sinv = invert_unit(S)
    _assert_is_d_power(Sinv * (Q * S), q)
    return SchurPair(S=S, Sinv=Sinv, q=q, depth=depth, xcap=X, verified=True)


def _assert_is_d_power(Z: GradedOp, q: int):
    """Z is d^q on its window: the conjugation S^-1 Q S, or with q = 0 a
    product S T of a unit and its inverse. Checked on Z's lanes: order q's
    are D * perm(j, q) and 0 at every j that determines it, no other order
    holds content, and only a failure builds coefficients, for its message.
    Order q must hold content wherever its cap reaches x^0.
    """
    F = Z._factor
    if q not in Z.components and Z.xcap(q) >= 0:
        raise PropertyViolation(f"expected d^{q}: nothing at order {q}")
    for t in Z.components:
        if t != q:
            raise PropertyViolation(f"expected d^{q}: residual at order {t}: {Z.components[t]}")
        jmax = F.reach(t, Z.xcap(t))
        den, lanes = F.nu(t, jmax)
        if (lanes[0][:jmax + 1] != [den * math.perm(j, q) for j in range(jmax + 1)]
                or any(any(lane[:jmax + 1]) for lane in lanes[1:])):
            raise PropertyViolation(f"expected d^{q}: the top symbol is perturbed")


def invert_unit(S: GradedOp) -> GradedOp:
    """Inverse T of S = 1 + (negative orders), solved order by order.

    Order t < 0 of S T = 1 gives T_t = -(S_t + R_t), R_t the sum of
    S_t1 * T_(t-t1) over t < t1 < 0: one ``operators._sweep`` of order t on
    the pairs active in S and in the solve's factor, so the window rule holds
    pair by pair. The pair with T_0 = 1 is the view S_t, no product. The
    solve's factor, which T keeps, takes order t from the negation's lanes,
    so no nu sequence is computed twice and T's coefficients are built only
    where something reads them.

    Without a floor S must be 1: the inverse of 1 + N, N != 0 of negative
    orders, has infinitely many orders.
    """
    k = S.k
    if S.top != 0 or S.components.get(0) != {0: CycloScalar.one(k)}:
        raise PreconditionError("invert_unit needs ord(S) = 0 with S_0 = 1")
    active = [t1 for t1 in S.active_orders() if t1 < 0]
    floor = S.floor
    if floor is None and active:
        raise PreconditionError("invert_unit needs a floor on S: the inverse of "
                                "1 + (negative orders) has infinitely many orders")
    lo = 0 if floor is None else floor
    t_caps: dict[int, int] = {}
    tf = Factor(k, {0: {0: CycloScalar.one(k)}}, t_caps)
    for t in range(-1, lo - 1, -1):
        pairs = [(t1, t - t1) for t1 in active
                 if t1 > t and (tf.holds(t - t1) or t - t1 in t_caps)]
        acc = S.component_as_op(t) + _op_of_products({t: pairs}, S._factor, tf, None, t)
        neg = -acc
        if t in neg.components:
            tf.take(t, neg._factor)
        cap = acc.xcap(t)
        if cap != INF:
            t_caps[t] = int(cap)
    T = _op_of(tf, [t for t in range(lo, 1) if tf.holds(t)], floor, 0, t_caps)
    _assert_is_d_power(S * T, 0)
    _assert_is_d_power(T * S, 0)
    return T


@dataclass
class NormalFormResult:
    """Normal form of P with respect to Q, with fit and check diagnostics."""

    series: HcpSeries
    schur: SchurPair
    conjugated: GradedOp
    aqk: AqkReport
    below_window_nonzero: bool
    fitted_orders: list[int] = field(default_factory=list)
    escalated_orders: list[int] = field(default_factory=list)


FIT_MARGIN = 8  # eigenvalue samples each G-form fit checks beyond its unknowns


def default_fit_xcap(p: int, q: int, depth: int) -> int:
    """x-window needed to fit every component at the default bounds,
    with room for one bound escalation and the cap loss of conjugation."""
    return q * (min(depth, p) + 2) + FIT_MARGIN + p + 4


def normal_form_report(P: GradedOp, Q: GradedOp, depth: int) -> NormalFormResult:
    if P.k != Q.k:
        raise PreconditionError("P and Q must share a scalar context")
    p = P.ord()
    q = Q.ord()
    if q <= 0:
        raise PreconditionError("ord(Q) must be positive")
    if not P.is_monic():
        raise PreconditionError("P must be monic")
    _require_diffop(P, "P", p)
    # The fitted presentation lives over Q(xi) with xi a primitive q-th root.
    if P.k != q:
        P = P.lift_context(q)
        Q = Q.lift_context(q)
    X = default_fit_xcap(p, q, depth)
    pair = schur_operator(Q, depth=depth, xcap=X)
    conj = pair.Sinv * (P * pair.S)

    comps: dict[int, Hcp] = {}
    fitted: list[int] = []
    escalated: list[int] = []
    lo = max(0, p - depth)
    for t in range(p, lo - 1, -1):
        if t not in conj.components:
            continue
        single = conj.component_as_op(t)
        i = p - t
        dmax = max(i - 1, 0)
        try:
            h = fit_hcp(single, dmax=dmax, nbmax=0, margin=FIT_MARGIN, r=t)
        except NotAnHcpError:
            escalated.append(t)
            try:
                h = fit_hcp(single, dmax=dmax + 2, nbmax=0, margin=FIT_MARGIN, r=t)
            except NotAnHcpError as exc:
                raise TruncationError(
                    f"component at order {t} did not fit; this is evidence of "
                    f"insufficient depth or bounds, not of non-representability",
                    {"order": t, "dmax_tried": dmax + 2}) from exc
        comps[t] = h
        fitted.append(t)

    series = HcpSeries(Q.k, comps, floor=lo, top=p)
    aqk = check_Aqk(series, 0)
    if not aqk.ok:
        raise PropertyViolation(
            f"normal form failed its shape condition (clause {aqk.clause}: {aqk.detail}); "
            "this contradicts the guaranteed contract for differential pairs")
    below = False
    flo = conj.floor if conj.floor is not None else min(conj.components, default=0)
    for t in range(int(flo), 0):
        if t in conj.components:
            below = True
            break
    return NormalFormResult(series=series, schur=pair, conjugated=conj, aqk=aqk,
                            below_window_nonzero=below, fitted_orders=fitted,
                            escalated_orders=escalated)


def normal_form(P: GradedOp, Q: GradedOp, depth: int) -> HcpSeries:
    """P' = S^-1 P S as an HCP series on orders max(0, p-depth)..p."""
    return normal_form_report(P, Q, depth).series
