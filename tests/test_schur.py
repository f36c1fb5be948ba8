"""Schur conjugation contract, unit inversion, and normal forms."""

from fractions import Fraction
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from weylnf import operators, schur
from weylnf.errors import NotAnHcpError, PreconditionError, PropertyViolation, TruncationError
from weylnf.fixtures import kdv_pair
from weylnf.gform import check_Aqk
from weylnf.operators import GradedOp, commutator
from weylnf.parsing import parse_operator
from weylnf.scalars import CycloScalar, xi_pow
from weylnf.schur import (default_fit_xcap, invert_unit, normal_form, normal_form_report,
                          schur_operator)


def op(k, *items):
    return GradedOp.from_monomials(k, items)


def test_schur_of_pure_power_is_identity():
    sp = schur_operator(GradedOp.d_op(2, 2), depth=4)
    assert sp.S.components == {0: {0: CycloScalar.one(2)}}
    assert sp.verified


def test_schur_airy_operator():
    Q = op(1, (0, 2, 1), (1, 0, 1))  # d^2 + x
    sp = schur_operator(Q, depth=6, xcap=20)
    assert sp.verified
    # first correction solves [d^2, S_{-3}] = -x: S_{-3} = -(1/6) x^3 d^0 + ...
    assert sp.S.components[-3][3] == CycloScalar.from_rational(1, Fraction(-1, 6))
    assert -1 not in sp.S.components and -2 not in sp.S.components


def test_schur_rejects_non_normalized():
    Q = op(1, (0, 2, 1), (0, 1, 1), (1, 0, 1))  # d^2 + d + x
    with pytest.raises(PreconditionError):
        schur_operator(Q, depth=3)


def test_schur_rejects_negative_xcap():
    Q = op(1, (0, 2, 1), (1, 0, 1))  # d^2 + x
    with pytest.raises(PreconditionError):
        schur_operator(Q, depth=2, xcap=-1)


def test_schur_gauge_extends_with_depth():
    for items in [[(0, 2, 1), (1, 0, 1)], [(0, 2, 1), (2, 0, 1)],
                  [(0, 3, 1), (1, 1, 1), (2, 0, 1)]]:
        Q = op(1, *items)
        a = schur_operator(Q, depth=5, xcap=18)
        b = schur_operator(Q, depth=9, xcap=18)
        assert a.S.agrees_with(b.S)
        assert a.Sinv.agrees_with(b.Sinv)


def _assert_factor_describes(A):
    """A's factor holds A's content at every order: the same orders, caps and
    coefficients, and lanes whose values are the nu sequence of A's component."""
    F = A._factor
    k = A.k
    for t in A.active_orders():
        comp = A.components.get(t, {})
        assert F.holds(t) == bool(comp)
        assert F.caps.get(t, math.inf) == A.xcap(t)
        if t in F.comps:
            assert F.comps[t] == comp
        if t in F.nus:
            den, lanes, _ = F.nus[t]
            got = [CycloScalar(k, [Fraction(lane[j], den) for lane in lanes])
                   for j in range(len(lanes[0]))]
            assert got == [sum((c * math.perm(j, n + t) for n, c in comp.items()),
                               CycloScalar.zero(k)) for j in range(len(got))]


def test_schur_builds_each_nu_sequence_once(monkeypatch):
    builds = []
    rows = operators._difference_rows

    def counted(comp, t, k):
        builds.append(t)
        return rows(comp, t, k)

    Q = parse_operator("d^3 + x*d + x^2")
    monkeypatch.setattr(operators, "_difference_rows", counted)
    pair = schur_operator(Q, depth=16, xcap=47)
    assert pair.verified
    comps = len(Q.components) + len(pair.S.components) + len(pair.Sinv.components)
    assert len(builds) <= 2 * comps
    # Once per component of Q, S, Sinv and the verification's Q S.
    assert len(builds) <= comps + len((Q * pair.S).components)
    # S and Sinv keep the factors of their solves, filled and describing them.
    for A in (pair.S, pair.Sinv):
        assert A._factor.nus
        _assert_factor_describes(A)


def test_invert_unit_shares_its_factors():
    S = GradedOp.one(1) + op(1, (2, 1, 1), (1, 0, 1), (3, 0, 2))
    S = S.restrict(floor=-6, xcap=9)
    T = invert_unit(S)
    _assert_factor_describes(S)
    _assert_factor_describes(T)
    assert T == invert_unit(GradedOp.from_dict(S.to_dict()))


def test_normal_form_report_builds_few_coefficient_orders(monkeypatch):
    # Products hold their orders as lanes and the fits read those lanes;
    # coefficients are built only for the Schur recurrence's orders and the
    # few orders something else reads, not for every product of the chain.
    built = []
    real = operators._comp_of_lanes

    def counted(k, lanes, den, t):
        built.append(t)
        return real(k, lanes, den, t)

    monkeypatch.setattr(operators, "_comp_of_lanes", counted)
    monkeypatch.setattr(schur, "_comp_of_lanes", counted, raising=False)
    res = normal_form_report(parse_operator("d^5 + x^2*d"), parse_operator("d^3 + x*d + x^2"),
                             depth=8)
    assert res.schur.verified and res.aqk.ok
    assert len(built) <= 16, built


@pytest.mark.parametrize("k, lane, j", [(1, 0, 0), (1, 0, 5), (3, 0, 2), (3, 1, 4)])
def test_d_power_check_reads_the_lanes(k, lane, j):
    # A planted defect in one lane entry of S * T, held as lanes, is caught
    # whether or not its coefficients were read before.
    S = (GradedOp.one(1) + op(1, (2, 1, 1), (1, 0, 1), (3, 0, 2))).lift_context(k)
    S = S.restrict(floor=-6, xcap=9)
    T = invert_unit(S)
    for read_first in (False, True):
        Z = S * T
        schur._assert_is_d_power(Z, 0)
        if read_first:
            assert Z.components == {0: {0: CycloScalar.one(k)}}
        Z._factor.nus[0][1][lane][j] += 1
        with pytest.raises(PropertyViolation, match="top symbol is perturbed"):
            schur._assert_is_d_power(Z, 0)


@pytest.mark.parametrize("Z, q", [(GradedOp.zero(1), 0), (GradedOp.zero(1), 3),
                                  (GradedOp(1, {}, -4, 0, {}), 0)])
def test_d_power_check_needs_order_q(Z, q):
    # A verification product that vanished on its window is no d^q.
    with pytest.raises(PropertyViolation, match=f"nothing at order {q}"):
        schur._assert_is_d_power(Z, q)


def test_d_power_check_passes_real_products():
    Q = parse_operator("d^3 + x*d + x^2")
    pair = schur_operator(Q, depth=8, xcap=30)
    schur._assert_is_d_power(pair.S * pair.Sinv, 0)
    schur._assert_is_d_power(pair.Sinv * pair.S, 0)
    schur._assert_is_d_power(pair.Sinv * (Q * pair.S), 3)
    # Order q below the window, or with a negative cap, holds nothing known.
    schur._assert_is_d_power(GradedOp(1, {}, 1, 2, {}), 0)
    schur._assert_is_d_power(GradedOp(1, {}, None, 0, {0: -1}), 0)


@pytest.mark.parametrize("q_src", ["9", "x", "x^2 + 1"])
def test_normal_form_rejects_a_q_of_order_below_one(q_src):
    with pytest.raises(PreconditionError, match=r"ord\(Q\) must be positive"):
        normal_form_report(parse_operator("d^3"), parse_operator(q_src), depth=4)


def test_invert_unit_geometric_series():
    S = op(1, (0, 0, 1), (1, 0, 1))  # 1 + x
    T = invert_unit(S.restrict(floor=-5))
    for n in range(6):
        assert T.components.get(-n, {}).get(n) == CycloScalar.from_rational(1, (-1) ** n)


def test_schur_window_errors():
    Q = op(1, (0, 2, 1), (1, 0, 1))  # d^2 + x
    with pytest.raises(TruncationError) as err:
        schur_operator(Q.restrict(floor=0), depth=3)
    assert str(err.value) == "Q's window is too shallow for the requested Schur depth"
    assert err.value.required == {"q_floor": 0, "depth_reachable": 2}
    with pytest.raises(TruncationError) as err:
        schur_operator(Q.restrict(xcap=10), depth=4, xcap=20)
    assert str(err.value) == "insufficient x-window while solving S"
    assert err.value.required == {"order": -1, "xcap": 10}


def test_invert_unit_propagates_finite_caps():
    # S = 1 + x + 2 x^2 d - x^3 with finite caps; order -4 has a cap and no
    # content, so it limits T_-4 and T_-5 although it adds nothing to them.
    base = op(1, (0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 0, -1))
    S = GradedOp(1, base.components, -5, 0, {-1: 6, -2: 5, -3: 7, -4: 3})
    T = invert_unit(S)
    assert (T.floor, T.top) == (-5, 0)
    assert T.xcaps == {-1: 6, -2: 5, -3: 5, -4: 3, -5: 3}
    assert {t: {n: str(c) for n, c in comp.items()} for t, comp in T.components.items()} == {
        0: {0: "1"}, -1: {1: "-1", 2: "-2"}, -2: {2: "3", 3: "12", 4: "4"},
        -3: {3: "-14", 4: "-90", 5: "-60"}}


def test_invert_unit_identity():
    assert invert_unit(GradedOp.one(1)) == GradedOp.one(1)


@pytest.mark.parametrize("S", [op(1, (0, 0, 1), (1, 0, 1)),  # 1 + x
                               GradedOp(1, {0: {0: CycloScalar.one(1)}}, None, 0, {-3: 5})])
def test_invert_unit_needs_a_floor_below_one(S):
    # With no floor, an active negative order (content, or a cap alone)
    # makes the inverse infinite: a precondition, not a failed verification.
    with pytest.raises(PreconditionError, match="needs a floor"):
        invert_unit(S)


def _reference_invert_unit(S):
    """The pairwise solve: T_t = -(S_t + sum of S_t1 * T_(t-t1), t < t1 < 0),
    one ``_op_mul`` per pair and one operator sum per summand, each T_t an
    operator of its own built by the checked constructor."""
    k = S.k
    ops1 = {t1: S.component_as_op(t1) for t1 in S.active_orders() if t1 < 0}
    comps, caps, ops2 = {0: {0: CycloScalar.one(k)}}, {}, {}
    for t in range(-1, S.floor - 1, -1):
        acc = GradedOp.zero(k)
        for t1 in range(t, 0):
            if t1 in ops1:
                acc = acc + (ops1[t1] if t1 == t else operators._op_mul(ops1[t1], ops2[t - t1]))
        comp = (-acc).components.get(t)
        if comp:
            comps[t] = comp
        if acc.xcap(t) != math.inf:
            caps[t] = acc.xcap(t)
        ops2[t] = GradedOp(k, {t: comp} if comp else {}, None, t, {t: caps[t]} if t in caps else {})
    return GradedOp(k, comps, S.floor, 0, caps)


@st.composite
def _units(draw):
    """S = 1 + (negative orders) over Q(xi_k) with a floor, some finite caps,
    and orders with content, with a cap and no content, or absent."""
    k = draw(st.sampled_from([1, 2, 3]))
    floor = draw(st.integers(-6, -1))
    scalars = st.builds(lambda a, b, e: a + b * xi_pow(k, e),
                        st.fractions(-3, 3, max_denominator=4),
                        st.fractions(-3, 3, max_denominator=4), st.integers(0, k - 1))
    comps, caps = {0: {0: CycloScalar.one(k)}}, {}
    for t in range(floor, 0):
        kind = draw(st.sampled_from(["content", "content", "capped", "absent"]))
        if kind == "content":
            n0 = -t
            comps[t] = {n: draw(scalars) for n in draw(st.sets(st.integers(n0, n0 + 4),
                                                                   min_size=1, max_size=3))}
        if kind == "capped" or draw(st.booleans()):
            caps[t] = draw(st.integers(0, 10))
    if draw(st.booleans()):
        caps[0] = draw(st.integers(0, 10))
    return GradedOp(k, comps, floor, 0, caps)


@given(_units())
@settings(max_examples=100, deadline=None)
def test_invert_unit_matches_the_pairwise_solve(S):
    T = invert_unit(S)
    ref = _reference_invert_unit(S)
    assert (T.floor, T.top, T.xcaps, T.components) == (ref.floor, ref.top, ref.xcaps,
                                                      ref.components)
    _assert_factor_describes(T)


def test_invert_unit_calls_the_kernel_once_per_order(monkeypatch):
    # nf-k3's S: each order of T is one sweep of the kernel over that order
    # alone; the only products are the verification's S T and T S, one
    # sweep each.
    Q = parse_operator("d^3 + x*d + x^2").lift_context(3)
    S = schur_operator(Q, depth=8, xcap=default_fit_xcap(5, 3, 8)).S
    kernel, products = [], []
    real_sweep, real_mul = operators._sweep, operators._op_mul
    monkeypatch.setattr(operators, "_sweep",
                        lambda pairs, *args: kernel.append([*pairs]) or real_sweep(pairs, *args))
    monkeypatch.setattr(operators, "_op_mul",
                        lambda A, B: products.append(len(kernel)) or real_mul(A, B))
    assert invert_unit(S).floor == -8
    assert kernel[:8] == [[t] for t in range(-1, -9, -1)]
    assert len(products) == 2 and products[0] == 8 and len(kernel) == 10


@pytest.mark.parametrize("Q, p", [(parse_operator("d^3 + x*d + x^2").lift_context(3), 5),
                                  (kdv_pair(24)[1].lift_context(2), 3)])
def test_schur_recurrence_negates_no_scalar(monkeypatch, Q, p):
    # Each s_(m+q) is its degree's sum times one negative rational: the
    # recurrence builds no negated scalar, zero or not.
    negated = []
    real = CycloScalar.__neg__
    monkeypatch.setattr(CycloScalar, "__neg__", lambda c: negated.append(c) or real(c))
    assert schur_operator(Q, depth=8, xcap=default_fit_xcap(p, Q.ord(), 8)).verified
    assert negated == []


def test_invert_unit_mixed_term():
    # S = 1 + x d x = 1 + x^2 d + x: inverse verified internally.
    S = GradedOp.one(1) + op(1, (2, 1, 1), (1, 0, 1))
    T = invert_unit(S.restrict(floor=-4))
    prod = S * T
    assert prod.components.get(0) == {0: CycloScalar.one(1)}


def test_normal_form_of_power_pair():
    P = GradedOp.d_op(2, 3)
    Q = GradedOp.d_op(2, 2)
    nf = normal_form(P, Q, depth=4)
    assert sorted(nf.components) == [3]
    assert nf.is_monic()


def test_normal_form_generic_shape():
    P = op(1, (0, 3, 1), (1, 0, 1))
    Q = op(1, (0, 2, 1), (1, 0, 1))
    res = normal_form_report(P, Q, depth=8)
    nf = res.series
    assert check_Aqk(nf, 0).ok
    p = nf.top_order()
    assert p == 3
    for t, h in nf.components.items():
        if t < p:
            sa = h.sdeg_a()
            assert sa is None or sa <= (p - t) - 1


def test_conjugation_is_a_homomorphism():
    k = 1
    Q = op(k, (0, 2, 1), (1, 0, 1))
    P1 = op(k, (0, 1, 1), (1, 0, 2))
    P2 = op(k, (0, 2, 1), (2, 0, 1))
    sp = schur_operator(Q, depth=6, xcap=24)
    conj = lambda A: sp.Sinv * (A * sp.S)
    lhs = conj(P1 * P2)
    rhs = conj(P1) * conj(P2)
    assert lhs.agrees_with(rhs)


def test_commuting_pair_lands_in_centralizer():
    # P = d^3 commutes with Q = d^2; also check a true coefficient pair below.
    k = 1
    Q = op(k, (0, 2, 1), (1, 0, 1))
    sp = schur_operator(Q, depth=6, xcap=20)
    Qp = sp.Sinv * (Q * sp.S)
    dq = GradedOp.d_op(k, 2)
    assert commutator(Qp, dq).is_zero_in_window()


def test_conjugation_identity_s_times_nf():
    # S * (S^-1 P S) must equal P * S: an end-to-end identity that uses only
    # multiplication, independently of the inversion route.
    for pi, qi in [
        ([(0, 3, 1), (1, 0, 1)], [(0, 2, 1), (1, 0, 1)]),
        ([(0, 5, 1), (2, 1, 1)], [(0, 2, 1), (2, 0, 1)]),
    ]:
        P = op(1, *pi)
        Q = op(1, *qi)
        sp = schur_operator(Q, depth=8, xcap=24)
        conj = sp.Sinv * (P * sp.S)
        lhs = sp.S * conj
        rhs = P * sp.S
        assert lhs.agrees_with(rhs)


def test_kdv_normal_form_commutes_with_d_q():
    from weylnf.fixtures import kdv_pair
    P, Q = kdv_pair(24)
    res = normal_form_report(P, Q, depth=8)
    Pg = res.conjugated
    dq = GradedOp.d_op(Pg.k, 2)
    assert commutator(Pg, dq).is_zero_in_window()


def test_random_conjugation_respects_window_exactness():
    rng = random.Random(55)
    Q = op(1, (0, 2, 1), (1, 0, 1))
    sp_deep = schur_operator(Q, depth=10, xcap=24)
    sp_shallow = schur_operator(Q, depth=5, xcap=24)
    P = op(1, (0, 3, 1), (2, 1, rng.randint(-3, 3)))
    deep = sp_deep.Sinv * (P * sp_deep.S)
    shallow = sp_shallow.Sinv * (P * sp_shallow.S)
    assert shallow.agrees_with(deep)


# -- fit diagnostics ---------------------------------------------------------------


def _k3_report():
    """d^5 + x^2*d over d^3 + x*d + x^2 at depth 8: fitted over Q(xi_3)."""
    return normal_form_report(parse_operator("d^5 + x^2*d"), parse_operator("d^3 + x*d + x^2"),
                              depth=8)


def _fail_fit_at(monkeypatch, order, times):
    """Make ``fit_hcp`` raise NotAnHcpError on its first ``times`` calls at ``order``."""
    real, failed = schur.fit_hcp, []

    def fit(C, dmax, nbmax, margin, r=None):
        if r == order and len(failed) < times:
            failed.append(dmax)
            raise NotAnHcpError("planted fit failure")
        return real(C, dmax, nbmax, margin, r)

    monkeypatch.setattr(schur, "fit_hcp", fit)
    return failed


def test_fit_diagnostics_of_the_k3_pair():
    res = _k3_report()
    assert res.fitted_orders == [5, 2, 0]
    assert res.escalated_orders == []


def test_fit_escalation_is_reported(monkeypatch):
    plain = _k3_report().series
    failed = _fail_fit_at(monkeypatch, 2, 1)
    res = _k3_report()
    assert failed == [2]
    assert res.escalated_orders == [2]
    assert res.fitted_orders == [5, 2, 0]
    assert res.series == plain


def test_failed_escalation_names_the_bound_tried(monkeypatch):
    failed = _fail_fit_at(monkeypatch, 2, 2)
    with pytest.raises(TruncationError) as exc:
        _k3_report()
    assert failed == [2, 4]
    assert exc.value.required == {"order": 2, "dmax_tried": 4}
