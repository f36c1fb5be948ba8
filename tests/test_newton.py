"""Newton region: point sets, weights, up-edge, classification, filtrations."""

from fractions import Fraction
import random

import pytest

from weylnf.errors import PreconditionError
from weylnf.gform import Hcp, HcpSeries
from weylnf.newton import (
    Weight,
    classify_top_line,
    convex_hull,
    e_set,
    filtration_H,
    filtration_HS,
    newton_report,
    render_svg,
    top_term,
    up_edge,
    weight_of,
)
from weylnf.suites import SIGMAS, rand_bfree_series


def series(k, *comps, floor=None):
    return HcpSeries(k, {h.r: h for h in comps}, floor=floor)


def G(k, r, gamma, bpart=None):
    return Hcp(k, r, gamma, bpart)


D5 = lambda: series(2, G(2, 5, {(0, 0): 1}))


def test_e_set_pure_power():
    nd = e_set(D5())
    assert nd.point_set() == {(0, 5)}


def test_e_set_with_flags():
    P = series(2, G(2, 5, {(0, 0): 1}), G(2, 3, {(2, 0): 1, (1, 1): 1}))
    nd = e_set(P)
    assert nd.point_set() == {(0, 5), (2, 3), (1, 3)}
    flags = {(pt.l, pt.j): pt.contains_ai for pt in nd.points}
    assert flags[(1, 3)] and not flags[(2, 3)] and not flags[(0, 5)]


def test_e_set_bpart_only_component_has_no_point():
    P = series(2, G(2, 5, {(0, 0): 1}), G(2, 2, {}, {2: 1}))
    assert e_set(P).point_set() == {(0, 5)}


def test_weight_and_top_term():
    P = series(2, G(2, 5, {(0, 0): 1}), G(2, 3, {(2, 0): 1}))
    w = Weight(1, 1)
    res = weight_of(P, w)
    assert res.value == 5 and res.exact
    tt = top_term(P, w)
    assert tt == P  # both points attain 5
    for rho in (Fraction(1), Fraction(2), Fraction(1, 2)):
        res = weight_of(D5(), Weight(Fraction(3, 7), rho))
        assert res.value == 5 * rho and res.exact


def test_weight_refuses_floats():
    for sigma, rho in ((0.1, 1), (Fraction(1, 2), 0.5), (1.0, 1)):
        with pytest.raises(PreconditionError, match="float"):
            Weight(sigma, rho)
    assert Weight("1/10", 2) == Weight(Fraction(1, 10), Fraction(2))


def test_filtration_thresholds_refuse_floats():
    # 2.1 is stored as a dyadic just above 21/10, the weight of Gamma_1 D^2.
    P, w = series(1, G(1, 2, {(1, 0): 1})), Weight("1/10")
    assert not filtration_H(P, Fraction(21, 10), w).is_zero_in_window()
    for filtered in (lambda: filtration_H(P, 2.1, w), lambda: filtration_HS(P, 2.1, 1, w)):
        with pytest.raises(PreconditionError, match="float"):
            filtered()


def _reference_exact(P, w, sup, growth):
    """The certification rule of ``weight_of`` in Fractions."""
    if P.floor is None:
        return True
    if not growth or not P.components or w.sigma > w.rho:
        return False
    p = P.top_order()
    i = p - P.floor + 1
    bound = w.rho * p - w.sigma if w.sigma == w.rho else w.sigma * (i - 1) + w.rho * (p - i)
    return sup is not None and sup >= bound


def test_weight_of_and_top_term_match_the_fraction_definition():
    # weight_of and top_term read the weight's integer form; the literal
    # definition evaluates sigma*l + rho*j in Fractions.
    rng = random.Random(59)
    for case in range(30):
        k = rng.choice((1, 2, 3))
        P = rand_bfree_series(rng, k, rng.randint(2, 6))
        if case % 3 == 0:
            P = P.restrict_floor(max(P.components) - rng.randint(0, 3))
        w = Weight(rng.choice(SIGMAS + (Fraction(2, 3), Fraction(5, 4))),
                   rng.choice((Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 3))))
        vals = {(pt.l, pt.j): w.sigma * pt.l + w.rho * pt.j for pt in e_set(P).points}
        sup = max(vals.values(), default=None)
        for growth in (False, True):
            res = weight_of(P, w, assume_growth_bound=growth)
            assert res.value == sup and type(res.value) is type(sup)
            assert res.exact == _reference_exact(P, w, sup, growth)
        comps = {}
        for j, h in P.components.items():
            gamma = {(l, i): c for (l, i), c in h.gamma.items()
                     if w.sigma * l + w.rho * j == sup}
            if gamma:
                comps[j] = Hcp(k, j, gamma)
        assert top_term(P, w) == HcpSeries(k, comps)


def test_weight_value_matches_the_fraction_definition():
    for sigma in SIGMAS + (Fraction(2, 3), Fraction(5, 4)):
        for rho in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1, 3)):
            w = Weight(sigma, rho)
            for l in range(6):
                for j in range(6):
                    assert w.value(l, j) == sigma * l + rho * j
    # The cached integer form is no part of equality, hash or repr.
    half = Weight("2/4", 1)
    assert half == Weight(Fraction(1, 2)) and hash(half) == hash(Weight(Fraction(1, 2)))
    assert repr(half) == "Weight(sigma=Fraction(1, 2), rho=Fraction(1, 1))"


def test_weight_growth_bound_certifies_11():
    # Truncated window under the shape condition: (1,1) weight equals p.
    P = series(2, G(2, 5, {(0, 0): 1}), G(2, 3, {(1, 0): 1}), floor=3)
    res = weight_of(P, Weight(1, 1), assume_growth_bound=True)
    assert res.value == 5 and res.exact
    res2 = weight_of(P, Weight(2, 1), assume_growth_bound=True)
    assert not res2.exact


def test_top_term_empty_is_zero_series():
    P = series(2, G(2, 2, {}, {1: 1}))
    assert top_term(P, Weight(1, 1)).is_zero_in_window()


def test_up_edge_examples():
    P = series(2, G(2, 5, {(0, 0): 1}), G(2, 3, {(2, 0): 1}))
    assert up_edge(P) == [(0, 5), (2, 3)]
    assert up_edge(D5()) == [(0, 5)]
    P2 = series(2, G(2, 5, {(0, 0): 1}), G(2, 4, {(1, 0): 1}), G(2, 3, {(1, 0): 1}))
    assert up_edge(P2) == [(0, 5), (1, 4)]


def test_classify_restriction_total():
    P = series(2, G(2, 5, {(0, 0): 1}), G(2, 3, {(2, 0): 1}))
    cls = classify_top_line(P)
    assert cls.variant == "restriction"
    assert cls.sigma == 1
    assert cls.vertices == [(0, 5), (2, 3)]
    assert not cls.tentative


def test_classify_sdeg_zero():
    cls = classify_top_line(D5())
    assert cls.variant == "sdeg_zero" and not cls.tentative
    trunc = series(2, G(2, 5, {(0, 0): 1}), G(2, 4, {(0, 1): 1}), floor=2)
    cls2 = classify_top_line(trunc)
    assert cls2.variant == "sdeg_zero" and cls2.tentative


def test_classify_asymptotic_pattern():
    comps = [G(2, 5, {(0, 0): 1})]
    for i in range(1, 6):
        comps.append(G(2, 5 - i, {(i - 1, 0): 1}))
    P = series(2, *comps, floor=0)
    cls = classify_top_line(P)
    assert cls.variant == "asymptotic"
    assert cls.sigma == 1
    assert cls.tentative


def test_classify_truncated_restriction_is_tentative():
    P = series(2, G(2, 5, {(0, 0): 1}), G(2, 3, {(1, 0): 1}), floor=3)
    cls = classify_top_line(P)
    assert cls.variant == "restriction" and cls.sigma == 2 and cls.tentative


def test_classify_requires_condition():
    P = series(2, G(2, 5, {(0, 1): 1}))  # top contains A_1
    with pytest.raises(PreconditionError):
        classify_top_line(P)


def test_filtration_H_examples():
    w = Weight(1, 1)
    P = series(2, G(2, 5, {(0, 0): 1}), G(2, 3, {(2, 0): 1}))
    assert filtration_H(P, Fraction(6), w).is_zero_in_window()
    P2 = series(2, G(2, 5, {(0, 0): 1}), G(2, 3, {(2, 0): 1, (1, 0): 1}))
    assert filtration_H(P2, Fraction(5), w) == P
    assert filtration_H(P2, Fraction(-100), w) == P2


def test_filtration_HS_examples():
    w = Weight(1, 1)
    P = series(2, G(2, 5, {(0, 0): 1}), G(2, 3, {(2, 0): 1}))
    assert filtration_HS(P, Fraction(5), 0, w) == D5()
    assert filtration_HS(P, Fraction(5), 2, w) == P
    assert filtration_HS(P, Fraction(5), 1, w) == D5()


def _reference_filtration(L, d, m, w):
    """The literal definition: keep monomials with sigma*l + rho*j >= d and l <= m."""
    comps = {}
    for j, h in L.components.items():
        gamma = {(l, i): c for (l, i), c in h.gamma.items()
                 if (m is None or l <= m) and w.sigma * l + w.rho * j >= d}
        if gamma:
            comps[j] = Hcp(L.k, j, gamma)
    return HcpSeries(L.k, comps, L.floor, L.top)


def test_filtration_matches_reference():
    rng = random.Random(53)
    for case in range(24):
        k = rng.choice((2, 3, 4))
        L = rand_bfree_series(rng, k, rng.randint(3, 6))
        if case % 3 == 0:
            L = L.restrict_floor(rng.randint(0, 3))
        if case % 4 == 0:
            top = max(L.components)
            L = L + G(k, top, {}, {2: 1})  # a B part, which no filtration keeps
        for sigma in SIGMAS:
            for rho in (1, 2):
                w = Weight(sigma, rho)
                l0, j0 = rng.choice(sorted(e_set(L).point_set()))
                on_level = w.value(l0, j0)
                for d in (Fraction(-3), Fraction(-1, 2), on_level, on_level + Fraction(1, 3),
                          on_level - Fraction(2, 3), Fraction(j0)):
                    assert filtration_H(L, d, w) == _reference_filtration(L, d, None, w)
                    for m in range(5):
                        assert filtration_HS(L, d, m, w) == _reference_filtration(L, d, m, w)
                # The suite's keep-all threshold, and an m above every Gamma index:
                # L itself comes back, unless a B part has to be dropped.
                low, m = Fraction(-10 ** 6), max(pt.l for pt in e_set(L).points) + 1
                for kept in (filtration_H(L, low, w), filtration_HS(L, low, m, w)):
                    assert (kept.floor, kept.top) == (L.floor, L.top)
                    assert kept == _reference_filtration(L, low, None, w)
                    assert (kept == L) != (case % 4 == 0)
                    assert not any(h.bpart for h in kept.components.values())


def _gauge_unit(k, c):
    """W = 1 + c A_1 and its inverse (diagonal eigenvalues 1 + c (-1)^n)."""
    from fractions import Fraction as Fr
    W = HcpSeries.from_hcp(Hcp(k, 0, {(0, 0): 1, (0, 1): c}))
    a = (Fr(1) / (1 + c) + Fr(1) / (1 - c)) / 2
    b = (Fr(1) / (1 + c) - Fr(1) / (1 - c)) / 2
    Winv = HcpSeries.from_hcp(Hcp(k, 0, {(0, 0): a, (0, 1): b}))
    return W, Winv


def test_gauge_invariance_of_classification():
    # The residual gauge freedom inside the HCP world is conjugation by an
    # invertible order-zero centralizer unit W = 1 + c A_1 (negative powers
    # of d are not in the ring). W preserves the monic top symbol only for
    # even top order, so the full classification is compared on an order-4
    # pair; the Newton point set itself is compared on the order-3 pair.
    from fractions import Fraction as Fr
    from weylnf.fixtures import generic_pair
    from weylnf.operators import GradedOp
    from weylnf.schur import normal_form_report

    P4 = GradedOp.from_monomials(1, [(0, 4, 1), (1, 0, 1)])
    Q2 = GradedOp.from_monomials(1, [(0, 2, 1), (1, 0, 1)])
    nf = normal_form_report(P4, Q2, depth=8).series
    W, Winv = _gauge_unit(nf.k, Fr(1, 3))
    assert (W * Winv).agrees_with(HcpSeries.one(nf.k))
    conj = Winv * nf * W
    base = classify_top_line(nf)
    moved = classify_top_line(conj)
    assert base.variant == moved.variant
    assert base.sigma == moved.sigma
    assert base.vertices == moved.vertices

    P, Q = generic_pair()
    nf3 = normal_form_report(P, Q, depth=8).series
    W, Winv = _gauge_unit(nf3.k, Fr(1, 3))
    conj3 = Winv * nf3 * W
    assert e_set(conj3).point_set() == e_set(nf3).point_set()
    prof = {t: h.sdeg_a() for t, h in nf3.components.items()}
    prof_moved = {t: h.sdeg_a() for t, h in conj3.components.items()}
    assert prof == prof_moved


def test_convex_hull():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)]
    assert convex_hull(pts) == [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert convex_hull([(1, 1)]) == [(1, 1)]
    assert convex_hull([(0, 0), (3, 3), (1, 1)]) == [(0, 0), (3, 3)]


def test_svg_deterministic_and_report():
    P = series(2, G(2, 5, {(0, 0): 1}), G(2, 3, {(2, 0): 1, (1, 1): 1}))
    nd = e_set(P)
    cls = classify_top_line(P)
    svg1 = render_svg(nd, cls)
    svg2 = render_svg(e_set(P), classify_top_line(P))
    assert svg1 == svg2
    assert svg1.startswith("<svg ") and svg1.rstrip().endswith("</svg>")
    rep = newton_report(nd, cls)
    assert rep["points"] == [[0, 5, False], [1, 3, True], [2, 3, False]]
    assert rep["upEdge"] == [[0, 5], [2, 3]]
    assert rep["classification"]["variant"] == "restriction"
