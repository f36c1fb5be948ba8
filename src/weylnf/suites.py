"""Seeded property suites for the weight, filtration, and expansion laws.

Each suite replays `cases` independent instances derived deterministically
from (seed, case index) and returns the list of violations (empty means the
suite passed). Instances are finite B-free HCP series, so every weight
supremum is exact; cases that need a hypothesis (A-free attaining sets,
equal weights, a power of d^k factor) construct it rather than filter for it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .criterion import _monomial
from .errors import PreconditionError
from .gform import Hcp, HcpSeries
from .newton import Weight, e_set, filtration_H, filtration_HS, top_term, weight_of
from .operators import GradedOp
from .powerform import expand_power, expand_power_oracle, g_value, specialize, t_block
from .scalars import CycloScalar, xi_pow

SIGMAS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


# -- generators --------------------------------------------------------------------


def _scalar(rng: random.Random, k: int, allow_xi: bool = True) -> CycloScalar:
    c = CycloScalar.from_rational(k, Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))
    if allow_xi and k > 1 and rng.random() < 0.4:
        c = c + xi_pow(k, rng.randint(1, k - 1)) * rng.randint(-2, 2)
    return c


def _nonzero(rng: random.Random, k: int, allow_xi: bool = True) -> CycloScalar:
    while True:
        c = _scalar(rng, k, allow_xi)
        if not c.is_zero():
            return c


def rand_bfree_series(rng: random.Random, k: int, p: int, lmax: int = 4,
                      ai: bool = True) -> HcpSeries:
    """Finite B-free series with orders in [max(0, p-6), p]."""
    comps = {}
    for t in range(p, max(0, p - 6) - 1, -1):
        if t < 0:
            break
        if t == p or rng.random() < 0.7:
            gamma = {}
            for _ in range(rng.randint(1, 2)):
                i = rng.randint(0, k - 1) if ai else 0
                gamma[(rng.randint(0, lmax), i)] = _scalar(rng, k)
            h = Hcp(k, t, gamma)
            if not h.is_zero():
                comps[t] = h
    if not comps:
        comps[p] = Hcp(k, p, {(rng.randint(0, lmax), 0): 1})
    return HcpSeries(k, comps)


def _level_points(sigma: Fraction, w0: Fraction, lmax: int, jmax: int):
    """Lattice points (l, j) with sigma*l + j == w0, 0 <= j <= jmax."""
    out = []
    for l in range(lmax + 1):
        j = w0 - sigma * l
        if j.denominator == 1 and 0 <= j <= jmax:
            out.append((l, int(j)))
    return out


def series_with_af_level(rng: random.Random, k: int, p: int, sigma: Fraction,
                         gap: Fraction, lmax: int = 4) -> HcpSeries | None:
    """A-free content at every weight >= v - gap; anything below is free.

    Guarantees the weight supremum is attained by A-free monomials and, for
    gap > 0, that the whole band [v - gap, v] carries no A_i.
    """
    w = Weight(sigma, 1)
    anchors = []
    for _ in range(20):
        l0 = rng.randint(0, lmax)
        j0 = rng.randint(max(0, p - 4), p)
        anchors = _level_points(sigma, sigma * l0 + j0, lmax, p)
        if anchors:
            break
    if not anchors:
        return None
    w0 = sigma * anchors[0][0] + anchors[0][1]
    gamma_by_order: dict[int, dict] = {}
    chosen = rng.sample(anchors, rng.randint(1, min(2, len(anchors))))
    for (l, j) in chosen:
        gamma_by_order.setdefault(j, {})[(l, 0)] = _nonzero(rng, k, allow_xi=False)
    for _ in range(rng.randint(0, 3)):
        l = rng.randint(0, lmax)
        j = rng.randint(max(0, p - 6), p)
        if w.value(l, j) < w0 - gap:
            i = rng.randint(0, k - 1)
            gamma_by_order.setdefault(j, {})[(l, i)] = _scalar(rng, k)
    series = HcpSeries(k, {j: Hcp(k, j, gamma) for j, gamma in gamma_by_order.items()})
    return series if series.components else None


def rand_monomial_hcp(rng: random.Random, k: int, lmax: int = 3, rmax: int = 3,
                      ai: bool = True) -> Hcp:
    i = rng.randint(0, k - 1) if ai else 0
    return Hcp(k, rng.randint(0, rmax), {(rng.randint(0, lmax), i): _nonzero(rng, k)})


def _v(P: HcpSeries, w: Weight) -> Fraction | None:
    return weight_of(P, w).value


# -- appendix suite ------------------------------------------------------------------


def appendix_case(idx: int, seed: int) -> list[str]:
    rng = random.Random(f"{seed}:appendix:{idx}")
    fails: list[str] = []
    k = rng.choice((2, 3, 4))
    sigma = SIGMAS[idx % len(SIGMAS)]
    w = Weight(sigma, 1)
    p = rng.randint(3, 6)
    L = rand_bfree_series(rng, k, p)
    M = rand_bfree_series(rng, k, rng.randint(3, 6))

    def check(cond: bool, label: str):
        if not cond:
            fails.append(f"case {idx}: {label} (k={k}, sigma={sigma})")

    vL, vM = _v(L, w), _v(M, w)
    S = L + M
    vS = _v(S, w)
    # sums: v(L+M) <= max, equality when values differ
    check(vS is None or vS <= max(vL, vM), "v(L+M) exceeds max(v(L), v(M))")
    if vL != vM:
        check(vS == max(vL, vM), "v(L+M) != max for distinct weights")
        fL, fM = top_term(L, w), top_term(M, w)
        fS = top_term(S, w)
        expect = fL if vL > vM else fM
        check(fS == expect, "f(L+M) is not the heavier top term")
        check(fS == top_term(fL + fM, w), "f(L+M) != f(f(L)+f(M))")
    elif vS == vL:
        check(top_term(S, w) == top_term(L, w) + top_term(M, w),
              "f(L+M) != f(L)+f(M) at equal weights")

    # two-monomial laws
    L0 = HcpSeries.from_hcp(rand_monomial_hcp(rng, k))
    M0 = HcpSeries.from_hcp(rand_monomial_hcp(rng, k))
    prod = L0 * M0
    check(_v(prod, w) == _v(L0, w) + _v(M0, w), "monomial v(LM) != v(L)+v(M)")
    br = L0 * M0 - M0 * L0
    vbr = _v(br, w)
    check(vbr is None or vbr <= _v(L0, w) + _v(M0, w), "monomial commutator bound")
    L0a = HcpSeries.from_hcp(rand_monomial_hcp(rng, k, ai=False))
    M0a = HcpSeries.from_hcp(rand_monomial_hcp(rng, k, ai=False))
    bra = L0a * M0a - M0a * L0a
    vbra = _v(bra, w)
    check(vbra is None or vbra <= _v(L0a, w) + _v(M0a, w) - sigma,
          "A-free monomial commutator drop")
    a = rng.randint(1, 2)
    Dak = HcpSeries.from_hcp(Hcp(k, a * k, {(0, 0): _nonzero(rng, k, allow_xi=False)}))
    brd = L0 * Dak - Dak * L0
    vbrd = _v(brd, w)
    check(vbrd is None or vbrd <= _v(L0, w) + _v(Dak, w) - sigma,
          "commutator drop against a power of d^k")

    # dominance of product points
    prod_lm = L * M
    dom_pts_L = e_set(L).point_set()
    dom_pts_M = e_set(M).point_set()
    for (l, j) in e_set(prod_lm).point_set():
        ok = any(l <= m + n and j <= u + vv
                 for (m, u) in dom_pts_L for (n, vv) in dom_pts_M)
        check(ok, f"product point ({l},{j}) not dominated")
    vLM = _v(prod_lm, w)
    check(vLM is None or vLM <= vL + vM, "v(LM) > v(L)+v(M)")

    # equality for A-free attaining sets, and the top-term multiplicativity
    LA = series_with_af_level(rng, k, p, sigma, Fraction(0))
    MA = series_with_af_level(rng, k, rng.randint(3, 6), sigma, Fraction(0))
    if LA is not None and MA is not None:
        vla, vma = _v(LA, w), _v(MA, w)
        pa = LA * MA
        check(_v(pa, w) == vla + vma, "A-free tops: v(LM) != v(L)+v(M)")
        check(top_term(pa, w) == top_term(top_term(LA, w) * top_term(MA, w), w),
              "f(LM) != f(f(L) f(M)) when weights add")
        # fully A-free commutator drop
        br2 = pa - MA * LA
        vbr2 = _v(br2, w)
        if all(not h.contains_ai() for h in LA.components.values()) and \
           all(not h.contains_ai() for h in MA.components.values()):
            check(vbr2 is None or vbr2 <= vla + vma - sigma,
                  "A-free series commutator drop")
        # f-lemma converse direction
        if top_term(pa, w).is_zero_in_window() is False and _v(pa, w) == vla + vma:
            check(_v(top_term(pa, w), w) == vla + vma, "v of the top term mismatch")
    return fails


# -- filtration suite ------------------------------------------------------------------


def _binomial_sum(M: HcpSeries, L: HcpSeries, d: int, level: Fraction,
                  w: Weight) -> HcpSeries:
    """sum_l C(d, l) H_level(M^(d-l) L^l), each power read from one cache per factor."""
    pows = ({0: HcpSeries.one(M.k), 1: M}, {0: HcpSeries.one(L.k), 1: L})
    total = HcpSeries.zero(M.k)
    for l in range(d + 1):
        term = _monomial(pows, d - l, l)
        total = total + filtration_H(term, level, w).scalar_mul(math.comb(d, l))
    return total


def filtration_case(idx: int, seed: int) -> list[str]:
    rng = random.Random(f"{seed}:filtration:{idx}")
    fails: list[str] = []
    k = rng.choice((2, 3, 4))
    sigma = SIGMAS[idx % len(SIGMAS)]
    w = Weight(sigma, 1)
    p = rng.randint(3, 6)

    def check(cond: bool, label: str):
        if not cond:
            fails.append(f"case {idx}: {label} (k={k}, sigma={sigma})")

    L = rand_bfree_series(rng, k, p)
    M = rand_bfree_series(rng, k, rng.randint(3, 6))
    vL, vM = _v(L, w), _v(M, w)

    # threshold laws of H_d
    check(filtration_H(L, vL + Fraction(1, 2), w).is_zero_in_window(),
          "H_d(L) nonzero above v(L)")
    dgrid = [vL, vL - Fraction(1, 2), Fraction(0), vL - 2]
    d = rng.choice(dgrid)
    check(filtration_H(L + M, d, w) == filtration_H(L, d, w) + filtration_H(M, d, w),
          "H_d not additive")
    d1x = rng.choice(dgrid) + Fraction(1, 2)
    d2x = d1x - Fraction(rng.randint(1, 3), 2)
    H12 = filtration_H(filtration_H(L, d2x, w), d1x, w)
    H21 = filtration_H(filtration_H(L, d1x, w), d2x, w)
    H1 = filtration_H(L, d1x, w)
    check(H12 == H1 and H21 == H1, "nested H filtrations disagree")
    diff = filtration_H(L, d2x, w) - H1
    vdiff = _v(diff, w)
    check(vdiff is None or vdiff <= d1x, "v(H_d2 - H_d1) above d1")

    # product law at the weight levels (h1, h2 serve the HS product law too)
    prod = L * M
    h1, h2 = filtration_H(L, vL, w), filtration_H(M, vM, w)
    lhs = filtration_H(prod, vL + vM, w)
    rhs = filtration_H(h1 * h2, vL + vM, w)
    check(lhs == rhs, "H product law at (v(L), v(M))")

    # commutator refinement with an A-free band of width sigma
    if sigma > 0:
        LB = series_with_af_level(rng, k, p, sigma, sigma)
        MB = series_with_af_level(rng, k, rng.randint(3, 6), sigma, sigma)
        if LB is not None and MB is not None:
            d1, d2 = _v(LB, w), _v(MB, w)
            lm, ml = LB * MB, MB * LB
            br = lm - ml
            l1 = filtration_H(LB, d1 - sigma, w)
            m1 = filtration_H(MB, d2 - sigma, w)
            br1 = l1 * m1 - m1 * l1
            check(filtration_H(br, d1 + d2 - sigma, w)
                  == filtration_H(br1, d1 + d2 - sigma, w),
                  "commutator filtration law")
            vbr = _v(br, w)
            check(vbr is None or vbr <= d1 + d2 - sigma, "commutator weight drop")
            eps = Fraction(1, 4)
            check(filtration_H(lm, d1 + d2 - sigma + eps, w)
                  == filtration_H(ml, d1 + d2 - sigma + eps, w),
                  "products agree above the commutator level")
            check(filtration_H(lm, d1 + d2, w) == filtration_H(ml, d1 + d2, w),
                  "products agree at the top level")

    # HS laws
    m = rng.randint(0, 4)
    # equal weights: build M2 sharing an attaining point with L
    nd = e_set(L).points
    att = max(((pt.l, pt.j) for pt in nd), key=lambda lj: w.value(*lj))
    M2 = M + HcpSeries.from_hcp(Hcp(k, att[1], {(att[0], 0): 1}))
    if _v(M2, w) == vL:
        check(filtration_HS(L, vL, m, w) + filtration_HS(M2, vL, m, w)
              == filtration_HS(L + M2, vL, m, w), "HS additivity at equal weights")
    d = rng.choice(dgrid)
    hs = filtration_HS(L, d, m, w)
    check(filtration_H(hs, d, w) == hs, "H_d of HS_d^m is not HS_d^m")
    check(filtration_HS(filtration_H(L, d, w), d, m, w) == hs, "HS of H_d mismatch")
    sa_all = max((pt.l for pt in nd), default=None)
    if sa_all is not None:
        check(filtration_HS(L, d, sa_all, w) == filtration_H(L, d, w),
              "HS with m = Sdeg_A(L) must equal H_d")
        hd = filtration_H(L, d, w)
        if not hd.is_zero_in_window():
            sa_hd = max(pt.l for pt in e_set(hd).points)
            check(filtration_HS(L, d, sa_hd, w) == hd, "HS at the filtered Sdeg")
            if sa_hd > 0:
                check(filtration_HS(L, d, sa_hd - 1, w) != hd,
                      "HS below the filtered Sdeg should differ")

    # HS product law (item 4)
    if not h1.is_zero_in_window() and not h2.is_zero_in_window():
        a1 = max(pt.l for pt in e_set(h1).points)
        a2 = max(pt.l for pt in e_set(h2).points)
        lhs4 = filtration_HS(prod, vL + vM, a1 + a2, w)
        rhs4 = filtration_H(filtration_HS(L, vL, a1, w) * filtration_HS(M, vM, a2, w),
                            vL + vM, w)
        check(lhs4 == rhs4, "HS product law (item 4)")

    # vanishing product law (item 5): single-point L, M with tall top points.
    # Needs sigma > 0: with sigma = 0 the Gamma index carries no weight and
    # lower-index terms of the product survive the filtration (e.g. both
    # factors Gamma_1 D^1), so the law genuinely fails there.
    a1 = rng.randint(0, 2)
    b1 = rng.randint(0, p)
    Lpt = HcpSeries.from_hcp(Hcp(k, b1, {(a1, rng.randint(0, k - 1)): _nonzero(rng, k)}))
    d1 = w.value(a1, b1)
    Mtall = (series_with_af_level(rng, k, rng.randint(3, 6), sigma, Fraction(0), lmax=4)
             if sigma > 0 else None)
    if Mtall is not None:
        shifted = HcpSeries(k, {j: Hcp(k, j, {(l + 1, i): c for (l, i), c in h.gamma.items()})
                                for j, h in Mtall.components.items()})
        d2 = _v(shifted, w)
        tops = [pt.l for pt in e_set(filtration_H(shifted, d2, w)).points]
        a2 = min(tops) - 1
        if a2 >= 0:
            check(filtration_HS(shifted, d2, a2, w).is_zero_in_window(),
                  "constructed HS(M) is not zero")
            check(filtration_HS(Lpt * shifted, d1 + d2, a1 + a2, w).is_zero_in_window(),
                  "HS vanishing product law (item 5)")

    # binomial corollary for powers of a sum
    d = (2, 3, 4, 2, 3)[idx % 5]
    if sigma > 0:
        LA = series_with_af_level(rng, k, p, sigma, Fraction(0))
        if LA is not None:
            LA = filtration_H(LA, Fraction(-10 ** 6), w)
            LAaf = HcpSeries(k, {j: Hcp(k, j, {(l, 0): c for (l, i), c in h.gamma.items() if i == 0})
                                 for j, h in LA.components.items()})
            pw_target = _v(LAaf, w)
            pts = _level_points(sigma, pw_target, 4, 6)
            MA = None
            if idx % 2 == 0:
                aa = pw_target / k
                if aa.denominator == 1 and aa > 0:
                    MA = HcpSeries.from_hcp(Hcp(k, int(aa) * k, {(0, 0): _nonzero(rng, k, False)}))
            if MA is None and pts:
                l2, j2 = rng.choice(pts)
                MA = HcpSeries.from_hcp(Hcp(k, j2, {(l2, 0): _nonzero(rng, k, False)}))
            if MA is not None and _v(MA, w) == pw_target:
                br = LAaf * MA - MA * LAaf
                if filtration_H(br, 2 * pw_target, w).is_zero_in_window():
                    lhs = filtration_H((LAaf + MA) ** d, d * pw_target, w)
                    rhs = _binomial_sum(MA, LAaf, d, d * pw_target, w)
                    check(lhs == rhs, f"binomial corollary at d={d}")
    else:
        # sigma = 0: equal top orders with scalar (Gamma-free) top symbols
        j0 = rng.randint(1, 4)
        LA = HcpSeries(k, {j0: Hcp(k, j0, {(0, 0): _nonzero(rng, k, False)}),
                           max(0, j0 - 2): Hcp(k, max(0, j0 - 2),
                                               {(rng.randint(0, 3), 0): _scalar(rng, k)})})
        MA = HcpSeries.from_hcp(Hcp(k, j0, {(0, 0): _nonzero(rng, k, False)}))
        pw_target = Fraction(j0)
        br = LA * MA - MA * LA
        if filtration_H(br, 2 * pw_target, w).is_zero_in_window():
            lhs = filtration_H((LA + MA) ** d, d * pw_target, w)
            rhs = _binomial_sum(MA, LA, d, d * pw_target, w)
            check(lhs == rhs, f"binomial corollary at d={d} (sigma=0)")
    return fails


# -- powerform suite --------------------------------------------------------------------


def powerform_case(idx: int, seed: int) -> list[str]:
    rng = random.Random(f"{seed}:powerform:{idx}")
    fails: list[str] = []
    kpow = (idx % 8) + 1
    if expand_power(kpow) != expand_power_oracle(kpow):
        fails.append(f"case {idx}: closed form disagrees with the oracle at k={kpow}")
    for wobj in expand_power(kpow).words():
        if wobj.multiple_index + wobj.partial_degree + wobj.dpow != kpow:
            fails.append(f"case {idx}: grading violated at k={kpow}")
            break
    if g_value((0, 1)) != 2 or g_value((1, 0)) != 1:
        fails.append(f"case {idx}: g spot values wrong")
    kk = rng.randint(1, 4)
    A = GradedOp.from_monomials(1, [(0, rng.randint(1, 2), 1),
                                    (rng.randint(0, 2), 0, rng.randint(-2, 2))])
    B = GradedOp.from_monomials(1, [(rng.randint(0, 2), rng.randint(0, 1),
                                     rng.randint(-2, 2))])
    if specialize(expand_power(kk), A, B) != (A + B) ** kk:
        fails.append(f"case {idx}: specialization disagrees with direct powers")
    if t_block(1, 0, kpow).terms.get(((0,), 0)) != kpow:
        fails.append(f"case {idx}: T(1,0,k) != k L")
    return fails


# -- drivers -----------------------------------------------------------------------------


_CASE_FUNCS = {
    "appendix": appendix_case,
    "filtration": filtration_case,
    "powerform": powerform_case,
}


def run_suite(name: str, cases: int, seed: int) -> SuiteResult:
    if name not in _CASE_FUNCS:
        raise ValueError(f"unknown suite {name!r}")
    if cases < 0:
        raise PreconditionError("the number of cases must be nonnegative")
    failures = [f for i in range(cases) for f in _CASE_FUNCS[name](i, seed)]
    return SuiteResult(name=name, cases=cases, failures=failures)


def run_all(cases: int, seed: int) -> list[SuiteResult]:
    return [run_suite(name, cases, seed) for name in sorted(_CASE_FUNCS)]
