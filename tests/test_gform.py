"""G-form components: expansion oracles, eigenvalues, products, fitting."""

from fractions import Fraction
import json
import math
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from weylnf import gform, operators, scalars, schur, suites
from weylnf.errors import (
    ContextMismatchError,
    NotAnHcpError,
    PreconditionError,
    TruncationError,
)
from weylnf.gform import (
    Hcp,
    HcpSeries,
    check_Aqk,
    eigenvalues,
    fit_hcp,
    hcp_mul,
)
from weylnf.linalg import solve_square
from weylnf.newton import Weight, filtration_H, filtration_HS
from weylnf.parsing import parse_operator
from weylnf.operators import GradedOp, _comp_of_lanes, poly_from_pairs, product_floor
from weylnf.scalars import CycloScalar, _lanes, _ring, cyclotomic_poly, xi_pow

from test_operators import _reference_comp_nu


def S(k, v):
    return CycloScalar.from_rational(k, v)


# -- expansion ------------------------------------------------------------------


def test_expand_gamma1_is_xd():
    H = Hcp(1, 0, {(1, 0): 1})
    assert H.expand() == GradedOp.from_monomials(1, [(1, 1, 1)])


def test_expand_a1_matches_exponential_series():
    # k=2: A_1 = sum_m ((xi - 1)^m / m!) x^m d^m with xi = -1.
    H = Hcp(2, 0, {(0, 1): 1})
    got = H.expand(xcap=10)
    for m in range(11):
        expect = S(2, Fraction((-2) ** m, math.factorial(m)))
        assert got.components[0].get(m, S(2, 0)) == expect


def test_expand_b2_matches_x_delta_d_product():
    # B_2 = x * delta * d, with delta = B_1 expanded independently.
    H = Hcp(1, 0, bpart={2: 1})
    got = H.expand(xcap=9)
    delta = Hcp(1, 0, bpart={1: 1}).expand(xcap=12)
    prod = GradedOp.x_op(1) * delta * GradedOp.d_op(1)
    assert got.agrees_with(prod)
    # leading terms: x d - x^2 d^2 + (1/2) x^3 d^3 - ...
    assert got.components[0][1] == S(1, 1)
    assert got.components[0][2] == S(1, -1)
    assert got.components[0][3] == S(1, Fraction(1, 2))


def test_expand_projector_action():
    # B_2 projects onto x^1: check through the polynomial action.
    B2 = Hcp(1, 0, bpart={2: 1}).expand(xcap=12)
    for n in range(6):
        out = B2.apply_to_poly(poly_from_pairs(1, [(n, 1)]), through_degree=8)
        if n == 1:
            assert out == poly_from_pairs(1, [(1, 1)])
        else:
            assert out == {}


# -- eigenvalues ---------------------------------------------------------------


def test_eigen_examples():
    g2 = Hcp(1, 0, {(2, 0): 1})
    assert eigenvalues(g2, [3]) == [S(1, 9)]
    a1 = Hcp(2, 0, {(0, 1): 1})
    assert eigenvalues(a1, range(8)) == [S(2, (-1) ** n) for n in range(8)]
    b2 = Hcp(1, 0, bpart={2: 1})
    assert eigenvalues(b2, [1, 2]) == [S(1, 1), S(1, 0)]
    assert eigenvalues(b2, []) == []
    with pytest.raises(PreconditionError):
        eigenvalues(Hcp(3, 1, {(1, 2): 1}, {1: 1}), [-1])


def _from_definitions(H, xcap):
    """H as an operator series built from the definitions, not from its
    eigenvalues: Gamma_l = (x d)^l, A_i = sum_m ((xi^i - 1)^m / m!) x^m d^m,
    B_j = x^(j-1) B_1 d^(j-1) / (j-1)! with B_1 = sum_m ((-1)^m / m!) x^m d^m,
    all followed by d^r."""
    k = H.k

    def exp_xd(base):  # exp(base * x d) = sum_m (base^m / m!) x^m d^m
        comp = {m: base ** m * Fraction(1, math.factorial(m)) for m in range(xcap + 1)}
        return GradedOp(k, {0: {m: c for m, c in comp.items() if c}}, None, 0, {0: xcap})

    xd = GradedOp.from_monomials(k, [(1, 1, 1)])
    total = GradedOp.zero(k)
    for (l, i), c in H.gamma.items():
        total = total + (xd ** l * exp_xd(xi_pow(k, i) - 1)).scalar_mul(c)
    for j, c in H.bpart.items():
        bj = GradedOp.x_op(k, j - 1) * exp_xd(S(k, -1)) * GradedOp.d_op(k, j - 1)
        total = total + bj.scalar_mul(c * Fraction(1, math.factorial(j - 1)))
    return total * GradedOp.d_op(k, H.r)


def test_eigen_matches_action():
    # k up to 6: the forward DFT's xi powers reduce mod Phi_k of degree 1, 2
    # and 4, with k > deg Phi_k from k = 2 on.
    rng = random.Random(23)
    for _ in range(60):
        k = rng.choice([1, 2, 3, 4, 5, 6])
        r = rng.randint(0, 2)
        H = Hcp(k, r, {(rng.randint(0, 3), rng.randint(0, k - 1)): _rand_scalar(rng, k)
                       for _ in range(2)},
                {rng.randint(1, 5): rng.randint(-2, 2)})
        mu = eigenvalues(H, range(12 - r))
        for G in (H.expand(xcap=14), _from_definitions(H, xcap=16)):
            for n in range(r, 12):
                out = G.apply_to_poly(poly_from_pairs(k, [(n, 1)]), through_degree=12)
                expect = mu[n - r] * math.perm(n, r)
                got = out.get(n - r, S(k, 0))
                assert got == expect


# -- products --------------------------------------------------------------------


def test_hcp_mul_gamma_example():
    H = Hcp(1, 1, {(1, 0): 1})
    got = hcp_mul(H, H)
    assert got == Hcp(1, 2, {(2, 0): 1, (1, 0): 1})


def test_hcp_mul_identity():
    H = Hcp(3, 2, {(2, 1): CycloScalar(3, [1, 1]), (0, 0): 5}, {2: 3})
    one = Hcp(3, 0, {(0, 0): 1})
    assert hcp_mul(H, one) == H
    assert hcp_mul(one, H) == H


def test_hcp_mul_a_indices_add_mod_k():
    # k=2: (A_1 D^1) (A_1 D^0) = xi^(1*1) A_2 D^1 = -D^1.
    a1d = Hcp(2, 1, {(0, 1): 1})
    a1 = Hcp(2, 0, {(0, 1): 1})
    got = hcp_mul(a1d, a1)
    assert got == Hcp(2, 1, {(0, 0): -1})


def test_hcp_mul_matches_monomial_closed_form():
    # (a Gamma_m A_i1 D^u)(b Gamma_n A_i2 D^v)
    #   = a b xi^(u i2) sum_t C(n,t) u^(n-t) Gamma_(t+m) A_(i1+i2) D^(u+v)
    rng = random.Random(31)
    for _ in range(60):
        k = rng.choice([2, 3, 4])
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        u, v = rng.randint(0, 3), rng.randint(0, 3)
        i1, i2 = rng.randint(0, k - 1), rng.randint(0, k - 1)
        a, b = S(k, rng.randint(1, 4)), S(k, Fraction(rng.randint(1, 5), 2))
        L = Hcp(k, u, {(m, i1): a})
        M = Hcp(k, v, {(n, i2): b})
        got = hcp_mul(L, M)
        expect_gamma = {}
        base = a * b * xi_pow(k, u * i2)
        for t in range(n + 1):
            c = base * (math.comb(n, t) * (Fraction(u) ** (n - t)))
            if not c.is_zero():
                key = (t + m, (i1 + i2) % k)
                expect_gamma[key] = expect_gamma.get(key, S(k, 0)) + c
        assert got == Hcp(k, u + v, expect_gamma)


def _rand_scalar(rng, k):
    """A Q(xi) value with mixed denominators, reduced from k coefficients."""
    return CycloScalar(k, [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4)))
                           for _ in range(k)])


def _checked_product(H1, H2):
    """hcp_mul(H1, H2), checked against the expansion oracle and the Hcp invariant."""
    got = hcp_mul(H1, H2)
    k = H1.k
    assert got.k == k and got.r == H1.r + H2.r
    assert all(type(c) is CycloScalar and c.k == k
               and all(type(f) is Fraction for f in c.coeffs)
               for c in [*got.gamma.values(), *got.bpart.values()])
    # The checked constructor drops zeros and reduces A indices mod k, so a
    # result that breaks the invariant differs from its rebuild.
    assert got == Hcp(k, got.r, dict(got.gamma), dict(got.bpart))
    assert got.expand(xcap=8).agrees_with(H1.expand(xcap=14) * H2.expand(xcap=14))
    return got


def test_expand_is_ring_homomorphism():
    rng = random.Random(37)
    for _ in range(30):
        k = rng.choice([1, 2, 3])
        H1 = Hcp(k, rng.randint(0, 2),
                 {(rng.randint(0, 2), rng.randint(0, k - 1)): rng.randint(-3, 3)},
                 {rng.randint(1, 2): rng.randint(-2, 2)})
        H2 = Hcp(k, rng.randint(0, 2),
                 {(rng.randint(0, 2), rng.randint(0, k - 1)): rng.randint(-3, 3)},
                 {rng.randint(1, 2): rng.randint(-2, 2)})
        _checked_product(H1, H2)
    # Multi-term factors with and without B parts. From k = 5 on, Phi_k has
    # degree 4 or 6 (Phi_9 = x^6 + x^3 + 1, Phi_12 = x^4 - x^2 + 1), so the
    # integer fold mod Phi_k spans several lanes and meets zero and negative
    # coefficients of Phi_k.
    for k in (1, 2, 3, 4, 5, 6, 9, 12):
        for bfree in (True, False):
            for _ in range(6 if k <= 4 else 3):
                H1, H2 = (Hcp(k, rng.randint(0, 3),
                              {(rng.randint(0, 3), rng.randint(0, k - 1)): _rand_scalar(rng, k)
                               for _ in range(rng.randint(1, 3))},
                              {} if bfree else {rng.randint(1, 4): _rand_scalar(rng, k)
                                                for _ in range(rng.randint(1, 2))})
                          for _ in range(2))
                _checked_product(H1, H2)
    for k in (1, 2, 3, 4, 5, 6, 9, 12):
        # D (Gamma_1 - 1) = (Gamma_1 + 1 - 1) D: the Gamma_0 coefficient cancels.
        got = _checked_product(Hcp(k, 1, {(0, 0): 1}), Hcp(k, 0, {(1, 0): 1, (0, 0): -1}))
        assert got.gamma == {(1, 0): CycloScalar.one(k)}
        # (Gamma_1 + B_1) Gamma_1 = Gamma_2: the correction at n = 0 cancels.
        got = _checked_product(Hcp(k, 0, {(1, 0): 1}, {1: 1}), Hcp(k, 0, {(1, 0): 1}))
        assert got == Hcp(k, 0, {(2, 0): 1}) and not got.bpart


def _reference_hcp_mul(H1, H2):
    """The scalar body of ``hcp_mul`` before the integer lanes, one pair at a time."""
    k, r1 = H1.k, H1.r
    gamma = {}
    for (l2, i2), c2 in H2.gamma.items():
        if i2 and r1:
            c2 = c2 * xi_pow(k, i2 * r1)
        shift = [(s, math.comb(l2, s) * r1 ** (l2 - s)) for s in range(0 if r1 else l2, l2 + 1)]
        for (l1, i1), c1 in H1.gamma.items():
            base = c1 * c2
            i3 = (i1 + i2) % k
            for s, w in shift:
                term = base if w == 1 else base * w
                key = (l1 + s, i3)
                prev = gamma.get(key)
                gamma[key] = term if prev is None else prev + term
    gamma = {key: c for key, c in gamma.items() if c}
    bpart = {}
    support = {j - 1 for j in H1.bpart} | {j - 1 - r1 for j in H2.bpart if j - 1 >= r1}
    if support:
        ns = sorted(support)
        mu1, mu2 = eigenvalues(H1, ns), eigenvalues(H2, [n + r1 for n in ns])
        for n, a, b, q in zip(ns, mu1, mu2, eigenvalues(Hcp(k, 0, gamma), ns)):
            v = a * b - q
            if v:
                bpart[n + 1] = v
    return Hcp(k, r1 + H2.r, gamma, bpart)


def _reference_series_mul(A, B):
    """The body of ``HcpSeries.__mul__`` before the per-order products."""
    floor = product_floor(A, B)
    comps = {}
    for t1, h1 in A.components.items():
        for t2, h2 in B.components.items():
            t = t1 + t2
            if floor is not None and t < floor:
                continue
            prod = _reference_hcp_mul(h1, h2)
            comps[t] = comps[t] + prod if t in comps else prod
    return HcpSeries(A.k, comps, floor, A.top + B.top)


def _rand_hcp(rng, k, r, terms=3, bterms=0):
    return Hcp(k, r, {(rng.randint(0, 3), rng.randint(0, k - 1)): _rand_scalar(rng, k)
                      for _ in range(rng.randint(1, terms))},
               {rng.randint(1, 5): _rand_scalar(rng, k) for _ in range(bterms)})


def _pairs_sum(pairs):
    total = _reference_hcp_mul(*pairs[0])
    for h1, h2 in pairs[1:]:
        total = total + _reference_hcp_mul(h1, h2)
    return total


def test_hcp_mul_sums_pairs_like_the_reference():
    rng = random.Random(43)
    for k in (1, 2, 3, 4, 5, 12):
        for _ in range(8):
            t = rng.randint(0, 5)
            pairs = []
            for _ in range(rng.randint(1, 4)):
                r1 = rng.randint(0, t)
                pairs.append((_rand_hcp(rng, k, r1, bterms=rng.randint(0, 1)),
                              _rand_hcp(rng, k, t - r1, bterms=rng.randint(0, 1))))
            got = hcp_mul(*pairs[0], pairs[1:])
            assert got == _pairs_sum(pairs)
            assert got == Hcp(k, t, dict(got.gamma), dict(got.bpart))
    k = 3
    xi = xi_pow(k, 1)
    A = Hcp(k, 2, {(1, 1): xi / 3, (0, 0): Fraction(1, 2)})
    B = Hcp(k, 1, {(2, 2): Fraction(5, 7), (0, 1): 1 - xi})
    # Pairs that cancel to zero, gamma and B parts alike.
    AB = Hcp(k, 2, {(1, 0): 1}, {1: 2, 3: xi})
    for more in ([(-A, B)], [(AB, B), (-AB, B)], [(-A, B), (AB, B), (AB.scalar_mul(-1), B)]):
        got = hcp_mul(A, B, more)
        assert got == _pairs_sum([(A, B), *more])
    assert hcp_mul(A, B, [(-A, B)]).is_zero()
    # B corrections from two pairs at the same n: both left factors carry B_2.
    L1 = Hcp(k, 1, {(1, 0): 1}, {2: xi})
    L2 = Hcp(k, 0, {(0, 2): Fraction(1, 3)}, {2: Fraction(-3, 2)})
    R1, R2 = Hcp(k, 2, {(1, 1): 2}), Hcp(k, 3, {(0, 0): 1, (2, 1): xi}, {4: 1})
    got = hcp_mul(L1, R1, [(L2, R2)])
    assert got == _pairs_sum([(L1, R1), (L2, R2)]) and 2 in got.bpart
    # A pair whose right B support lies below r1 adds no correction there.
    below = (Hcp(k, 3, {(0, 1): 1}), Hcp(k, 0, {(1, 0): 1}, {1: 5, 2: 1}))
    assert not _reference_hcp_mul(*below).bpart
    got = hcp_mul(*below, [(L2, Hcp(k, 3, {(1, 2): 1}))])
    assert got == _pairs_sum([below, (L2, Hcp(k, 3, {(1, 2): 1}))])
    with pytest.raises(PreconditionError):
        hcp_mul(A, B, [(A, A)])
    with pytest.raises(ContextMismatchError):
        hcp_mul(A, B, [(Hcp(2, 2, {(0, 0): 1}), Hcp(2, 1, {(0, 0): 1}))])


def test_series_product_matches_the_per_pair_reference():
    rng = random.Random(47)
    for k in (2, 3, 5):
        for _ in range(4):
            A, B = (HcpSeries(k, {t: _rand_hcp(rng, k, t, bterms=rng.randint(0, 1))
                                  for t in range(rng.randint(2, 5)) if rng.random() < 0.8})
                    for _ in range(2))
            for fa in (None, 1, 2):
                for fb in (None, 0, 3):
                    A1 = A if fa is None else A.restrict_floor(fa)
                    B1 = B if fb is None else B.restrict_floor(fb)
                    assert A1 * B1 == _reference_series_mul(A1, B1)


def _assert_canonical(h):
    """The stored form of an Hcp: sorted (l, i, vec) with deg Phi_k ints, no zero
    vector, over den > 0 sharing no factor with every entry."""
    d = len(cyclotomic_poly(h.k)) - 1
    assert type(h.den) is int and h.den > 0 and type(h.terms) is tuple
    assert [t[:2] for t in h.terms] == sorted({t[:2] for t in h.terms})
    assert all(type(vec) is tuple and len(vec) == d and any(vec)
               and all(type(x) is int for x in vec) for _, _, vec in h.terms)
    assert math.gcd(h.den, *[x for _, _, vec in h.terms for x in vec]) == 1


def test_every_route_gives_the_canonical_form():
    k = 5
    xi = xi_pow(k, 1)
    H = Hcp(k, 2, {(2, 3): xi / 4, (0, 0): Fraction(1, 6), (1, 1): Fraction(-1, 2)})
    # 1/6, -1/2 and xi/4 over den 12, one int per coefficient of Q(xi_5).
    assert (H.den, H.terms) == (12, ((0, 0, (2, 0, 0, 0)), (1, 1, (-6, 0, 0, 0)),
                                     (2, 3, (0, 3, 0, 0))))
    half = Hcp(k, 2, {(2, 3): xi / 4, (1, 1): Fraction(-1, 2)})
    one, unit = Hcp(k, 0, {(0, 0): 1}), HcpSeries.from_hcp(H)
    w = Weight(1, 1)
    routes = [
        (Hcp.from_dict(k, H.to_dict()), H),
        (Hcp(k, 2, {(0, 0): Fraction(1, 12), (5, 1): 1, (1, 1): Fraction(-1, 2),
                    (2, 8): xi / 4, (0, 5): Fraction(1, 12), (5, 6): -1}), H),
        (hcp_mul(one, H), H),
        (hcp_mul(H, one, [(H, one.scalar_mul(-1)), (H, one)]), H),
        (hcp_mul(Hcp(k, 1, {(0, 0): 2}), Hcp(k, 1, {(0, 0): Fraction(1, 12)})),
         Hcp(k, 2, {(0, 0): Fraction(1, 6)})),
        # A sum over den 60 that cancels back to den 12.
        (H + Hcp(k, 2, {(0, 0): Fraction(2, 5), (3, 4): xi / 5}) - Hcp(
            k, 2, {(0, 0): Fraction(2, 5), (3, 4): xi / 5}), H),
        (H.scalar_mul(6).scalar_mul(Fraction(1, 6)), H),
        (H.scalar_mul(xi).scalar_mul(xi ** -1), H),
        (-(-H), H),
        # Filtrations drop the Gamma_0 term, and the gcd with it: den 12 -> 4.
        (filtration_H(unit, Fraction(3), w).component(2), half),
        (filtration_HS(unit, Fraction(2), 2, w).component(2), H),
        (filtration_HS(unit, Fraction(3), 1, w).component(2), Hcp(k, 2, {(1, 1): Fraction(-1, 2)})),
    ]
    assert half.den == 4
    for got, want in routes:
        _assert_canonical(got)
        assert (got.den, got.terms) == (want.den, want.terms)
        assert got == want and hash(got) == hash(want) and got.to_dict() == want.to_dict()
    P = hcp_mul(H, Hcp(k, 1, {(1, 2): xi}, {2: Fraction(1, 3)}))
    assert P == Hcp.from_dict(k, P.to_dict()) and hash(P) == hash(Hcp.from_dict(k, P.to_dict()))
    for name in (*Hcp.__slots__, "gamma", "anything"):
        with pytest.raises(AttributeError):
            setattr(H, name, None)
        with pytest.raises(AttributeError):
            setattr(P, name, None)


def _scalars(k):
    """k small numerators over one denominator, reduced mod Phi_k."""
    return st.tuples(st.lists(st.sampled_from((1, -1, 2, 0, -3)), min_size=k, max_size=k),
                     st.sampled_from((1, 2, 3, 4))).map(
        lambda nd: CycloScalar(k, [Fraction(n, nd[1]) for n in nd[0]]))


@st.composite
def _product_pairs(draw):
    """k, the total order t and 1..3 pairs of that order, some with B parts,
    some with r1 = 0 (mod k), and sometimes a pair that cancels the first."""
    k = draw(st.integers(1, 12))
    t = draw(st.integers(0, 2 * k))
    scalars = _scalars(k)
    keys = st.tuples(st.integers(0, 3), st.integers(0, k - 1))

    def hcp(r):
        return Hcp(k, r, draw(st.dictionaries(keys, scalars, min_size=1, max_size=3)),
                   draw(st.dictionaries(st.integers(1, 5), scalars, max_size=1)))

    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        r1 = draw(st.sampled_from([r for r in range(t + 1) if r % k == 0])
                  if draw(st.booleans()) else st.integers(0, t))
        pairs.append((hcp(r1), hcp(t - r1)))
    if draw(st.booleans()):
        pairs.append((-pairs[0][0], pairs[0][1]))
    return k, pairs


@given(_product_pairs())
@settings(max_examples=100, deadline=None)
def test_hcp_mul_on_term_vectors_matches_the_reference(case):
    # deg Phi_k is 1, 2, 4 or 6 for k in 1..12: every branch of the vector product.
    k, pairs = case
    got = hcp_mul(*pairs[0], pairs[1:])
    assert got == _pairs_sum(pairs)
    # The ints a product stores are the ones a fresh Hcp of its value builds.
    fresh = Hcp.from_dict(k, got.to_dict())
    assert (got.den, got.terms) == (fresh.den, fresh.terms)
    _assert_canonical(got)


def _add_dicts(a: dict, b: dict) -> dict:
    """Keywise a + b, adding only on a repeated key and dropping zero sums: the
    ``CycloScalar`` body of ``Hcp.__add__`` before the integer terms."""
    out = dict(a)
    for key, c in b.items():
        prev = out.get(key)
        if prev is None:
            out[key] = c
        else:
            c = prev + c
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _reference_scale(H, c):
    return Hcp(H.k, H.r, {key: v * c for key, v in H.gamma.items()},
               {j: v * c for j, v in H.bpart.items()})


@st.composite
def _sum_cases(draw):
    """Two Hcps of one order, the second sometimes cancelling some of the first,
    and a factor: an int, a Fraction, a CycloScalar or zero."""
    k = draw(st.integers(1, 12))
    values = _scalars(k)
    keys = st.tuples(st.integers(0, 3), st.integers(0, k - 1))
    gammas = [draw(st.dictionaries(keys, values, max_size=3)) for _ in range(2)]
    bparts = [draw(st.dictionaries(st.integers(1, 4), values, max_size=2)) for _ in range(2)]
    if draw(st.booleans()):
        for part, other in ((gammas[1], gammas[0]), (bparts[1], bparts[0])):
            part.update({key: -c for key, c in other.items() if draw(st.booleans())})
    r = draw(st.integers(0, 3))
    A, B = (Hcp(k, r, g, b) for g, b in zip(gammas, bparts))
    c = draw(st.one_of(st.integers(-3, 3), st.just(0), values,
                       st.fractions(min_value=-3, max_value=3, max_denominator=6)))
    return A, B, c


@given(_sum_cases())
@settings(max_examples=150, deadline=None)
def test_integer_add_and_scale_match_the_scalar_reference(case):
    # k in 1..12 takes every branch of scalars._ring (deg Phi_k 1, 2, 4, 6).
    A, B, c = case
    minus_b = _reference_scale(B, -1)
    for got, want in ((A + B, Hcp(A.k, A.r, _add_dicts(A.gamma, B.gamma),
                                  _add_dicts(A.bpart, B.bpart))),
                      (A - B, Hcp(A.k, A.r, _add_dicts(A.gamma, minus_b.gamma),
                                  _add_dicts(A.bpart, minus_b.bpart))),
                      (-A, _reference_scale(A, -1)),
                      (A.scalar_mul(c), _reference_scale(A, c))):
        _assert_canonical(got)
        assert got == want and hash(got) == hash(want)
        assert got.gamma == want.gamma and got.bpart == want.bpart
    assert (A - A).is_zero() and (A - A).den == 1


def test_bfree_products_and_filtrations_build_no_scalar(monkeypatch):
    # Products of B-free factors and their filtrations stay in the integer
    # terms: neither may build a CycloScalar, checked or unchecked.
    rng = random.Random(61)
    k = 3
    P, Q = (suites.rand_bfree_series(rng, k, 4) for _ in range(2))
    H1, H2 = P.components[4], Q.components[4]
    pairs = [(h1, h2) for t1, h1 in P.components.items() for t2, h2 in Q.components.items()
             if t1 + t2 == 7]
    _ring(k)  # the xi powers are built once per k
    built = []
    real_make, real_init = scalars._make, CycloScalar.__init__
    monkeypatch.setattr(scalars, "_make", lambda *a: built.append(a) or real_make(*a))
    monkeypatch.setattr(CycloScalar, "__init__",
                        lambda self, *a: built.append(a) or real_init(self, *a))
    w = Weight(Fraction(1, 2), 1)
    got = [hcp_mul(H1, H2), hcp_mul(*pairs[0], pairs[1:]), P * Q,
           filtration_H(P * Q, Fraction(7), w), filtration_HS(P * Q, Fraction(6), 2, w)]
    assert built == []
    monkeypatch.undo()
    assert got[0] == _reference_hcp_mul(H1, H2) and got[1] == _pairs_sum(pairs)
    assert got[2] == _reference_series_mul(P, Q) and not got[3].is_zero_in_window()


def _assert_series_rebuilds(P):
    """P, built unchecked, is what the checked constructor builds from its parts."""
    assert all(h.terms or h.bpart for h in P.components.values())
    rebuilt = HcpSeries(P.k, P.components, P.floor, P.top)
    assert (rebuilt, rebuilt.floor, rebuilt.top) == (P, P.floor, P.top)


def _reference_series_add(A, B):
    """The body of ``HcpSeries.__add__`` before sums were built unchecked."""
    floor, top = A._sum_window(B)
    comps = dict(A.components)
    for t, h in B.components.items():
        comps[t] = comps[t] + h if t in comps else h
    return HcpSeries(A.k, comps, floor, top)


@st.composite
def _series_cases(draw):
    """Two series of one context, with or without a floor, the second sometimes
    holding minus some components of the first; a scalar (zero included); and a
    filtration: weight, threshold and Gamma bound."""
    k = draw(st.integers(1, 6))
    values = _scalars(k)
    keys = st.tuples(st.integers(0, 3), st.integers(0, k - 1))

    def series(cancel=None):
        comps = {t: Hcp(k, t, draw(st.dictionaries(keys, values, max_size=3)),
                        draw(st.dictionaries(st.integers(1, 4), values, max_size=1)))
                 for t in draw(st.sets(st.integers(0, 4), max_size=3))}
        for t, h in (cancel.components.items() if cancel is not None else ()):
            if draw(st.booleans()):
                comps[t] = -h
        return HcpSeries(k, comps, draw(st.one_of(st.none(), st.integers(0, 4))))

    A = series()
    B = series(cancel=A)
    c = draw(st.sampled_from([0, 3, Fraction(-2, 5), xi_pow(k, 1)]))
    small = st.fractions(min_value=0, max_value=2, max_denominator=3)
    w = Weight(draw(small), draw(small.filter(bool)))
    d = draw(st.fractions(min_value=-2, max_value=8, max_denominator=3))
    return A, B, c, w, d, draw(st.integers(0, 3))


@given(_series_cases())
@settings(max_examples=100, deadline=None)
def test_unchecked_series_equal_their_checked_rebuild(case):
    A, B, c, w, d, m = case
    AB = A * B
    assert AB == _reference_series_mul(A, B)
    sums = [A + B, A - B, A.scalar_mul(c)]
    assert sums[0] == _reference_series_add(A, B)
    assert sums[1] == _reference_series_add(A, HcpSeries(B.k, {
        t: -h for t, h in B.components.items()}, B.floor, B.top))
    assert sums[2] == HcpSeries(A.k, {t: h.scalar_mul(c) for t, h in A.components.items()},
                                A.floor, A.top)
    for P in (AB, *sums, filtration_H(A, d, w), filtration_HS(AB, d, m, w)):
        _assert_series_rebuilds(P)


def test_series_product_drops_an_order_that_cancels():
    # (1 + d)(d - 1) = d^2 - 1: the two pairs of order 1 cancel.
    one, d = Hcp(1, 0, {(0, 0): 1}), Hcp(1, 1, {(0, 0): 1})
    A = HcpSeries(1, {0: one, 1: d})
    for B, orders in ((HcpSeries(1, {0: -one, 1: d}), [0, 2]),
                      (HcpSeries(1, {0: -one, 1: d}, floor=0), [2])):
        AB = A * B
        assert sorted(AB.components) == orders
        assert AB == _reference_series_mul(A, B)
        _assert_series_rebuilds(AB)


def test_filtration_suite_sees_a_planted_product_defect(monkeypatch):
    # A filtration case computes each product once and reads it in every law
    # that needs it; each such law must still compare sides computed apart. A
    # product that loses its top term when the left factor has the larger
    # order shows in all of them on these fixed cases.
    real = gform.hcp_mul

    def lossy(H1, H2, more=()):
        h = real(H1, H2, more)
        terms = h.terms[:-1] if H1.r > H2.r else h.terms
        return gform._make_hcp(h.k, h.r, *gform._canonical(h.den, terms), h.bpart)

    cases = (1, 4, 6, 47, 102)
    assert not any(suites.filtration_case(idx, 0) for idx in cases)
    monkeypatch.setattr(gform, "hcp_mul", lossy)
    seen = {f.split(": ", 1)[1].rsplit(" (k=", 1)[0]
            for idx in cases for f in suites.filtration_case(idx, 0)}
    assert seen >= {"H product law at (v(L), v(M))", "HS product law (item 4)",
                    "commutator filtration law", "commutator weight drop",
                    "products agree above the commutator level",
                    "products agree at the top level", "binomial corollary at d=4",
                    "binomial corollary at d=3 (sigma=0)"}


def test_series_product_reaches_the_traced_hcp_mul(layertrace):
    # perfbench's reached-check on filtration-suite needs gform.hcp_mul spans
    # from series products.
    k = 3
    P = HcpSeries(k, {2: Hcp(k, 2, {(0, 0): 1}), 1: Hcp(k, 1, {(1, 2): xi_pow(k, 1)})})
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert P * P == _reference_series_mul(P, P)
    metrics = tracer.layer_metrics()
    assert metrics["gform.series_mul_calls"] == 1
    # One call per result order: 4, 3 and 2.
    assert metrics["gform.hcp_mul_calls"] == 3


def _predicted_reach(workload: str) -> dict:
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "predictions.json")
    with open(path) as f:
        return json.load(f)["reached"][workload]


def _unreached(expect: dict, metrics: dict) -> list[str]:
    """The counters of ``expect`` that a traced pass left on the wrong side of zero."""
    return ([name for name in expect["positive"] if not metrics[name] > 0]
            + [name for name in expect["zero"] if metrics[name] != 0])


def test_filtration_cases_reach_the_predicted_layers(layertrace):
    # perfbench's selftest checks these counters on a traced filtration-suite
    # pass; a product or filtration that bypasses a traced entry point fails here.
    expect = _predicted_reach("filtration-suite")
    tracer = layertrace.Tracer()
    with tracer.installed():
        for i in range(4):
            assert suites.filtration_case(i, 3) == []
    assert _unreached(expect, tracer.layer_metrics()) == []


@pytest.mark.parametrize("workload", ["nf-k3", "classify-fixtures"])
def test_workload_passes_reach_the_predicted_layers(layertrace, workloads, workload):
    # The same check on one traced pass of the benchmark's other workloads, with
    # scalars.max_bits taken over the pass's outputs as perfbench/run.py takes it.
    setup, check = workloads.WORKLOADS[workload]
    ops = setup(3)
    tracer = layertrace.Tracer()
    with tracer.installed():
        outputs = [call() for _, call in ops]
    assert [check(label, out)[1] for (label, _), out in zip(ops, outputs)] == [[]] * len(ops)
    metrics = tracer.layer_metrics()
    metrics["scalars.max_bits"] = max(layertrace.max_bits(out) for out in outputs)
    assert _unreached(_predicted_reach(workload), metrics) == []


def test_sdeg_subadditive_and_equality():
    rng = random.Random(41)
    for _ in range(40):
        k = rng.choice([1, 2, 3])
        l1, l2 = rng.randint(0, 3), rng.randint(0, 3)
        H1 = Hcp(k, rng.randint(0, 2), {(l1, 0): rng.randint(1, 3), (0, 0): 1})
        H2 = Hcp(k, rng.randint(0, 2), {(l2, 0): rng.randint(1, 3)})
        prod = hcp_mul(H1, H2)
        sa = prod.sdeg_a()
        assert sa is not None and sa <= l1 + l2
        # B-free with positive leading coefficients: no cancellation at the top.
        assert sa == l1 + l2


# -- fitting ----------------------------------------------------------------------


def test_fit_round_trip_simple():
    H = Hcp(1, 0, {(1, 0): 1})
    C = H.expand(xcap=12)
    assert fit_hcp(C, dmax=1, nbmax=0, margin=8) == H


def test_fit_round_trip_k2_example():
    H = Hcp(2, 2, {(1, 1): 1})
    C = H.expand(xcap=14)
    assert fit_hcp(C, dmax=1, nbmax=0, margin=8) == H


def test_fit_negative_order_rejected():
    C = GradedOp.from_monomials(1, [(2, 1, 1)])  # x^2 d, order -1
    with pytest.raises(PreconditionError):
        fit_hcp(C, dmax=1, nbmax=0, margin=4)


def test_fit_round_trip_random():
    rng = random.Random(43)
    for _ in range(300):
        k = rng.choice([1, 2, 3, 4])
        r = rng.randint(0, 3)
        lmax = rng.randint(0, 4)
        gamma = {}
        for _ in range(rng.randint(1, 3)):
            gamma[(rng.randint(0, lmax), rng.randint(0, k - 1))] = \
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        bpart = {}
        nb = rng.randint(0, 3)
        for j in range(1, nb + 1):
            if rng.random() < 0.7:
                bpart[j] = rng.randint(-3, 3)
        H = Hcp(k, r, gamma, bpart)
        if H.is_zero():
            continue
        dmax = max((l for l, _ in H.gamma), default=0)
        nbmax = max(H.bpart, default=0)
        need = nbmax + k * (dmax + 1) + 8
        C = H.expand(xcap=need)
        assert fit_hcp(C, dmax=dmax, nbmax=nbmax, margin=8) == H


def test_fit_detects_underestimated_bounds():
    H = Hcp(1, 0, {(3, 0): 1})  # Gamma_3 needs dmax >= 3
    C = H.expand(xcap=16)
    with pytest.raises(NotAnHcpError):
        fit_hcp(C, dmax=1, nbmax=0, margin=8)


def test_fit_window_too_small():
    H = Hcp(2, 0, {(2, 1): 1})
    C = H.expand(xcap=5)
    with pytest.raises(TruncationError):
        fit_hcp(C, dmax=2, nbmax=0, margin=8)


def test_fit_non_hcp_component_fails():
    # nu(j) = 1/(j+1) is the antiderivative-like action; not quasi-polynomial.
    k = 1
    comp = {}
    mu = [S(k, Fraction(1, m + 1)) for m in range(20)]
    for m in range(20):
        val = mu[m]
        for n, a in comp.items():
            val = val - a * math.perm(m, n)
        if not val.is_zero():
            comp[m] = val * Fraction(1, math.factorial(m))
    C = GradedOp(k, {0: comp}, None, 0, {0: 19})
    with pytest.raises(NotAnHcpError):
        fit_hcp(C, dmax=2, nbmax=1, margin=8)


def _dense_fit(C, dmax, nbmax, r):
    """The fit as one dense k(dmax+1)-square system in the unknowns f[l,i],
    with entries n^l xi^(i n), then the B part by subtraction."""
    k = C.k
    cols = [(l, i) for l in range(dmax + 1) for i in range(k)]
    samples = range(nbmax, nbmax + len(cols))
    mu = _reference_comp_nu(C.components.get(r, {}), 0, samples[-1], k)
    matrix = [[xi_pow(k, i * n) * n ** l for l, i in cols] for n in samples]
    sol = solve_square(matrix, [mu[n] for n in samples])
    gamma = dict(zip(cols, sol))
    quasi = eigenvalues(Hcp(k, r, gamma), range(nbmax))
    return Hcp(k, r, gamma, {n + 1: mu[n] - quasi[n] for n in range(nbmax)})


def test_fit_matches_dense_system():
    rng = random.Random(47)
    for k in (1, 2, 3, 4, 5, 6, 8):  # k > deg Phi_k for 4, 5, 6 and 8
        for nbmax in range(4):
            for _ in range(2):
                r = rng.randint(0, 3)
                dmax = rng.randint(0, 2)
                gamma = {(rng.randint(0, dmax), rng.randint(0, k - 1)): _rand_scalar(rng, k)
                         for _ in range(rng.randint(1, 4))}
                bpart = {j: _rand_scalar(rng, k) for j in range(1, nbmax + 1)
                         if rng.random() < 0.7}
                H = Hcp(k, r, gamma, bpart)
                margin = rng.randint(0, 5)
                need = nbmax + k * (dmax + 1) + margin
                C = H.expand(xcap=need)
                got = fit_hcp(C, dmax=dmax, nbmax=nbmax, margin=margin, r=r)
                assert got == H == _dense_fit(C, dmax, nbmax, r)
                assert all(type(c) is CycloScalar and c.k == k
                           for c in [*got.gamma.values(), *got.bpart.values()])
                # One sample past the fit window, changed: the check names it.
                n_bad = rng.randint(nbmax + k * (dmax + 1), need)
                mu = _reference_comp_nu(C.components.get(r, {}), 0, need, k)
                mu[n_bad] = mu[n_bad] + xi_pow(k, rng.randint(0, k - 1))
                den, lanes = _lanes(k, mu)
                bad = GradedOp(k, {r: _comp_of_lanes(k, lanes, den, 0)}, None, r, {r: need})
                with pytest.raises(NotAnHcpError, match=f"failed at sample {n_bad}\\)"):
                    fit_hcp(bad, dmax=dmax, nbmax=nbmax, margin=margin, r=r)


def test_fit_reaches_the_traced_solver(layertrace):
    # perfbench's reached-checks on nf-k3 need linalg.solve_square spans and
    # scalar inverses from the fit.
    k, dmax = 3, 2
    H = Hcp(k, 1, {(2, 1): xi_pow(k, 1), (0, 0): 1, (1, 2): Fraction(1, 2)})
    C = H.expand(xcap=k * (dmax + 1) + 4)
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert gform.fit_hcp(C, dmax=dmax, nbmax=0, margin=4) == H
    solves = [span for span in tracer.spans if span[0] == "linalg.solve_square"]
    assert len(solves) == k and all(span[5] == dmax + 1 for span in solves)
    assert tracer.counts["inv"] > 0
    metrics = tracer.layer_metrics()
    assert metrics["linalg.solve_calls"] == k and metrics["linalg.solve_max_n"] == dmax + 1
    assert metrics["gform.fit_calls"] == 1 and metrics["scalars.inv_calls"] > 0


def test_fit_gives_the_canonical_form_and_checks_samples_without_scalars(monkeypatch):
    # fit_hcp builds its result from integer vectors, not through the public
    # constructor; both must give the same (den, terms). Its sample check runs
    # on integers: a window twice as long builds no more scalars.
    rng = random.Random(59)
    real_make, real_init = scalars._make, CycloScalar.__init__
    for k in (1, 2, 3, 4, 5, 6, 8):
        dmax, nbmax = rng.randint(0, 2), rng.randint(0, 2)
        gamma = {(rng.randint(0, dmax), rng.randint(0, k - 1)): _rand_scalar(rng, k)
                 for _ in range(3)}
        bpart = {j: _rand_scalar(rng, k) for j in range(1, nbmax + 1)}
        H = Hcp(k, rng.randint(0, 2), gamma, bpart)
        need = nbmax + k * (dmax + 1)
        # margin and cap agree, so a finite expansion and a capped one check
        # the same samples.
        windows = [(H.expand(xcap=need + extra), extra) for extra in (0, need)]
        built, counts = [], []
        with monkeypatch.context() as mp:
            mp.setattr(scalars, "_make", lambda *a: built.append(a) or real_make(*a))
            mp.setattr(CycloScalar, "__init__",
                       lambda self, *a: built.append(a) or real_init(self, *a))
            for C, margin in windows:
                got = fit_hcp(C, dmax=dmax, nbmax=nbmax, margin=margin, r=H.r)
                counts.append(len(built))
        assert counts[1] == 2 * counts[0]
        rebuilt = Hcp(k, H.r, dict(got.gamma), dict(got.bpart))
        for ref in (H, rebuilt):
            assert (got.den, got.terms, got.bpart) == (ref.den, ref.terms, ref.bpart)
            assert got == ref and hash(got) == hash(ref)


def _two_forms(C):
    """(2/3) C twice: held as lanes alone (a multiple), and as coefficients."""
    return C.scalar_mul(Fraction(2, 3)), GradedOp.from_dict(C.scalar_mul(Fraction(2, 3)).to_dict())


def test_fit_reads_held_lanes_as_it_reads_coefficients(monkeypatch):
    # The fit reads mu(n) = nu_r(n + r) / perm(n + r, r) from the lanes the
    # operator's factor holds, whether they came from coefficients or from
    # a product or multiple, and builds no coefficients for lanes alone.
    rng = random.Random(61)
    real, built = operators._comp_of_lanes, []
    for k in (1, 2, 3, 4, 5, 6, 8):
        assert fit_hcp(GradedOp.zero(k), dmax=1, nbmax=1, margin=2, r=2) == Hcp(k, 2)
        for _ in range(4):
            r, dmax, nbmax = rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2)
            gamma = {(rng.randint(0, dmax), rng.randint(0, k - 1)): _rand_scalar(rng, k)
                     for _ in range(rng.randint(1, 3))}
            bpart = {j: _rand_scalar(rng, k) for j in range(1, nbmax + 1) if rng.random() < 0.7}
            H = Hcp(k, r, gamma, bpart)
            margin = rng.randint(0, 4)
            need = nbmax + k * (dmax + 1) + margin
            lanes_only, coeffs = _two_forms(H.expand(xcap=need))
            assert r not in lanes_only._factor.comps
            with monkeypatch.context() as mp:
                mp.setattr(operators, "_comp_of_lanes", lambda *a: built.append(a) or real(*a))
                got = fit_hcp(lanes_only, dmax=dmax, nbmax=nbmax, margin=margin, r=r)
            assert not built and r not in lanes_only._factor.comps
            assert got == fit_hcp(coeffs, dmax=dmax, nbmax=nbmax, margin=margin, r=r)
            assert got == H.scalar_mul(Fraction(2, 3))
            # One sample past the fit window, changed: both forms fail at it.
            n_bad = rng.randint(nbmax + k * (dmax + 1), need)
            mu = eigenvalues(H, range(need + 1))
            mu[n_bad] = mu[n_bad] + xi_pow(k, rng.randint(0, k - 1))
            den, lanes = _lanes(k, mu)
            bad = GradedOp(k, {r: _comp_of_lanes(k, lanes, den, 0)}, None, r, {r: need})
            for form in _two_forms(bad):
                with pytest.raises(NotAnHcpError, match=f"failed at sample {n_bad}\\)"):
                    fit_hcp(form, dmax=dmax, nbmax=nbmax, margin=margin, r=r)


def test_normal_form_report_fits_without_building_coefficients(monkeypatch):
    # The fits read the conjugate's held lanes: coefficients are built only
    # for the Schur recurrence's orders of R_t, none by Factor.comp.
    P, Q = parse_operator("d^5 + x^2*d"), parse_operator("d^3 + x*d + x^2")
    schur.normal_form_report(P, Q, depth=8)
    real, calls = operators._comp_of_lanes, []
    monkeypatch.setattr(operators, "_comp_of_lanes",
                        lambda *a: calls.append("Factor.comp") or real(*a))
    monkeypatch.setattr(schur, "_comp_of_lanes",
                        lambda *a: calls.append("schur_operator") or real(*a))
    res = schur.normal_form_report(P, Q, depth=8)
    assert res.schur.verified and res.fitted_orders == [5, 2, 0]
    assert calls == ["schur_operator"] * 4


# -- condition A_q(k) -----------------------------------------------------------------


def test_check_aqk_pure_power():
    P = HcpSeries.d_power(2, 4)
    assert check_Aqk(P, 0).ok


def test_check_aqk_growth_violation():
    P = HcpSeries(2, {5: Hcp(2, 5, {(0, 0): 1}), 4: Hcp(2, 4, {(2, 0): 1})})
    rep = check_Aqk(P, 0)
    assert not rep.ok and rep.clause == 3


def test_check_aqk_bpart_violation():
    P = HcpSeries(2, {3: Hcp(2, 3, {(0, 0): 1}), 2: Hcp(2, 2, {}, {1: 1})})
    rep = check_Aqk(P, 0)
    assert not rep.ok and rep.clause == 2


def test_check_aqk_top_ai_violation():
    P = HcpSeries(2, {3: Hcp(2, 3, {(0, 0): 1, (0, 1): 1})})
    rep = check_Aqk(P, 0)
    assert not rep.ok and rep.clause == 4


# -- series ----------------------------------------------------------------------------


def test_series_arithmetic_and_expand():
    k = 2
    P = HcpSeries(k, {3: Hcp(k, 3, {(0, 0): 1}), 1: Hcp(k, 1, {(1, 0): Fraction(3, 2)})})
    Q = HcpSeries.d_power(k, 2)
    R = P * Q
    assert R.top_order() == 5
    lhs = R.expand(xcap=10)
    rhs = P.expand(xcap=14) * Q.expand(xcap=14)
    assert lhs.agrees_with(rhs)


def test_series_power_is_repeated_product():
    k = 3
    xi = xi_pow(k, 1)
    finite = HcpSeries(k, {2: Hcp(k, 2, {(0, 0): 1, (1, 1): xi}),
                           0: Hcp(k, 0, {(2, 0): Fraction(1, 2)}, {1: 2})})
    floored = HcpSeries(k, {3: Hcp(k, 3, {(0, 0): 1}), 2: Hcp(k, 2, {(1, 2): -xi}),
                            1: Hcp(k, 1, {(0, 1): 3})}, floor=1, top=3)
    for P in (finite, floored):
        expect = HcpSeries.one(k)
        for e in range(5):
            assert P ** e == expect
            expect = expect * P
    with pytest.raises(PreconditionError):
        finite ** -1
    for k in range(1, 13):
        one, d0 = HcpSeries.one(k), HcpSeries.d_power(k, 0)
        assert one == d0 and hash(one) == hash(d0) and one.is_monic()
        assert (one.floor, one.top) == (d0.floor, d0.top)


def _reference_series_pow(P, e):
    """The body of ``HcpSeries.__pow__`` before the shared graded base."""
    if e == 0:
        return HcpSeries.one(P.k)
    out = P
    for _ in range(e - 1):
        out = out * P
    return out


def _reference_series_agrees_with(A, B):
    """The body of ``HcpSeries.agrees_with`` before the shared graded base."""
    lo = max(A.floor_eff(), B.floor_eff())
    if lo == -math.inf:
        lo = 0
    return all(A.component(t) == B.component(t) for t in range(int(lo), max(A.top, B.top) + 1))


def test_series_window_algebra_matches_reference():
    k = 3
    xi = xi_pow(k, 1)
    P = HcpSeries(k, {3: Hcp(k, 3, {(0, 0): 1}), 2: Hcp(k, 2, {(1, 2): -xi}),
                      1: Hcp(k, 1, {(0, 1): 3}), 0: Hcp(k, 0, {(2, 0): 1}, {1: 2})})
    series = [P, P.restrict_floor(1), P.restrict_floor(2), HcpSeries(k, P.components, 0, 5),
              P + HcpSeries.from_hcp(Hcp(k, 1, {(0, 1): 1})).restrict_floor(1),
              HcpSeries.one(k), HcpSeries.zero(k)]
    verdicts = set()
    for A in series:
        for e in range(4):
            assert A ** e == _reference_series_pow(A, e)
        for B in series:
            assert A - B == A + B.scalar_mul(-1)  # the one-pass difference against -B
            got = A.agrees_with(B)
            assert got == _reference_series_agrees_with(A, B)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_hcp_arithmetic_rejects_foreign_operands():
    H = Hcp(2, 1, {(0, 0): 1, (1, 1): Fraction(1, 2)})
    for other in (1, Fraction(1, 2), HcpSeries.from_hcp(H), GradedOp.one(2)):
        for apply in (lambda: H + other, lambda: H - other, lambda: H * other):
            with pytest.raises(TypeError):
                apply()
    # The series side still takes an Hcp operand.
    assert HcpSeries.from_hcp(H) + H == HcpSeries.from_hcp(H + H)
    assert HcpSeries.from_hcp(H) * H == HcpSeries.from_hcp(H * H)


def test_series_serialization_round_trip():
    k = 3
    P = HcpSeries(k, {2: Hcp(k, 2, {(1, 2): CycloScalar(k, [1, Fraction(1, 2)])}),
                      0: Hcp(k, 0, {(0, 0): -1}, {2: 5})}, floor=0)
    assert HcpSeries.from_dict(P.to_dict()) == P


def test_gform_str():
    H = Hcp(2, 3, {(2, 0): 1, (0, 1): Fraction(1, 2)}, {2: -1})
    assert H.gform_str() == "G{r=3; f[0,1]=1/2; f[2,0]=1; g[2]=-1}"
