"""Graded operator arithmetic: Leibniz oracle, windows, and the action."""

from fractions import Fraction
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from weylnf.errors import (
    ContextMismatchError,
    PreconditionError,
    TruncationError,
    UndefinedOrderError,
)
from weylnf import operators
from weylnf.fixtures import kdv_pair
from weylnf.operators import (
    Factor,
    GradedOp,
    XdMonomial,
    _comp_of_lanes,
    _lane_total,
    _op_of,
    ad_pow,
    commutator,
    mono_mul,
    order_product,
    poly_from_pairs,
    product_floor,
)
from weylnf.scalars import (CycloScalar, _lane_mul, _lanes, _reduced, as_scalar, cyclotomic_poly,
                            xi_pow)


def S(k, v):
    return CycloScalar.from_rational(k, v)


def mono(k, n, m, c=1):
    return XdMonomial(n, m, S(k, c))


def op(k, *items):
    return GradedOp.from_monomials(k, items)


def apply_oracle(A, n):
    """Independent route: act on x^n monomial by monomial."""
    out = {}
    for m in A.monomials():
        if m.ddeg <= n:
            f = 1
            for i in range(m.ddeg):
                f *= n - i
            deg = n - m.ddeg + m.xdeg
            out[deg] = out.get(deg, S(A.k, 0)) + m.coeff * f
    return {d: c for d, c in out.items() if not c.is_zero()}


# -- mono_mul ---------------------------------------------------------------


def test_d_times_x():
    got = mono_mul(mono(1, 0, 1), mono(1, 1, 0))
    assert got == op(1, (1, 1, 1), (0, 0, 1))


def test_d2_times_x2():
    got = mono_mul(mono(1, 0, 2), mono(1, 2, 0))
    assert got == op(1, (2, 2, 1), (1, 1, 4), (0, 0, 2))


def test_xd_times_xd():
    got = mono_mul(mono(1, 1, 1), mono(1, 1, 1))
    assert got == op(1, (2, 2, 1), (1, 1, 1))


def test_mono_mul_matches_action():
    rng = random.Random(3)
    for _ in range(60):
        a = mono(1, rng.randint(0, 3), rng.randint(0, 3), Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        b = mono(1, rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 4))
        prod = mono_mul(a, b)
        amono = op(1, (a.xdeg, a.ddeg, a.coeff))
        bmono = op(1, (b.xdeg, b.ddeg, b.coeff))
        for n in range(0, 9):
            lhs = apply_oracle(prod, n)
            inner = apply_oracle(bmono, n)
            rhs = {}
            for deg, c in inner.items():
                for d2, c2 in apply_oracle(amono, deg).items():
                    rhs[d2] = rhs.get(d2, S(1, 0)) + c2 * c
            rhs = {d: c for d, c in rhs.items() if not c.is_zero()}
            assert lhs == rhs


# -- ring operations -----------------------------------------------------------


def test_commutator_d2_x():
    A = GradedOp.d_op(1, 2)
    B = GradedOp.x_op(1)
    assert commutator(A, B) == op(1, (0, 1, 2))


def test_mul_identity():
    A = op(1, (0, 2, 1), (1, 0, 1))  # d^2 + x
    assert A * GradedOp.one(1) == A
    assert GradedOp.one(1) * A == A


def test_airy_like_commutator():
    # [d^2+x, d^3 + (3/2)x d + 3/4] expands to -(3/2) x.
    Q = op(1, (0, 2, 1), (1, 0, 1))
    P = op(1, (0, 3, 1), (1, 1, Fraction(3, 2)), (0, 0, Fraction(3, 4)))
    got = commutator(Q, P)
    assert got == op(1, (1, 0, Fraction(-3, 2)))
    assert commutator(P, Q) == op(1, (1, 0, Fraction(3, 2)))


def test_op_mul_matches_monomial_expansion():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.choice([1, 2, 3])
        items_a = [(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(3)]
        items_b = [(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(3)]
        items_a = [(n, m, c) for n, m, c in items_a if c]
        items_b = [(n, m, c) for n, m, c in items_b if c]
        A, B = op(k, *items_a), op(k, *items_b)
        expected = GradedOp.zero(k)
        for ma in A.monomials():
            for mb in B.monomials():
                expected = expected + mono_mul(ma, mb)
        got = A * B
        assert got.agrees_with(expected)
        assert got.components == expected.components


def _field_coeff(rng, k):
    """A random rational plus a rational multiple of a power of xi."""
    return (Fraction(rng.randint(-4, 4), rng.randint(1, 6))
            + Fraction(rng.randint(-3, 3), rng.randint(1, 5)) * xi_pow(k, rng.randrange(k)))


def _field_op(rng, k, nterms, maxdeg):
    """A random operator whose coefficients are rationals times xi powers."""
    items = []
    for _ in range(nterms):
        c = _field_coeff(rng, k)
        if not c.is_zero():
            items.append((rng.randint(0, maxdeg), rng.randint(0, maxdeg), c))
    return op(k, *items)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_field_coefficient_products_match_oracles(k):
    rng = random.Random(100 + k)
    for _ in range(8):
        A, B = _field_op(rng, k, 3, 3), _field_op(rng, k, 3, 3)
        expected = GradedOp.zero(k)
        for ma in A.monomials():
            for mb in B.monomials():
                expected = expected + mono_mul(ma, mb)
        AB = A * B
        assert AB == expected
        for n in range(0, 9):
            xn = poly_from_pairs(k, [(n, 1)])
            assert AB.apply_to_poly(xn) == A.apply_to_poly(B.apply_to_poly(xn))
    A, B = _field_op(rng, k, 5, 4), _field_op(rng, k, 5, 4)
    got = A.restrict(floor=-2, xcap=3) * B.restrict(floor=-1, xcap=4)
    assert got.floor is not None and got.xcaps
    assert got.agrees_with(A * B)


# -- the nu transforms ---------------------------------------------------------


def _reference_comp_nu(comp, t, jmax, k):
    zero = CycloScalar.zero(k)
    nu = [zero] * (jmax + 1)
    for n, c in comp.items():
        m = n + t
        for j in range(m, jmax + 1):
            nu[j] = nu[j] + c * math.perm(j, m)
    return nu


def _reference_nu_to_comp(nu, t, k):
    out = {}
    for j in range(max(0, t), len(nu)):
        val = nu[j]
        for n, a in out.items():
            m = n + t
            if m <= j:
                f = math.perm(j, m)
                if f:
                    val = val - a * f
        if not val.is_zero():
            out[j - t] = val * Fraction(1, math.factorial(j))
    return out


FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def _field_scalar(data, k):
    """A rational plus a rational multiple of a power of xi, reduced mod Phi_k."""
    a, b = data.draw(FRACTIONS), data.draw(FRACTIONS)
    return a + b * xi_pow(k, data.draw(st.integers(0, k - 1)))


def _component(data, k, t):
    n0 = max(0, -t)
    ns = data.draw(st.sets(st.integers(n0, n0 + 7), max_size=5))
    comp = {n: _field_scalar(data, k) for n in sorted(ns)}
    return {n: c for n, c in comp.items() if not c.is_zero()}


def _assert_scalar_invariant(v, k):
    assert type(v) is CycloScalar and v.k == k
    assert type(v.coeffs) is tuple and len(v.coeffs) == len(cyclotomic_poly(k)) - 1
    assert all(type(f) is Fraction for f in v.coeffs)


ORDERS = st.integers(min_value=1, max_value=12)
SHIFTS = st.integers(min_value=-6, max_value=6)


def _lane_values(k, den, lanes, count):
    """The scalars (lanes[i][j] / den)_i, j < count, by the checked constructor."""
    return [CycloScalar(k, [Fraction(lane[j], den) for lane in lanes]) for j in range(count)]


def _comp_of_values(nu, t, k):
    """``_comp_of_lanes`` of the values ``nu``, taken as zero below max(0, t)."""
    m0 = max(0, t)
    den, lanes = _lanes(k, nu[m0:])
    return _comp_of_lanes(k, [[0] * m0 + lane for lane in lanes], den, t)


def _factor_nu(comp, t, jmax, k):
    """nu(0..jmax) of the order-t component ``comp``, read from Factor.nu's lanes."""
    den, lanes = Factor(k, {t: comp}, {}).nu(t, jmax)
    assert all(len(lane) == jmax + 1 and all(type(x) is int for x in lane) for lane in lanes)
    return _lane_values(k, den, lanes, jmax + 1)


@given(ORDERS, SHIFTS, st.data())
@settings(max_examples=200, deadline=None)
def test_comp_nu_matches_reference(k, t, data):
    comp = _component(data, k, t)
    jmax = data.draw(st.integers(-1, 16))
    assert _factor_nu(comp, t, jmax, k) == _reference_comp_nu(comp, t, jmax, k)


@given(ORDERS, SHIFTS, st.data())
@settings(max_examples=200, deadline=None)
def test_nu_to_comp_matches_reference(k, t, data):
    zero = CycloScalar.zero(k)
    live = data.draw(st.lists(st.booleans(), max_size=14))
    nu = [_field_scalar(data, k) if b else zero for b in live]
    got = _comp_of_values(nu, t, k)
    assert got == _reference_nu_to_comp(nu, t, k)
    for v in got.values():
        _assert_scalar_invariant(v, k)
        assert not v.is_zero()


@given(ORDERS, SHIFTS, st.data())
@settings(max_examples=200, deadline=None)
def test_nu_transforms_round_trip(k, t, data):
    comp = _component(data, k, t)
    jmax = max((n + t for n in comp), default=0) + data.draw(st.integers(0, 3))
    assert _comp_of_values(_reference_comp_nu(comp, t, jmax, k), t, k) == comp


@given(ORDERS, SHIFTS, st.data())
@settings(max_examples=100, deadline=None)
def test_factor_nu_extends_in_steps(k, t, data):
    comp = _component(data, k, t)
    first, full = sorted(data.draw(st.lists(st.integers(-1, 14), min_size=2, max_size=2)))
    stepped = Factor(k, {t: comp}, {})
    stepped.nu(t, first)
    den, lanes = stepped.nu(t, full)
    assert (den, lanes) == Factor(k, {t: comp}, {}).nu(t, full)
    assert den == math.lcm(*[f.denominator for c in comp.values() for f in c.coeffs])
    assert type(lanes) is tuple and len(lanes) == len(cyclotomic_poly(k)) - 1
    assert all(len(lane) == full + 1 and all(type(x) is int for x in lane) for lane in lanes)
    assert _lane_values(k, den, lanes, full + 1) == _reference_comp_nu(comp, t, full, k)


def test_nu_transforms_of_empty_input():
    for k in (1, 3, 5):
        assert _factor_nu({}, -2, 4, k) == [CycloScalar.zero(k)] * 5
        assert _factor_nu({0: CycloScalar.one(k)}, 0, -1, k) == []
        assert _comp_of_values([], 2, k) == {}
        assert _comp_of_values([CycloScalar.zero(k)] * 5, -1, k) == {}


# -- the product kernel --------------------------------------------------------


def _reference_order_product(t, pairs, L, R):
    """The CycloScalar body of order_product before it ran on integer lanes,
    with its nu sequences from the reference transforms."""
    k = L.k
    cap = min((min(L.caps.get(t1, math.inf), R.caps.get(t2, math.inf) - t1)
               for t1, t2 in pairs), default=math.inf)
    live = [(t1, t2) for t1, t2 in pairs if L.comps.get(t1) and R.comps.get(t2)]
    if cap != math.inf:
        jmax = int(cap) + t
    else:
        jmax = max((max(L.comps[t1]) + max(R.comps[t2]) + t for t1, t2 in live), default=-1)
    nu = [CycloScalar.zero(k)] * (jmax + 1)
    for t1, t2 in live:
        if t2 > jmax:
            continue
        nur = _reference_comp_nu(R.comps[t2], t2, jmax, k)
        nul = _reference_comp_nu(L.comps[t1], t1, jmax - t2, k)
        for j in range(max(t2, 0), jmax + 1):
            v, w = nur[j], nul[j - t2]
            if v and w:
                nu[j] = nu[j] + v * w
    return _reference_nu_to_comp(nu, t, k), cap


KERNEL_ORDERS = range(-4, 4)


def _factor(data, k):
    """A factor with content, empty and absent orders, some finite caps, and
    some nu sequences already cached at various lengths."""
    comps, caps = {}, {}
    capped = data.draw(st.booleans())
    for t in KERNEL_ORDERS:
        kind = data.draw(st.sampled_from(["content"] * 3 + ["empty", "absent"]))
        if kind != "absent":
            comps[t] = {}
        if kind == "content":
            n0 = max(0, -t)
            for n in data.draw(st.sets(st.integers(n0, n0 + 5), min_size=1, max_size=4)):
                comps[t][n] = _field_scalar(data, k)
        if capped and data.draw(st.booleans()):
            caps[t] = data.draw(st.integers(0, 12))
    F = Factor(k, comps, caps)
    for t in data.draw(st.lists(st.sampled_from(KERNEL_ORDERS), max_size=3)):
        if comps.get(t):
            F.nu(t, data.draw(st.integers(-1, 12)))
    return F


def _assert_matches_reference(t, pairs, L, R):
    """order_product's held lanes, as coefficients, and its cap match the reference."""
    held, cap = order_product(t, pairs, L, R)
    if held is not None:
        den, lanes = held
        assert any(map(any, lanes))
        assert math.gcd(den, *[x for lane in lanes for x in lane]) == 1
    got = (_comp_of_lanes(L.k, held[1], held[0], t) if held else {}), cap
    assert got == _reference_order_product(t, pairs, L, R)
    for v in got[0].values():
        _assert_scalar_invariant(v, L.k)
        assert not v.is_zero()
    return got


def _check_drawn_products(k, data):
    L, R = _factor(data, k), _factor(data, k)
    for _ in range(3):  # later products reuse and extend the cached sequences
        t = data.draw(st.integers(-7, 5))
        pairs = [(t1, t - t1) for t1 in KERNEL_ORDERS
                 if t - t1 in KERNEL_ORDERS and data.draw(st.booleans())]
        _assert_matches_reference(t, pairs, L, R)


@given(ORDERS, st.data())
@settings(max_examples=60, deadline=None)
def test_order_product_matches_reference(k, data):
    _check_drawn_products(k, data)


@given(st.sampled_from([1, 2]), st.data())
@settings(max_examples=60, deadline=None)
def test_order_product_matches_reference_in_degree_one(k, data):
    # deg Phi_k = 1 takes the one-pass loop, which ORDERS draws about 1 time in 6.
    _check_drawn_products(k, data)


def test_order_product_edge_cases():
    k = 3
    xi = xi_pow(k, 1)
    L = Factor(k, {-3: {3: S(k, Fraction(1, 4))}, -1: {1: S(k, Fraction(1, 4)) * xi},
                   0: {0: S(k, Fraction(1, 6)), 2: xi}, 2: {}}, {-3: 1})
    R = Factor(k, {4: {0: S(k, Fraction(1, 6))}, 2: {0: S(k, Fraction(1, 10)) * xi},
                   1: {0: S(k, Fraction(1, 6)), 3: xi + 1}, 0: {1: S(k, 2)}}, {})
    # Per-pair denominators 24 and 60 (lcm 120, product 1440); the cap 1 of
    # L_-3 gives jmax = 2, below t2 = 4, so the pair (-3, 4) is skipped.
    comp, cap = _assert_matches_reference(1, [(-3, 4), (-1, 2)], L, R)
    assert cap == 1 and comp
    # Infinite caps and xi * xi terms (xi^2 = -1 - xi mod Phi_3); the pair
    # (2, -1) has an empty left component and (1, 0) an absent one.
    L.nu(0, 1)  # extended in steps by the next product
    comp, cap = _assert_matches_reference(1, [(0, 1), (-1, 2), (2, -1), (1, 0)], L, R)
    assert cap == math.inf and comp
    _assert_matches_reference(2, [(0, 2), (2, 0)], L, R)
    assert order_product(5, [], L, R) == (None, math.inf)


@pytest.mark.parametrize("k", [1, 2])
def test_order_product_degree_one_edge_cases(k):
    # deg Phi_k = 1: one loop multiplies, scales and sums the values.
    def factor(comps, caps=None):
        return Factor(k, {t: {n: S(k, c) for n, c in comp.items()}
                          for t, comp in comps.items()}, caps or {})

    L = factor({-3: {3: Fraction(1, 4)}, -1: {1: Fraction(1, 4)},
                0: {0: Fraction(1, 6), 2: 2}, 1: {0: 3}}, {-3: 1})
    R = factor({4: {0: Fraction(1, 6)}, 2: {0: Fraction(1, 10)},
                1: {0: Fraction(1, 6), 3: 3}, 0: {1: 2}})
    # The cap 1 of L_-3 gives jmax = 2, below t2 = 4, so the pair (-3, 4) is
    # skipped before R_4's sequence is computed. The one product, 2/40 at
    # j = 2, is reduced by the gcd to 1/20.
    comp, cap = _assert_matches_reference(1, [(-3, 4), (-1, 2)], L, R)
    assert cap == 1 and comp and 4 not in R.nus
    assert order_product(1, [(-3, 4), (-1, 2)], L, R)[0] == (20, ([0, 0, 1],))
    # Exact orders: jmax = 6 comes from reach, 2 of L_0 (x^2 d^2) plus 4 of
    # R_1 (x^3 d^4). The pair denominators 36, 40 and 1 are scaled by 10, 9
    # and 360 to their lcm.
    L.nu(0, 1)  # extended in steps by the next product
    comp, cap = _assert_matches_reference(1, [(0, 1), (-1, 2), (1, 0)], L, R)
    assert cap == math.inf and comp
    assert len(order_product(1, [(0, 1), (-1, 2), (1, 0)], L, R)[0][1][0]) == 7
    # nu of x^3 d^5 vanishes below j = 5, so the pair (0, 2) adds zero on
    # j = 2 .. 4; the pair (1, 1) alone gives the result.
    L = factor({0: {0: 1}, 1: {0: Fraction(1, 2)}}, {0: 2})
    R = factor({2: {3: 5}, 1: {0: Fraction(1, 3)}})
    comp, cap = _assert_matches_reference(2, [(0, 2), (1, 1)], L, R)
    assert cap == 2 and comp
    assert order_product(2, [(0, 2)], L, R) == (None, 2)
    # (1/3) * (3/2) d + (1/2) d * (-1) = 0, over the denominators 6 and 2.
    L = factor({0: {0: Fraction(1, 3)}, 1: {0: Fraction(1, 2)}})
    R = factor({1: {0: Fraction(3, 2)}, 0: {0: -1}}, {1: 5})
    assert _assert_matches_reference(1, [(0, 1), (1, 0)], L, R) == ({}, 5)
    assert order_product(1, [(0, 1), (1, 0)], L, R) == (None, 5)


def _lane_reference(t, pairs, L, R):
    """order_product's held ``(D, lanes)`` with every pair multiplied by
    ``_lane_mul`` and summed by ``_lane_total``, whatever the lanes hold."""
    cap = min((min(L.caps.get(t1, math.inf), R.caps.get(t2, math.inf) - t1)
               for t1, t2 in pairs), default=math.inf)
    live = [(t1, t2) for t1, t2 in pairs if L.holds(t1) and R.holds(t2)]
    if cap != math.inf:
        jmax = int(cap) + t
    else:
        jmax = max((L.reach(t1) + R.reach(t2) for t1, t2 in live), default=-1)
    phi, terms = cyclotomic_poly(L.k), []
    for t1, t2 in live:
        j0 = max(t2, t, 0)
        if j0 <= jmax:
            dr, nur = R.nu(t2, jmax)
            dl, nul = L.nu(t1, jmax - t2)
            terms.append((dl * dr, _lane_mul(phi, [x[j0:jmax + 1] for x in nur],
                                             [y[j0 - t2:jmax + 1 - t2] for y in nul]), j0))
    return _lane_total(L.k, jmax, terms)


def _assert_held_lanes_match_reference(A, B):
    """A * B, with each order's held (D, lanes) equal to ``_lane_reference``."""
    AB = A * B
    floor, pairs = product_floor(A, B), {}
    for ta in A.active_orders():
        for tb in B.active_orders():
            if floor is None or ta + tb >= floor:
                pairs.setdefault(ta + tb, []).append((ta, tb))
    for t, plist in pairs.items():
        held = AB._factor.nus.get(t)
        assert (held and held[:2]) == _lane_reference(t, plist, A._factor, B._factor)
        assert held is None or len(held[1]) == len(cyclotomic_poly(A.k)) - 1
    return AB


def _rational_op(rng, window):
    items = [(rng.randint(0, 4), rng.randint(0, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 6)))
             for _ in range(rng.randint(1, 4))]
    A = op(1, *[item for item in items if item[2]] or [(0, 0, 1)])
    if window:
        A = A.restrict(floor=A.top - rng.randint(1, 5), xcap=rng.randint(1, 8))
    return A


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_lifted_rational_products_take_one_lane(k):
    # Rational operators lifted to Q(xi) hold zero lanes past the first, so
    # the kernel multiplies the first lanes alone; the held lanes equal the
    # mod-Phi_k route's, for exact and for truncated operands, and for an
    # operand that is itself a product held as lanes.
    rng = random.Random(70 + k)
    for trial in range(12):
        A, B = _rational_op(rng, trial % 3 == 1), _rational_op(rng, trial % 3 == 2)
        Ak, Bk = A.lift_context(k), B.lift_context(k)
        AB = _assert_held_lanes_match_reference(Ak, Bk)
        assert AB == (A * B).lift_context(k)
        assert _assert_held_lanes_match_reference(AB, Ak) == (A * B * A).lift_context(k)


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_products_with_a_xi_term_in_either_operand_match_leibniz(k):
    # A xi term in the left operand only, in the right only, or in both:
    # the kernel reads both operands' lanes past the first and multiplies
    # mod Phi_k.
    rng = random.Random(80 + k)
    xi = xi_pow(k, 1)
    for _ in range(6):
        A, B = _rational_op(rng, False).lift_context(k), _rational_op(rng, False).lift_context(k)
        Ax = A + op(k, (rng.randint(0, 3), rng.randint(0, 3), xi))
        Bx = B + op(k, (rng.randint(0, 3), rng.randint(0, 3), xi * Fraction(2, 3)))
        for L, R in ((Ax, B), (A, Bx), (Ax, Bx)):
            expected = GradedOp.zero(k)
            for ma in L.monomials():
                for mb in R.monomials():
                    expected = expected + mono_mul(ma, mb)
            assert _assert_held_lanes_match_reference(L, R) == expected


def _fresh(A):
    """A copy of A with the same value and a fresh factor."""
    return GradedOp.from_dict(A.to_dict())


# -- one sweep per product -------------------------------------------------------


def _per_order_product(t, pairs, L, R):
    """One result order as the kernel computed it before the sweep: caps, live
    pairs, reaches and fetches read pair by pair, in the factors' state left
    by the orders before it."""
    cap, live = math.inf, []
    for t1, t2 in pairs:
        cap = min(cap, L.caps.get(t1, math.inf), R.caps.get(t2, math.inf) - t1)
        if L.holds(t1) and R.holds(t2):
            live.append((t1, t2))
    if cap != math.inf:
        jmax = int(cap) + t
    else:
        jmax = max((L.reach(t1) + R.reach(t2) for t1, t2 in live), default=-1)
    terms = []
    for t1, t2 in live:
        j0 = max(t2, t, 0)
        if j0 <= jmax:
            e = R.nus.get(t2)
            dr, nur = e[:2] if e and len(e[1][0]) > jmax else R.nu(t2, jmax)
            e = L.nus.get(t1)
            dl, nul = e[:2] if e and len(e[1][0]) > jmax - t2 else L.nu(t1, jmax - t2)
            terms.append((dl * dr, nur, nul, j0, t2))
    phi = cyclotomic_poly(L.k)
    if len(phi) > 2 and any(any(map(any, nur[1:])) or any(map(any, nul[1:]))
                            for _, nur, nul, _, _ in terms):
        return _lane_total(L.k, jmax, [
            (d, _lane_mul(phi, [x[j0:jmax + 1] for x in nur],
                          [y[j0 - t2:jmax + 1 - t2] for y in nul]), j0)
            for d, nur, nul, j0, t2 in terms]), cap
    den = math.lcm(*[d for d, *_ in terms])
    acc = [0] * (jmax + 1)
    for d, nur, nul, j0, t2 in terms:
        for j in range(j0, jmax + 1):
            acc[j] += den // d * nur[0][j] * nul[0][j - t2]
    zeros = [[0] * (jmax + 1) for _ in range(len(phi) - 2)]
    return (_reduced(den, (acc, *zeros)) if any(acc) else None), cap


def _per_order_products(pairs, L, R, floor, top):
    """``_op_of_products`` as one kernel call per result order, ascending."""
    out = Factor(L.k, {}, {})
    for t, plist in sorted(pairs.items()):
        held, cap = _per_order_product(t, plist, L, R)
        if held is not None:
            out.nus[t] = (*held, None)
        if cap != math.inf:
            out.caps[t] = int(cap)
    return _op_of(out, out.nus, floor, top, out.caps)


def _held(X):
    """X's window and every order it holds as ``(D, lanes)``, copied."""
    return (X.floor, X.top, dict(X.xcaps),
            {t: (e[0], [list(lane) for lane in e[1]]) for t, e in X._factor.nus.items()})


def _kernel_world(bases, per_order):
    """Products over fresh copies of ``bases``: of the bases, of a difference
    of products (cancelling orders held as lanes longer than they need), and
    squares, each result's held lanes read as soon as it is made. With
    ``per_order`` every product runs the per-order kernel instead of the sweep."""
    made = []

    def mul(X, Y):
        try:
            Z = X * Y
        except TruncationError:
            made.append("empty window")
            return X
        made.append(_held(Z))
        return Z

    with pytest.MonkeyPatch.context() as mp:
        if per_order:
            mp.setattr(operators, "_op_of_products", _per_order_products)
        A, B = (_fresh(X) for X in bases)
        AB, BA = mul(A, B), mul(B, A)
        C = AB - BA
        for X, Y in ((C, A), (A, C), (C, C), (AB, AB), (C, B), (A, A), (mul(C, A), A)):
            mul(X, Y)
    return made


@given(st.sampled_from([1, 2, 3, 4, 8]), st.data())
@settings(max_examples=100, deadline=None)
def test_sweep_holds_what_the_per_order_kernel_held(k, data):
    # Bit for bit: every held (D, lanes) and every cap, the finite caps of
    # orders that hold nothing too, with and without floors and caps, with
    # and without xi lanes, and for squares (L is R). An exact operand held
    # as lanes longer than its degree reaches less once a fetch rebuilds it,
    # and later orders and products read that shorter reach.
    rational = k > 2 and data.draw(st.booleans(), label="rational")
    bases = [_drawn_op(data, 1).lift_context(k) if rational else _drawn_op(data, k)
             for _ in range(2)]
    if data.draw(st.booleans(), label="exact"):  # every product order reads reaches
        bases = [GradedOp(k, X.components, None, 0) for X in bases]
    assert _kernel_world(bases, False) == _kernel_world(bases, True)


def test_kdv_like_product_matches_leibniz_and_the_per_order_kernel():
    # An exact product with a floor: the KdV pair at x-degree 12.
    P, Q = kdv_pair(12)
    PQ = P * Q
    expected = GradedOp.zero(1)
    for ma in P.monomials():
        for mb in Q.monomials():
            expected = expected + mono_mul(ma, mb)
    assert PQ.floor == product_floor(P, Q) and not PQ.xcaps
    assert PQ.agrees_with(expected)
    assert _kernel_world([P, Q], False) == _kernel_world([P, Q], True)


def test_cached_factor_is_no_part_of_the_value():
    k = 3
    A = _field_op(random.Random(5), k, 5, 4).restrict(floor=-2, xcap=6)
    B = _field_op(random.Random(6), k, 5, 4)
    fresh = _fresh(A)
    data, text, key = A.to_dict(), str(A), hash(A)
    A * B
    B * A.component_as_op(A.ord())
    assert A._factor.nus and not fresh._factor.nus
    assert A == fresh and fresh == A and hash(A) == hash(fresh) == key
    assert A.to_dict() == data and str(A) == text
    with pytest.raises(AttributeError):
        A._factor = None
    for t in A.active_orders():
        view = A.component_as_op(t)
        assert view._factor is A._factor
        assert view == _fresh(view)


def _chain(A, B):
    """Products, sums, negations, scalar multiples and component views over A
    and B, most of them of operators that products built, so held as lanes;
    some orders cancel (AB - AB everywhere, AB - BA where A and B commute).
    Those made from products alone build no coefficient."""
    AB, BA = A * B, B * A
    C = AB - BA
    scaled = [-AB, -C] + [X.scalar_mul(c) for X in (AB, C)
                          for c in (0, 3, Fraction(-2, 5), xi_pow(A.k, 1))]
    assert not any(X._factor.comps for X in [AB, BA, C, *scaled])
    out = [AB, BA, C, AB - AB, C + BA, AB + A, A - AB, C * A + AB, *scaled]
    views = [X.component_as_op(t) for X in (AB, C) for t in X.active_orders() if X.xcap(t) != -1]
    out += views
    out += [V * B + AB for V in views[:2]] + [-V for V in views[:2]]
    return out


def _queries(A):
    """What A answers without building coefficients; checks that none is built."""
    F = A._factor
    built = set(F.comps)
    views = [A.component_as_op(t) for t in A.active_orders() if A.xcap(t) != -1]
    got = (A.active_orders(), A.is_zero_in_window(), A.floor, A.top, dict(A.xcaps),
           [A.xcap(t) for t in range(-14, 14)],
           [(V.active_orders(), V.is_zero_in_window(), V.top, dict(V.xcaps)) for V in views])
    assert set(F.comps) == built
    return got


def _assert_chain_matches_fresh(A, B):
    """The chain over A and B equals the chain over copies with no factor, and
    reading its coefficients changes none of the non-building answers."""
    warm = _chain(A, B)
    before = [_queries(r) for r in warm]
    assert warm == _chain(_fresh(A), _fresh(B))
    assert [_queries(r) for r in warm] == before


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_warm_factor_products_match_fresh_copies(k):
    rng = random.Random(40 + k)
    resumed = 0
    for _ in range(6):
        A, B = _field_op(rng, k, 5, 4), _field_op(rng, k, 5, 4)
        if rng.random() < 0.7:
            A = A.restrict(floor=rng.randint(-3, 0), xcap=rng.randint(3, 8))
        if rng.random() < 0.7:
            B = B.restrict(floor=rng.randint(-3, 0), xcap=rng.randint(3, 8))
        # Shorter products fill the sequences of A and B part way first.
        A * B.restrict(xcap=1)
        A.restrict(xcap=1) * B
        before = {id(lane): len(lane) for F in (A._factor, B._factor)
                  for _, lanes, _ in F.nus.values() for lane in lanes}
        assert A * B == _fresh(A) * _fresh(B)
        assert B * A == _fresh(B) * _fresh(A)
        resumed += sum(len(lane) > before.get(id(lane), len(lane))
                       for F in (A._factor, B._factor)
                       for _, lanes, _ in F.nus.values() for lane in lanes)
        _assert_chain_matches_fresh(A, B)
    assert resumed


# -- queries -------------------------------------------------------------------


def test_ord_sigma_monic_normalized():
    A = op(1, (0, 2, 1), (1, 0, 1))  # d^2 + x
    assert A.ord() == 2
    assert A.sigma().components == {2: {0: S(1, 1)}}
    assert A.is_monic()
    assert A.is_normalized()

    B = op(1, (1, 2, 1))  # x d^2
    assert B.ord() == 1

    C = op(1, (0, 3, 1), (1, 2, 1))  # d^3 + x d^2
    assert not C.is_normalized()
    assert C.is_monic()


def test_ord_of_zero_raises():
    with pytest.raises(UndefinedOrderError):
        GradedOp.zero(1).ord()


# -- action ----------------------------------------------------------------------


def test_apply_examples():
    k = 1
    d2 = GradedOp.d_op(k, 2)
    assert d2.apply_to_poly(poly_from_pairs(k, [(3, 1)])) == poly_from_pairs(k, [(1, 6)])
    xd = op(k, (1, 1, 1))
    assert xd.apply_to_poly(poly_from_pairs(k, [(5, 1)])) == poly_from_pairs(k, [(5, 5)])
    dxd = mono_mul(mono(k, 0, 1), mono(k, 1, 1))  # d x d
    assert dxd.apply_to_poly(poly_from_pairs(k, [(2, 1)])) == poly_from_pairs(k, [(1, 4)])


def test_apply_composition_property():
    rng = random.Random(5)
    for _ in range(25):
        k = rng.choice([1, 2])
        A = op(k, *[(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(2)])
        B = op(k, *[(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(2)])
        AB = A * B
        for n in range(0, 13):
            xn = poly_from_pairs(k, [(n, 1)])
            rhs = A.apply_to_poly(B.apply_to_poly(xn))
            assert AB.apply_to_poly(xn) == rhs


def test_ord_additive_for_monic():
    rng = random.Random(9)
    for _ in range(30):
        k = 1
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        A = op(k, (0, p, 1), (rng.randint(1, 3), 0, rng.randint(-2, 2)))
        B = op(k, (0, q, 1), (rng.randint(1, 3), 0, rng.randint(-2, 2)))
        assert (A * B).ord() == p + q


def test_commutator_bilinear_antisymmetric():
    rng = random.Random(13)
    for _ in range(20):
        k = 1
        ops = [op(k, *[(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)) for _ in range(2)])
               for _ in range(3)]
        A, B, C = ops
        assert commutator(A, B).agrees_with(-commutator(B, A))
        lhs = commutator(A + B, C)
        rhs = commutator(A, C) + commutator(B, C)
        assert lhs.agrees_with(rhs)


def test_grading_of_products():
    rng = random.Random(17)
    for _ in range(20):
        A = op(1, *[(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2)) for _ in range(3)])
        B = op(1, *[(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2)) for _ in range(3)])
        C = A * B
        if not (A.is_zero_in_window() or B.is_zero_in_window()):
            for t in C.components:
                assert any(t1 + t2 == t for t1 in A.components for t2 in B.components)
                assert t <= max(A.components) + max(B.components)


# -- ad_pow -----------------------------------------------------------------------


def test_ad_pow_examples():
    assert ad_pow(2, GradedOp.x_op(1), 1) == op(1, (0, 1, 2))
    assert ad_pow(3, GradedOp.d_op(1, 2), 2).is_zero_in_window()
    # (ad d^2)^2 (x^2 d) = [d^2, 4 x d^2 + 2 d] = 8 d^3
    got = ad_pow(2, op(1, (2, 1, 1)), 2)
    assert got == op(1, (0, 3, 8))


# -- windows -----------------------------------------------------------------------


def test_truncated_product_windows_are_honest():
    rng = random.Random(21)
    for _ in range(30):
        k = rng.choice([1, 2])
        A = op(k, *[(rng.randint(0, 4), rng.randint(0, 4), rng.randint(-2, 2)) for _ in range(4)])
        B = op(k, *[(rng.randint(0, 4), rng.randint(0, 4), rng.randint(-2, 2)) for _ in range(4)])
        exact = A * B
        fa = rng.randint(-3, 0)
        fb = rng.randint(-3, 0)
        ca = rng.randint(1, 4)
        cb = rng.randint(1, 4)
        At = A.restrict(floor=fa, xcap=ca)
        Bt = B.restrict(floor=fb, xcap=cb)
        try:
            got = At * Bt
        except TruncationError:
            # legitimately empty result window for very shallow factors
            assert fa + Bt.top > At.top + Bt.top or fb + At.top > At.top + Bt.top
            continue
        # Every coefficient claimed exact must match the total product.
        assert got.agrees_with(exact)
        if got.floor is not None:
            for t in exact.components:
                if t >= got.floor:
                    cap = got.xcap(t)
                    for n, c in exact.components[t].items():
                        if n <= cap:
                            assert got.components.get(t, {}).get(n) == c


def _reference_pow(A, e):
    """The body of ``GradedOp.__pow__`` before the shared graded base:
    e products, starting from one."""
    out = GradedOp.one(A.k)
    for _ in range(e):
        out = out * A
    return out


def _reference_agrees_with(A, B):
    """The body of ``GradedOp.agrees_with`` before the shared graded base."""
    zero = CycloScalar.zero(A.k)
    lo = max(A.floor_eff(), B.floor_eff())
    if lo == -math.inf:
        lo = min(list(A.components) + list(B.components) + [0])
    for t in range(int(lo), max(A.top, B.top) + 1):
        cap = min(A.xcap(t), B.xcap(t))
        if cap == -1:
            continue
        a, b = A.components.get(t, {}), B.components.get(t, {})
        for n in set(a) | set(b):
            if n <= cap and a.get(n, zero) != b.get(n, zero):
                return False
    return True


def _windowed_ops():
    """Total operators, their restrictions with floors and caps, perturbed
    copies, and a Schur S; every window is non-empty."""
    from weylnf.schur import schur_operator
    rng = random.Random(9)
    out = [schur_operator(op(1, (0, 2, 1), (1, 0, 1)), depth=4, xcap=10).S]
    for _ in range(12):
        A = op(1, *[(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2)) for _ in range(4)])
        out.append(A)
        R = A.restrict(floor=rng.randint(-3, A.top), xcap=rng.randint(1, 4))
        out.append(R)
        out.append(R + op(1, (rng.randint(0, 3), rng.randint(0, 3), 1)))
    return out


def test_graded_pow_matches_reference():
    for A in _windowed_ops():
        assert A ** 0 == GradedOp.one(A.k)
        for e in (1, 2, 3):
            assert A ** e == _reference_pow(A, e)
    with pytest.raises(PreconditionError):
        op(1, (0, 1, 1)) ** -1


def test_graded_pow_of_an_empty_window():
    # floor 3 above top 2: the window holds no order at all.
    A = op(1, (0, 2, 1), (1, 0, 1)).restrict(floor=3)
    assert A.floor > A.top
    assert A ** 1 is A
    with pytest.raises(TruncationError):
        _reference_pow(A, 1)
    with pytest.raises(TruncationError):
        A ** 2


def test_graded_agrees_with_matches_reference():
    ops = _windowed_ops()
    verdicts = set()
    for A in ops:
        for B in ops:
            got = A.agrees_with(B)
            assert got == _reference_agrees_with(A, B)
            verdicts.add(got)
    assert verdicts == {True, False}
    with pytest.raises(ContextMismatchError):
        op(1, (0, 1, 1)).agrees_with(op(2, (0, 1, 1)))


def test_apply_truncated_requires_bound():
    A = op(1, (0, 2, 1), (1, 0, 1), (3, 0, 1)).restrict(floor=-1)
    with pytest.raises(TruncationError):
        A.apply_to_poly(poly_from_pairs(1, [(3, 1)]))
    # degrees up to min_supp - floor are fine; x^3 was cut by the floor
    out = A.apply_to_poly(poly_from_pairs(1, [(3, 1)]), through_degree=4)
    assert out[1] == S(1, 6)
    assert out[4] == S(1, 1)
    with pytest.raises(TruncationError):
        A.apply_to_poly(poly_from_pairs(1, [(3, 1)]), through_degree=5)


def test_constructor_keeps_what_the_caps_certify():
    # Coefficients above an order's cap are no exact values: the constructor
    # drops them, so sums and scalar multiples, which read an order up to its
    # cap, agree with the coefficient-wise ones. Input checks come first.
    one = S(1, 1)
    A = GradedOp(1, {-1: {1: one, 5: one}, -3: {4: one}}, None, 0, {-1: 3, -3: 2})
    assert A.components == {-1: {1: one}} and A.xcaps == {-1: 3, -3: 2}
    assert -(-A) == A and A + A == A.scalar_mul(2)
    with pytest.raises(PreconditionError, match="negative d-power"):
        GradedOp(1, {-3: {0: one}}, None, 0, {-3: -1})


def test_serialization_round_trip():
    A = op(2, (0, 2, 1), (1, 0, CycloScalar(2, [Fraction(1, 2)])), (2, 1, -3))
    B = A.restrict(floor=-2, xcap=5)
    for X in (A, B):
        assert GradedOp.from_dict(X.to_dict()) == X


def test_str_rendering():
    A = op(1, (0, 3, 1), (1, 1, Fraction(3, 2)), (0, 0, Fraction(3, 4)))
    assert str(A) == "d^3 + 3/2*x*d + 3/4"
    B = op(1, (1, 0, -1), (0, 2, 1))
    assert str(B) == "d^2 - x"


# -- the benchmark tracer patches the layer entry points by name ---------------------------


def test_traced_span_targets_exist(layertrace):
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in layertrace.SPAN_TARGETS if attr not in vars(owner)]
    assert not missing, missing


# -- results built without the constructor's checks ----------------------------------


def _assert_rebuilds(r):
    """r holds the GradedOp invariant, so the checked constructor rebuilds it as it is."""
    for t, comp in r.components.items():
        assert comp and all(n >= max(0, -t) and not c.is_zero() for n, c in comp.items())
    assert all(type(c) is int for c in r.xcaps.values())
    rebuilt = GradedOp(r.k, r.components, r.floor, r.top, r.xcaps)
    assert rebuilt == r
    assert (rebuilt.floor, rebuilt.top, rebuilt.xcaps) == (r.floor, r.top, r.xcaps)


def _drawn_op(data, k, cancel=None):
    """An operator on orders -3..3, with or without a floor, with finite caps at
    the x-degree of a stored coefficient or elsewhere (negative on an empty
    order), and no coefficient above a cap; with ``cancel``, it holds minus some
    of that operator's components."""
    comps = {t: _component(data, k, t) for t in data.draw(st.sets(st.integers(-3, 3), max_size=4))}
    for t, comp in (cancel.components.items() if cancel is not None else ()):
        if data.draw(st.booleans()):
            comps[t] = {n: -c for n, c in comp.items()}
    caps = {}
    for t in data.draw(st.sets(st.integers(-3, 3), max_size=3)):
        at = sorted(comps.get(t, ()))
        caps[t] = data.draw(st.sampled_from(at) if at and data.draw(st.booleans())
                            else st.integers(0 if at else -3, 8))
        comps[t] = {n: c for n, c in comps.get(t, {}).items() if n <= caps[t]}
    floor = data.draw(st.one_of(st.none(), st.integers(-4, 2)))
    top = data.draw(st.integers(-3 if floor is None else floor, 4))
    return GradedOp(k, comps, floor, top, caps)


def _reference_add(A, B):
    """The body of ``GradedOp.__add__`` before sums merged their summands."""
    floor, top = A._sum_window(B)
    comps = {}
    for src in (A, B):
        for t, comp in src.components.items():
            tgt = comps.setdefault(t, {})
            for n, c in comp.items():
                tgt[n] = tgt.get(n, CycloScalar.zero(A.k)) + c
    caps = {}
    for t in set(A.xcaps) | set(B.xcaps):
        cap = min(A.xcap(t), B.xcap(t))
        if cap != math.inf:
            caps[t] = cap
            if t in comps:
                comps[t] = {n: c for n, c in comps[t].items() if n <= cap}
    return GradedOp(A.k, comps, floor, top, caps)


def _reference_scalar_mul(A, c):
    """c * A coefficient by coefficient, on A's window."""
    c = as_scalar(A.k, c)
    comps = {t: {n: x * c for n, x in comp.items()} for t, comp in A.components.items()}
    return GradedOp(A.k, comps, A.floor, A.top, A.xcaps)


def _snapshot(A):
    """A deep copy of A: new component and cap dicts (the scalars are immutable)."""
    return GradedOp(A.k, {t: dict(c) for t, c in A.components.items()}, A.floor, A.top,
                    dict(A.xcaps))


K_SMALL = st.integers(min_value=1, max_value=6)


@given(K_SMALL, st.data())
@settings(max_examples=150, deadline=None)
def test_unchecked_results_equal_their_checked_rebuild(k, data):
    A = _drawn_op(data, k)
    B = _drawn_op(data, k, cancel=A)
    c = data.draw(st.sampled_from([0, 3, -1, Fraction(-2, 5), Fraction(6, 4), xi_pow(k, 1),
                                   CycloScalar.from_rational(k, Fraction(-7, 3))]))
    results = [A + B, A - B, 3 + A, A + c, -A, A.scalar_mul(c)]
    assert results[0] == _reference_add(A, B)
    assert results[1] == _reference_add(A, _snapshot(-B))
    assert results[2] == _reference_add(A, GradedOp.from_scalar(k, 3))
    assert results[4] == _reference_scalar_mul(A, -1)
    assert results[5] == _reference_scalar_mul(A, c)
    assert (results[5].floor, results[5].xcaps) == (A.floor, A.xcaps)
    if A.floor is not None:
        assert results[5].top == A.top
    try:
        AB = A * B
    except TruncationError:
        pass
    else:
        # A product holds its orders as lanes alone, which a negation or a
        # scalar multiple reads without building a coefficient.
        results += [AB, -AB, AB.scalar_mul(c)]
        assert results[-2] == _reference_scalar_mul(AB, -1)
        assert results[-1] == _reference_scalar_mul(AB, c)
    results += [A.component_as_op(t) for t in A.active_orders() if A.xcap(t) != -1]
    try:
        results += _chain(A, B)
    except TruncationError:
        pass
    else:
        _assert_chain_matches_fresh(A, B)
    for r in results:
        assert all(den > 0 for den, _, _ in r._factor.nus.values())
        _assert_rebuilds(r)


@given(K_SMALL, st.data())
@settings(max_examples=100, deadline=None)
def test_sums_and_negations_leave_their_operands_unchanged(k, data):
    # Sums share the held components and lanes of their summands; none may
    # be written.
    A = _drawn_op(data, k)
    B = _drawn_op(data, k, cancel=A)
    before = [_snapshot(A), _snapshot(B)]
    C = A + B
    before.append(_snapshot(C))
    D = C + A
    E = -C
    assert [A, B, C] == before
    assert D == _reference_add(before[2], before[0])
    assert E + C == C.scalar_mul(0)


@given(K_SMALL, st.data())
@settings(max_examples=100, deadline=None)
def test_difference_is_one_signed_sum(k, data):
    # A - B scales B's lanes by -1 inside the sum, builds no -B, and equals
    # A + (-1) B: with floors and caps, orders that cancel, operands held as
    # lanes (products), and A - A.
    A = _drawn_op(data, k)
    B = _drawn_op(data, k, cancel=A)
    pairs = [(A, B), (B, A), (A, A), (A, _snapshot(A))]
    try:
        AB, BA = A * B, B * A
    except TruncationError:
        pass
    else:
        pairs += [(AB, BA), (AB, A), (B, AB), (AB, AB)]
    negated = []
    with pytest.MonkeyPatch.context() as mp:
        real = GradedOp.scalar_mul
        mp.setattr(GradedOp, "scalar_mul", lambda X, c: negated.append(c) or real(X, c))
        diffs = [X - Y for X, Y in pairs] + [A - 3, A - xi_pow(k, 1)]
    assert negated == []
    expected = [X + Y.scalar_mul(-1) for X, Y in pairs]
    expected += [A + GradedOp.from_scalar(k, -3), A + GradedOp.from_scalar(k, -xi_pow(k, 1))]
    assert diffs == expected
    for X, Y in pairs[2:4]:
        assert (X - Y).is_zero_in_window()


def _held_lanes(*ops):
    """Every lane held by the operators' factors, each with a copy of its entries."""
    return [(lane, list(lane)) for X in ops for _, lanes, _ in X._factor.nus.values()
            for lane in lanes]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_products_leave_their_operands_intact(k):
    # The kernel sums into lists of its own: an operand's sequences may only
    # grow, and no product or Schur solve holds one of its lanes.
    from weylnf.schur import schur_operator
    rng = random.Random(60 + k)
    for _ in range(4):
        A = _field_op(rng, k, 5, 4).restrict(floor=rng.randint(-3, 0), xcap=rng.randint(3, 8))
        B = _field_op(rng, k, 5, 4)
        Q = op(k, (0, 3, 1), *[(n, m, _field_coeff(rng, k)) for n, m in ((1, 1), (2, 0), (3, 1))])
        for X, Y in ((B, A), (A, B), (A, Q)):
            X.restrict(xcap=1) * Y  # Y's sequences, cached part way
        before = _held_lanes(A, B, Q)
        assert before
        pair = schur_operator(Q, depth=4, xcap=10)
        results = [A * B, B * A, pair.S, pair.Sinv]
        assert all(lane[:len(old)] == old for lane, old in before)
        held = {id(lane) for lane, _ in _held_lanes(A, B, Q)}
        assert not any(id(lane) in held for lane, _ in _held_lanes(*results))


@pytest.mark.parametrize("workload", ["nf-k3", "classify-fixtures"])
def test_unchecked_results_keep_the_invariant(monkeypatch, workloads, workload):
    # Every operator one pass of a benchmark workload builds without the checks.
    from weylnf import operators, schur
    made = []
    real = operators._op_of

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(operators, "_op_of", recording)
    monkeypatch.setattr(schur, "_op_of", recording)
    setup, check = workloads.WORKLOADS[workload]
    ops = setup(3)
    outputs = [call() for _, call in ops]
    monkeypatch.undo()
    assert [check(label, out)[1] for (label, _), out in zip(ops, outputs)] == [[]] * len(ops)
    assert made
    for r in made:
        _assert_rebuilds(r)


@pytest.mark.parametrize("workload", ["nf-k3", "classify-fixtures"])
def test_no_product_by_one(monkeypatch, workloads, workload):
    # A product by one equals the other operand, which its caller already
    # holds: one pass of a benchmark workload computes none.
    from weylnf import operators
    operands = []
    real = operators._op_mul

    def recording(A, B):
        operands.extend((A, B))
        return real(A, B)

    monkeypatch.setattr(operators, "_op_mul", recording)
    setup, check = workloads.WORKLOADS[workload]
    ops = setup(3)
    outputs = [call() for _, call in ops]
    monkeypatch.undo()
    assert [check(label, out)[1] for (label, _), out in zip(ops, outputs)] == [[]] * len(ops)
    assert operands
    assert [A for A in operands if A == GradedOp.one(A.k)] == []
