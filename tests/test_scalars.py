"""Field arithmetic in Q(xi): unit values, oracles, and axiom sweeps."""

from fractions import Fraction
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylnf.cli import MAX_K
from weylnf.errors import ContextMismatchError, DivisionByZeroError, ParseError, PreconditionError
from weylnf.parsing import parse_scalar
from weylnf.scalars import (CycloScalar, _from_lanes, _lanes, _reduced, _ring, _vectors,
                            cyclotomic_poly, xi_pow)


def naive_mod_xk_minus_1(k, a, b):
    """Oracle: multiply polynomials in xi, reduce by xi^k = 1 only."""
    out = [Fraction(0)] * k
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[(i + j) % k] += ai * bj
    return out


def project(k, coeffs):
    """Project a xi-polynomial (any degree) to canonical form mod Phi_k."""
    total = CycloScalar.zero(k)
    for e, c in enumerate(coeffs):
        total = total + xi_pow(k, e) * c
    return total


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_xi_squared_is_one_at_k2():
    xi = CycloScalar.xi(2)
    assert xi * xi == CycloScalar.one(2)
    assert xi == CycloScalar.from_rational(2, -1)


def test_add_zero_identity():
    a = CycloScalar(4, [Fraction(1, 2), Fraction(3)])
    assert a + CycloScalar.zero(4) == a


def test_k4_product_against_mod_xk_oracle():
    # (1+xi)(1-xi) at k=4 via the xi^4=1 oracle, then projected mod Phi_4.
    one_plus = CycloScalar(4, [1, 1])
    one_minus = CycloScalar(4, [1, -1])
    raw = naive_mod_xk_minus_1(4, [Fraction(1), Fraction(1), Fraction(0), Fraction(0)],
                               [Fraction(1), Fraction(-1), Fraction(0), Fraction(0)])
    assert one_plus * one_minus == project(4, raw)
    assert one_plus * one_minus == CycloScalar.from_rational(4, 2)


def test_inv_unit_cases():
    assert CycloScalar.one(5).inv() == CycloScalar.one(5)
    # k=3: xi * xi^2 = 1
    assert xi_pow(3, 1).inv() == xi_pow(3, 2)


def test_inv_one_plus_xi_k4():
    a = CycloScalar(4, [1, 1])
    got = a.inv()
    assert a * got == CycloScalar.one(4)
    assert got == CycloScalar(4, [Fraction(1, 2), Fraction(-1, 2)])


def test_xi_pow_unit_cases():
    assert xi_pow(5, 5) == CycloScalar.one(5)
    assert xi_pow(2, 1) == CycloScalar.from_rational(2, -1)
    assert xi_pow(3, -1) == xi_pow(3, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_xi_pow_additivity(k):
    for a in range(-3 * k, 3 * k + 1):
        for b in range(-3 * k, 3 * k + 1):
            assert xi_pow(k, a) * xi_pow(k, b) == xi_pow(k, a + b)


def _rand_scalar(rng, k):
    d = len(cyclotomic_poly(k)) - 1
    return CycloScalar(k, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)])


def test_ring_axioms_random_sweep():
    rng = random.Random(20240809)
    for _ in range(1000):
        k = rng.choice([1, 2, 3, 4, 5, 6])
        a, b, c = (_rand_scalar(rng, k) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_inverse_two_sided_random():
    # Orders 7 .. 16 give Phi_k of degree 4 to 8, where the inverse multiplies
    # up to seven Galois conjugates; the result keeps the scalar invariant.
    rng = random.Random(7)
    count = 0
    while count < 300:
        k = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16])
        a = _rand_scalar(rng, k)
        if a.is_zero():
            continue
        count += 1
        _assert_invariant(k, a.inv())
        assert a * a.inv() == CycloScalar.one(k)
        assert a.inv() * a == CycloScalar.one(k)


def test_zero_division_raises():
    with pytest.raises(DivisionByZeroError):
        CycloScalar.zero(3).inv()


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatchError):
        CycloScalar.one(2) + CycloScalar.one(3)


@given(st.integers(min_value=1, max_value=6),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_reduction_matches_projection(k, coeffs):
    # Constructing from a long coefficient list equals summing xi^e terms.
    direct = CycloScalar(k, coeffs)
    assert direct == project(k, coeffs)


def test_rendering_round_trip():
    cases = [
        CycloScalar.from_rational(3, Fraction(1, 2)),
        CycloScalar(4, [Fraction(1, 2), Fraction(3)]),
        CycloScalar(4, [0, -1]),
        CycloScalar(3, [Fraction(-1, 2), Fraction(-2, 7)]),
        CycloScalar.zero(5),
        CycloScalar(5, [0, 1, 0, Fraction(3)]),
    ]
    for a in cases:
        assert parse_scalar(a.k, str(a)) == a


@given(st.integers(min_value=1, max_value=8),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=8))
@settings(max_examples=200, deadline=None)
def test_rendering_round_trip_random(k, coeffs):
    a = CycloScalar(k, coeffs or [0])
    assert parse_scalar(k, str(a)) == a


def test_rendering_examples():
    assert str(CycloScalar.from_rational(2, Fraction(1, 2))) == "1/2"
    assert str(CycloScalar(4, [Fraction(1, 2), Fraction(0)])) == "1/2"
    a = CycloScalar(5, [Fraction(1, 2), 0, Fraction(3)])
    assert str(a) == "1/2 + 3*xi^2"
    assert str(CycloScalar.zero(3)) == "0"
    assert str(CycloScalar(4, [0, -1])) == "-xi"


# -- the unchecked fast paths against a reference that does not use them ---------------

FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=9)
RATIONALS = st.one_of(st.integers(min_value=-20, max_value=20), FRACTIONS)


def _degree(k):
    return len(cyclotomic_poly(k)) - 1


def _draw_scalar(data, k):
    return data.draw(st.lists(FRACTIONS, min_size=_degree(k), max_size=_degree(k)))


def _ref_mul(k, a, b):
    """a * b from plain coefficient lists: product mod xi^k - 1, then the checked constructor."""
    return CycloScalar(k, naive_mod_xk_minus_1(k, list(a), list(b)))


def _assert_invariant(k, value):
    assert isinstance(value, CycloScalar) and value.k == k
    assert type(value.coeffs) is tuple and len(value.coeffs) == _degree(k)
    assert all(type(c) is Fraction for c in value.coeffs)


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=300, deadline=None)
def test_fast_paths_match_reference(k, data):
    a, b = _draw_scalar(data, k), _draw_scalar(data, k)
    r = data.draw(RATIONALS)
    x, y = CycloScalar(k, a), CycloScalar(k, b)
    const = [Fraction(r)] + [Fraction(0)] * (_degree(k) - 1)
    cases = [
        (x + y, CycloScalar(k, [p + q for p, q in zip(a, b)])),
        (x - y, CycloScalar(k, [p - q for p, q in zip(a, b)])),
        (-x, CycloScalar(k, [-p for p in a])),
        (x * y, _ref_mul(k, a, b)),
        (x + r, CycloScalar(k, [p + q for p, q in zip(a, const)])),
        (r + x, CycloScalar(k, [p + q for p, q in zip(a, const)])),
        (x - r, CycloScalar(k, [p - q for p, q in zip(a, const)])),
        (r - x, CycloScalar(k, [q - p for p, q in zip(a, const)])),
        (x * r, CycloScalar(k, [p * r for p in a])),
        (r * x, CycloScalar(k, [p * r for p in a])),
    ]
    if r:
        cases.append((x / r, CycloScalar(k, [p / r for p in a])))
    for got, want in cases:
        _assert_invariant(k, got)
        assert got == want
    if any(b):
        # Division and inversion have no coefficient-wise formula: check that the
        # reference product of the result with the divisor gives the dividend back.
        for got, divisor, dividend in ((y.inv(), b, [1]), (x / y, b, a), (r / y, b, [r])):
            _assert_invariant(k, got)
            assert _ref_mul(k, got.coeffs, divisor) == CycloScalar(k, dividend)
    else:
        with pytest.raises(DivisionByZeroError):
            x / y
    if not r:
        with pytest.raises(DivisionByZeroError):
            x / r


def test_public_constructor_still_coerces_and_reduces():
    a = CycloScalar(3, [1, 0, 1])  # 1 + xi^2 = -xi
    assert a.coeffs == (Fraction(0), Fraction(-1))
    assert all(type(c) is Fraction for c in CycloScalar(4, (2, Fraction(1, 3))).coeffs)
    assert CycloScalar(6, [3]).coeffs == (Fraction(3), Fraction(0))


def test_public_constructor_refuses_floats():
    # 0.1 would be stored as the dyadic 3602879701896397/36028797018963968.
    for coeffs in ([0.1], [1, 0.5], (Fraction(1, 3), 2.0)):
        with pytest.raises(PreconditionError, match="float"):
            CycloScalar(2 if len(coeffs) == 1 else 3, coeffs)
    assert CycloScalar(3, ["1/10", Fraction(1, 2)]).coeffs == (Fraction(1, 10), Fraction(1, 2))


def test_from_rational_refuses_floats():
    for value in (0.1, 0.5, -2.0, float("inf")):
        with pytest.raises(PreconditionError, match="float"):
            CycloScalar.from_rational(3, value)
    assert CycloScalar.from_rational(3, "1/10").coeffs == (Fraction(1, 10), Fraction(0))
    assert CycloScalar.from_rational(1, True) == 1


# -- Phi_k, the Galois-conjugate inverse and the integer product ------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("k", range(1, MAX_K + 1))
def test_cyclotomic_polys_multiply_to_xk_minus_1(k):
    # x^k - 1 is the product of Phi_d over the divisors d of k, and deg Phi_k
    # is Euler's phi(k).
    prod = [1]
    for d in range(1, k + 1):
        if k % d == 0:
            phi = cyclotomic_poly(d)
            assert phi[-1] == 1 and all(type(c) is int for c in phi)
            prod = _poly_mul(prod, phi)
    assert prod == [-1] + [0] * (k - 1) + [1]
    assert _degree(k) == sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


@pytest.mark.parametrize("k", range(1, 17))
def test_integer_ring_product_matches_scalar_product(k):
    vmul, xis = _ring(k)
    assert [CycloScalar(k, x) for x in xis] == [xi_pow(k, e) for e in range(k)]
    rng = random.Random(100 + k)
    for _ in range(25):
        a, b = ([rng.randint(-9, 9) for _ in range(_degree(k))] for _ in range(2))
        got = vmul(a, b)
        assert all(type(c) is int for c in got)
        assert CycloScalar(k, got) == CycloScalar(k, a) * CycloScalar(k, b)


# -- the integer-vector form ----------------------------------------------------------------


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=200, deadline=None)
def test_integer_vector_form(k, data):
    values = [CycloScalar(k, _draw_scalar(data, k)) for _ in range(data.draw(st.integers(0, 4)))]
    den, vecs = _vectors(k, values)
    assert den > 0 and len(vecs) == len(values)
    assert all(type(v) is tuple and len(v) == _degree(k) for v in vecs)
    assert [_from_lanes(k, v, den) for v in vecs] == values
    lden, lanes = _lanes(k, values)
    assert lden == den and len(lanes) == _degree(k)
    assert lanes == [[v[i] for v in vecs] for i in range(_degree(k))]

    # _reduced: den > 0 sharing no factor with all entries, the same values;
    # a gcd of 1 returns its input itself, and all zeros have den 1.
    scale = data.draw(st.integers(1, 12))
    scaled = [[scale * x for x in v] for v in vecs]
    rden, rvecs = _reduced(scale * den, scaled)
    assert rden > 0 and math.gcd(rden, *[x for v in rvecs for x in v]) == 1
    assert [_from_lanes(k, v, rden) for v in rvecs] == values
    assert all(type(v) is list for v in rvecs)
    for d, v in ((rden, rvecs), (den, vecs)):  # the lcm leaves no common factor
        assert _reduced(d, v) == (d, v) and _reduced(d, v)[1] is v
    zeros = [[0] * _degree(k) for _ in range(len(values) + 1)]
    zden, zvecs = _reduced(scale * den, zeros)
    assert zden == 1 and list(zvecs) == zeros


# -- hash and equality against plain rationals -------------------------------------------


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=300, deadline=None)
def test_hash_agrees_with_rational_equality(k, data):
    r = data.draw(RATIONALS)
    if data.draw(st.booleans()):
        a = CycloScalar.from_rational(k, r)
    else:
        a = CycloScalar(k, _draw_scalar(data, k))
    if a == r:
        assert hash(a) == hash(r)
    assert (a == r) == (r == a)


def test_rational_scalar_and_fraction_collapse_in_a_set():
    assert len({CycloScalar(1, (2,)), Fraction(2)}) == 1
    assert len({CycloScalar(4, (Fraction(1, 2), 0)), Fraction(1, 2)}) == 1
    assert CycloScalar(3, [2, 1]) != 2 and len({CycloScalar(3, [2, 1]), 2}) == 2


# -- orders and parse errors -----------------------------------------------------------


@pytest.mark.parametrize("k", [0, -2])
def test_bad_order_raises_precondition_error(k):
    for build in (cyclotomic_poly, CycloScalar.zero, CycloScalar.one, CycloScalar.xi,
                  lambda k: xi_pow(k, 1), lambda k: CycloScalar(k, [1]),
                  lambda k: CycloScalar.from_rational(k, 1)):
        with pytest.raises(PreconditionError):
            build(k)


@pytest.mark.parametrize("text", ["a*xi", "xi^z", "xi^", "1/0"])
def test_parse_scalar_bad_syntax_is_parse_error(text):
    with pytest.raises(ParseError):
        parse_scalar(3, text)


# -- the benchmark tracer patches CycloScalar methods by name ------------------------------


def test_traced_scalar_methods_exist(layertrace):
    missing = [name for name, _ in layertrace.SCALAR_METHODS if name not in vars(CycloScalar)]
    assert not missing, missing
