"""Pipeline pieces: decomposition, identities, evaluation, certificates."""

from fractions import Fraction
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylnf.criterion import (
    BivarPoly,
    _restrict,
    bc_certificate,
    classify_pair,
    evaluate_poly,
    hs_coefficient_check,
    type_identity,
    weighted_decompose,
)
from weylnf.errors import PreconditionError
from weylnf import criterion, operators
from weylnf.fixtures import airy_like_pair, generic_pair, kdv_pair, named_pair, power_pair
from weylnf.gform import Hcp, HcpSeries
from weylnf.linalg import nullspace
from weylnf.operators import INF, GradedOp, commutator
from weylnf.parsing import parse_operator
from weylnf.scalars import CycloScalar, cyclotomic_poly


def F(d):
    return BivarPoly({k: Fraction(v) for k, v in d.items()})


X2_Y3 = F({(2, 0): 1, (0, 3): -1})


def test_weighted_decompose_single_piece():
    pieces = weighted_decompose(X2_Y3, 3, 2)
    assert len(pieces) == 1 and pieces[0].weight == 6
    assert pieces[0].terms == [(Fraction(1), 2, 0), (Fraction(-1), 0, 3)]


def test_weighted_decompose_splits():
    pieces = weighted_decompose(F({(2, 0): 1, (0, 3): -1, (0, 0): 1}), 3, 2)
    assert [pc.weight for pc in pieces] == [6, 0]
    pieces2 = weighted_decompose(F({(1, 1): 1, (1, 0): 1}), 2, 3)
    assert [pc.weight for pc in pieces2] == [5, 2]


def test_type_identity_values():
    piece = weighted_decompose(X2_Y3, 3, 2)[0]
    assert [type_identity(piece, i) for i in (0, 1, 2)] == [0, 2, 1]


def test_type_identities_kill_nonzero_pieces():
    # A nonzero homogeneous piece cannot satisfy every identity i <= max u.
    rng = random.Random(77)
    for _ in range(40):
        p, q = rng.choice([(3, 2), (5, 2), (4, 3)])
        terms = {}
        for _ in range(rng.randint(1, 5)):
            u = rng.randint(0, 4)
            v = rng.randint(0, 4)
            terms[(u, v)] = Fraction(rng.randint(-4, 4))
        poly = F(terms)
        if poly.is_zero():
            continue
        piece = weighted_decompose(poly, p, q)[0]
        umax = max(u for _, u, _ in piece.terms)
        assert any(type_identity(piece, i) != 0 for i in range(umax + 1))


def test_evaluate_poly_trivial_relation():
    P, Q = power_pair()
    assert evaluate_poly(X2_Y3, P, Q).is_zero_in_window()


def test_evaluate_poly_commutative_normalization():
    # X Y - Y X collapses to the zero polynomial before evaluation.
    assert F({(1, 1): 1, (1, 1): -1}).is_zero() or True
    poly = BivarPoly({(1, 1): Fraction(1)})
    poly2 = BivarPoly({(1, 1): Fraction(-1)})
    combined = BivarPoly({(1, 1): Fraction(1) + Fraction(-1)})
    assert combined.is_zero()
    del poly, poly2


def test_evaluate_poly_order_convention():
    # F = X Y evaluates P first (left), Q second: P Q, not Q P.
    P = GradedOp.from_monomials(1, [(1, 0, 1)])   # x
    Q = GradedOp.d_op(1)                          # d
    got = evaluate_poly(F({(1, 1): 1}), P, Q)
    assert got == GradedOp.from_monomials(1, [(1, 1, 1)])  # x d


def test_bc_certificate_powers():
    P, Q = power_pair()
    res = bc_certificate(P, Q, wmax=6, depth=6)
    assert res is not None
    assert res.poly == X2_Y3
    assert res.weight == 6


def test_bc_certificate_kdv():
    P, Q = kdv_pair(24)
    res = bc_certificate(P, Q, wmax=6, depth=8)
    assert res is not None
    assert res.poly == F({(2, 0): 1, (0, 3): -1, (0, 0): Fraction(-1, 16)})
    deeper = bc_certificate(P, Q, wmax=6, depth=10)
    assert deeper is not None and deeper.poly == res.poly


def test_bc_certificate_products_follow_the_weight_not_wmax(monkeypatch):
    # Each monomial P^u Q^v is evaluated when the weight loop reaches it, so
    # a weight-6 certificate takes the same products at wmax 64 as at wmax 6.
    P, Q = named_pair("kdv24")
    real = operators._op_mul
    counts = []
    for wmax in (6, 64):
        calls = []

        def counted(A, B):
            calls.append(None)
            return real(A, B)

        monkeypatch.setattr(operators, "_op_mul", counted)
        res = bc_certificate(P, Q, wmax=wmax, depth=8)
        monkeypatch.undo()
        assert res is not None and res.weight == 6
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("p, q", [("1", "d^2"), ("1 + x", "d^2"), ("d^2 + x", "2")])
def test_classify_pair_refuses_an_operator_of_order_zero(monkeypatch, p, q):
    # One answer for a commuting and a non-commuting pair, before the
    # commutator's first product.
    def no_product(A, B):
        raise AssertionError("a product was taken")

    P, Q = parse_operator(p), parse_operator(q)
    monkeypatch.setattr(operators, "_op_mul", no_product)
    with pytest.raises(PreconditionError, match=r"ord\([PQ]\) must be positive"):
        classify_pair(P, Q, depth=3)


@pytest.mark.parametrize("p, q", [("1", "d"), ("d", "1"), ("1", "d^2"), ("1 + x", "d^2")])
def test_bc_certificate_refuses_an_operator_of_order_zero(monkeypatch, p, q):
    # The monomials P^u Q^v of weight <= wmax are endless when an order is 0;
    # the search refuses such a pair before its first product.
    def no_product(A, B):
        raise AssertionError("a product was taken")

    P, Q = parse_operator(p), parse_operator(q)
    monkeypatch.setattr(operators, "_op_mul", no_product)
    with pytest.raises(PreconditionError, match="order >= 1"):
        bc_certificate(P, Q, wmax=3, depth=2)


def test_bc_certificate_builds_only_the_orders_it_reads(monkeypatch):
    # Products, sums and scalar multiples stay on lanes, and the nullspace
    # rows read each monomial's difference rows, so kdv24's weight-6
    # certificate builds no coefficients; nor does the re-check of the candidate.
    P, Q = named_pair("kdv24")
    real = operators._comp_of_lanes
    built = []

    def counted(k, lanes, den, t):
        built.append(t)
        return real(k, lanes, den, t)

    monkeypatch.setattr(operators, "_comp_of_lanes", counted)
    res = bc_certificate(P, Q, wmax=6, depth=8)
    assert res is not None and res.weight == 6
    assert built == []


def test_bc_certificate_none_for_noncommuting():
    P, Q = generic_pair()
    assert bc_certificate(P, Q, wmax=12, depth=8) is None


@pytest.mark.parametrize("wmax", [12, 16, 24])
def test_bc_certificate_is_minimal_at_any_wmax(wmax):
    # The rows follow each candidate weight, not wmax: at wmax 24 the search
    # once returned the reducible X^2*Y - Y^4.
    L = parse_operator("d^2 + x")
    res = bc_certificate(L ** 3, L ** 2, wmax=wmax, depth=8)
    assert res is not None and res.poly == X2_Y3 and res.weight == 12


@pytest.mark.parametrize("name, wlow, whigh", [("kdv24", 6, 30), ("kdv48", 6, 52),
                                               ("powers", 6, 30),
                                               ("L^3, L^2 windowed", 12, 46)],
                         ids=["kdv24", "kdv48", "powers", "L^3, L^2 windowed"])
def test_bc_certificate_does_not_depend_on_wmax(name, wlow, whigh):
    # Each candidate weight reads the window of the monomials up to it only.
    # whigh is the least wmax at which a search over the window of every
    # monomial up to wmax went wrong: X^2*Y^2 - Y^5 - 1/16*Y^2 on kdv24,
    # X^2*Y - Y^4 - 1/16*Y on kdv48 and a KeyError on the windowed pair.
    if name in ("kdv24", "kdv48", "powers"):
        P, Q = named_pair(name)
    else:
        L = parse_operator("d^2 + x")
        P, Q = ((L ** e).restrict(floor=-40, xcap=40) for e in (3, 2))
    low = bc_certificate(P, Q, wmax=wlow, depth=8)
    assert low is not None and low.weight == wlow and low.reverified
    assert bc_certificate(P, Q, wmax=whigh, depth=8) == low


@pytest.mark.parametrize("depth", [8, 12])
def test_bc_certificate_reaches_the_constant_column(depth):
    # The constant column is zero on orders 4..12; the search adds lower
    # orders until the nullspace is one vector (at depth 8 it found none).
    L = parse_operator("d^2 + x")
    res = bc_certificate(L ** 3 + GradedOp.from_scalar(1, 2), L ** 2, wmax=12, depth=depth)
    assert res is not None
    assert str(res.poly) == "X^2 - 4*X - Y^3 + 4"


@pytest.mark.parametrize("wmax, text", [(3, None), (6, "X^2 - 2*X*Y + X + Y^2 - Y + 1")])
def test_bc_certificate_over_q_xi_is_a_rational_relation(wmax, text):
    # P - Q = xi, and xi^2 + xi + 1 = 0 is a relation over Q(xi_3) whose
    # rational form has weight 6; the search once raised on the irrational one.
    P, Q = parse_operator("d^3 + xi", 3), parse_operator("d^3", 3)
    res = bc_certificate(P, Q, wmax=wmax, depth=2)
    assert (None if res is None else str(res.poly)) == text
    if res is not None:
        assert evaluate_poly(res.poly, P, Q).is_zero_in_window()


def test_bc_certificate_is_irreducible_for_a_lower_order_term():
    L = parse_operator("d^2 + x")
    res = bc_certificate(L ** 3 + L, L ** 2, wmax=24, depth=8)
    assert res is not None and str(res.poly) == "X^2 - Y^3 - 2*Y^2 - Y"


# Per commuting classify-fixtures case (fixture, depth, wmax or None for p*q):
# the rows and columns of each nullspace call and the products of monomials.
SEARCH_INPUTS = {
    "powers": (10, None, [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 7], 4),
    "kdv24": (8, 6, [1, 4, 8, 14, 18, 21], [1, 2, 3, 4, 5, 7], 4),
    "kdv48": (16, 6, [1, 7, 17, 31, 43, 54], [1, 2, 3, 4, 5, 7], 4),
}


@pytest.mark.parametrize("name", sorted(SEARCH_INPUTS))
def test_bc_certificate_search_inputs_are_pinned(monkeypatch, name):
    # The search's rows are the coefficients of its window, one per rational
    # coordinate, zero rows dropped; their form may change, their count not.
    depth, wmax, rows, cols, products = SEARCH_INPUTS[name]
    P, Q = named_pair(name)
    calls, muls = [], []
    real_nullspace, real_mul = criterion.nullspace, operators._op_mul

    def traced(matrix, ncols, *rest):
        calls.append((len(matrix), ncols))
        return real_nullspace(matrix, ncols, *rest)

    monkeypatch.setattr(criterion, "nullspace", traced)
    monkeypatch.setattr(operators, "_op_mul", lambda A, B: muls.append(None) or real_mul(A, B))
    res = bc_certificate(P, Q, P.ord() * Q.ord() if wmax is None else wmax, depth)
    assert res is not None and res.weight == 6
    assert [r for r, _ in calls] == rows and [c for _, c in calls] == cols
    assert len(muls) == products


@pytest.mark.parametrize("seed", range(30))
def test_restricted_basis_is_the_nullspace_of_all_rows(seed):
    # bc_certificate adds rows to a nullspace through _restrict; the basis
    # must be the one nullspace returns for all the rows at once.
    rng = random.Random(seed)
    ncols = rng.randint(2, 7)

    def row():
        return [rng.choice([0, 0, 1, -2, 3, 12]) for _ in range(ncols)]

    first = [row() for _ in range(rng.randint(0, ncols - 1))]
    more = [row() for _ in range(rng.randint(1, 3))]
    more.append([a + b for a, b in zip(more[0], (first or more)[0])])  # a dependent row
    basis = nullspace(first, ncols)
    assert basis[1]
    assert _restrict(basis, more) == nullspace(first + more, ncols)


@pytest.mark.parametrize("seed", range(10))
def test_bc_certificate_oracle_burchnall_chaundy(seed):
    """P = L^a + c and Q = L^b with gcd(a, b) = 1 satisfy exactly
    (X - c)^b - Y^a = 0, the minimal relation (Burchnall and Chaundy, Proc.
    London Math. Soc. (2) 21, 1923), for every wmax from its weight on."""
    rng = random.Random(seed)
    a, b = rng.choice([(1, 2), (2, 1), (3, 2), (2, 3), (3, 1)])
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    a0, a1, a2 = (Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3))
    L = GradedOp.from_monomials(1, [(0, 2, 1), (0, 0, a0), (1, 0, a1), (2, 0, a2)])
    P, Q = L ** a + GradedOp.from_scalar(1, c), L ** b
    terms = {(u, 0): Fraction(math.comb(b, u)) * (-c) ** (b - u) for u in range(b + 1)}
    terms[(0, a)] = terms.get((0, a), 0) - 1
    want = BivarPoly(terms)
    weight = 2 * a * b
    for wmax in range(weight, weight + 9):
        res = bc_certificate(P, Q, wmax=wmax, depth=8)
        assert res is not None and res.poly == want, (a, b, c, L, wmax)


def test_hs_check_s0_example():
    # P' = d^3 + Gamma_1 D^2 over k = q = 2 has the restriction line sigma=1.
    k = 2
    Pp = HcpSeries(k, {3: Hcp(k, 3, {(0, 0): 1}), 2: Hcp(k, 2, {(1, 0): 1})})
    chk = hs_coefficient_check(Pp, X2_Y3, 0)
    assert chk.applicable
    # lhs = (sum k_j) d^(N_F) = 0 * d^6, rhs likewise zero
    assert chk.lhs.agrees_with(chk.rhs)
    assert chk.lhs.is_zero_in_window()
    chk1 = hs_coefficient_check(Pp, X2_Y3, 1)
    assert chk1.applicable  # type-0 identity holds (1 - 1 = 0)
    assert chk1.lhs.agrees_with(chk1.rhs)
    # rhs = 2 * Gamma_1 d^2 * d^3
    expect = HcpSeries(k, {5: Hcp(k, 5, {(1, 0): 2})})
    assert chk1.rhs.agrees_with(expect)


def test_hs_check_requires_restriction():
    Pp = HcpSeries.d_power(2, 3)
    with pytest.raises(PreconditionError):
        hs_coefficient_check(Pp, X2_Y3, 0)


def test_classify_pair_powers():
    P, Q = power_pair()
    rep = classify_pair(P, Q, depth=4)
    assert rep.commutes
    assert rep.certificate is not None and rep.certificate.poly == X2_Y3
    assert rep.classification.variant == "sdeg_zero"


def test_classify_pair_kdv():
    P, Q = kdv_pair(24)
    rep = classify_pair(P, Q, depth=8, wmax=6)
    assert rep.commutes
    assert rep.certificate.poly == F({(2, 0): 1, (0, 3): -1, (0, 0): Fraction(-1, 16)})
    assert rep.classification.variant == "sdeg_zero"
    assert not rep.windows["belowWindowNonzero"]
    assert rep.type_identities[:3] == [[0, "0"], [1, "2"], [2, "1"]]


def test_classify_pair_generic():
    P, Q = generic_pair()
    rep = classify_pair(P, Q, depth=10)
    assert not rep.commutes
    assert rep.tentative
    assert rep.classification.tentative
    assert rep.stability["stable"]
    d = rep.to_dict()
    assert d["commutes"] is False
    assert d["windows"]["belowWindowNonzero"] is True
    assert d["windows"]["sigmaEqualsPOverQ"] is False  # sigma = 3, p/q = 3/2


def test_classify_pair_airy_like():
    P, Q = airy_like_pair()
    assert commutator(P, Q) == GradedOp.from_monomials(1, [(1, 0, Fraction(3, 2))])
    rep = classify_pair(P, Q, depth=6)
    assert not rep.commutes


def test_evaluate_poly_weighted_order_bound():
    # ord(F(P,Q)) <= max piece weight, with equality when the top piece does
    # not annihilate the top symbols (i.e. the type-0 identity fails).
    rng = random.Random(91)
    P, Q = generic_pair()
    p, q = P.ord(), Q.ord()
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = Fraction(rng.randint(-3, 3))
        poly = F(terms)
        if poly.is_zero():
            continue
        pieces = weighted_decompose(poly, p, q)
        nf = pieces[0].weight
        val = evaluate_poly(poly, P, Q)
        if val.is_zero_in_window():
            continue
        assert val.ord() <= nf
        if type_identity(pieces[0], 0) != 0:
            assert val.ord() == nf


def test_bivar_poly_str():
    assert str(X2_Y3) == "X^2 - Y^3"
    assert str(F({(2, 0): 1, (0, 3): -1, (0, 1): -2, (0, 0): Fraction(-1, 16)})) \
        == "X^2 - Y^3 - 2*Y - 1/16"


def test_bivar_poly_from_list_sums_repeated_rows():
    assert BivarPoly.from_list([[2, 0, 1], [2, 0, 1]]).terms == {(2, 0): 2}
    assert BivarPoly.from_list([[2, 0, "1/2"], [0, 3, -1], [2, 0, 0.25]]) \
        == F({(2, 0): Fraction(3, 4), (0, 3): -1})
    assert BivarPoly.from_list([[2, 0, 1], [0, 3, -1], [2, 0, -1]]).terms == {(0, 3): -1}
    assert BivarPoly.from_list([[1, 1, 3], [1, 1, -3]]).is_zero()


def test_evaluate_poly_series_matches_graded():
    k = 2
    Pp = HcpSeries(k, {3: Hcp(k, 3, {(0, 0): 1}), 2: Hcp(k, 2, {(1, 0): 1})})
    Fpoly = F({(2, 0): 1, (0, 1): -3, (1, 0): 2})
    got = evaluate_poly(Fpoly, Pp, HcpSeries.d_power(k, 2)).expand(xcap=8)
    P_graded = Pp.expand(xcap=20)
    want = evaluate_poly(Fpoly, P_graded, GradedOp.d_op(k, 2))
    assert got.agrees_with(want)


@pytest.mark.parametrize("name, depth", [("powers", 10), ("kdv24", 8)])
def test_bc_certificate_takes_pure_powers_from_the_cache(monkeypatch, name, depth):
    # At wmax 6 the products are the power chains from base^1 (P^2 and Q^2,
    # Q^3) and the one mixed monomial P*Q: nothing is multiplied by one.
    P, Q = named_pair(name)
    real = operators._op_mul
    calls = []
    monkeypatch.setattr(operators, "_op_mul", lambda A, B: calls.append((A, B)) or real(A, B))
    res = bc_certificate(P, Q, wmax=6, depth=depth)
    assert res is not None and res.reverified
    assert len(calls) == 4


def _bc_rebuilding_rows(P, Q, wmax, depth):
    """bc_certificate as it was when each read rebuilt an order's rows from the
    difference rows of every monomial, read afresh at each read: the oracle for
    the rows the search keeps per order and grows by one column per monomial."""
    k, p, q = P.k, P.ord(), Q.ord()
    monos = sorted(((u, v) for u in range(wmax // p + 1) for v in range(wmax // q + 1)
                    if p * u + q * v <= wmax), key=lambda uv: (p * uv[0] + q * uv[1], uv[0]))
    pows = {0: GradedOp.one(k), 1: P}, {0: GradedOp.one(k), 1: Q}
    evals, lanes = {}, len(cyclotomic_poly(k)) - 1

    def rows_at(t):
        held = [evals[m]._factor.differences(t) if t in evals[m].components
                else (1, [[]] * lanes) for m in monos[:ncols]]
        m0, scale = max(0, t), math.lcm(*[den for den, _ in held])
        end = min(caps.get(t, INF) + t + 1, max(len(col) for _, cols in held for col in cols))
        cols = [[[x * (scale // den) for x in col[m0:end]] + [0] * (end - max(m0, len(col)))
                 for col in cols] for den, cols in held]
        return [row for rows in zip(*[zip(*[c[i] for c in cols]) for i in range(lanes)])
                for row in rows if any(row)]

    common_floor, low, caps, ncols = -INF, INF, {}, 0
    for wcap in sorted({p * u + q * v for u, v in monos}):
        while ncols < len(monos) and p * monos[ncols][0] + q * monos[ncols][1] <= wcap:
            e = evals[monos[ncols]] = criterion._monomial(pows, *monos[ncols])
            common_floor = max(common_floor, e.floor_eff())
            low = min(low, min(e.components, default=0))
            for t, cap in e.xcaps.items():
                caps[t] = min(caps.get(t, INF), cap)
            ncols += 1
        lowest, lo = max(common_floor, low), max(wcap - depth, common_floor)
        basis = criterion.nullspace([row for t in range(lo, wcap + 1) for row in rows_at(t)],
                                    ncols)
        while len(basis[1]) > 1 and lo > lowest:
            lo -= 1
            if more := rows_at(lo):
                basis = criterion._restrict(basis, more)
        for vec in basis[1]:
            poly = BivarPoly({monos[i]: x for i, x in enumerate(vec) if x})
            total = sum((evals[uv].scalar_mul(c) for uv, c in poly.terms.items()),
                        GradedOp.zero(k))
            if not total.is_zero_in_window():
                continue
            lead = max(poly.terms, key=lambda uv: (p * uv[0] + q * uv[1], uv[0]))
            poly = poly.scale(1 / poly.terms[lead])
            reverified = common_floor == -INF or common_floor <= wcap - 2 * depth
            return criterion.BCResult(poly, poly.weighted_degree(p, q), reverified)
    return None


# Mixed denominators, so that an order's lcm L_t grows part-way through a search.
RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))


@st.composite
def search_cases(draw):
    """(a builder of a fresh pair, wmax, depth): commuting f(L), g(L) with
    L = d^m + b(x) d + c(x), whole or windowed so that caps cut rows; pairs over
    Q(xi_k) with two lanes per row; two drawn operators, most of them not
    commuting, whose searches extend their window through _restrict."""
    kind = draw(st.sampled_from(["commuting", "windowed", "q-xi", "non-commuting"]))
    depth = draw(st.integers(1, 8))
    k = draw(st.sampled_from([3, 4])) if kind == "q-xi" else 1
    coeff = RATIONALS if k == 1 else st.builds(
        lambda a, b: CycloScalar(k, [a, b]), RATIONALS, RATIONALS)
    m = draw(st.sampled_from([2, 3]))
    low_terms = [(x, j, draw(coeff)) for x, j in [(0, 1), (1, 1), (0, 0), (1, 0), (2, 0)]
                 if draw(st.booleans())]
    if kind in ("commuting", "windowed"):
        a, b = draw(st.sampled_from([(1, 2), (2, 1), (2, 3), (3, 2), (1, 3)]))
        c1, c0 = draw(RATIONALS), draw(RATIONALS)
        windows = [(draw(st.integers(-24, -2)), draw(st.integers(0, 12))) for _ in range(2)]

        def build():
            L = GradedOp.from_monomials(1, [(0, m, 1), *low_terms])
            P, Q = L ** a + (L ** (a - 1)).scalar_mul(c1), L ** b + GradedOp.from_scalar(1, c0)
            if kind == "windowed":
                P, Q = (op.restrict(*w) for op, w in zip((P, Q), windows))
            return P, Q

        return build, draw(st.integers(0, m * a * b + 2)), depth
    other = draw(st.sampled_from([1, 2, 3]))
    other_terms = [(x, j, draw(coeff)) for x, j in [(1, 0), (2, 0), (1, 1)] if draw(st.booleans())]
    if kind == "q-xi" and draw(st.booleans()):  # constant coefficients: a relation over Q
        low_terms, other_terms = [t for t in low_terms if t[0] == 0], []

    def build():
        return (GradedOp.from_monomials(k, [(0, m, 1), *low_terms]),
                GradedOp.from_monomials(k, [(0, other, 1), *other_terms]))

    return build, draw(st.integers(0, 12)), depth


def _windowed_powers():
    # Q's x-cap is below P's and P^2's degrees: the caps cut stored rows.
    L = GradedOp.from_monomials(1, [(0, 2, 1), (1, 0, Fraction(1, 3)), (2, 0, Fraction(1, 5))])
    return (L ** 3).restrict(floor=-24, xcap=12), (L ** 2).restrict(floor=-24, xcap=4)


@given(search_cases())
@example(case=(_windowed_powers, 12, 8))
@example(case=(lambda: (parse_operator("d^3 + xi", 3), parse_operator("d^3", 3)), 6, 2))
@example(case=(airy_like_pair, 12, 8))
@settings(max_examples=60, deadline=None)
def test_bc_certificate_keeps_the_rows_it_would_rebuild(case):
    # Every nullspace call of the search gets the rows, as a set, that a rebuild of
    # each order from every monomial's difference rows gives, read afresh at each
    # read while later products extend the operands' lanes, and returns the same
    # (D, basis); so the certificate is the same.
    build, wmax, depth = case
    runs = []
    for search in (bc_certificate, _bc_rebuilding_rows):
        calls = []

        def traced(matrix, ncols):
            result = nullspace(matrix, ncols)
            calls.append((sorted(map(tuple, matrix)), ncols, result))
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criterion, "nullspace", traced)
            runs.append((search(*build(), wmax, depth), calls))
    (got, got_calls), (want, want_calls) = runs
    assert got_calls == want_calls
    assert got == want
