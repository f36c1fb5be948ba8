"""Exact linear algebra: square solves over Q(xi), nullspaces of integer rows over Q."""

from fractions import Fraction
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from weylnf.criterion import _restrict
from weylnf.errors import ContextMismatchError, PreconditionError
from weylnf.linalg import _rref, nullspace, solve_square
from weylnf.scalars import CycloScalar, _from_lanes, _vectors, xi_pow

KS = (1, 3, 5)


def _rand_scalar(rng, k):
    return CycloScalar(k, [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(k)])


def _nonzero_scalar(rng, k):
    c = _rand_scalar(rng, k)
    return c if c else CycloScalar.one(k)


def _dot(row, vec, k):
    return sum((a * x for a, x in zip(row, vec)), CycloScalar.zero(k))


def _nonsingular(rng, k, n):
    """L U with L unit lower triangular and U upper triangular with a nonzero
    diagonal: dense, and nonsingular by construction."""
    zero, one = CycloScalar.zero(k), CycloScalar.one(k)
    low = [[one if i == j else _rand_scalar(rng, k) if j < i else zero for j in range(n)]
           for i in range(n)]
    up = [[_nonzero_scalar(rng, k) if i == j else _rand_scalar(rng, k) if j > i else zero
           for j in range(n)] for i in range(n)]
    return [[_dot(low[i], [up[m][j] for m in range(n)], k) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("k", KS)
def test_solve_square_solutions_multiply_back(k):
    rng = random.Random(100 + k)
    assert solve_square([], []) == []
    for n in range(1, 6):
        for _ in range(3):
            matrix = _nonsingular(rng, k, n)
            rhs = [_rand_scalar(rng, k) for _ in range(n)]
            x = solve_square(matrix, rhs)
            assert len(x) == n and all(type(v) is CycloScalar and v.k == k for v in x)
            assert [_dot(row, x, k) for row in matrix] == rhs


@pytest.mark.parametrize("k", KS)
def test_solve_square_rejects_bad_systems(k):
    rng = random.Random(200 + k)
    zero = CycloScalar.zero(k)
    for n in range(2, 5):
        matrix = _nonsingular(rng, k, n)
        rhs = [_rand_scalar(rng, k) for _ in range(n)]
        c = _nonzero_scalar(rng, k)
        singular = [
            [*matrix[:-1], [c * v for v in matrix[0]]],  # a multiple of another row
            [[zero, *row[1:]] for row in matrix],  # a zero column
            [[zero] * n for _ in range(n)],
        ]
        for bad in singular:
            with pytest.raises(PreconditionError, match="singular"):
                solve_square(bad, rhs)
        for bad_matrix, bad_rhs in (
                ([row + [c] for row in matrix], rhs),  # n x (n+1)
                (matrix[:-1], rhs),  # (n-1) x n
                (matrix, rhs[:-1]),
                ([*matrix[:-1], matrix[-1][:-1]], rhs)):  # ragged
            with pytest.raises(PreconditionError, match="needs a square system"):
                solve_square(bad_matrix, bad_rhs)


def _planted_rank(rng, rank, ncols):
    """Integer rows of rank exactly ``rank``: ``rank`` rows with a unit in
    distinct columns and zeros in the others' unit columns, their random
    combinations, and zero rows (at least one row in all), shuffled."""
    units = rng.sample(range(ncols), rank)
    base = []
    for u in units:
        row = [0 if col in units else rng.randint(-3, 3) for col in range(ncols)]
        row[u] = rng.choice((-2, -1, 1, 3))
        base.append(row)
    rows = [list(row) for row in base]
    for _ in range(rng.randint(0, 3)):
        cs = [rng.randint(-3, 3) for _ in base]
        rows.append([sum(c * row[col] for c, row in zip(cs, base)) for col in range(ncols)])
    rows += [[0] * ncols for _ in range(rng.randint(0 if rows else 1, 2))]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("scale", (1, 3, 5))
def test_nullspace_annihilates_with_full_dimension(scale):
    # Every row times a positive constant leaves the basis as it is: the
    # certificate search's rows are coefficients times m! * L.
    rng = random.Random(300 + scale)
    for ncols in range(1, 7):
        for rank in range(ncols + 1):
            matrix = _planted_rank(rng, rank, ncols)
            den, basis = nullspace(matrix, ncols)
            assert den > 0 and len(basis) == ncols - rank
            for vec in basis:
                assert len(vec) == ncols and any(vec) and all(type(x) is int for x in vec)
                assert all(not sum(a * x for a, x in zip(row, vec)) for row in matrix)
            assert nullspace([[scale * x for x in row] for row in matrix], ncols) == (den, basis)


def test_nullspace_of_zero_rows_is_the_unit_vectors():
    for ncols in range(4):
        units = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        for nrows in (1, 2):
            assert nullspace([[0] * ncols for _ in range(nrows)], ncols) == (1, units)
        assert nullspace([], ncols) == (1, units)


def test_nullspace_rejects_ragged_rows():
    with pytest.raises(PreconditionError, match="ragged"):
        nullspace([[0, 0], [0]], 2)
    with pytest.raises(PreconditionError, match="ragged"):
        nullspace([[0, 0]], 3)


def test_entries_of_another_order_are_refused():
    one1, one3, xi5 = CycloScalar.one(1), CycloScalar.one(3), xi_pow(5, 1)
    # solve_square holds every entry, the right-hand side too, to the first one's order.
    with pytest.raises(ContextMismatchError, match="order mismatch: 3 vs 5"):
        solve_square([[one3, one3], [one3, xi5]], [one3, one3])
    with pytest.raises(ContextMismatchError, match="order mismatch: 3 vs 1"):
        solve_square([[one3]], [one1])


def test_entries_that_are_not_scalars_are_refused():
    one = CycloScalar.one(2)
    for matrix, rhs in (([[1]], [one]), ([[one]], [Fraction(1)]),
                        ([[one, 0], [0, one]], [one, one])):
        with pytest.raises(PreconditionError, match="must be CycloScalars, got"):
            solve_square(matrix, rhs)
    # nullspace takes integer rows only.
    for bad, name in ((one, "CycloScalar"), (Fraction(1, 2), "Fraction"), (True, "bool")):
        with pytest.raises(PreconditionError, match=f"must be ints, got {name}"):
            nullspace([[1, bad]], 2)


def _reference_rref(rows, ncols):
    """Gauss-Jordan with one CycloScalar per entry: the elimination that the
    integer rows of ``linalg._rref`` replace, kept as their reference."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv_p = rows[r][col].inv()
        rows[r] = [v * inv_p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def _scalars(k):
    """Q(xi_k) values from k coefficients (so reduced mod Phi_k when k > deg
    Phi_k), many of them zero, with denominators up to 10^6."""
    coeff = st.one_of(st.just(0), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 10**6)))
    return st.lists(coeff, min_size=k, max_size=k).map(lambda c: CycloScalar(k, c))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rref_matches_the_reference(data):
    # Rows of planted rank on the first ncols columns, as _planted_rank plants
    # them, with trailing columns that are never pivots (a right-hand side).
    k = data.draw(st.integers(1, 12), label="k")
    ncols = data.draw(st.integers(1, 5), label="ncols")
    width = ncols + data.draw(st.integers(0, 2), label="trailing")
    rank = data.draw(st.integers(0, ncols), label="rank")
    zero = CycloScalar.zero(k)
    units = data.draw(st.permutations(range(ncols)))[:rank]
    base = []
    for u in units:
        row = data.draw(st.lists(_scalars(k), min_size=width, max_size=width))
        row = [zero if col in units else v for col, v in enumerate(row)]
        row[u] = data.draw(_scalars(k).filter(bool))
        base.append(row)
    rows = list(base)
    for cs in data.draw(st.lists(st.lists(_scalars(k), min_size=rank, max_size=rank),
                                 max_size=2)):
        rows.append([sum((c * row[col] for c, row in zip(cs, base)), zero)
                     for col in range(width)])
    rows += [[zero] * width] * data.draw(st.integers(0 if rows else 1, 2))
    rows = data.draw(st.permutations(rows))
    expect = [list(row) for row in rows]
    expect_pivots = _reference_rref(expect, ncols)
    work = [_vectors(k, row) for row in rows]
    inverted = []
    real_inv = CycloScalar.inv
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CycloScalar, "inv", lambda self: inverted.append(self) or real_inv(self))
        pivots = _rref(work, ncols, k)
    got = [[_from_lanes(k, v, den) for v in vecs] for den, vecs in work]
    assert pivots == expect_pivots and len(pivots) == rank
    assert got == expect
    assert all(type(v) is CycloScalar and v.k == k for row in got for v in row)
    # One inverse per pivot: nf-k3's scalars.inv_calls reached-check counts them.
    assert len(inverted) == len(pivots)


def _reference_nullspace(rows, ncols):
    """The nullspace basis that ``nullspace`` once built from ``_rref`` on
    rows of k = 1 ``CycloScalar``s, one per rational entry: kept as the
    reference of the integer one."""
    rows = [[CycloScalar.from_rational(1, x) for x in row] for row in rows]
    pivots = _reference_rref(rows, ncols)
    zero, one = CycloScalar.zero(1), CycloScalar.one(1)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [zero] * ncols
            vec[fc] = one
            for prow, pcol in enumerate(pivots):
                vec[pcol] = -rows[prow][fc]
            basis.append([v.rational_value() for v in vec])
    return basis


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_nullspace_matches_the_scalar_reference(data):
    # Rational rows, zero and dependent ones among them, each cleared of its
    # denominators; nullspace, and _restrict adding the later rows to the
    # nullspace of the first ones, give the reference's rational basis.
    ncols = data.draw(st.integers(1, 6), label="ncols")
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for cs in data.draw(st.lists(st.tuples(entry, entry), max_size=2)):
        if rows:
            a, b = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            rows.append([cs[0] * x + cs[1] * y for x, y in zip(a, b)])
    rows += [[Fraction(0)] * ncols] * data.draw(st.integers(0, 2))
    rows = data.draw(st.permutations(rows))
    ints = []
    for row in rows:
        m = math.lcm(*[x.denominator for x in row])
        ints.append([int(x * m) for x in row])
    den, basis = nullspace(ints, ncols)
    assert [[Fraction(x, den) for x in vec] for vec in basis] == _reference_nullspace(rows, ncols)
    assert den > 0 and math.gcd(den, *[x for vec in basis for x in vec]) == 1  # the least D
    cut = data.draw(st.integers(0, len(ints)), label="cut")
    assert _restrict(nullspace(ints[:cut], ncols), ints[cut:]) == (den, basis)


def _fraction_nullspace(rows, ncols):
    """Gauss-Jordan over ``Fraction``, pivoting on the first nonzero entry of
    each column in turn: the rational basis, one vector per free column, one
    there and zero on the other free columns."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pcol in zip(rows, pivots):
            vec[pcol] = -row[fc]
        basis.append(vec)
    return basis


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plain_int_nullspace_matches_fraction_gauss_jordan(data):
    # Integer rows with common factors, zero rows, multiples of a row (zero
    # after its first pivot) and combinations of rows (zero only once every
    # row they combine has pivoted): the same rational basis over one least D.
    ncols = data.draw(st.integers(1, 7), label="ncols")
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**12, 10**12))
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    rows = [[data.draw(st.sampled_from([1, -2, 6])) * x for x in row] for row in rows]
    for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
        a, b = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
        ca, cb = data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4))
        rows.append([ca * x + cb * y for x, y in zip(a, b)])
    rows += [[0] * ncols] * data.draw(st.integers(0, 2))
    rows = data.draw(st.permutations(rows))
    den, basis = nullspace(rows, ncols)
    assert den > 0 and all(type(x) is int for vec in basis for x in vec)
    assert math.gcd(den, *[x for vec in basis for x in vec]) == 1
    assert [[Fraction(x, den) for x in vec] for vec in basis] == _fraction_nullspace(rows, ncols)
