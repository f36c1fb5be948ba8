"""Exact linear algebra over Q(xi): square solves and nullspaces."""

from fractions import Fraction
import random

import pytest

from weylnf.errors import PreconditionError
from weylnf.linalg import nullspace, solve_square
from weylnf.scalars import CycloScalar, xi_pow

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


def _planted_rank(rng, k, rank, ncols):
    """Rows of rank exactly ``rank``: ``rank`` rows with a unit in distinct
    columns and zeros in the others' unit columns, their random combinations,
    and zero rows (at least one row in all), shuffled."""
    zero = CycloScalar.zero(k)
    units = rng.sample(range(ncols), rank)
    base = []
    for u in units:
        row = [zero if col in units else _rand_scalar(rng, k) for col in range(ncols)]
        row[u] = _nonzero_scalar(rng, k)
        base.append(row)
    rows = [list(row) for row in base]
    for _ in range(rng.randint(0, 3)):
        cs = [_rand_scalar(rng, k) for _ in base]
        rows.append([_dot(cs, [row[col] for row in base], k) for col in range(ncols)])
    rows += [[zero] * ncols for _ in range(rng.randint(0 if rows else 1, 2))]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("k", KS)
def test_nullspace_annihilates_with_full_dimension(k):
    rng = random.Random(300 + k)
    for ncols in range(1, 7):
        for rank in range(ncols + 1):
            matrix = _planted_rank(rng, k, rank, ncols)
            basis = nullspace(matrix, ncols, k)
            assert len(basis) == ncols - rank
            for vec in basis:
                assert len(vec) == ncols and any(vec)
                assert all(v.k == k for v in vec)
                assert all(not _dot(row, vec, k) for row in matrix)


@pytest.mark.parametrize("k", KS)
def test_nullspace_of_zero_rows_is_the_unit_vectors(k):
    zero, one = CycloScalar.zero(k), CycloScalar.one(k)
    for ncols in range(4):
        units = [[one if i == j else zero for j in range(ncols)] for i in range(ncols)]
        for nrows in (1, 2):
            assert nullspace([[zero] * ncols for _ in range(nrows)], ncols, k) == units
        # With no rows at all the field still comes from k.
        assert nullspace([], ncols, k) == units


def test_nullspace_without_rows_is_over_the_callers_field():
    # No row carries a scalar, so the field comes from k alone, and the unit
    # vectors combine with the caller's Q(xi_3) scalars.
    xi = xi_pow(3, 1)
    basis = nullspace([], 2, 3)
    assert all(v.k == 3 for vec in basis for v in vec)
    assert [a * xi + b for a, b in zip(*basis)] == [xi, CycloScalar.one(3)]


def test_nullspace_rejects_ragged_rows():
    zero = CycloScalar.zero(3)
    with pytest.raises(PreconditionError, match="ragged"):
        nullspace([[zero, zero], [zero]], 2, 3)
    with pytest.raises(PreconditionError, match="ragged"):
        nullspace([[zero, zero]], 3, 3)
