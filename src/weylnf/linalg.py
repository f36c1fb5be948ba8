"""Exact dense linear algebra over the cyclotomic scalars.

Gauss-Jordan elimination with exact arithmetic; sizes here are tiny (tens of
rows), so no pivoting strategy beyond "first nonzero" is needed.
"""

from __future__ import annotations

from .errors import PreconditionError
from .scalars import CycloScalar


def _rref(rows: list[list[CycloScalar]], ncols: int) -> list[int]:
    """Bring ``rows`` to reduced row echelon form in place, pivoting on the
    first nonzero entry of each of the first ``ncols`` columns in turn.

    Returns the pivot columns; row i of the result is the one pivoted on
    column ``pivots[i]``, scaled so that entry is one.
    """
    pivots: list[int] = []
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


def solve_square(matrix: list[list[CycloScalar]], rhs: list[CycloScalar]) -> list[CycloScalar]:
    """Solve M x = b for square nonsingular M."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise PreconditionError("solve_square needs a square system")
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if len(_rref(a, n)) < n:
        raise PreconditionError("singular matrix in solve_square")
    return [row[n] for row in a]


def nullspace(matrix: list[list[CycloScalar]], ncols: int, k: int) -> list[list[CycloScalar]]:
    """Basis of the right nullspace over Q(xi_k) of ``matrix`` (rows may number zero).

    Columns are kept in their given order; free columns produce one basis
    vector each, in ascending column order.
    """
    if any(len(row) != ncols for row in matrix):
        raise PreconditionError("ragged matrix")
    rows = [list(r) for r in matrix if any(r)]
    pivots = _rref(rows, ncols)
    zero, one = CycloScalar.zero(k), CycloScalar.one(k)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -rows[prow][fc]
        basis.append(vec)
    return basis
