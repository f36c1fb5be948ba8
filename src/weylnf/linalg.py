"""Exact dense linear algebra over the cyclotomic scalars.

Gaussian elimination with exact arithmetic; sizes here are tiny (tens of
rows), so no pivoting strategy beyond "first nonzero" is needed.
"""

from __future__ import annotations

from .errors import PreconditionError
from .scalars import CycloScalar


def solve_square(matrix: list[list[CycloScalar]], rhs: list[CycloScalar]) -> list[CycloScalar]:
    """Solve M x = b for square nonsingular M."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise PreconditionError("solve_square needs a square system")
    if n == 0:
        return []
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise PreconditionError("singular matrix in solve_square")
        a[col], a[piv] = a[piv], a[col]
        inv_p = a[col][col].inv()
        a[col] = [v * inv_p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def nullspace(matrix: list[list[CycloScalar]], ncols: int) -> list[list[CycloScalar]]:
    """Basis of the right nullspace of ``matrix`` (rows may number zero).

    Columns are kept in their given order; free columns produce one basis
    vector each, in ascending column order.
    """
    if any(len(row) != ncols for row in matrix):
        raise PreconditionError("ragged matrix")
    rows = [list(r) for r in matrix if any(r)]
    if not rows:
        if ncols == 0:
            return []
        k = matrix[0][0].k if matrix and matrix[0] else 1
        return [_unit_vector(k, ncols, i) for i in range(ncols)]
    k = rows[0][0].k
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
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
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero = CycloScalar.zero(k)
    one = CycloScalar.one(k)
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -rows[prow][fc]
        basis.append(vec)
    return basis


def _unit_vector(k: int, n: int, i: int) -> list[CycloScalar]:
    vec = [CycloScalar.zero(k)] * n
    vec[i] = CycloScalar.one(k)
    return vec
