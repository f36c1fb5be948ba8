"""Exact dense linear algebra: square solves over Q(xi), nullspaces over Q.

Gauss-Jordan elimination, pivoting on the first nonzero entry (sizes here are
tens of rows). A solve's rows are in the integer-vector form of the ``scalars``
module docstring, one reduced denominator each: a pivot row is scaled by its
pivot's inverse, and row_i - f * prow is integer products (``scalars._ring``)
over den_i * den_p, reduced once. A nullspace's rows are plain ints.
"""

from __future__ import annotations

import math
from itertools import chain

from .errors import ContextMismatchError, PreconditionError
from .scalars import CycloScalar, _from_lanes, _reduced, _ring, _vectors


def _rref(work: list, ncols: int, k: int) -> list[int]:
    """Bring ``work``, rows ``(den, vecs)`` over Q(xi_k), to reduced row echelon form
    in place, pivoting on the first nonzero entry of each of the first ``ncols``
    columns in turn, with one :meth:`CycloScalar.inv` per pivot.

    Returns the pivot columns; row i of the result is the one pivoted on
    column ``pivots[i]``, scaled so that entry is one.
    """
    vmul = _ring(k)[0]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if any(work[i][1][col])), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        den, vecs = work[r]
        iden, (inv,) = _vectors(k, [_from_lanes(k, vecs[col], den).inv()])
        pden, pvecs = work[r] = _reduced(den * iden, [vmul(v, inv) if any(v) else v
                                                      for v in vecs])
        live = [(j, v) for j, v in enumerate(pvecs) if any(v)]
        for i, (den, vecs) in enumerate(work):
            f = vecs[col]
            if i != r and any(f):
                vecs = [[x * pden for x in v] for v in vecs] if pden != 1 else list(vecs)
                for j, v in live:
                    vecs[j] = [x - y for x, y in zip(vecs[j], vmul(f, v))]
                work[i] = _reduced(den * pden, vecs)
        pivots.append(col)
    return pivots


def solve_square(matrix: list[list[CycloScalar]], rhs: list[CycloScalar]) -> list[CycloScalar]:
    """Solve M x = b for square nonsingular M, all entries of the first one's order."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise PreconditionError("solve_square needs a square system")
    k = getattr(matrix[0][0], "k", None) if n else 1
    for v in chain(*matrix, rhs):
        if not isinstance(v, CycloScalar):
            raise PreconditionError(f"matrix entries must be CycloScalars, got {type(v).__name__}")
        if v.k != k:
            raise ContextMismatchError(f"cyclotomic order mismatch: {k} vs {v.k}")
    work = [_vectors(k, [*row, b]) for row, b in zip(matrix, rhs)]  # den is the lcm: reduced
    if len(_rref(work, n, k)) < n:
        raise PreconditionError("singular matrix in solve_square")
    return [_from_lanes(k, vecs[n], den) for den, vecs in work]


def nullspace(matrix: list[list[int]], ncols: int) -> tuple[int, list[list[int]]]:
    """Basis ``(D, vecs)``, vector b = vecs[b] / D over one least D > 0, of the
    right nullspace over Q of the integer rows ``matrix`` (which may number
    zero): one vector per free column, ascending, one there and zero on the
    other free columns. Each row is kept primitive with a positive pivot p,
    so pivot row / p is reduced and D is the lcm of the pivots.
    """
    if any(len(row) != ncols for row in matrix):
        raise PreconditionError("ragged matrix")
    if bad := {type(x).__name__ for x in chain.from_iterable(matrix)} - {"int"}:
        raise PreconditionError(f"matrix entries must be ints, got {min(bad)}")
    rows = [[x // g for x in row] for row in matrix if (g := math.gcd(*row))]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        prow = rows[piv] if rows[piv][col] > 0 else [-x for x in rows[piv]]
        rows[piv], rows[r], p = rows[r], prow, prow[col]
        for i, row in enumerate(rows):
            if i != r and (f := row[col]):
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*row)  # 0 when the row cancels to zero
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    den = math.lcm(*[row[c] for row, c in zip(rows, pivots)])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = den
        for row, pcol in zip(rows, pivots):
            vec[pcol] = -row[fc] * (den // row[pcol])
        basis.append(vec)
    return den, basis
