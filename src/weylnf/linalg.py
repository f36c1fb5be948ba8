"""Exact dense linear algebra over the cyclotomic scalars.

Gauss-Jordan elimination, pivoting on the first nonzero entry (sizes here are
tens of rows), of rows held in the integer-vector form of the ``scalars``
module docstring, one reduced denominator per row. A pivot row is scaled by
its pivot's one :meth:`CycloScalar.inv`, and row_i - f * prow is integer
products (``scalars._ring``) over den_i * den_p, then one ``scalars._reduced``.
"""

from __future__ import annotations

from itertools import chain

from .errors import ContextMismatchError, PreconditionError
from .scalars import CycloScalar, _from_lanes, _reduced, _ring, _vectors


def _rref(rows: list[list[CycloScalar]], ncols: int, k: int) -> list[int]:
    """Bring ``rows``, of ``CycloScalar``s of order k, to reduced row echelon
    form in place, pivoting on the first nonzero entry of each of the first
    ``ncols`` columns in turn.

    Returns the pivot columns; row i of the result is the one pivoted on
    column ``pivots[i]``, scaled so that entry is one.
    """
    for v in chain.from_iterable(rows):
        if not isinstance(v, CycloScalar):
            raise PreconditionError(f"matrix entries must be CycloScalars, got {type(v).__name__}")
        if v.k != k:
            raise ContextMismatchError(f"cyclotomic order mismatch: {k} vs {v.k}")
    work = [_vectors(k, row) for row in rows]  # den is the lcm, so already reduced
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
    for i, (den, vecs) in enumerate(work):
        rows[i] = [_from_lanes(k, v, den) for v in vecs]
    return pivots


def solve_square(matrix: list[list[CycloScalar]], rhs: list[CycloScalar]) -> list[CycloScalar]:
    """Solve M x = b for square nonsingular M, all entries of the first one's order."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise PreconditionError("solve_square needs a square system")
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if len(_rref(a, n, getattr(a[0][0], "k", None) if n else 1)) < n:
        raise PreconditionError("singular matrix in solve_square")
    return [row[n] for row in a]


def nullspace(matrix: list[list[CycloScalar]], ncols: int, k: int) -> list[list[CycloScalar]]:
    """Basis of the right nullspace over Q(xi_k) of ``matrix`` (rows may number zero).

    Every entry must be a ``CycloScalar`` of order k. Columns are kept in
    their given order; free columns produce one basis vector each, in
    ascending column order.
    """
    if any(len(row) != ncols for row in matrix):
        raise PreconditionError("ragged matrix")
    rows = [list(r) for r in matrix]
    pivots = _rref(rows, ncols, k)
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
