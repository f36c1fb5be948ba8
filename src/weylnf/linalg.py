"""Exact dense linear algebra: square solves over Q(xi), nullspaces over Q.

One Gauss-Jordan elimination, pivoting on the first nonzero entry (sizes here
are tens of rows), of rows held in the integer-vector form of the ``scalars``
module docstring, one reduced denominator per row. A pivot row is scaled by
its pivot's inverse, and row_i - f * prow is integer products
(``scalars._ring``) over den_i * den_p, then one ``scalars._reduced``.
"""

from __future__ import annotations

import math
from itertools import chain

from .errors import ContextMismatchError, PreconditionError
from .scalars import CycloScalar, _from_lanes, _reduced, _ring, _vectors


def _scalar_inverse(k: int, den: int, vec) -> tuple[int, list[tuple[int, ...]]]:
    """``scalars._vectors`` of the inverse of vec / den in Q(xi_k): one :meth:`CycloScalar.inv`."""
    return _vectors(k, [_from_lanes(k, vec, den).inv()])


def _rref(work: list, ncols: int, k: int, inverse) -> list[int]:
    """Bring ``work``, rows ``(den, vecs)`` over Q(xi_k), to reduced row echelon form
    in place, pivoting on the first nonzero entry of each of the first ``ncols``
    columns in turn; ``inverse(k, den, vec)`` is a pivot's inverse, as ``_vectors``.

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
        iden, (inv,) = inverse(k, den, vecs[col])
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
    if len(_rref(work, n, k, _scalar_inverse)) < n:
        raise PreconditionError("singular matrix in solve_square")
    return [_from_lanes(k, vecs[n], den) for den, vecs in work]


def nullspace(matrix: list[list[int]], ncols: int) -> tuple[int, list[list[int]]]:
    """Basis ``(D, vecs)``, vector b = vecs[b] / D over one least D > 0, of the
    right nullspace over Q of the integer rows ``matrix`` (which may number
    zero): one vector per free column, ascending, one there and zero on the
    other free columns. A pivot x / den is inverted in integers, as den / x.
    """
    if any(len(row) != ncols for row in matrix):
        raise PreconditionError("ragged matrix")
    if bad := {type(x).__name__ for x in chain.from_iterable(matrix)} - {"int"}:
        raise PreconditionError(f"matrix entries must be ints, got {min(bad)}")
    work = [(1, [(x,) for x in row]) for row in matrix]
    pivots = _rref(work, ncols, 1, lambda _, den, x: (abs(x[0]), [(den if x[0] > 0 else -den,)]))
    den = math.lcm(*[d for d, _ in work[:len(pivots)]])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = den
        for (d, vecs), pcol in zip(work, pivots):
            vec[pcol] = -vecs[fc][0] * (den // d)
        basis.append(vec)
    return den, basis  # reduced: each pivot row's den is the lcm of its free entries
