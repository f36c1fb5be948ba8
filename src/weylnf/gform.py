"""Homogeneous component presentation (HCP) of graded operators.

A homogeneous operator of order r >= 0 that is an HCP can be written as

    H = ( sum_{l,i} f_{l,i} Gamma_l A_i  +  sum_{j>=1} g_j B_j ) D^r

with Gamma_l = (x d)^l, A_i = exp((xi^i - 1) x * d), B_j the projector onto
x^(j-1) (scaled delta), and D^r = d^r. The order-zero factor acts diagonally
on monomials: Gamma_l scales x^n by n^l, A_i by xi^(i n), B_j picks out
n = j - 1. That diagonal action is the backbone here: the eigenvalue
mu(n) = sum f_{l,i} n^l xi^(i n) + g_(n+1) determines the HCP uniquely, and on
each residue class n = rho (mod k) its quasi part is an ordinary polynomial
in n. :func:`eigenvalues` is the one evaluator: the forward discrete Fourier
transform :func:`_dft` gives the class polynomials, and :func:`_class_value`
evaluates them by Horner. Products are pointwise products of eigenvalues with
the argument of the right factor shifted by the left order. :func:`fit_hcp`
reads mu(n) = nu_r(n + r) / perm(n + r, r) from the operator's held nu lanes,
solves one small rational Vandermonde system per class, brings the class
polynomials to one denominator D, returns to the G-form by the inverse
transform over k * D, and checks every remaining sample exactly against its
class polynomial, all on integer vectors.

An :class:`Hcp` holds its quasi part in the integer-vector form of the
``scalars`` module docstring, one vector per term. Sums and differences,
rational multiples, ``newton``'s filtrations, the transforms and :func:`hcp_mul`, which
forms one result order from all of its pairs as ``operators._sweep`` does,
run on these ints (``scalars._ring`` products; :func:`hcp_mul` sums
plain ints when deg Phi_k is 1 and two-int lists when it is 2); ``Hcp.gamma``
is built for I/O. An :class:`HcpSeries` sum or difference (one pass, with the
subtrahend's vectors and B part scaled by the sign), scalar multiple, product,
filtration or ``one`` is built by the unchecked :func:`_make_series`, with
cancelled orders dropped and the components kept to the result's window.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add

from .errors import (
    ContextMismatchError,
    NotAnHcpError,
    ParseError,
    PreconditionError,
    TruncationError,
)
from .linalg import solve_square
from .operators import INF, Graded, GradedOp, _comp_of_lanes, product_floor
from .scalars import (CycloScalar, _from_lanes, _lanes, _rational_or_scalar, _reduced, _ring,
                      _vectors, as_scalar)


EXPANSION_XCAP = 16  # the x-window of an infinite expansion when none is given


class Hcp:
    """A single homogeneous component in G-form (order r >= 0).

    ``terms`` is the quasi part: ``(l, i, vec)`` sorted by ``(l, i)``, ``vec``
    the nonzero vector of f[l,i] over ``den``, reduced as by
    ``scalars._reduced``. The form is canonical, so ``==`` and hash read
    it (with the ``bpart`` dict of ``CycloScalar``s); ``gamma``, {(l, i):
    f[l,i]}, is a view for I/O and eigenvalues, built on first read and cached.
    """

    __slots__ = ("k", "r", "den", "terms", "bpart", "_gamma")

    def __init__(self, k: int, r: int, gamma=None, bpart=None):
        if r < 0:
            raise PreconditionError("components with negative order are out of scope")
        g = {}
        for (l, i), c in (gamma or {}).items():
            if l < 0:
                raise PreconditionError("Gamma index must be nonnegative")
            key, c = (l, i % k), as_scalar(k, c)
            g[key] = g[key] + c if key in g else c
        if any(j < 1 for j in bpart or {}):
            raise PreconditionError("B index must be positive")
        b = {j: as_scalar(k, c) for j, c in (bpart or {}).items()}
        g = {key: g[key] for key in sorted(g) if g[key]}
        den, vecs = _vectors(k, g.values())
        _set_k(self, k)
        _set_r(self, r)
        _set_den(self, den)
        _set_terms(self, tuple([(l, i, vec) for (l, i), vec in zip(g, vecs)]))
        _set_bpart(self, {j: c for j, c in b.items() if c})
        _set_gamma(self, g)

    def __setattr__(self, name, value):
        raise AttributeError("Hcp is immutable")

    @property
    def gamma(self) -> dict:
        if not hasattr(self, "_gamma"):
            _set_gamma(self, {(l, i): _from_lanes(self.k, vec, self.den)
                              for l, i, vec in self.terms})
        return self._gamma

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms and not self.bpart

    def sdeg_a(self):
        """Largest Gamma index present, or None standing for -infinity."""
        return self.terms[-1][0] if self.terms else None

    def contains_ai(self) -> bool:
        return any(i for _, i, _ in self.terms)

    def point_contains_ai(self, l: int) -> bool:
        return any(i and ll == l for ll, i, _ in self.terms)

    def gamma_degrees(self) -> set[int]:
        return {l for l, _, _ in self.terms}

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "Hcp") -> "Hcp":
        return self._plus(other, 1) if isinstance(other, Hcp) else NotImplemented

    def __sub__(self, other: "Hcp") -> "Hcp":
        if not isinstance(other, Hcp):  # NotImplemented would let HcpSeries.__rsub__ take it
            raise TypeError(f"cannot subtract {type(other).__name__} from Hcp")
        return self._plus(other, -1)

    def _plus(self, other: "Hcp", sign: int) -> "Hcp":
        """self + sign * other in one pass: sign scales other's vectors and B part."""
        if self.k != other.k:
            raise ContextMismatchError("cyclotomic order mismatch")
        if self.r != other.r:
            raise PreconditionError("cannot add components of different order")
        den = math.lcm(self.den, other.den)
        acc = {}
        for h, scale in ((self, den // self.den), (other, sign * (den // other.den))):
            for l, i, vec in h.terms:
                if scale != 1:
                    vec = [scale * x for x in vec]
                prev = acc.get((l, i))
                acc[(l, i)] = vec if prev is None else list(map(add, prev, vec))
        terms = tuple([(l, i, tuple(v)) for (l, i), v in sorted(acc.items()) if any(v)])
        a, b = self.bpart, other.bpart
        bpart = {j: c for j in {**a, **b}
                 if (c := a.get(j, 0) + b.get(j, 0) if sign > 0 else a.get(j, 0) - b.get(j, 0))}
        return _make_hcp(self.k, self.r, *_canonical(den, terms), bpart)

    def __neg__(self):
        return self.scalar_mul(-1)

    def scalar_mul(self, value) -> "Hcp":
        """The product with a rational, on the ints, or with a ``CycloScalar``,
        each vector times its vector through ``scalars._ring``."""
        k, value = self.k, _rational_or_scalar(self.k, value)
        if not value:
            return _make_hcp(k, self.r, 1, (), {})
        if isinstance(value, CycloScalar):
            vmul, (den, (v,)) = _ring(k)[0], _vectors(k, (value,))
            terms = tuple([(l, i, vmul(vec, v)) for l, i, vec in self.terms])
        else:
            den, num = value.denominator, value.numerator
            terms = tuple([(l, i, tuple([num * x for x in vec])) for l, i, vec in self.terms])
        return _make_hcp(k, self.r, *_canonical(self.den * den, terms),
                         {j: c * value for j, c in self.bpart.items()})

    def __mul__(self, other: "Hcp") -> "Hcp":
        if not isinstance(other, Hcp):
            return NotImplemented
        return hcp_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, Hcp):
            return NotImplemented
        return ((self.k, self.r, self.den, self.terms, self.bpart)
                == (other.k, other.r, other.den, other.terms, other.bpart))

    def __hash__(self):
        return hash((self.k, self.r, self.den, self.terms, tuple(sorted(self.bpart.items()))))

    # -- the diagonal action -------------------------------------------------------

    def expand(self, xcap: int = EXPANSION_XCAP) -> GradedOp:
        """Exact window expansion into x^n d^(n+r) coefficients.

        Pure Gamma content expands to finitely many monomials and the result
        is exact everywhere; A_i (i > 0) and B_j parts have infinite tails,
        truncated at ``xcap``.
        """
        finite = not self.bpart and not self.contains_ai()
        mmax = (self.sdeg_a() or 0) if finite else xcap
        mu = eigenvalues(self, range(mmax + 1))
        den, lanes = _lanes(self.k, mu)
        comp = _comp_of_lanes(self.k, lanes, den, 0)
        caps = {} if finite else {self.r: xcap}
        return GradedOp(self.k, {self.r: comp}, None, self.r, caps)

    # -- rendering ------------------------------------------------------------------

    def gform_str(self) -> str:
        parts = [f"r={self.r}"]
        for (l, i) in sorted(self.gamma):
            parts.append(f"f[{l},{i}]={self.gamma[(l, i)]}")
        for j in sorted(self.bpart):
            parts.append(f"g[{j}]={self.bpart[j]}")
        return "G{" + "; ".join(parts) + "}"

    def __str__(self):
        return self.gform_str()

    def __repr__(self):
        return f"Hcp(k={self.k}, {self.gform_str()})"

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "f": [[l, i, str(c)] for (l, i), c in sorted(self.gamma.items())],
            "g": [[j, str(c)] for j, c in sorted(self.bpart.items())],
        }

    @classmethod
    def from_dict(cls, k: int, data: dict) -> "Hcp":
        from .parsing import parse_scalar
        gamma = {(l, i): parse_scalar(k, s) for l, i, s in data.get("f", [])}
        bpart = {j: parse_scalar(k, s) for j, s in data.get("g", [])}
        return cls(k, data["r"], gamma, bpart)


_set_k, _set_r, _set_den, _set_terms, _set_bpart, _set_gamma = (
    getattr(Hcp, name).__set__ for name in Hcp.__slots__)


def _make_hcp(k: int, r: int, den: int, terms: tuple, bpart: dict) -> Hcp:
    """Unchecked constructor: ``r >= 0``; ``den`` and ``terms`` canonical (see
    :class:`Hcp`), with ``l >= 0`` and ``0 <= i < k``; ``bpart`` keys ``j >= 1``,
    each value a nonzero ``CycloScalar`` of order k. Nothing is copied."""
    out = object.__new__(Hcp)
    _set_k(out, k)
    _set_r(out, r)
    _set_den(out, den)
    _set_terms(out, terms)
    _set_bpart(out, bpart)
    return out


def _canonical(den: int, terms: tuple) -> tuple[int, tuple]:
    """Sorted nonzero ``terms`` over ``den``, reduced by ``scalars._reduced``."""
    if den > 1:
        g, vecs = _reduced(den, [vec for _, _, vec in terms])
        if g != den:
            den, terms = g, tuple([(l, i, tuple(v)) for (l, i, _), v in zip(terms, vecs)])
    return den, terms


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_hcp_dict(h) -> bool:
    """Shape of :meth:`Hcp.to_dict`: int r, f rows [l, i, scalar], g rows [j, scalar]."""
    def rows_ok(rows, width):
        return isinstance(rows, list) and all(
            isinstance(row, list) and len(row) == width and all(map(_is_int, row[:-1]))
            and isinstance(row[-1], str) for row in rows)
    return (isinstance(h, dict) and _is_int(h.get("r"))
            and rows_ok(h.get("f", []), 3) and rows_ok(h.get("g", []), 2))


def _dft(k: int, entries, sign: int) -> list[list[list[int]]]:
    """out[t][l] = sum vec * xi^(sign * s * t) over the ``(l, s, vec)`` of ``entries``,
    t < k, on integer vectors. With sign 1 on an ``Hcp``'s terms, out[rho] is the
    class polynomial c[rho][l] = sum_i f[l,i] xi^(i rho): on n = rho (mod k) the
    quasi part sum f[l,i] n^l xi^(i n) is sum_l c[rho][l] n^l."""
    vmul, xis = _ring(k)
    lmax = max((l for l, _, _ in entries), default=0)
    out = [[[0] * len(xis[0]) for _ in range(lmax + 1)] for _ in range(k)]
    for l, s, vec in entries:
        for t, poly in enumerate(out):
            e = sign * s * t % k
            for j, x in enumerate(vmul(vec, xis[e]) if e else vec):
                poly[l][j] += x
    return out


def _class_value(polys, n: int) -> list[int]:
    """p_(n mod k)(n) by Horner on the integer vectors, over their denominator."""
    c = polys[n % len(polys)]
    acc = c[-1]
    for l in range(len(c) - 2, -1, -1):
        acc = [x * n + y for x, y in zip(acc, c[l])]
    return acc


def eigenvalues(H: Hcp, ns) -> list[CycloScalar]:
    """mu(n) = sum f[l,i] n^l xi^(i n) + g[n+1]: the action of H's order-zero
    factor on x^n, for each n in ``ns``."""
    polys = _dft(H.k, H.terms, 1)
    out = []
    for n in ns:
        if n < 0:
            raise PreconditionError("eigenvalues are defined for n >= 0")
        v = _from_lanes(H.k, _class_value(polys, n), H.den)
        g = H.bpart.get(n + 1)
        out.append(v if g is None else v + g)
    return out


def hcp_mul(H1: Hcp, H2: Hcp, more=()) -> Hcp:
    """H1 * H2 + sum(h1 * h2 for h1, h2 in ``more``), all pairs of one total order.

    mu(n) = mu1(n) * mu2(n + r1): after the shift (n + r1)^l2 = sum_s C(l2, s)
    r1^(l2-s) n^s and xi^(i2 (n + r1)) = xi^(i2 r1) xi^(i2 n) the quasi parts
    multiply term by term, as products mod Phi_k of the factors' integer
    vectors, which the shift weights scale to the lcm D of the pairs' D1 * D2.
    The sums, with their gcd with D divided out, are the result's ``terms``. On
    the union of the pairs' B supports the summed products of
    :func:`eigenvalues`, less the result's quasi part, give the B correction.
    """
    pairs = [(H1, H2), *more]
    k, t = H1.k, H1.r + H2.r
    live, support = [], set()
    for h1, h2 in pairs:
        r1 = h1.r
        if h1.k != k or h2.k != k:
            raise ContextMismatchError("cyclotomic order mismatch")
        if r1 + h2.r != t:
            raise PreconditionError("the pairs of one product must share their total order")
        if h1.terms and h2.terms:
            live.append((r1, h1, h2))
        if h1.bpart or h2.bpart:
            support.update(j - 1 for j in h1.bpart)
            support.update(j - 1 - r1 for j in h2.bpart if j - 1 >= r1)
    vmul, xis = _ring(k)
    deg = len(xis[0])
    den = math.lcm(*[h1.den * h2.den for _, h1, h2 in live])
    # acc[(l, i)]: an int when deg Phi_k = 1, a two-int list when it is 2, else a list.
    acc: dict = {}
    for r1, h1, h2 in live:
        scale, e1 = den // (h1.den * h2.den), r1 % k
        for l2, i2, v2 in h2.terms:
            if e1 and i2:
                v2 = vmul(v2, xis[i2 * e1 % k])
            shift = _shift_weights(l2, r1)
            if deg > 2 and scale != 1:
                shift = [(s, scale * w) for s, w in shift]
            for l1, i1, v1 in h1.terms:
                p, i3 = vmul(v1, v2), (i1 + i2) % k
                if deg == 1:
                    x = scale * p[0]
                    for s, w in shift:
                        key = (l1 + s, i3)
                        acc[key] = acc.get(key, 0) + w * x
                elif deg == 2:
                    x, y = scale * p[0], scale * p[1]
                    for s, w in shift:
                        key = (l1 + s, i3)
                        a = acc.get(key)
                        if a is None:
                            acc[key] = [w * x, w * y]
                        else:
                            a[0] += w * x
                            a[1] += w * y
                else:
                    for s, w in shift:
                        a = acc.setdefault((l1 + s, i3), [0] * deg)
                        for j, x in enumerate(p):
                            a[j] += w * x
    if deg == 1:
        terms = tuple([(l, i, (a,)) for (l, i), a in sorted(acc.items()) if a])
    else:
        terms = tuple([(l, i, tuple(a)) for (l, i), a in sorted(acc.items()) if any(a)])
    den, terms = _canonical(den, terms)
    bpart = {}
    if support:
        ns = sorted(support)
        mus = [(eigenvalues(h1, ns), eigenvalues(h2, [n + h1.r for n in ns])) for h1, h2 in pairs]
        quasi = eigenvalues(_make_hcp(k, t, den, terms, {}), ns)
        for m, n in enumerate(ns):
            v = sum((mu1[m] * mu2[m] for mu1, mu2 in mus), -quasi[m])
            if v:
                bpart[n + 1] = v
    return _make_hcp(k, t, den, terms, bpart)


@lru_cache(maxsize=None)
def _shift_weights(l2: int, r1: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (s, C(l2, s) r1^(l2-s)) of (n + r1)^l2: with r1 = 0 only s = l2."""
    return tuple((s, math.comb(l2, s) * r1 ** (l2 - s)) for s in range(0 if r1 else l2, l2 + 1))


def fit_hcp(C: GradedOp, dmax: int, nbmax: int, margin: int, r: int | None = None) -> Hcp:
    """Recover the G-form of a single homogeneous component.

    The eigenvalues mu(n) = nu_r(n + r) / perm(n + r, r) are read from the
    lanes that C's factor holds for order r (no content there fits to zero).
    The quasi-polynomial coefficients f_{l,i} (l <= dmax, i < k) come from
    k*(dmax+1) consecutive samples at n >= nbmax (beyond every allowed B
    projector), dmax+1 in each residue class n = rho (mod k). On
    its class the eigenvalue is the polynomial p_rho(n) = sum_l c[l,rho] n^l
    with c[l,rho] = sum_i f[l,i] xi^(i rho), so each class is one
    (dmax+1)-square rational Vandermonde solve, and the inverse discrete
    Fourier transform f[l,i] = (1/k) sum_rho c[l,rho] xi^(-i rho) gives the
    G-form. g_j for j <= nbmax is set by subtraction, then every remaining
    exact sample is checked against its class polynomial. A mismatch means
    the component is not an HCP within these bounds and raises
    :class:`NotAnHcpError`.
    """
    k = C.k
    nonzero = sorted(C.components)
    if r is None:
        if len(nonzero) != 1:
            raise PreconditionError("fit_hcp expects a single-component operator")
        r = nonzero[0]
    elif any(t != r for t in nonzero):
        raise PreconditionError("operator has content away from the requested order")
    if r < 0:
        raise PreconditionError("components with negative order are out of scope")
    if dmax < 0 or nbmax < 0 or margin < 0:
        raise PreconditionError("fit bounds must be nonnegative")
    ncols = k * (dmax + 1)
    need = nbmax + ncols + margin
    cap = C.xcap(r)
    if cap < need:
        raise TruncationError("window too small for the requested fit",
                              {"order": r, "needed_xcap": need,
                               "xcap": None if cap == INF else cap})
    upto = need if cap == INF else int(cap)
    if r not in C.components:
        return _make_hcp(k, r, 1, (), {})
    mden, lanes = C._factor.nu(r, upto + r)  # mu(n) = mu[n] / dens[n]
    mu = list(zip(*[lane[r:upto + r + 1] for lane in lanes]))
    dens = [mden * math.perm(n + r, r) for n in range(upto + 1)]
    # c[l * k + rho] = c[l,rho] is solved on its class's nodes; D * c[l,rho] is
    # vecs[l * k + rho], over the classes' one denominator D.
    c = [None] * ncols
    for n0 in range(nbmax, nbmax + k):
        nodes = range(n0, n0 + ncols, k)
        vander = [[CycloScalar.from_rational(k, n ** l) for l in range(dmax + 1)] for n in nodes]
        c[n0 % k::k] = solve_square(vander, [_from_lanes(k, mu[n], dens[n]) for n in nodes])
    den, vecs = _vectors(k, c)
    # The inverse DFT, f[l,i] = (1/k) sum_rho c[l,rho] xi^(-i rho), over k * D.
    f = _dft(k, [(m // k, m % k, v) for m, v in enumerate(vecs)], -1)
    terms = tuple([(l, i, tuple(f[i][l])) for l in range(dmax + 1) for i in range(k)
                   if any(f[i][l])])
    polys = [vecs[rho::k] for rho in range(k)]
    bpart = {}
    for n in [*range(nbmax), *range(nbmax + ncols, upto + 1)]:
        v = [x * den - y * dens[n] for x, y in zip(mu[n], _class_value(polys, n))]
        if not any(v):
            continue
        if n >= nbmax:
            raise NotAnHcpError(
                f"component at order {r} is not an HCP within bounds "
                f"dmax={dmax}, nbmax={nbmax} (verification failed at sample {n})")
        bpart[n + 1] = _from_lanes(k, v, dens[n] * den)
    return _make_hcp(k, r, *_canonical(k * den, terms), bpart)


@dataclass
class AqkReport:
    ok: bool
    clause: int | None = None
    order: int | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


class HcpSeries(Graded):
    """Operator whose homogeneous components are HCPs, orders >= 0.

    ``floor`` is the smallest order at which components are known (``None``
    for a finite series with nothing missing; a negative floor is raised to 0);
    ``top`` bounds the orders (by default the largest stored one, or the floor).
    """

    __slots__ = ()

    def __init__(self, k: int, components: dict[int, Hcp], floor=None, top=None):
        for t, h in components.items():
            if h.k != k:
                raise ContextMismatchError("component context mismatch")
            if h.r != t:
                raise PreconditionError(f"component at order {t} has r={h.r}")
        comps = {t: h for t, h in components.items() if h.terms or h.bpart}
        if floor is not None:
            floor = max(floor, 0)
            if top is None:
                top = max(comps, default=floor)
        self._set_window(k, comps, floor, top)

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def one(cls, k: int) -> "HcpSeries":
        return _make_series(k, {0: _make_hcp(k, 0, 1, ((0, 0, _ring(k)[1][0]),), {})}, None, 0)

    @classmethod
    def from_hcp(cls, h: Hcp) -> "HcpSeries":
        return cls(h.k, {h.r: h})

    @classmethod
    def d_power(cls, k: int, q: int) -> "HcpSeries":
        return cls.from_hcp(Hcp(k, q, {(0, 0): 1}))

    # -- queries ---------------------------------------------------------------------

    def top_order(self) -> int:
        if not self.components:
            raise PreconditionError("series vanishes on its window")
        return max(self.components)

    def component(self, t: int) -> Hcp:
        return self.components.get(t) or _make_hcp(self.k, max(t, 0), 1, (), {})

    def is_monic(self) -> bool:
        if not self.components:
            return False
        top = self.components[self.top_order()]
        return not top.bpart and top.den == 1 and top.terms == ((0, 0, _ring(self.k)[1][0]),)

    def restrict_floor(self, floor: int) -> "HcpSeries":
        new_floor = floor if self.floor is None else max(floor, self.floor)
        comps = {t: h for t, h in self.components.items() if t >= new_floor}
        return HcpSeries(self.k, comps, new_floor, self.top)

    # -- ring operations ----------------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign * other, each common order by one ``Hcp._plus``."""
        if isinstance(other, Hcp):
            other = HcpSeries.from_hcp(other)
        if not isinstance(other, HcpSeries):
            return NotImplemented
        self._check_ctx(other)
        floor, top = self._sum_window(other)
        comps = dict(self.components)
        for t, h in other.components.items():
            comps[t] = comps[t]._plus(h, sign) if t in comps else (h if sign > 0 else -h)
        return _make_series(self.k, {t: h for t, h in comps.items() if (h.terms or h.bpart)
                                     and (floor is None or t >= floor)}, floor, top)

    def scalar_mul(self, value) -> "HcpSeries":
        comps = {t: h.scalar_mul(value) for t, h in self.components.items()}
        return _make_series(self.k, {t: h for t, h in comps.items() if h.terms or h.bpart},
                            self.floor, self.top)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            return self.scalar_mul(other)
        if isinstance(other, Hcp):
            other = HcpSeries.from_hcp(other)
        if not isinstance(other, HcpSeries):
            return NotImplemented
        self._check_ctx(other)
        floor = product_floor(self, other)
        if floor is not None:
            floor = max(floor, 0)
        top = self.top + other.top
        pairs: dict[int, list[tuple[Hcp, Hcp]]] = {}
        for t1, h1 in self.components.items():
            for t2, h2 in other.components.items():
                t = t1 + t2
                if floor is None or t >= floor:
                    pairs.setdefault(t, []).append((h1, h2))
        comps = {t: hcp_mul(*plist[0], plist[1:]) for t, plist in pairs.items()}
        return _make_series(self.k, {t: h for t, h in comps.items() if h.terms or h.bpart},
                            floor, top)

    def __eq__(self, other):
        if not isinstance(other, HcpSeries):
            return NotImplemented
        return (self.k, self.floor, self.top, self.components) == \
            (other.k, other.floor, other.top, other.components)

    def __hash__(self):
        return hash((self.k, self.floor, self.top, tuple(sorted(self.components.items()))))

    def _agrees_at(self, other: "HcpSeries", t: int) -> bool:
        return self.component(t) == other.component(t)

    # -- expansion and serialization -------------------------------------------------------

    def expand(self, xcap: int = EXPANSION_XCAP) -> GradedOp:
        comps = {}
        caps = {}
        for t, h in self.components.items():
            g = h.expand(xcap)
            if t in g.components:
                comps[t] = g.components[t]
            cap = g.xcap(t)
            if cap != INF:
                caps[t] = cap
        return GradedOp(self.k, comps, self.floor, self.top, caps)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "floor": self.floor,
            "top": self.top,
            "components": {str(t): self.components[t].to_dict() for t in sorted(self.components)},
        }

    @classmethod
    def from_dict(cls, data) -> "HcpSeries":
        """Inverse of :meth:`to_dict`; any other shape raises ParseError."""
        if not (isinstance(data, dict) and _is_int(data.get("k"))
                and all(data.get(key) is None or _is_int(data[key]) for key in ("floor", "top"))
                and isinstance(data.get("components"), dict)
                and all(re.fullmatch(r"-?[0-9]+", t) and _is_hcp_dict(h)
                        for t, h in data["components"].items())):
            raise ParseError("malformed HCP series: needs integer k, floor and top "
                             "(or null) and components {order: {r, f, g}}")
        k = data["k"]
        comps = {int(t): Hcp.from_dict(k, h) for t, h in data["components"].items()}
        return cls(k, comps, data.get("floor"), data.get("top"))

    def _body_str(self) -> str:
        if not self.components:
            return "0"
        return "\n".join(f"[{t}] {self.components[t].gform_str()}"
                         for t in sorted(self.components, reverse=True))

    def __repr__(self):
        return f"HcpSeries(k={self.k}, orders={sorted(self.components, reverse=True)})"


def _make_series(k: int, components: dict[int, Hcp], floor, top) -> HcpSeries:
    """Unchecked ``HcpSeries``: each component is nonzero, has context k and r
    equal to its order, and lies in the window floor..top, with floor >= 0."""
    out = object.__new__(HcpSeries)
    if floor is None:
        top = max(components, default=0)
    _set_series_k(out, k)
    _set_series_components(out, components)
    _set_series_floor(out, floor)
    _set_series_top(out, top)
    return out


_set_series_k, _set_series_components, _set_series_floor, _set_series_top = (
    getattr(Graded, name).__set__ for name in Graded.__slots__)


def check_Aqk(P: HcpSeries, kk: int, enforce_growth: bool = True) -> AqkReport:
    """Verify the normal-form shape condition with parameter kk.

    Clauses: every component is an HCP (structural here), every component is
    totally free of B_j, Sdeg_A of the component i below the top stays below
    i + kk, and the top symbol contains no A_i and has Sdeg_A exactly kk.
    """
    if not P.components:
        return AqkReport(False, clause=4, detail="series has no top symbol in its window")
    p = P.top_order()
    for t in sorted(P.components, reverse=True):
        h = P.components[t]
        if h.bpart:
            return AqkReport(False, clause=2, order=t,
                             detail=f"component at order {t} has B part {sorted(h.bpart)}")
        if t == p:
            if h.contains_ai():
                return AqkReport(False, clause=4, order=t,
                                 detail="top symbol contains A_i with i > 0")
            if h.sdeg_a() != kk:
                return AqkReport(False, clause=4, order=t,
                                 detail=f"top symbol has Sdeg_A {h.sdeg_a()}, expected {kk}")
        elif enforce_growth:
            i = p - t
            sa = h.sdeg_a()
            if sa is not None and sa >= i + kk:
                return AqkReport(False, clause=3, order=t,
                                 detail=f"Sdeg_A at order {t} is {sa}, needs < {i + kk}")
    return AqkReport(True)
