"""Commutativity analysis of pairs of differential operators.

Given bivariate F and a monic pair (P, Q), this module evaluates F(P, Q)
with P-powers left of Q-powers, decomposes F into (p, q)-weighted
homogeneous pieces, computes the type-i linear identities on a piece,
searches for an exact annihilating polynomial (the Burchnall-Chaundy
certificate) by a nullspace computation over the rationals on integer rows,
and extracts the leading filtration coefficients of F(P', d^q) along a
restriction top line. The end-to-end pipeline conjugates the pair to a
normal form, classifies its top line, and reports the verdict with every
window it was established on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, PreconditionError
from .gform import HcpSeries, Hcp
from .linalg import nullspace
from .newton import TopLineClass, Weight, classify_top_line, filtration_HS
from .operators import Graded, GradedOp, INF, commutator
from .scalars import _join_signed, _reduced, _signed_term
from .schur import NormalFormResult, normal_form_report


class BivarPoly:
    """Polynomial in commuting X, Y over Q (zero coefficients dropped)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean = {}
        for (u, v), c in (terms or {}).items():
            if u < 0 or v < 0:
                raise PreconditionError("monomial exponents must be nonnegative")
            c = Fraction(c)
            if c:
                clean[(u, v)] = clean.get((u, v), Fraction(0)) + c
        object.__setattr__(self, "terms", {uv: c for uv, c in clean.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def weighted_degree(self, p: int, q: int) -> int:
        if not self.terms:
            raise PreconditionError("weighted degree of the zero polynomial")
        return max(p * u + q * v for u, v in self.terms)

    def scale(self, c) -> "BivarPoly":
        c = Fraction(c)
        return BivarPoly({uv: v * c for uv, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __str__(self):
        parts = []
        for (u, v) in sorted(self.terms, key=lambda uv: (-uv[0], -uv[1])):
            parts.append(_signed_term(self.terms[(u, v)], [("X", u), ("Y", v)]))
        return _join_signed(parts)

    def __repr__(self):
        return f"BivarPoly({self})"

    def to_list(self) -> list:
        return [[u, v, str(c)] for (u, v), c in sorted(self.terms.items())]

    @classmethod
    def from_list(cls, items) -> "BivarPoly":
        """From ``to_list`` rows ``[u, v, c]``: integer exponents and a rational
        ``c`` (an integer, a float or a string such as ``"-3/4"``). Rows with
        the same ``(u, v)`` add up, and a zero sum is dropped. A malformed row
        raises :class:`ParseError`; a negative exponent, PreconditionError."""
        if not isinstance(items, (list, tuple)):
            raise ParseError("a polynomial must be a JSON list of [u, v, c] rows")
        terms = {}
        for row in items:
            if not (isinstance(row, (list, tuple)) and len(row) == 3
                    and all(type(e) is int for e in row[:2])
                    and type(row[2]) in (int, float, str)):
                raise ParseError(f"bad polynomial row {row!r}: expected [u, v, c] with "
                                 "integer u and v and a rational c")
            u, v, c = row
            try:
                terms[(u, v)] = terms.get((u, v), 0) + Fraction(c)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise ParseError(f"bad coefficient {c!r} in row {row!r}") from exc
        return cls(terms)


@dataclass
class HomogPiece:
    """A (p, q)-homogeneous piece: terms (k, u, v) with p u + q v constant."""

    weight: int
    terms: list[tuple[Fraction, int, int]]  # sorted by descending u


def weighted_decompose(F: BivarPoly, p: int, q: int) -> list[HomogPiece]:
    """Split F into homogeneous pieces, heaviest first."""
    if F.is_zero():
        raise PreconditionError("cannot decompose the zero polynomial")
    buckets: dict[int, list[tuple[Fraction, int, int]]] = {}
    for (u, v), c in F.terms.items():
        buckets.setdefault(p * u + q * v, []).append((c, u, v))
    pieces = []
    for w in sorted(buckets, reverse=True):
        pieces.append(HomogPiece(weight=w, terms=sorted(buckets[w], key=lambda t: -t[1])))
    return pieces


def type_identity(piece: HomogPiece, i: int) -> Fraction:
    """sum_l comb(u_l, i) k_l; the type-i identity holds when this is zero."""
    return sum((math.comb(u, i) * c for c, u, _ in piece.terms), Fraction(0))


def _monomial(pows: tuple[dict, dict], u: int, v: int):
    """P^u Q^v from ``pows``, the power caches of P and Q (exponent -> power,
    seeded with base^0 and base^1), each extended one factor at a time. A
    pure power is its cached value, so nothing is multiplied by one."""
    for cache, e in zip(pows, (u, v)):
        while e not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * cache[1]
    if u and v:
        return pows[0][u] * pows[1][v]
    return pows[1][v] if v else pows[0][u]


def evaluate_poly(F: BivarPoly, P: Graded, Q: Graded) -> Graded:
    """F(P, Q) = sum c_(u,v) P^u Q^v, exactly, windows propagated.

    P and Q are of one graded type: operators, or HCP series such as
    F(P', d^q) in the conjugated setting.
    """
    k, ring = P.k, type(P)
    pows = {0: ring.one(k), 1: P}, {0: ring.one(k), 1: Q}
    total = ring.zero(k)
    for (u, v) in sorted(F.terms):
        total = total + _monomial(pows, u, v).scalar_mul(F.terms[(u, v)])
    return total


@dataclass
class BCResult:
    poly: BivarPoly
    weight: int
    reverified: bool

    def to_dict(self) -> dict:
        return {"poly": self.poly.to_list(), "text": str(self.poly),
                "weight": self.weight, "reverified": self.reverified}


def bc_certificate(P: GradedOp, Q: GradedOp, wmax: int, depth: int) -> BCResult | None:
    """Minimal-weight nonzero F with F(P, Q) = 0 on the whole window, if any.

    For each candidate weight w the nullspace search runs on coefficients
    at orders w - depth .. w within the common window of the monomials of
    weight <= w, so a larger ``wmax`` leaves it as it is, and adds lower
    orders of it one at a time while the nullspace has more than one
    vector. A candidate is accepted only if its evaluation vanishes on the
    entire common window, and the result is flagged re-verified when that
    window reaches at least twice the search depth below w. Absence of a
    certificate is bounded evidence only, never a nonexistence proof. Each
    monomial P^u Q^v is evaluated when the weight loop first reaches it, so
    the products follow the certificate's weight, not ``wmax``. The rows are
    integers, read from the monomials' difference rows: no coefficient is built.
    Each order keeps its rows across weights, and a new monomial adds its column
    to them once, so a weight reads only the columns it adds.
    """
    if wmax < 0:
        raise PreconditionError("wmax must be nonnegative")
    if depth < 1:
        raise PreconditionError("depth must be positive")
    k = P.k
    p, q = P.ord(), Q.ord()
    if not (P.is_monic() and Q.is_monic()):
        raise PreconditionError("bc_certificate needs monic operators")
    if p < 1 or q < 1:
        raise PreconditionError(f"bc_certificate needs operators of order >= 1, got {p} and {q}")
    monos = sorted(((u, v) for u in range(wmax // p + 1) for v in range(wmax // q + 1)
                    if p * u + q * v <= wmax),
                   key=lambda uv: (p * uv[0] + q * uv[1], uv[0]))
    pows = {0: GradedOp.one(k), 1: P}, {0: GradedOp.one(k), 1: Q}
    evals, grown = {}, {}  # the monomials reached, evaluated then; per order, (L, rows, read)

    def rows_at(t: int) -> list:
        """Row (m, i), m < caps[t] + t + 1, of order t: lane i of the differences m! * D_c *
        a_(m-t) of each monomial c read so far times L / D_c, L the lcm of their D_c, so
        coordinate i of the x^(m-t) coefficients times m! * L, a row per rational coordinate
        (the relation is over Q), zero rows dropped. A monomial's column is read into the
        order's rows once; a grown L scales the rows read before it (a row scaling)."""
        scale, rows, read = grown.get(t, (1, {}, 0))
        for c in range(read, ncols):
            e = evals[monos[c]]
            den, cols = e._factor.differences(t) if t in e.components else (1, ())
            if scale % den:
                f = den // math.gcd(scale, den)
                scale, rows = scale * f, {mi: [x * f for x in row] for mi, row in rows.items()}
            for i, col in enumerate(cols):
                for m in range(max(0, t), len(col)):
                    if col[m]:
                        row = rows.setdefault((m, i), [])
                        row += [0] * (c - len(row)) + [col[m] * (scale // den)]
        grown[t], end = (scale, rows, ncols), caps.get(t, INF) + t + 1
        return [row + [0] * (ncols - len(row)) for (m, _), row in sorted(rows.items()) if m < end]

    # The search at weight wcap reads the window of the monomials of weight <= wcap,
    # a prefix of monos: its floor, lowest order and x-cap per order, kept running.
    common_floor, low, caps, ncols = -INF, INF, {}, 0
    for wcap in sorted({p * u + q * v for u, v in monos}):
        while ncols < len(monos) and p * monos[ncols][0] + q * monos[ncols][1] <= wcap:
            e = evals[monos[ncols]] = _monomial(pows, *monos[ncols])
            common_floor = max(common_floor, e.floor_eff())
            low = min(low, min(e.components, default=0))
            for t, cap in e.xcaps.items():
                caps[t] = min(caps.get(t, INF), cap)
            ncols += 1
        lowest = max(common_floor, low)
        lo = max(wcap - depth, common_floor)
        sub = [row for t in range(lo, wcap + 1) for row in rows_at(t)]
        basis = nullspace(sub, ncols)
        while len(basis[1]) > 1 and lo > lowest:
            lo -= 1
            if more := rows_at(lo):
                basis = _restrict(basis, more)
        for vec in basis[1]:  # each a positive multiple of its relation: the scale is fixed below
            poly = BivarPoly({monos[i]: x for i, x in enumerate(vec) if x})
            total = sum((evals[uv].scalar_mul(c) for uv, c in poly.terms.items()), GradedOp.zero(k))
            if not total.is_zero_in_window():
                continue
            lead = max(poly.terms, key=lambda uv: (p * uv[0] + q * uv[1], uv[0]))
            poly = poly.scale(1 / poly.terms[lead])
            reverified = common_floor == -INF or common_floor <= wcap - 2 * depth
            return BCResult(poly, poly.weighted_degree(p, q), reverified)
    return None


def _restrict(basis: tuple[int, list], rows: list) -> tuple[int, list]:
    """The combinations of the nullspace ``basis`` ``(D, vecs)`` of some rows that the
    ``rows`` annihilate (row * vec is D times row * (vec / D)): the basis :func:`nullspace`
    returns for both sets of rows together, as both are one on their own free column
    and zero on the other free columns, in ascending order."""
    den, vecs = basis
    support = [[(i, x) for i, x in enumerate(vec) if x] for vec in vecs]  # a few entries each
    products = [[sum(row[i] * x for i, x in sp) for sp in support] for row in rows]
    cden, cvecs = nullspace(products, len(vecs))
    combos = [[0] * len(vecs[0]) for _ in cvecs]
    for combo, cvec in zip(combos, cvecs):
        for c, sp in zip(cvec, support):
            for i, x in sp if c else ():
                combo[i] += c * x
    den, combos = _reduced(cden * den, combos)
    return den, list(combos)


@dataclass
class HsCheck:
    """Both sides of the restriction-line coefficient extraction at level s."""

    lhs: HcpSeries
    rhs: HcpSeries
    applicable: bool
    identities: list[Fraction]
    sigma: Fraction
    a0: int
    nf_weight: int

    def equal(self) -> bool:
        return self.lhs.agrees_with(self.rhs)


def hs_coefficient_check(Pprime: HcpSeries, F: BivarPoly, s: int) -> HsCheck:
    """Compare HS^(s*a0)_(N_F) (F(P', d^q)) with the closed-form side.

    The closed form is sum_j comb(u_j, s) k_j L0^s d^(N_F - s p) with L0 the
    first restriction vertex monomial. For s = 0 equality is unconditional;
    for s >= 1 it is asserted only when the type identities 0..s-1 hold for
    the top piece (both sides are returned for inspection regardless).
    """
    cls = classify_top_line(Pprime)
    if cls.variant != "restriction":
        raise PreconditionError(f"restriction top line required, got {cls.variant}")
    sigma = cls.sigma
    k = Pprime.k
    q = k
    p = Pprime.top_order()
    pieces = weighted_decompose(F, p, q)
    top = pieces[0]
    nf_weight = top.weight
    verts = sorted(v for v in cls.vertices if v[0] > 0)
    a0, b0 = verts[0]
    comp = Pprime.components[b0]
    if comp.point_contains_ai(a0):
        raise PreconditionError("first restriction vertex carries A_i content")
    l0 = Hcp(k, b0, {(a0, 0): comp.gamma[(a0, 0)]})
    L0 = HcpSeries.from_hcp(l0)
    fpq = evaluate_poly(F, Pprime, HcpSeries.d_power(k, q))
    w = Weight(sigma, 1)
    lhs = filtration_HS(fpq, Fraction(nf_weight), s * a0, w)
    if nf_weight - s * p < 0:
        raise PreconditionError("level s is too large for the top piece weight")
    coeff = type_identity(top, s)
    rhs = ((L0 ** s) * HcpSeries.d_power(k, nf_weight - s * p)).scalar_mul(coeff)
    identities = [type_identity(top, i) for i in range(s)]
    applicable = all(v == 0 for v in identities)
    return HsCheck(lhs=lhs, rhs=rhs, applicable=applicable, identities=identities,
                   sigma=sigma, a0=a0, nf_weight=nf_weight)


@dataclass
class PairReport:
    """Machine-checkable record of the full pipeline on one pair."""

    p: int
    q: int
    commutes: bool
    classification: TopLineClass
    stability: dict
    certificate: BCResult | None
    type_identities: list[list]
    verdict: str
    tentative: bool
    windows: dict
    normal_form: NormalFormResult = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "commutes": self.commutes,
            "classification": self.classification.to_dict(),
            "stability": self.stability,
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
            "typeIdentities": self.type_identities,
            "verdict": self.verdict,
            "tentative": self.tentative,
            "windows": self.windows,
        }


def classify_pair(P: GradedOp, Q: GradedOp, depth: int, wmax: int | None = None,
                  candidate_F: BivarPoly | None = None) -> PairReport:
    """Commutator test, normal form, top-line classification, certificate."""
    if wmax is not None and wmax < 0:
        raise PreconditionError("wmax must be nonnegative")
    p, q = P.ord(), Q.ord()
    if min(p, q) < 1:  # the message of normal_form_report's own check on Q
        raise PreconditionError(f"ord({'Q' if q < 1 else 'P'}) must be positive")
    C = commutator(P, Q)
    commutes = C.is_zero_in_window()
    nf = normal_form_report(P, Q, depth)
    cls = classify_top_line(nf.series)

    half_floor = max(0, p - max(1, depth // 2))
    if half_floor > (nf.series.floor or 0):
        cls_half = classify_top_line(nf.series.restrict_floor(half_floor))
        stable = (cls_half.variant == cls.variant and cls_half.sigma == cls.sigma)
        stability = {"comparedFloors": [half_floor, nf.series.floor],
                     "halfWindowVariant": cls_half.variant, "stable": stable}
    else:
        stability = {"comparedFloors": [nf.series.floor, nf.series.floor],
                     "halfWindowVariant": cls.variant, "stable": True}

    certificate = None
    if commutes:
        certificate = bc_certificate(P, Q, wmax if wmax is not None else p * q, depth)

    if commutes:
        if certificate is not None:
            verdict = (f"commuting pair; Burchnall-Chaundy certificate "
                       f"{certificate.poly} (window-verified)")
        else:
            verdict = ("commuting pair; no certificate found within the given "
                       "weight and depth bounds (bounded evidence only)")
    elif cls.variant == "restriction" and not cls.tentative:
        verdict = ("algebraically independent; no nonzero polynomial relation "
                   "F(P, Q) = 0 exists (restriction top line)")
    elif cls.variant == "restriction":
        verdict = ("restriction top line on the computed window (tentative); "
                   "if final, no nonzero polynomial relation F(P, Q) = 0 exists")
    elif cls.variant == "asymptotic":
        verdict = ("asymptotic top line (tentative); the commutativity "
                   "criterion for this case is out of scope here")
    else:
        verdict = f"classification {cls.variant} (tentative window verdict)"

    fid = candidate_F if candidate_F is not None else (
        certificate.poly if certificate is not None else None)
    type_ids: list[list] = []
    if fid is not None:
        top = weighted_decompose(fid, p, q)[0]
        umax = max(u for _, u, _ in top.terms)
        type_ids = [[i, str(type_identity(top, i))] for i in range(umax + 1)]

    windows = {
        "commutatorFloor": C.floor,
        "normalFormFloor": nf.series.floor,
        "depth": depth,
        "schurXcap": nf.schur.xcap,
        "belowWindowNonzero": nf.below_window_nonzero,
    }
    if cls.variant == "restriction":
        # The coefficient-extraction argument fixes the slope p/q; record
        # whether the computed region slope coincides, surfacing mismatches.
        windows["sigmaEqualsPOverQ"] = cls.sigma == Fraction(p, q)
    return PairReport(p=p, q=q, commutes=commutes, classification=cls,
                      stability=stability, certificate=certificate,
                      type_identities=type_ids, verdict=verdict,
                      tentative=cls.tentative, windows=windows, normal_form=nf)
