"""Newton region analysis and weight filtrations for HCP series.

The point set E(P) lives in the (Sdeg_A, ord) lattice: a point (l, j) is
present when the component of order j carries a nonzero Gamma_l A_i
coefficient. Weights (sigma, rho) with sigma >= 0, rho > 0 give the weight
value sup(sigma*l + rho*j) and the highest term supported on the attaining
points. The top line through (0, p) is classified as one of: Sdeg zero (all
points on the vertical axis), a restriction line (a second vertex on it), or
an asymptotic line (approached but never attained, which needs infinite
data). A finite window can certify verdicts only for total series; anything
computed from a truncated window carries a tentative flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError
from .gform import HcpSeries, _canonical, _make_hcp, _make_series, check_Aqk
from .scalars import _exact, _ints


@dataclass(frozen=True)
class Weight:
    """Weight vector (sigma, rho), sigma >= 0, rho > 0, with its integer form ``ints``
    (D, D*sigma, D*rho) over their least denominator D, no part of ==, hash or repr."""

    sigma: Fraction
    rho: Fraction = Fraction(1)
    ints: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma", _exact(self.sigma))
        object.__setattr__(self, "rho", _exact(self.rho))
        if self.sigma < 0 or self.rho <= 0:
            raise PreconditionError("weight needs sigma >= 0 and rho > 0")
        den, (S, R) = _ints((self.sigma, self.rho))
        object.__setattr__(self, "ints", (den, S, R))

    def value(self, l: int, j: int) -> Fraction:
        den, S, R = self.ints
        return Fraction(S * l + R * j, den)


@dataclass(frozen=True)
class NewtonPoint:
    l: int
    j: int
    contains_ai: bool


@dataclass
class NewtonData:
    """E(P) within the window, with per-point A_i flags."""

    points: list[NewtonPoint]
    floor: int | None
    top: int

    def point_set(self) -> set[tuple[int, int]]:
        return {(pt.l, pt.j) for pt in self.points}

    def hull(self) -> list[tuple[int, int]]:
        return convex_hull(sorted(self.point_set()))


def e_set(P: HcpSeries) -> NewtonData:
    pts = []
    for j in sorted(P.components, reverse=True):
        h = P.components[j]
        for l in sorted(h.gamma_degrees()):
            pts.append(NewtonPoint(l=l, j=j, contains_ai=h.point_contains_ai(l)))
    return NewtonData(points=pts, floor=P.floor, top=P.top)


@dataclass(frozen=True)
class SupResult:
    """Weight supremum: exact value, or a window lower bound.

    ``value`` is None for minus infinity (empty point set so far).
    """

    value: Fraction | None
    exact: bool

    def __str__(self):
        if self.value is None:
            return "-inf" + ("" if self.exact else " (so far)")
        return str(self.value) + ("" if self.exact else " (lower bound)")


def weight_of(P: HcpSeries, w: Weight, assume_growth_bound: bool = False) -> SupResult:
    """sup(sigma*l + rho*j) over E(P).

    Exact for total series. For a truncated window the supremum may still
    grow below the floor; with ``assume_growth_bound`` the shape condition
    bound Sdeg_A(P_(p-i)) < i is used to certify finiteness where possible,
    otherwise a lower-bound marker is returned.
    """
    den, S, R = w.ints
    top = _top_weight(P, S, R)
    sup = None if top is None else Fraction(top, den)
    if P.floor is None:
        return SupResult(sup, True)
    if not assume_growth_bound or S > R or top is None:
        return SupResult(sup, False)
    # den times the weight of the deepest unseen point the growth bound allows.
    p = P.top_order()
    i = p - P.floor + 1
    unseen = R * p - S if S == R else S * (i - 1) + R * (p - i)
    return SupResult(sup, top >= unseen)


def _top_weight(P: HcpSeries, S: int, R: int) -> int | None:
    """max(S*l + R*j) over E(P) (None if empty): S >= 0, so each order's last l."""
    return max((S * h.terms[-1][0] + R * j for j, h in P.components.items() if h.terms),
               default=None)


def top_term(P: HcpSeries, w: Weight) -> HcpSeries:
    """Monomials attaining the window supremum (zero series if E is empty).

    For truncated input this is relative to the window; pair it with
    :func:`weight_of` to know whether the supremum itself is certified.
    They are the points of weight >= the supremum, which :func:`_filtration` keeps.
    """
    den, S, R = w.ints
    sup = _top_weight(P, S, R)
    if sup is None:
        return HcpSeries.zero(P.k)
    return HcpSeries(P.k, _filtration(P, Fraction(sup, den), None, w).components)


def up_edge(P: HcpSeries) -> list[tuple[int, int]]:
    """Staircase of points maximal in Sdeg_A among all higher orders."""
    return [(sa, j) for sa, j in _up_edge_from_points(e_set(P))]


@dataclass
class TopLineClass:
    """Top-line classification with truncation honesty."""

    variant: str  # sdeg_zero | restriction | asymptotic | undetermined
    sigma: Fraction | None = None
    vertices: list[tuple[int, int]] = field(default_factory=list)
    tentative: bool = True
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "sigma": None if self.sigma is None else str(self.sigma),
            "vertices": [list(v) for v in self.vertices],
            "tentative": self.tentative,
            "detail": self.detail,
        }


def classify_top_line(P: HcpSeries) -> TopLineClass:
    """Classify the top line of the Newton region through (0, p).

    The shape condition is required (B-free HCP components, A-free top
    symbol of Sdeg_A zero); its growth clause is additionally enforced for
    truncated windows, where it is what makes window reasoning meaningful.
    Verdicts from truncated windows are always tentative: under the growth
    bound alone, unseen deeper components may carry quotient arbitrarily
    close to 1 and so may always lower the candidate line slope. A window
    exhibiting the maximal growth pattern Sdeg_A(P_(p-i)) = i-1 everywhere
    is reported as the asymptotic line X + Y = p, tentatively.
    """
    total = P.floor is None
    rep = check_Aqk(P, 0, enforce_growth=not total)
    if not rep.ok:
        raise PreconditionError(
            f"classification needs the normal-form shape condition "
            f"(clause {rep.clause}: {rep.detail})")
    p = P.top_order()
    nd = e_set(P)
    pos = [(pt.l, pt.j) for pt in nd.points if pt.l > 0]
    if not pos:
        if total:
            return TopLineClass("sdeg_zero", tentative=False,
                                detail="E(P) lies on the vertical axis")
        if P.floor >= p:
            return TopLineClass("undetermined", tentative=True,
                                detail="window holds only the top symbol")
        return TopLineClass("sdeg_zero", tentative=True,
                            detail="all window points have Sdeg_A = 0; "
                                   "deeper components unseen")
    quotients = {pt: Fraction(p - j, l) for pt in pos for (l, j) in [pt]}
    sigma_star = min(quotients.values())
    attain = sorted(pt for pt, qv in quotients.items() if qv == sigma_star)
    vertices = [(0, p)] + attain
    if total:
        return TopLineClass("restriction", sigma=sigma_star, vertices=vertices,
                            tentative=False,
                            detail="finite series: the minimum is attained")
    if _maximal_growth_pattern(P, p):
        return TopLineClass(
            "asymptotic", sigma=Fraction(1), tentative=True,
            detail=f"window shows Sdeg_A(P_(p-i)) = i-1 for every order down to "
                   f"{P.floor}; if the pattern persists the top line X+Y={p} is "
                   f"asymptotic and never attained")
    return TopLineClass(
        "restriction", sigma=sigma_star, vertices=vertices, tentative=True,
        detail=f"window candidate; the growth bound admits unseen points with "
               f"quotient below {sigma_star} (down to 1), so a finite window "
               f"cannot certify this verdict")


def _maximal_growth_pattern(P: HcpSeries, p: int) -> bool:
    if P.floor is None or P.floor >= p:
        return False
    for i in range(1, p - P.floor + 1):
        if P.component(p - i).sdeg_a() != i - 1:
            return False
    return True


def filtration_H(L: HcpSeries, d: Fraction, w: Weight) -> HcpSeries:
    """Keep the Gamma_l A_i D^j monomials with sigma*l + rho*j >= d.

    Following the definition literally, the retained sum has no B part.
    """
    return _filtration(L, _exact(d), None, w)


def filtration_HS(L: HcpSeries, d: Fraction, m: int, w: Weight) -> HcpSeries:
    """Keep monomials with sigma*l + rho*j >= d and Gamma index l <= m.

    The A_i indices of the retained coefficients are kept intact (the
    definition prints the retained sum without the A_i factor; wherever this
    filtration feeds the top-line machinery the retained points carry no
    A_i, so the two readings agree there).
    """
    return _filtration(L, _exact(d), m, w)


def _filtration(L: HcpSeries, d: Fraction, m: int | None, w: Weight) -> HcpSeries:
    """The Gamma_l A_i D^j monomials of L with weight >= d and, unless m is None, l <= m.

    With d = a/b and the weight's ``ints`` (D, S, R) the condition is S*b*l + R*b*j >= a*D:
    at order j, l >= ceil((a*D - R*b*j) / (S*b)) when S > 0, all or nothing when S = 0.
    Terms are sorted by l, so a B-free component whose first and last l pass is
    kept as it is, and L itself is returned when every component is.
    """
    den, S, R = w.ints
    Sb, Rb, aD = S * d.denominator, R * d.denominator, d.numerator * den
    hi = math.inf if m is None else m
    comps, whole = {}, 0
    for j, h in L.components.items():
        if Sb:
            lo = -((Rb * j - aD) // Sb)
        elif Rb * j >= aD:
            lo = 0
        else:
            continue
        if not h.bpart and lo <= h.terms[0][0] and h.terms[-1][0] <= hi:
            comps[j] = h
            whole += 1
        elif terms := tuple([t for t in h.terms if lo <= t[0] <= hi]):
            comps[j] = _make_hcp(L.k, j, *_canonical(h.den, terms), {})
    return L if whole == len(L.components) else _make_series(L.k, comps, L.floor, L.top)


def convex_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain hull over exact integer points, counterclockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for pt in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper = []
    for pt in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    return lower[:-1] + upper[:-1]


# -- reporting ---------------------------------------------------------------------


def newton_report(nd: NewtonData, cls: TopLineClass | None) -> dict:
    return {
        "points": [[pt.l, pt.j, pt.contains_ai] for pt in nd.points],
        "upEdge": _up_edge_from_points(nd),
        "hull": [list(v) for v in nd.hull()],
        "classification": None if cls is None else cls.to_dict(),
        "tentative": None if cls is None else cls.tentative,
        "sigma": None if cls is None or cls.sigma is None else str(cls.sigma),
        "window": {"floor": nd.floor, "top": nd.top},
    }


def _up_edge_from_points(nd: NewtonData) -> list[list[int]]:
    best = None
    out = []
    by_order: dict[int, int] = {}
    for pt in nd.points:
        by_order[pt.j] = max(by_order.get(pt.j, pt.l), pt.l)
    for j in sorted(by_order, reverse=True):
        sa = by_order[j]
        if best is None or sa > best:
            out.append([sa, j])
            best = sa
    return out


def _fmt_coord(x: Fraction) -> str:
    """Exact fixed-point rendering with up to 3 decimals, no binary floats."""
    x = Fraction(x)
    neg = x < 0
    x = -x if neg else x
    scaled = x * 1000
    units = scaled.numerator // scaled.denominator
    rem = scaled - units
    if rem * 2 >= 1:
        units += 1
    whole, frac = divmod(units, 1000)
    body = str(whole) if frac == 0 else f"{whole}.{frac:03d}".rstrip("0")
    return ("-" if neg and body != "0" else "") + body


def render_svg(nd: NewtonData, cls: TopLineClass | None = None, scale: int = 40) -> str:
    """Deterministic SVG of the Newton region: axes, hull, up-edge, top line."""
    pts = sorted(nd.point_set())
    xs = [0] + [l for l, _ in pts]
    ys = [0] + [j for _, j in pts]
    xmax = max(xs) + 1
    ymin, ymax = min(ys), max(ys) + 1
    margin = 50

    def X(l):
        return margin + scale * Fraction(l)

    def Y(j):
        return margin + scale * Fraction(ymax - j)

    width = _fmt_coord(X(xmax) + margin)
    height = _fmt_coord(Y(ymin) + margin)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    out.append(f'<line x1="{_fmt_coord(X(0))}" y1="{_fmt_coord(Y(ymin))}" '
               f'x2="{_fmt_coord(X(0))}" y2="{_fmt_coord(Y(ymax))}" stroke="black"/>')
    out.append(f'<line x1="{_fmt_coord(X(0))}" y1="{_fmt_coord(Y(0))}" '
               f'x2="{_fmt_coord(X(xmax))}" y2="{_fmt_coord(Y(0))}" stroke="black"/>')
    out.append(f'<text x="{_fmt_coord(X(xmax) - 20)}" y="{_fmt_coord(Y(0) - 8)}" '
               f'font-size="14">Sdeg_A</text>')
    out.append(f'<text x="{_fmt_coord(X(0) + 6)}" y="{_fmt_coord(Y(ymax) + 14)}" '
               f'font-size="14">ord</text>')
    hull = nd.hull()
    if len(hull) >= 3:
        path = " ".join(f"{_fmt_coord(X(l))},{_fmt_coord(Y(j))}" for l, j in hull)
        out.append(f'<polygon points="{path}" fill="#dddddd" fill-opacity="0.5" stroke="none"/>')
    edge = _up_edge_from_points(nd)
    if edge:
        cmds = [f"M {_fmt_coord(X(edge[0][0]))} {_fmt_coord(Y(edge[0][1]))}"]
        for (a0, b0), (a1, b1) in zip(edge, edge[1:]):
            cmds.append(f"L {_fmt_coord(X(a0))} {_fmt_coord(Y(b1))}")
            cmds.append(f"L {_fmt_coord(X(a1))} {_fmt_coord(Y(b1))}")
        out.append(f'<path d="{" ".join(cmds)}" stroke="red" stroke-width="2" fill="none"/>')
    if cls is not None and cls.sigma and cls.sigma > 0 and nd.points:
        p = max(j for _, j in pts) if pts else nd.top
        x_hit = Fraction(p, 1) / cls.sigma
        out.append(f'<line x1="{_fmt_coord(X(0))}" y1="{_fmt_coord(Y(p))}" '
                   f'x2="{_fmt_coord(X(x_hit))}" y2="{_fmt_coord(Y(0))}" '
                   f'stroke="blue" stroke-dasharray="6,4"/>')
    for pt in sorted(nd.points, key=lambda q: (q.l, q.j)):
        fill = "white" if pt.contains_ai else "black"
        stroke = ' stroke="red"' if pt.contains_ai else ""
        out.append(f'<circle cx="{_fmt_coord(X(pt.l))}" cy="{_fmt_coord(Y(pt.j))}" '
                   f'r="4" fill="{fill}"{stroke}/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
