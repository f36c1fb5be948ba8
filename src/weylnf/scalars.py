"""Exact scalar arithmetic over Q and over the cyclotomic field Q(xi).

A :class:`CycloScalar` is an element of Q(xi), xi a primitive k-th root of
unity, stored as the canonical residue modulo the k-th cyclotomic polynomial
Phi_k. Reducing modulo Phi_k (rather than xi^k - 1) makes the quotient a
field, so every nonzero element has an inverse.

Values are immutable and carry their cyclotomic order ``k``; mixing two
different orders in one operation raises :class:`ContextMismatchError`, and
an order below 1 raises :class:`PreconditionError` (checked once, in
:func:`cyclotomic_poly`, which every constructor and :func:`xi_pow` calls).
Rationals are plain :class:`fractions.Fraction`; an ``int`` or ``Fraction``
operand is applied coefficient by coefficient, never lifted to Q(xi).

Invariant: ``coeffs`` is a tuple of exactly ``deg Phi_k`` objects of type
``Fraction``, already reduced mod Phi_k. The public ``CycloScalar(k, coeffs)``
establishes it by coercing and reducing whatever it is given; arithmetic
results that keep it by construction are built unchecked by :func:`_make`.

This is the only module that knows that storage, and the home of the
integer-vector form that every exact kernel runs on, as FLINT's ``fmpq_poly``
holds a polynomial: values over one common denominator D > 0, each value v
the vector of ``deg Phi_k`` ints D * v.coeffs (:func:`_vectors`), or the same
ints transposed into ``deg Phi_k`` lanes, lane i holding coefficient i of
every value (:func:`_lanes`); :func:`_from_lanes` reads a vector back. Both
are made by the one Fraction-to-ints conversion :func:`_ints`, with D the
lcm of the denominators. :func:`_reduced` is the one gcd rule: D and every
entry divided by their common gcd, so D > 0 shares no factor with all the
entries, and all zeros have D = 1. Products fold each xi^e, e >= deg Phi_k,
through the monic Phi_k, so they stay in integers (:func:`_lane_mul` on
lanes, :func:`_ring` on single vectors); :func:`_ring`'s product mod Phi_k is
also the one that ``CycloScalar.__mul__`` and ``inv`` apply to coefficient
tuples, whether of ints or of Fractions. The operator kernel holds its nu
sequences as lanes; ``gform.Hcp`` holds its terms, ``linalg`` its rows and
the G-form fit its class polynomials as vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from operator import add, mul, sub

from .errors import ContextMismatchError, DivisionByZeroError, PreconditionError

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, ascending, monic integer polynomial: x^k - 1
    divided exactly, in integers, by the monic Phi_d of each proper divisor d."""
    if k < 1:
        raise PreconditionError(f"cyclotomic order must be positive, got {k}")
    num = [-1] + [0] * (k - 1) + [1]  # x^k - 1
    for d in range(1, k):
        if k % d == 0:  # synthetic division; num[s + m] ends as quotient coefficient s
            phi_d = cyclotomic_poly(d)
            m = len(phi_d) - 1
            for s in range(len(num) - 1 - m, -1, -1):
                for i, f in enumerate(phi_d[:m]):
                    num[s + i] -= num[s + m] * f
            assert not any(num[:m])
            num = num[m:]
    return tuple(num)


def _reduce_mod_phi(k: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    phi = cyclotomic_poly(k)
    d = len(phi) - 1
    out = list(coeffs) + [_ZERO] * max(0, d - len(coeffs))
    for e in range(len(out) - 1, d - 1, -1):
        c = out[e]
        if c:
            for i in range(d):
                if phi[i]:
                    out[e - d + i] -= c * phi[i]
    return tuple(out[:d])


@lru_cache(maxsize=None)
def _rational_tail(k: int) -> tuple[Fraction, ...]:
    """The deg Phi_k - 1 zero coefficients above a rational's constant term."""
    return (_ZERO,) * (len(cyclotomic_poly(k)) - 2)


class CycloScalar:
    """Canonical element of Q(xi) for a fixed cyclotomic order k."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs):
        d = len(cyclotomic_poly(k)) - 1
        coeffs = [_exact(c) for c in coeffs]
        if len(coeffs) != d:
            coeffs = _reduce_mod_phi(k, coeffs)
        _set_k(self, k)
        _set_coeffs(self, tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycloScalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, k: int, value) -> "CycloScalar":
        if type(value) is not Fraction:
            value = _exact(value)
        return _make(k, (value,) + _rational_tail(k))

    @classmethod
    @lru_cache(maxsize=None)
    def zero(cls, k: int) -> "CycloScalar":
        return cls.from_rational(k, _ZERO)

    @classmethod
    @lru_cache(maxsize=None)
    def one(cls, k: int) -> "CycloScalar":
        return cls.from_rational(k, Fraction(1))

    @classmethod
    def xi(cls, k: int) -> "CycloScalar":
        return xi_pow(k, 1)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        a = self.coeffs
        if isinstance(other, CycloScalar):
            b = as_scalar(self.k, other).coeffs
            return _make(self.k, tuple([x + y if x and y else x or y for x, y in zip(a, b)]))
        if isinstance(other, (int, Fraction)):
            return _make(self.k, (a[0] + other,) + a[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(self.k, tuple([-x if x else x for x in self.coeffs]))

    def __sub__(self, other):
        a = self.coeffs
        if isinstance(other, CycloScalar):
            b = as_scalar(self.k, other).coeffs
            return _make(self.k, tuple([x - y if y else x for x, y in zip(a, b)]))
        if isinstance(other, (int, Fraction)):
            return _make(self.k, (a[0] - other,) + a[1:])
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            a = self.coeffs
            return _make(self.k, (other - a[0],) + tuple([-x if x else x for x in a[1:]]))
        return NotImplemented

    def __mul__(self, other):
        a = self.coeffs
        if isinstance(other, (int, Fraction)):
            return _make(self.k, tuple([x * other if x else x for x in a]))
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return _make(self.k, _ring(self.k)[0](a, as_scalar(self.k, other).coeffs))

    __rmul__ = __mul__

    def inv(self) -> "CycloScalar":
        """Multiplicative inverse: 1/a for a rational a, else b / N with b the
        product of the other Galois conjugates a(xi^j), 1 < j < k, gcd(j, k) = 1,
        and N = a * b the norm, rational as Gal(Q(xi)/Q) = (Z/k)^x permutes the
        factors. Over a's common denominator D they are integer vectors, and
        a^-1 = D * b / N."""
        k, a = self.k, self.coeffs
        if not any(a[1:]):
            if not a[0]:
                raise DivisionByZeroError("inverse of zero")
            return CycloScalar(k, [1 / a[0]])
        den, (v,) = _vectors(k, (self,))
        vmul, xis = _ring(k)
        b = reduce(vmul, [[sum(x * xis[i * j % k][m] for i, x in enumerate(v) if x)
                           for m in range(len(v))] for j in range(2, k) if math.gcd(j, k) == 1])
        return _from_lanes(k, [den * x for x in b], vmul(v, b)[0])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZeroError("inverse of zero")
            return _make(self.k, tuple([x / other if x else x for x in self.coeffs]))
        if isinstance(other, CycloScalar):
            return self * as_scalar(self.k, other).inv()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = CycloScalar.one(self.k)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- comparisons and rendering ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloScalar):
            return self.k == other.k and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and self.is_rational()
        return NotImplemented

    def __hash__(self):
        # A rational hashes as its value, as the int or Fraction it equals does.
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.k, self.coeffs))

    def __str__(self):
        return _join_signed(_signed_term(c, [("xi", e)]) for e, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return f"CycloScalar(k={self.k}, {self})"


def _exact(value) -> Fraction:
    """``value`` as a Fraction, refusing a binary float as the grammar refuses ``0.5``."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise PreconditionError(f"exact values only: got the float {value!r}")
    return Fraction(value)


_set_k = CycloScalar.k.__set__
_set_coeffs = CycloScalar.coeffs.__set__


def _make(k: int, coeffs: tuple[Fraction, ...]) -> CycloScalar:
    """Unchecked constructor: ``coeffs`` must already satisfy the invariant."""
    out = object.__new__(CycloScalar)
    _set_k(out, k)
    _set_coeffs(out, coeffs)
    return out


def _join_signed(parts) -> str:
    """``(body, negative)`` parts as ``a - b + c`` (``-a`` when the first is
    negative), or "0" when there are none."""
    out = []
    for body, neg in parts:
        sign = (" - " if neg else " + ") if out else ("-" if neg else "")
        out.append(sign + body)
    return "".join(out) or "0"


def _signed_term(c, powers) -> tuple[str, bool]:
    """``(body, negative)`` of ``c`` times ``name^e`` for each ``(name, e)`` of
    ``powers``, as :func:`_join_signed` takes it; a factor ``name^0``, an
    exponent ``^1`` and a magnitude ``1*`` are left out."""
    factors = []
    for name, e in powers:
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    mag = abs(c)
    if not factors:
        return str(mag), c < 0
    body = "*".join(factors)
    if mag != 1:
        body = f"{mag}*{body}"
    return body, c < 0


def as_scalar(k: int, value) -> CycloScalar:
    """``value`` (a CycloScalar of order k, or a rational) as an element of Q(xi_k)."""
    if isinstance(value, CycloScalar):
        if value.k != k:
            raise ContextMismatchError(f"cyclotomic order mismatch: {k} vs {value.k}")
        return value
    return CycloScalar.from_rational(k, value)


def _rational_or_scalar(k: int, value):
    """``value`` as an int or Fraction when it is rational (a CycloScalar with
    zero xi-coordinates too), else as an element of Q(xi_k)."""
    if isinstance(value, (int, Fraction)):
        return value
    value = as_scalar(k, value)
    return value.coeffs[0] if value.is_rational() else value


def xi_pow(k: int, e: int) -> CycloScalar:
    """xi^e reduced to canonical form; e may be negative."""
    cyclotomic_poly(k)  # rejects k < 1 before e % k divides by it
    return CycloScalar(k, [0] * (e % k) + [1])


# -- integer forms ------------------------------------------------------------------


def _ints(values) -> tuple[int, list[int]]:
    """The lcm D of the denominators of the Fractions ``values``, and each value times D."""
    den = math.lcm(*[f.denominator for f in values])
    return den, [f.numerator * (den // f.denominator) for f in values]


def _vectors(k: int, values) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm D of the coefficient denominators of ``values``, and per value v
    the vector of ints D * v.coeffs."""
    den, flat = _ints([f for v in values for f in v.coeffs])
    return den, list(zip(*[iter(flat)] * (len(cyclotomic_poly(k)) - 1)))


def _lanes(k: int, values) -> tuple[int, list[list[int]]]:
    """The transpose of :func:`_vectors`: D, and per coefficient index i the
    lane of ints D * v.coeffs[i] over ``values``."""
    den, flat = _ints([f for v in values for f in v.coeffs])
    d = len(cyclotomic_poly(k)) - 1
    return den, [flat[i::d] for i in range(d)]


def _reduced(den: int, vecs):
    """``(den, vecs)`` with den and every entry divided by their gcd, the
    vectors then a tuple of lists; ``vecs`` itself when that gcd is 1."""
    if den == 1 or (g := math.gcd(den, *chain.from_iterable(vecs))) == 1:
        return den, vecs
    return den // g, tuple([[x // g for x in v] for v in vecs])


def _from_lanes(k: int, vec, den: int) -> CycloScalar:
    """The scalar with coefficients vec / den: one value read back."""
    if den == 1:  # Fraction(x) skips the gcd that Fraction(x, 1) takes
        return _make(k, tuple([Fraction(x) if x else _ZERO for x in vec]))
    return _make(k, tuple([Fraction(x, den) if x else _ZERO for x in vec]))


@lru_cache(maxsize=None)
def _ring(k: int):
    """``(mul, xis)``: the product of two coefficient vectors mod Phi_k, in closed form
    for deg Phi_k = d <= 2, else folded down by :func:`_reduce_mod_phi`; and the
    vector of xi^e, e < k."""
    phi = cyclotomic_poly(k)
    d = len(phi) - 1
    xis = tuple(tuple([int(c) for c in xi_pow(k, e).coeffs]) for e in range(k))
    if d == 1:
        return (lambda a, b: (a[0] * b[0],)), xis
    if d == 2:
        p0, p1 = phi[0], phi[1]
        return (lambda a, b: (a[0] * b[0] - p0 * a[1] * b[1],
                              a[0] * b[1] + a[1] * b[0] - p1 * a[1] * b[1])), xis

    def fold_mul(a, b):
        return _reduce_mod_phi(k, [sum(a[i] * b[e - i]
                                       for i in range(max(0, e - d + 1), min(e, d - 1) + 1))
                                   for e in range(2 * d - 1)])
    return fold_mul, xis


def _lane_mul(phi: tuple[int, ...], a, b) -> list[list[int]]:
    """Pointwise product of two equally long lane tuples, reduced mod Phi_k.

    Lane i of the result holds coefficient i of each product: the lanes are
    convolved, and every coefficient e >= deg Phi_k is folded down through
    xi^e = -sum_(i < d) phi[i] * xi^(e-d+i), which stays in integers because
    Phi_k is monic. With deg Phi_k = 1 it is one integer product per value.
    """
    d, n = len(a), len(a[0])
    if d == 1:
        return [list(map(mul, a[0], b[0]))]
    a = [x if any(x) else None for x in a]
    b = [y if any(y) else None for y in b]
    out: list = [None] * (2 * d - 1)
    for i, x in enumerate(a):
        if x is None:
            continue
        for j, y in enumerate(b):
            if y is not None:
                p = list(map(mul, x, y))
                out[i + j] = p if out[i + j] is None else list(map(add, out[i + j], p))
    for e in range(2 * d - 2, d - 1, -1):
        c = out[e]
        if c is None:
            continue
        for i, f in enumerate(phi[:d]):
            if f:
                fc = c if f == 1 else [f * x for x in c]
                tgt = out[e - d + i]
                out[e - d + i] = [-x for x in fc] if tgt is None else list(map(sub, tgt, fc))
    return [x if x is not None else [0] * n for x in out[:d]]
