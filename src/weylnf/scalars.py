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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import ContextMismatchError, DivisionByZeroError, PreconditionError

Rational = Fraction

_ZERO = Fraction(0)


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


@lru_cache(maxsize=None)
def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, ascending, monic integer polynomial."""
    if k < 1:
        raise PreconditionError(f"cyclotomic order must be positive, got {k}")
    if k == 1:
        return (-1, 1)
    num = [Fraction(-1)] + [_ZERO] * (k - 1) + [Fraction(1)]  # x^k - 1
    for d in range(1, k):
        if k % d == 0:
            # Phi_d is monic, so the quotient stays integral.
            num, rem = _frac_poly_divmod(num, [Fraction(c) for c in cyclotomic_poly(d)])
            assert not _poly_trim(rem)
    return tuple(int(c) for c in num)


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
        coeffs = [Fraction(c) for c in coeffs]
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
            value = Fraction(value)
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
        b = as_scalar(self.k, other).coeffs
        d = len(a)
        if d == 1:
            return _make(self.k, (a[0] * b[0],))
        conv = [_ZERO] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return _make(self.k, _reduce_mod_phi(self.k, conv))

    __rmul__ = __mul__

    def inv(self) -> "CycloScalar":
        """Multiplicative inverse, by the extended Euclid algorithm mod Phi_k."""
        if self.is_zero():
            raise DivisionByZeroError("inverse of zero")
        phi = [Fraction(c) for c in cyclotomic_poly(self.k)]
        r0, r1 = phi, _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while True:
            if len(r1) == 1:
                c = r1[0]
                return CycloScalar(self.k, [x / c for x in s1])
            q, rem = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, _poly_trim(rem)
            s_new = _poly_sub(s0, _poly_mul(q, s1))
            s0, s1 = s1, s_new
            if not r1:
                raise ArithmeticError("Phi_k not coprime to element")  # unreachable

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


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and _poly_trim(num):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        q[shift] = factor
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        _poly_trim(num)
    return q, num


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


def xi_pow(k: int, e: int) -> CycloScalar:
    """xi^e reduced to canonical form; e may be negative."""
    d = len(cyclotomic_poly(k)) - 1
    e %= k
    coeffs = [Fraction(0)] * (e + 1)
    coeffs[e] = Fraction(1)
    if e < d:
        return CycloScalar(k, coeffs + [Fraction(0)] * (d - e - 1))
    return CycloScalar(k, coeffs)


def inv(a: CycloScalar) -> CycloScalar:
    return a.inv()

