"""Standard-form expansion of (D+L)^k in a free associative algebra.

Writing L^(t) for the iterated commutator (ad D)^t (L), every power (D+L)^k
has a unique standard form with all L^(t) factors moved left of the D powers:

    (D+L)^k = D^k + sum_(i=1..k) sum_(j=0..i-1) T(i,j,k) D^(k-i)

where T(i,j,k) collects the words L^(t1)...L^(tm) with multiple index
m = i - j and partial degree t1+...+tm = j, each weighted by
comb(k,i) * g(t1,...,tm) with g given by a four-case recursion. The oracle
expands the power letter by letter and normalizes by exhaustive rewriting
with D * L^(t) -> L^(t) * D + L^(t+1); it never consults g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionError
from .scalars import _join_signed, _signed_term

Word = tuple[tuple[int, ...], int]  # (derivs, dpow)


@dataclass(frozen=True)
class StdWord:
    derivs: tuple[int, ...]
    dpow: int
    coeff: Fraction

    @property
    def multiple_index(self) -> int:
        return len(self.derivs)

    @property
    def partial_degree(self) -> int:
        return sum(self.derivs)


class StdFormExpansion:
    """Finite sum of standard-form words with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        clean = {}
        for (derivs, dpow), c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[(tuple(derivs), dpow)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("StdFormExpansion is immutable")

    def __eq__(self, other):
        if not isinstance(other, StdFormExpansion):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "StdFormExpansion") -> "StdFormExpansion":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return StdFormExpansion(out)

    def scale(self, c) -> "StdFormExpansion":
        c = Fraction(c)
        return StdFormExpansion({w: v * c for w, v in self.terms.items()})

    def words(self) -> list[StdWord]:
        out = [StdWord(derivs, dpow, c) for (derivs, dpow), c in self.terms.items()]
        return sorted(out, key=lambda w: (-w.dpow, w.multiple_index, w.derivs))

    def __str__(self):
        return pretty(self)

    def __repr__(self):
        return f"StdFormExpansion({pretty(self)})"


@lru_cache(maxsize=None)
def g_value(t: tuple[int, ...]) -> int:
    """The recursion for the word coefficient g(t1,...,tm), memoised by lru_cache."""
    if any(ti < 0 for ti in t):
        return 0
    m = len(t)
    if m <= 1:
        return 1
    if all(ti == 0 for ti in t):
        return 1
    if t[0] == 0:
        total = g_value(t[1:])
        for i in range(1, m):
            total += g_value(t[:i] + (t[i] - 1,) + t[i + 1:])
        return total
    total = 0
    for i in range(m):
        total += g_value(t[:i] + (t[i] - 1,) + t[i + 1:])
    return total


def compositions(total: int, parts: int):
    """Ordered compositions of ``total`` into ``parts`` nonnegative entries,
    in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def t_block(i: int, j: int, k: int) -> StdFormExpansion:
    """T(i,j,k): the words of multiple index i-j and partial degree j."""
    if not (1 <= i <= k) or not (0 <= j <= i - 1):
        raise PreconditionError(f"t_block indices out of range: i={i}, j={j}, k={k}")
    m = i - j
    binom = math.comb(k, i)
    terms = {}
    for t in compositions(j, m):
        coeff = binom * g_value(t)
        if coeff:
            terms[(t, 0)] = Fraction(coeff)
    return StdFormExpansion(terms)


def expand_power(k: int) -> StdFormExpansion:
    """The closed-form standard expansion of (D+L)^k."""
    if k < 1:
        raise PreconditionError("k must be positive")
    terms: dict[Word, Fraction] = {((), k): Fraction(1)}
    for i in range(1, k + 1):
        for j in range(i):
            for (derivs, _), c in t_block(i, j, k).terms.items():
                w = (derivs, k - i)
                terms[w] = terms.get(w, Fraction(0)) + c
    return StdFormExpansion(terms)


def expand_power_oracle(k: int, cap: int = 8) -> StdFormExpansion:
    """Brute force: expand (D+L)^k in the free algebra on {D, L} and rewrite

    every word to standard form with D * L^(t) -> L^(t) * D + L^(t+1).
    The number of D letters strictly left of some L letter drops at every
    step, so the rewriting terminates.
    """
    if k < 1:
        raise PreconditionError("k must be positive")
    if k > cap:
        raise PreconditionError(f"oracle capped at k <= {cap}")
    terms: dict[Word, Fraction] = {}
    for mask in range(1 << k):
        word = tuple("D" if (mask >> pos) & 1 else 0 for pos in range(k))
        for normal, coeff in _rewrite(word).items():
            terms[normal] = terms.get(normal, Fraction(0)) + coeff
    return StdFormExpansion(terms)


def _rewrite(word: tuple) -> dict[Word, Fraction]:
    """Exhaustive rewriting of one mixed word into standard-form words."""
    out: dict[Word, Fraction] = {}
    stack = [(word, Fraction(1))]
    while stack:
        w, c = stack.pop()
        idx = next((i for i in range(len(w) - 1)
                    if w[i] == "D" and isinstance(w[i + 1], int)), None)
        if idx is None:
            derivs = tuple(s for s in w if isinstance(s, int))
            dpow = len(w) - len(derivs)
            key = (derivs, dpow)
            out[key] = out.get(key, Fraction(0)) + c
            continue
        t = w[idx + 1]
        stack.append((w[:idx] + (t, "D") + w[idx + 2:], c))
        stack.append((w[:idx] + (t + 1,) + w[idx + 2:], c))
    return out


def specialize(e: StdFormExpansion, D, L):
    """Evaluate the expansion on concrete ring elements.

    D and L are graded elements of one type (operators or HCP series); the
    empty expansion is that type's zero. L^(t) is the t-fold commutator with D.
    """
    ell: dict[int, object] = {0: L}

    def ell_t(t: int):
        if t not in ell:
            prev = ell_t(t - 1)
            ell[t] = D * prev - prev * D
        return ell[t]

    one = type(D).one(D.k)
    total = None
    for w in e.words():
        term = None
        for t in w.derivs:
            term = ell_t(t) if term is None else term * ell_t(t)
        dpart = D ** w.dpow if w.dpow else None
        if term is None:
            term = dpart if dpart is not None else one
        elif dpart is not None:
            term = term * dpart
        term = term * w.coeff
        total = term if total is None else total + term
    if total is None:
        return type(D).zero(D.k)
    return total


def pretty(e: StdFormExpansion) -> str:
    """Render as `c*L(t1,t2)*D^l` terms, descending D power."""
    parts = []
    for w in e.words():
        powers = [("D", w.dpow)]
        if w.derivs:
            powers.insert(0, ("L(" + ",".join(str(t) for t in w.derivs) + ")", 1))
        parts.append(_signed_term(w.coeff, powers))
    return _join_signed(parts)
