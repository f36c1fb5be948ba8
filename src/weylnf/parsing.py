"""Expression grammar for every exact literal: parser, printer, evaluator.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ['^' nat]
    atom   := rational | 'xi' | 'x' | 'd' | gform | '(' expr ')'
    gform  := 'G' '{' 'r=' int (';' ('f[' nat ',' nat ']=' scalar
                                    | 'g[' nat ']=' scalar))* '}'
    scalar := an expr without 'x', 'd' or G-forms

`d` denotes the derivative, `xi` the root of unity of the ambient
cyclotomic order (an error when no order is set), and rationals require an
explicit `/`. Unary minus binds looser than `^`: `-a^n` is `-(a^n)`.
Whitespace is insignificant; errors carry line and column.

The scalars of a G-form and of the JSON files read by
:meth:`GradedOp.from_dict` and :meth:`Hcp.from_dict` (:func:`parse_scalar`)
are read by the same parser and evaluator as operators, in a scalar context
that rejects `x`, `d` and `G` at their token.

An exponent (after `^`, and the power `l` of n in `f[l,i]`) is at most
:data:`MAX_EXPONENT`, and so is the product of the exponents of nested
powers such as `(d^8)^8`: each unit of an operator exponent costs one
product, and nesting multiplies degrees. A larger one raises
:class:`PreconditionError` when its token is read, before any work starts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, PreconditionError
from .gform import EXPANSION_XCAP, Hcp
from .operators import GradedOp
from .scalars import CycloScalar, xi_pow


MAX_EXPONENT = 64


# -- AST ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Xi:
    pass


@dataclass(frozen=True)
class XSym:
    pass


@dataclass(frozen=True)
class DSym:
    pass


@dataclass(frozen=True)
class GFormLit:
    r: int
    fentries: tuple  # ((l, i, CycloScalar-free scalar AST), ...)
    gentries: tuple  # ((j, scalar AST), ...)


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Neg:
    arg: object


# -- tokenizer ------------------------------------------------------------------------


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = "+-*^(){}[],;="


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            toks.append(_Tok("nat", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and src[j].isalpha():
                j += 1
            toks.append(_Tok("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "/":
            toks.append(_Tok("/", ch, line, col))
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            toks.append(_Tok(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, src: str, scalar: bool = False):
        self.toks = _tokenize(src)
        self.pos = 0
        self.scalar = scalar  # reading a scalar: no x, d or G-forms

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind and t.text != kind:
            raise ParseError(f"expected {what or kind!r}, got {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()

    def nat(self, what: str | None = None) -> int:
        t = self.expect("nat", what)
        try:
            return int(t.text)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"numeral of {len(t.text)} digits is too long",
                             t.line, t.col) from None

    def exponent(self, inner: int = 1) -> int:
        """An exponent token; ``inner`` is the largest product of the
        exponents already nested in its base."""
        t = self.peek()
        e = self.nat("a nonnegative integer exponent")
        if e * inner > MAX_EXPONENT:
            nested = f" (nested powers multiply to {e * inner})" if inner > 1 else ""
            raise PreconditionError(f"exponent {e} at line {t.line}, col {t.col}{nested} "
                                    f"exceeds the maximum {MAX_EXPONENT}")
        return e

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
        return e

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            self.next()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        if self.peek().kind == "-":
            self.next()
            return Neg(self.factor())
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            node = Pow(node, self.exponent(_power_weight(node)))
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "nat":
            num = self.nat()
            if self.peek().kind == "/":
                self.next()
                den_tok = self.peek()
                den = self.nat("a denominator")
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line, den_tok.col)
                return Num(Fraction(num, den))
            return Num(Fraction(num))
        if t.kind == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if t.kind == "name":
            if self.scalar and t.text in ("x", "d", "G"):
                raise ParseError(f"expected a scalar, got {t.text!r}", t.line, t.col)
            if t.text == "xi":
                self.next()
                return Xi()
            if t.text == "x":
                self.next()
                return XSym()
            if t.text == "d":
                self.next()
                return DSym()
            if t.text == "G":
                return self.gform()
            raise ParseError(f"unknown symbol {t.text!r}", t.line, t.col)
        raise ParseError(f"expected an atom, got {t.text or 'end of input'!r}",
                         t.line, t.col)

    def gform(self):
        self.expect("name")  # G
        self.expect("{")
        rtok = self.expect("name", "'r='")
        if rtok.text != "r":
            raise ParseError("G-form must start with 'r='", rtok.line, rtok.col)
        self.expect("=")
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        rv = self.nat("an integer order")
        r = -rv if neg else rv
        fentries = []
        gentries = []
        while self.peek().kind == ";":
            self.next()
            name = self.expect("name", "'f' or 'g'")
            if name.text == "f":
                self.expect("[")
                l = self.exponent()
                self.expect(",")
                i = self.nat()
                self.expect("]")
                self.expect("=")
                fentries.append((l, i, self.coefficient()))
            elif name.text == "g":
                self.expect("[")
                j = self.nat()
                self.expect("]")
                self.expect("=")
                gentries.append((j, self.coefficient()))
            else:
                raise ParseError(f"expected 'f' or 'g', got {name.text!r}",
                                 name.line, name.col)
        self.expect("}")
        return GFormLit(r, tuple(fentries), tuple(gentries))

    def coefficient(self):
        self.scalar = True
        node = self.expr()
        self.scalar = False
        return node


def _power_weight(node) -> int:
    """The largest product of exponents along a chain of nested powers in
    ``node`` (1 when it has none)."""
    best, stack = 1, [(node, 1)]
    while stack:
        node, weight = stack.pop()
        if isinstance(node, Pow):
            stack.append((node.base, weight * max(node.exp, 1)))
            continue
        best = max(best, weight)
        stack.extend((getattr(node, f), weight) for f in ("left", "right", "arg")
                     if hasattr(node, f))
    return best


def parse(src: str):
    """Parse an operator expression into an AST."""
    return _Parser(src).parse()


# Operation, separator and print level of each binary node: its left operand
# prints at that level, its right one a level higher, and the whole is
# parenthesised when printed above it. A flat chain such as x + x + ... + x
# parses to a left-nested tree as deep as the chain is long, so the printer
# and the evaluator walk left spines in a loop and recurse only into right
# operands.
_BINARY = {Add: (operator.add, " + ", 0), Sub: (operator.sub, " - ", 0),
           Mul: (operator.mul, "*", 1)}


# -- printer ---------------------------------------------------------------------------


def to_text(node) -> str:
    return _print(node, 0)


def _print_chain(node, level: int) -> str:
    """The left spine of ``node``, as far as it prints without parentheses."""
    _, sep, lvl = _BINARY[type(node)]
    top, parts = lvl, []
    while True:
        parts.append(sep + _print(node.right, lvl + 1))
        chain = _BINARY.get(type(node.left))
        if chain is None or chain[2] < lvl:
            parts.append(_print(node.left, lvl))
            break
        node, (_, sep, lvl) = node.left, chain
    s = "".join(reversed(parts))
    return f"({s})" if level > top else s


def _print(node, level: int) -> str:
    # levels: 0 additive, 1 multiplicative, 2 factor, 3 base of a power
    if isinstance(node, Num):
        s = str(node.value)
        return f"({s})" if "/" in s and level >= 2 else s
    if isinstance(node, Xi):
        return "xi"
    if isinstance(node, XSym):
        return "x"
    if isinstance(node, DSym):
        return "d"
    if isinstance(node, GFormLit):
        parts = [f"r={node.r}"]
        for l, i, sc in node.fentries:
            parts.append(f"f[{l},{i}]={_print(sc, 0)}")
        for j, sc in node.gentries:
            parts.append(f"g[{j}]={_print(sc, 0)}")
        return "G{" + "; ".join(parts) + "}"
    if type(node) in _BINARY:
        return _print_chain(node, level)
    if isinstance(node, Pow):
        s = f"{_print(node.base, 3)}^{node.exp}"
    elif isinstance(node, Neg):
        s = f"-{_print(node.arg, 2)}"
    else:
        raise TypeError(f"not an AST node: {node!r}")
    return f"({s})" if level > 2 else s


# -- evaluator ---------------------------------------------------------------------------


def evaluate(node, k: int | None = None, xcap: int = EXPANSION_XCAP) -> GradedOp:
    """Evaluate the AST to a graded operator.

    ``k`` is the cyclotomic order; expressions mentioning xi (or G-form
    entries with i > 0) require it. G-form literals with infinite expansions
    are truncated at ``xcap``.
    """
    if xcap < 0:
        raise PreconditionError("xcap must be nonnegative")
    kk = 1 if k is None else k
    return _eval(node, k, kk, xcap)


def _eval(node, k_opt, k: int, xcap: int) -> GradedOp:
    if isinstance(node, Num):
        return GradedOp.from_scalar(k, node.value)
    if isinstance(node, Xi):
        if k_opt is None:
            raise PreconditionError("xi used without a cyclotomic order (--k)")
        return GradedOp.from_scalar(k, xi_pow(k, 1))
    if isinstance(node, XSym):
        return GradedOp.x_op(k)
    if isinstance(node, DSym):
        return GradedOp.d_op(k)
    if isinstance(node, GFormLit):
        gamma = {}
        for l, i, sc in node.fentries:
            if i > 0 and k_opt is None:
                raise PreconditionError("G-form A_i entry needs a cyclotomic order (--k)")
            if i >= k:
                raise PreconditionError(f"A index {i} is out of range for k={k}")
            gamma[(l, i)] = _constant(sc, k_opt, k)
        bpart = {j: _constant(sc, k_opt, k) for j, sc in node.gentries}
        if node.r < 0:
            raise PreconditionError("G-form orders r < 0 are out of scope")
        return Hcp(k, node.r, gamma, bpart).expand(xcap)
    if type(node) in _BINARY:  # a left-nested chain, combined left to right
        rights = []
        while type(node) in _BINARY:
            rights.append(node)
            node = node.left
        acc = _eval(node, k_opt, k, xcap)
        for link in reversed(rights):
            acc = _BINARY[type(link)][0](acc, _eval(link.right, k_opt, k, xcap))
        return acc
    if isinstance(node, Pow):
        return _eval(node.base, k_opt, k, xcap) ** node.exp
    if isinstance(node, Neg):
        return -_eval(node.arg, k_opt, k, xcap)
    raise TypeError(f"not an AST node: {node!r}")


def _constant(node, k_opt, k: int) -> CycloScalar:
    """The value of the scalar AST ``node``: the constant term of its operator."""
    return _eval(node, k_opt, k, 0).components.get(0, {}).get(0, CycloScalar.zero(k))


def parse_operator(src: str, k: int | None = None, xcap: int = EXPANSION_XCAP) -> GradedOp:
    try:
        return evaluate(parse(src), k, xcap)
    except RecursionError:
        raise PreconditionError("expression nests too deeply to parse and evaluate") from None


def parse_scalar(k: int, text: str) -> CycloScalar:
    """The scalar ``text`` of Q(xi_k), such as the rendering ``1/2 + 3*xi^2``."""
    try:
        return _constant(_Parser(text, scalar=True).parse(), k, k)
    except RecursionError:
        raise PreconditionError("expression nests too deeply to parse and evaluate") from None
