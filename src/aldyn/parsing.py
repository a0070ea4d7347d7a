"""Tiny recursive-descent parser for inline polynomial expressions.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' signed-int)?
    atom   := RATIONAL | NAME | '(' expr ')'

``i`` and ``theta`` are reserved scalar symbols; rational literals look
like ``3`` or ``1/2``, with a nonzero denominator.  Every other name must
be a generator of the supplied set.  Caret powers must be integers,
negative only on a Laurent unit (one theta-free term on angle-phase
generators, see ``Poly.__pow__``), and the terms a power can have are held
to ``scalars.MAX_UNKNOWNS`` (``check_budget``) before it is expanded.
"""

from __future__ import annotations

from . import scalars
from .poly import GeneratorSet, Poly
from .scalars import Scalar, check_budget, rational


def _capped_comb(a: int, b: int, cap: int) -> int:
    """C(a, b), or, when it is above cap, the first of the partial products
    C(a, 1), C(a, 2), ..., which grow up to b = a / 2, to pass cap."""
    b = min(b, a - b)
    c = 1
    for i in range(b):
        c = c * (a - i) // (i + 1)
        if c > cap:
            break
    return c


def _power_terms(base: Poly, exp: int, cap: int) -> int:
    """A bound on the terms of base^exp, exp >= 2, exact up to cap: a k-term
    base has at most C(exp + k - 1, k - 1) (the multisets of exp of its
    terms), and one in n generators at most C(exp * deg + n, n) (the
    monomials of degree <= exp * deg), deg the degree of base divided by its
    largest monomial factor, so that negative Laurent exponents count too."""
    exps = list(base.terms)
    low = [min(column) for column in zip(*exps)]
    used = [v for v, column in enumerate(zip(*exps)) if max(column) > low[v]]
    deg = max(sum(e[v] - low[v] for v in used) for e in exps)
    k, n = len(exps), len(used)
    return min(_capped_comb(exp + k - 1, k - 1, cap), _capped_comb(exp * deg + n, n, cap))


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        n = len(text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*^()":
                self.tokens.append(("op", ch, i))
                i += 1
                continue
            if ch.isdigit():
                start = i
                while i < n and text[i].isdigit():
                    i += 1
                if i < n and text[i] == "/" and i + 1 < n and text[i + 1].isdigit():
                    i += 1
                    while i < n and text[i].isdigit():
                        i += 1
                self.tokens.append(("num", text[start:i], start))
                continue
            if ch.isalpha() or ch == "_":
                start = i
                while i < n and (text[i].isalnum() or text[i] == "_"):
                    i += 1
                self.tokens.append(("name", text[start:i], start))
                continue
            raise ParseError(f"unexpected character {ch!r}", i)

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, gens: GeneratorSet):
        self.toks = _Tokenizer(text)
        self.gens = gens

    def parse(self) -> Poly:
        result = self._expr()
        kind, value, pos = self.toks.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return result

    def _expr(self) -> Poly:
        out = self._term()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in "+-":
                self.toks.next()
                rhs = self._term()
                out = out + rhs if value == "+" else out - rhs
            else:
                return out

    def _term(self) -> Poly:
        out = self._unary()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value == "*":
                self.toks.next()
                out = out * self._unary()
            else:
                return out

    def _unary(self) -> Poly:
        kind, value, _ = self.toks.peek()
        if kind == "op" and value == "-":
            self.toks.next()
            return -self._unary()
        return self._power()

    def _power(self) -> Poly:
        base = self._atom()
        kind, value, pos = self.toks.peek()
        if kind == "op" and value == "^":
            self.toks.next()
            exp = self._signed_int()
            try:
                if exp > 1 and len(base.terms) > 1:
                    terms = _power_terms(base, exp, scalars.MAX_UNKNOWNS)
                    check_budget(f"^{exp}", terms, f"the {terms} possible terms of the power")
                return base**exp
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
        return base

    def _signed_int(self) -> int:
        kind, value, pos = self.toks.next()
        sign = 1
        if kind == "op" and value == "-":
            sign = -1
            kind, value, pos = self.toks.next()
        if kind != "num" or "/" in value:
            raise ParseError("exponent must be an integer", pos)
        return sign * int(value)

    def _atom(self) -> Poly:
        kind, value, pos = self.toks.next()
        if kind == "num":
            try:
                c = rational(value, "number")
            except ValueError as exc:
                raise ParseError(str(exc), pos) from None
            return Poly.constant(self.gens, Scalar.of(c))
        if kind == "name":
            if value == "i":
                return Poly.constant(self.gens, Scalar.i())
            if value == "theta":
                return Poly.constant(self.gens, Scalar.theta())
            if value in self.gens:
                return Poly.generator(self.gens, value)
            raise ParseError(
                f"unknown name {value!r}; generators are {list(self.gens.names)}", pos
            )
        if kind == "op" and value == "(":
            inner = self._expr()
            kind, value, pos = self.toks.next()
            if not (kind == "op" and value == ")"):
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_poly(text: str, gens: GeneratorSet) -> Poly:
    """Parse an inline expression into a Poly over the given generators;
    nesting beyond the interpreter's recursion limit is a ParseError."""
    parser = _Parser(text, gens)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.toks.peek()[2]) from None
