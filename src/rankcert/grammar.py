"""The text of curves and families, read by the commands and by
`certify.verify_certificate` alike.  Polynomial grammar (whitespace
insignificant)::

    expr     := '-'? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | variable | '(' expr ')'
    rational := uint ('/' uint)?

Curves use the variable x; families use x and t.  ``format(parse(s))`` is
a fixed normal form and parses back to the same polynomial.  A rational
outside a polynomial is read by `parse_rational`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .exactpoly import RatPoly, _read_decimal, format_poly
from .weierstrass import SingularModelError, check_genus_cap

__all__ = ["PolyParseError", "FamilyCurve", "check_t_degree_cap", "parse_rational",
           "parse_poly", "parse_family", "format_family"]

# the discriminant has t-degree up to (2d - 2) times the t-degree of the
# coefficients, and its interpolation and factoring grow with that
MAX_T_DEGREE = 30


def check_t_degree_cap(m: int) -> None:
    """Reject a family whose coefficients have t-degree m above the cap."""
    if m > MAX_T_DEGREE:
        raise ValueError(
            "t-degree %d exceeds the family cap of %d (the discriminant in t "
            "would be too large to interpolate and factor)" % (m, MAX_T_DEGREE)
        )


class _FamilyCurveFields(NamedTuple):
    numerators: tuple
    description: str = ""


class FamilyCurve(_FamilyCurveFields):
    """y^2 = f_t(x); the coefficient of x^i is the polynomial numerators[i] in t."""

    __slots__ = ()

    def __new__(cls, numerators, description=""):
        if not numerators or numerators[-1].is_zero:
            raise ValueError("zero generic leading coefficient")
        return super().__new__(cls, numerators, description)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`: check its numerators as well
        return cls(*iterable)

    @property
    def deg_x(self) -> int:
        return len(self.numerators) - 1

    def specialize(self, a: Fraction) -> RatPoly:
        """The fiber polynomial f_a(x); fails on a vanishing leading
        coefficient (such values belong to the exclusion sets)."""
        a = Fraction(a)
        f = RatPoly([num(a) for num in self.numerators])
        if f.degree != self.deg_x:
            raise SingularModelError(f"leading coefficient vanishes at t={a}")
        return f


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """The rational in the one form ``str(Fraction)`` writes, -?n(/d)?:
    unlike ``Fraction(text)`` it reads no exponent, so ``1e30000000`` is
    refused instead of expanded.  ZeroDivisionError on a zero d."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError("%r is not a rational written n or n/d" % text)
    num, _, den = text.partition("/")
    return Fraction(_read_decimal(num), _read_decimal(den or "1"))


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("syntax error at offset %d: %s" % (pos, message))
        self.pos = pos


class _BiPoly:
    """Tiny bivariate polynomial accumulator for the parser."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def const(cls, q):
        return cls({(0, 0): Fraction(q)})

    @classmethod
    def variable(cls, name):
        return cls({(1, 0) if name == "x" else (0, 1): Fraction(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return _BiPoly(out)

    def __neg__(self):
        return _BiPoly({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for (a, b), u in self.terms.items():
            for (c, d), v in other.terms.items():
                k = (a + c, b + d)
                out[k] = out.get(k, 0) + u * v
        return _BiPoly(out)

    def __pow__(self, n):
        acc, base = _BiPoly.const(1), self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def deg_x(self):
        return max((a for a, _ in self.terms), default=-1)

    def deg_t(self):
        return max((b for _, b in self.terms), default=-1)


_TOKEN_RE = re.compile(r"\d+|[A-Za-z]+|[-+*^/()]|\s+")


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.variables = variables
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise PolyParseError("unexpected character %r" % text[pos], pos)
            if not m.group().isspace():
                self.tokens.append((m.group(), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> _BiPoly:
        value = self.expr()
        if self.peek() is not None:
            raise PolyParseError("unexpected trailing input %r" % self.peek(), self.pos())
        return value

    def expr(self) -> _BiPoly:
        negate = self.peek() == "-"
        if negate:
            self.advance()
        value = -self.term() if negate else self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.advance()
            rhs = self.term()
            value = value + (rhs if op == "+" else -rhs)
        return value

    # products and powers are checked against the genus cap and the t-degree
    # cap before they are expanded, so a huge exponent fails at once instead
    # of after the work
    def term(self) -> _BiPoly:
        value = self.factor()
        while self.peek() == "*":
            self.advance()
            rhs = self.factor()
            check_genus_cap(value.deg_x() + rhs.deg_x())
            check_t_degree_cap(value.deg_t() + rhs.deg_t())
            value = value * rhs
        return value

    def factor(self) -> _BiPoly:
        value = self.base()
        if self.peek() == "^":
            self.advance()
            tok = self.peek()
            if tok is None or not tok.isdigit():
                raise PolyParseError("expected a nonnegative integer exponent", self.pos())
            self.advance()
            n = _read_decimal(tok)
            check_genus_cap(value.deg_x() * n)
            check_t_degree_cap(value.deg_t() * n)
            value = value ** n
        return value

    def base(self) -> _BiPoly:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of input", self.pos())
        if tok.isdigit():
            _, _pos = self.advance()
            num = _read_decimal(tok)
            if self.peek() == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok is None or not den_tok.isdigit():
                    raise PolyParseError("expected a positive integer denominator", self.pos())
                self.advance()
                den = _read_decimal(den_tok)
                if den == 0:
                    raise PolyParseError("zero denominator", self.pos())
                return _BiPoly.const(Fraction(num, den))
            return _BiPoly.const(num)
        if tok.isalpha():
            _, pos = self.advance()
            if tok not in self.variables:
                raise PolyParseError("unknown variable %r" % tok, pos)
            return _BiPoly.variable(tok)
        if tok == "(":
            self.advance()
            value = self.expr()
            if self.peek() != ")":
                raise PolyParseError("expected ')'", self.pos())
            self.advance()
            return value
        raise PolyParseError("unexpected token %r" % tok, self.pos())


def parse_poly(text: str) -> RatPoly:
    """Parse a univariate polynomial in x with exact rational coefficients.

    >>> parse_poly("x^2 - 3/2*x + 1").coeffs
    (Fraction(1, 1), Fraction(-3, 2), Fraction(1, 1))
    """
    bp = _Parser(text, ("x",)).parse()
    coeffs = [Fraction(0)] * (bp.deg_x() + 1)
    for (a, _), v in bp.terms.items():
        coeffs[a] = v
    return RatPoly(coeffs)


def parse_family(text: str) -> FamilyCurve:
    """Parse a bivariate polynomial in x and t into a one-parameter family."""
    bp = _Parser(text, ("x", "t")).parse()
    dx = bp.deg_x()
    if dx < 1:
        raise PolyParseError("family must involve x", 0)
    rows = [[Fraction(0)] * (bp.deg_t() + 1) for _ in range(dx + 1)]
    for (a, b), v in bp.terms.items():
        rows[a][b] = v
    numerators = tuple(RatPoly(row) for row in rows)
    return FamilyCurve(numerators, format_family(numerators))


def format_family(numerators) -> str:
    """Canonical normal form of a family polynomial in x and t."""
    parts = []
    for k in range(len(numerators) - 1, -1, -1):
        c = numerators[k]
        if c.is_zero:
            continue
        nterms = sum(1 for v in c.coeffs if v)
        xpow = "" if k == 0 else ("x" if k == 1 else "x^%d" % k)
        if nterms == 1:
            neg = c.lc < 0
            body = format_poly([abs(v) for v in c.coeffs], var="t")
            if xpow:
                body = xpow if (body == "1") else "%s*%s" % (body, xpow)
        else:
            neg = False
            body = "(%s)" % format_poly(c.coeffs, var="t")
            if xpow:
                body = "%s*%s" % (body, xpow)
        sign = ("- " if neg else "+ ") if parts else ("-" if neg else "")
        parts.append(sign + body)
    return " ".join(parts) if parts else "0"
