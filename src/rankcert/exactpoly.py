"""Exact arithmetic: big rationals and dense univariate polynomials over Q.

Coefficients are stored densely in ascending order (constant term first)
with no trailing zeros; the zero polynomial has an empty coefficient
sequence.  Rational scalars are `fractions.Fraction` (always reduced,
positive denominator), integer polynomials keep plain Python ints.
`RatPoly` and `IntPoly` extend one private record, `_Poly`: the coefficient
tuple with its degree, leading coefficient, derivative, text, hash and an
equality that holds only within one class.  `RatPoly` adds evaluation and
the split into a content times a primitive `IntPoly`; the polynomial
arithmetic (products, exact division, gcd) is `IntPoly`'s.  All values are
immutable after construction and every operation is pure, so everything
here is safe to share across threads.

The gcd/resultant machinery runs over Z via pseudo-division (primitive PRS
for `IntPoly.gcd`, subresultant PRS for resultants) to keep intermediate
coefficients small.  There is no gcd over Q: squarefreeness is decided by
`factorq.is_squarefree` alone, which falls back on `IntPoly.gcd` with the
derivative only when no reduction modulo a prime certifies it.
"""

from __future__ import annotations

import hashlib
import math
import sys
from array import array
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = [
    "RatPoly",
    "IntPoly",
    "discriminant",
    "resultant",
    "make_integral_monic",
    "format_poly",
    "poly_digest",
]


# ---------------------------------------------------------------------------
# low-level helpers on raw coefficient lists (ascending order)

def _strip(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


def _zadd(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _strip(out)


def _zneg(f):
    return [-c for c in f]


# signed machine integers by byte width: `_pack` and `_unpack` convert
# digits of these widths through `array`, without one call per digit
_ARRAY_CODES = {array(c).itemsize: c for c in "bhiq"} if sys.byteorder == "little" else {}


def _digit_bytes(bits):
    """Bytes per signed digit of size below 2^bits, a machine width if one fits."""
    nbytes = bits // 8 + 1
    return min((w for w in _ARRAY_CODES if w >= nbytes), default=nbytes)


def _offset(n, nbytes):
    """The n-digit number whose digits are all 2^(8*nbytes - 1)."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


def _pack(f, nbytes):
    """f evaluated at x = 2^(8*nbytes); every |f[i]| < 2^(8*nbytes - 1).

    Flipping the top bit of each two's complement digit (xor with the
    offset) gives c + 2^(8*nbytes - 1) >= 0; subtracting the offset then
    leaves sum f[i] * x^i.
    """
    code = _ARRAY_CODES.get(nbytes)
    if code:
        raw = array(code, f).tobytes()
    else:
        raw = b"".join([c.to_bytes(nbytes, "little", signed=True) for c in f])
    off = _offset(len(f), nbytes)
    return (int.from_bytes(raw, "little") ^ off) - off


def _unpack(v, n, nbytes):
    """The n balanced digits of v in base 2^(8*nbytes): inverse of `_pack`."""
    off = _offset(n, nbytes)
    raw = ((v + off) ^ off).to_bytes(n * nbytes, "little")
    code = _ARRAY_CODES.get(nbytes)
    if code:
        return array(code, raw).tolist()
    return [
        int.from_bytes(raw[i : i + nbytes], "little", signed=True)
        for i in range(0, n * nbytes, nbytes)
    ]


# `_zmul` convolves directly when the shorter factor has fewer entries than
# this; the crossover is timed in BENCH_kernels.json
_SCHOOLBOOK_BELOW = 4


def _zmul(f, g):
    """Product of two integer coefficient sequences.

    When the shorter factor has fewer than `_SCHOOLBOOK_BELOW` entries the
    product is the plain convolution, which then costs less than packing.
    Otherwise it is a Kronecker substitution: both factors are packed at
    x = 2^(8*nbytes), wide enough that every product coefficient is a
    signed digit, so CPython's bigint multiply does the convolution (von
    zur Gathen & Gerhard, Modern Computer Algebra 8.4).  The result has
    len(f) + len(g) - 1 entries, unstripped.
    """
    if not f or not g:
        return []
    if min(len(f), len(g)) < _SCHOOLBOOK_BELOW:
        if len(f) > len(g):
            f, g = g, f
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g, i):
                    out[j] += a * b
        return out
    bits = max(map(abs, f)).bit_length() + max(map(abs, g)).bit_length()
    nbytes = _digit_bytes(bits + min(len(f), len(g)).bit_length())
    F = _pack(f, nbytes)
    P = F * F if f is g else F * _pack(g, nbytes)
    return _unpack(P, len(f) + len(g) - 1, nbytes)


def _zcontent(f):
    c = 0
    for a in f:
        c = math.gcd(c, a)
        if c == 1:
            break
    return c


def _zprimitive(f):
    """Primitive part with positive leading coefficient."""
    if not f:
        return []
    c = _zcontent(f)
    if f[-1] < 0:
        c = -c
    return [a // c for a in f]


def _long_division(f, g, digit):
    """Schoolbook division of f by g, shared by Z and Z/m.

    ``digit(c)`` is the quotient coefficient that cancels a top coefficient
    c, or None when there is none (an inexact division over Z, which stops
    early).  Returns (q, r) unstripped with len(r) = deg g, or None.
    """
    dg = len(g) - 1
    r = list(f)
    q = [0] * max(0, len(r) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = digit(r[k + dg])
        if c is None:
            return None
        q[k] = c
        if c:
            r[k : k + dg] = [a - c * b for a, b in zip(r[k : k + dg], g)]
    return q, r[:dg]


def _zprem(f, g):
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f mod g, over Z.

    The multiplier exponent is exact, as the subresultant algorithm
    requires; with it every quotient coefficient is an integer, so the
    division by lc(g) at each step is exact.
    """
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return list(f)
    l = g[-1]
    scaled = [l ** (df - dg + 1) * c for c in f]
    return _strip(_long_division(scaled, g, lambda c: c // l)[1])


def _zgcd(f, g):
    """Primitive gcd over Z (positive leading coefficient), primitive PRS."""
    a, b = _zprimitive(f), _zprimitive(g)
    while b:
        a, b = b, _zprimitive(_zprem(a, b))
    return a


def _zdiv_exact(f, g):
    """Exact quotient f / g over Z, or None when g does not divide f."""
    if not g:
        return None
    lg = g[-1]
    qr = _long_division(f, g, lambda c: None if c % lg else c // lg)
    if qr is None or any(qr[1]):
        return None
    return _strip(qr[0])


def _zresultant(f, g):
    """Sylvester resultant of two nonzero integer polynomials.

    Subresultant PRS (Cohen, Alg. 3.3.7) so intermediate coefficients stay
    polynomially bounded.
    """
    df, dg = len(f) - 1, len(g) - 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    sign = 1
    A, B = list(f), list(g)
    if df < dg:
        A, B = B, A
        if df % 2 and dg % 2:
            sign = -sign
    ca, cb = abs(_zcontent(A)), abs(_zcontent(B))
    t = ca ** (len(B) - 1) * cb ** (len(A) - 1)
    A = [c // ca for c in A]
    B = [c // cb for c in B]
    gg = 1
    h = 1
    while True:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        R = _zprem(A, B)
        if not R:
            return 0
        A = B
        denom = gg * h ** delta
        B = [c // denom for c in R]
        gg = A[-1]
        if delta:
            h = gg ** delta // h ** (delta - 1)
        if len(B) - 1 == 0:
            da = len(A) - 1
            res = B[0] ** da // h ** (da - 1) if da > 1 else B[0] ** da
            return sign * t * res


# ---------------------------------------------------------------------------
# formatting

def _decimal(c: Scalar) -> str:
    """``str(c)`` of an int or a Fraction, exact at any size.

    Python refuses int-to-decimal conversions past its digit limit (4300
    digits by default, at least 640 when set); an integer past 2000 bits
    is split at a power of ten into halves converted the same way.
    """
    if isinstance(c, Fraction):
        text = _decimal(c.numerator)
        return text if c.denominator == 1 else text + "/" + _decimal(c.denominator)
    if c < 0:
        return "-" + _decimal(-c)
    if c.bit_length() <= 2000:
        return str(c)
    k = c.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(c, 10 ** k)
    return _decimal(hi) + _decimal(lo).rjust(k, "0")


def _read_decimal(text: str) -> int:
    """The inverse of `_decimal` on text -?digits, exact at any length:
    past 600 digits it reads halves, so no `int` call meets the limit."""
    negative = text[:1] == "-"
    digits = text[negative:]
    if not digits.isdecimal():
        raise ValueError("%r is not an integer written in decimal" % text)
    if len(digits) <= 600:
        return int(text)
    k = len(digits) // 2
    n = _read_decimal(digits[:-k]) * 10**k + _read_decimal(digits[-k:])
    return -n if negative else n


def format_poly(coeffs: Sequence[Scalar], var: str = "x") -> str:
    """Canonical text form, highest degree first: ``x^2 - 3/2*x + 1``."""
    coeffs = _strip(list(coeffs))
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = _decimal(mag)
        else:
            xpow = var if k == 1 else f"{var}^{k}"
            body = xpow if mag == 1 else f"{_decimal(mag)}*{xpow}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def poly_digest(coeffs: Sequence[Scalar]) -> str:
    """sha256 of the canonical coefficient encoding (ascending order)."""
    coeffs = _strip(list(coeffs))
    payload = "deg:%d;" % (len(coeffs) - 1) + ",".join(_decimal(c) for c in coeffs)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# polynomial classes

class _Poly:
    """The record `RatPoly` and `IntPoly` share: an immutable coefficient
    tuple, ascending and stripped, with the members that only read it.
    Each subclass converts coefficients in its constructor and sets
    `_ZERO`, the leading coefficient of its zero polynomial."""

    __slots__ = ("coeffs",)
    _ZERO: Scalar

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Scalar:
        return self.coeffs[-1] if self.coeffs else self._ZERO

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def derivative(self):
        return type(self)(i * c for i, c in enumerate(self.coeffs) if i)

    def __str__(self):
        return format_poly(self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({format_poly(self.coeffs)!r})"


class RatPoly(_Poly):
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ()
    _ZERO = Fraction(0)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        self.coeffs = tuple(_strip(cs))

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_int(self) -> tuple[Fraction, "IntPoly"]:
        """Split into content * primitive integer polynomial (positive lc).

        ``self == content * primitive``; the zero polynomial returns
        ``(0, zero)``.
        """
        if self.is_zero:
            return Fraction(0), IntPoly()
        den = math.lcm(*(c.denominator for c in self.coeffs))
        prim = _zprimitive([int(c * den) for c in self.coeffs])
        return self.lc / prim[-1], IntPoly(prim)


class IntPoly(_Poly):
    """Dense univariate polynomial with integer coefficients."""

    __slots__ = ()
    _ZERO = 0

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = tuple(_strip([int(c) for c in coeffs]))

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        return IntPoly(_zprimitive(self.coeffs))

    def __mul__(self, other):
        return IntPoly(_zmul(self.coeffs, other.coeffs))

    def exact_div(self, other: "IntPoly"):
        """Exact quotient over Z, or None when ``other`` does not divide."""
        q = _zdiv_exact(self.coeffs, other.coeffs)
        return None if q is None else IntPoly(q)

    def gcd(self, other: "IntPoly") -> "IntPoly":
        """Primitive gcd over Z with positive leading coefficient."""
        return IntPoly(_zgcd(self.coeffs, other.coeffs))

    def to_rat(self) -> RatPoly:
        return RatPoly(self.coeffs)


# ---------------------------------------------------------------------------
# the classical operations

def resultant(a: RatPoly, b: RatPoly) -> Fraction:
    """Sylvester resultant over Q with the classical normalization.

    ``Res(x - c, g) = g(c)`` and ``Res(a, b) = (-1)^(deg a * deg b) Res(b, a)``.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("resultant of the zero polynomial")
    da, db = a.degree, b.degree
    ca, A = a.to_int()
    cb, B = b.to_int()
    r = _zresultant(A.coeffs, B.coeffs)
    return ca ** db * cb ** da * r


def discriminant(f: RatPoly) -> Fraction:
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f); zero iff f not squarefree."""
    d = f.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if d == 1:
        return Fraction(1)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.lc


def make_integral_monic(f: RatPoly) -> tuple[IntPoly, Fraction]:
    """Monic integral model of f: returns (g, scale) with g(y) = 0 iff f(y/scale) = 0.

    The roots of g are ``scale`` times the roots of f, so they are algebraic
    integers; ``scale`` is the denominator lcm ``den`` times the absolute
    leading coefficient ``a`` of the cleared polynomial ``c = den * f``.
    Below the top, g_i = s^(d-i) f_i / lc(f) with s = scale, which is
    sign(c_d) * c_i * den^(d-i) * a^(d-i-1): a product of integers.

    >>> g, s = make_integral_monic(RatPoly([-1, 0, 4]))
    >>> (str(g), s)
    ('x^2 - 4', Fraction(4, 1))
    """
    d = f.degree
    if d < 1:
        raise ValueError("cannot build a monic integral model of a constant")
    den = math.lcm(*(c.denominator for c in f.coeffs))
    cleared = [int(c * den) for c in f.coeffs]
    a = abs(cleared[-1])
    sign = 1 if cleared[-1] > 0 else -1
    out = [sign * c * den ** (d - i) * a ** (d - i - 1) for i, c in enumerate(cleared[:-1])]
    return IntPoly(out + [1]), Fraction(den * a)
