"""Certified complex root isolation and midpoint-radius ball arithmetic.

Midpoints are exact dyadic complex numbers: pairs of integers at scale
2**-prec, so addition is exact and only multiplication truncates (by at
most one ulp per component, which is folded into the radius).  Radii are
magnitude upper bounds with a 32-bit mantissa, rounded up on every
operation.  The containment contract: the true value always lies in the
closed disk |z - mid| <= rad.

Roots are approximated with mpmath (Durand-Kerner style simultaneous
iteration; the approximation step needs no rigor) and then certified a
posteriori through Weierstrass corrections W_i = f(z_i)/prod(z_i - z_j):
the disks D(z_i, n*|W_i|) jointly contain all roots, and when pairwise
disjoint each contains exactly one.  Every quantity in the certification
step is computed with directed rounding, so the disks are sound
enclosures of the exact roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .exactpoly import IntPoly, poly_gcd

__all__ = [
    "Mag",
    "ComplexBall",
    "RootIsolation",
    "PrecisionExhausted",
    "isolate_roots",
    "ball_sum",
    "eval_poly_ball",
    "snap_to_integer",
    "PRECISION_CAP",
]

_MANT_BITS = 32
PRECISION_CAP = 1 << 20


class PrecisionExhausted(RuntimeError):
    """Escalation passed the hard precision cap; indicates a logic error."""


class Mag:
    """Nonnegative magnitude bound ``man * 2**exp``; all ops round up."""

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        if man < 0:
            raise ValueError("magnitude mantissa must be nonnegative")
        if man == 0:
            self.man, self.exp = 0, 0
            return
        b = man.bit_length()
        if b > _MANT_BITS:
            s = b - _MANT_BITS
            man = -(-man >> s)
            exp += s
            if man.bit_length() > _MANT_BITS:
                man = -(-man >> 1)
                exp += 1
        self.man, self.exp = man, exp

    @classmethod
    def zero(cls) -> "Mag":
        return cls(0)

    @property
    def is_zero(self) -> bool:
        return self.man == 0

    def add(self, other: "Mag") -> "Mag":
        if self.man == 0:
            return other
        if other.man == 0:
            return self
        a, b = self, other
        if a.exp < b.exp:
            a, b = b, a
        hi_b = b.exp + b.man.bit_length()
        if a.exp >= hi_b:
            return Mag(a.man + 1, a.exp)
        shift = a.exp - b.exp
        return Mag((a.man << shift) + b.man, b.exp)

    def mul(self, other: "Mag") -> "Mag":
        if self.man == 0 or other.man == 0:
            return Mag(0)
        return Mag(self.man * other.man, self.exp + other.exp)

    def mul_int(self, n: int) -> "Mag":
        if n < 0:
            n = -n
        if self.man == 0 or n == 0:
            return Mag(0)
        return Mag(self.man * n, self.exp)

    def div_by(self, n: int, exp: int = 0) -> "Mag":
        """Upper bound of self / (n * 2**exp) for n > 0."""
        if n <= 0:
            raise ZeroDivisionError("magnitude division by nonpositive value")
        if self.man == 0:
            return Mag(0)
        # keep >= 48 significant bits in the quotient
        guard = 48 + max(0, n.bit_length() - self.man.bit_length())
        q = -(-(self.man << guard) // n)
        return Mag(q, self.exp - exp - guard)

    def to_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def __repr__(self):
        return f"Mag({self.man}, {self.exp})"


class ComplexBall:
    """Disk {z : |z - mid| <= rad} with mid = (re + im*i) * 2**-prec."""

    __slots__ = ("re", "im", "prec", "rad", "_absu")

    def __init__(self, re: int, im: int, prec: int, rad: Mag):
        self.re = re
        self.im = im
        self.prec = prec
        self.rad = rad
        self._absu = None

    @classmethod
    def exact_int(cls, n: int, prec: int) -> "ComplexBall":
        return cls(n << prec, 0, prec, Mag.zero())

    @property
    def is_exact_zero(self) -> bool:
        return self.re == 0 and self.im == 0 and self.rad.is_zero

    def abs_upper(self) -> Mag:
        if self._absu is None:
            m = math.isqrt(self.re * self.re + self.im * self.im)
            self._absu = Mag(m + 1, -self.prec)
        return self._absu

    def add(self, other: "ComplexBall") -> "ComplexBall":
        if self.prec != other.prec:
            raise ValueError("mixed precisions in ball addition")
        return ComplexBall(
            self.re + other.re, self.im + other.im, self.prec, self.rad.add(other.rad)
        )

    def neg(self) -> "ComplexBall":
        return ComplexBall(-self.re, -self.im, self.prec, self.rad)

    def sub(self, other: "ComplexBall") -> "ComplexBall":
        return self.add(other.neg())

    def mul_int(self, n: int) -> "ComplexBall":
        return ComplexBall(self.re * n, self.im * n, self.prec, self.rad.mul_int(n))

    def mul(self, other: "ComplexBall") -> "ComplexBall":
        if self.prec != other.prec:
            raise ValueError("mixed precisions in ball multiplication")
        if self.is_exact_zero or other.is_exact_zero:
            return ComplexBall(0, 0, self.prec, Mag.zero())
        P = self.prec
        rr = self.re * other.re - self.im * other.im
        ii = self.re * other.im + self.im * other.re
        re = rr >> P
        im = ii >> P
        lost = (rr - (re << P)) or (ii - (im << P))
        rad = Mag.zero()
        if not self.rad.is_zero:
            rad = rad.add(self.rad.mul(other.abs_upper()))
        if not other.rad.is_zero:
            rad = rad.add(other.rad.mul(self.abs_upper()))
        if not (self.rad.is_zero or other.rad.is_zero):
            rad = rad.add(self.rad.mul(other.rad))
        if lost:
            rad = rad.add(Mag(3, -P - 1))
        return ComplexBall(re, im, P, rad)

    def contains_zero(self) -> bool:
        """True iff |mid| <= rad, i.e. 0 may lie in the disk."""
        mid_sq = Fraction(self.re * self.re + self.im * self.im, 1 << (2 * self.prec))
        r = self.rad.to_fraction()
        return mid_sq <= r * r

    def mid_fractions(self) -> tuple[Fraction, Fraction]:
        d = 1 << self.prec
        return Fraction(self.re, d), Fraction(self.im, d)

    def __repr__(self):
        re, im = self.mid_fractions()
        return f"ComplexBall({float(re):.6g}{float(im):+.6g}i, rad~2^{self.rad.exp + self.rad.man.bit_length() if self.rad.man else '-inf'})"


def ball_sum(values) -> ComplexBall:
    """Sum with exact midpoint arithmetic and additive radii."""
    values = list(values)
    if not values:
        raise ValueError("ball_sum of an empty sequence")
    acc = values[0]
    for v in values[1:]:
        acc = acc.add(v)
    return acc


def eval_poly_ball(f: IntPoly, z: ComplexBall) -> ComplexBall:
    """Horner evaluation of an integer polynomial on a ball."""
    P = z.prec
    acc = ComplexBall.exact_int(0, P)
    for c in reversed(f.coeffs):
        acc = acc.mul(z).add(ComplexBall.exact_int(c, P))
    return acc


def snap_to_integer(b: ComplexBall):
    """The unique integer the ball certifies, or None.

    Succeeds iff |Im mid| + rad < 1/2 and [Re - rad, Re + rad] contains
    exactly one integer.
    """
    r = b.rad.to_fraction()
    half = Fraction(1, 2)
    scale = 1 << b.prec
    im = Fraction(abs(b.im), scale)
    if im + r >= half:
        return None
    re = Fraction(b.re, scale)
    lo = re - r
    hi = re + r
    n_lo = math.ceil(lo)
    n_hi = math.floor(hi)
    if n_lo != n_hi:
        return None
    return int(n_lo)


# ---------------------------------------------------------------------------
# isolation

@dataclass(frozen=True)
class RootIsolation:
    """Pairwise disjoint certified disks, one per root of a monic poly."""

    poly: IntPoly
    balls: tuple
    precision: int


def _mpf_to_fixed(x, prec: int) -> int:
    if not mpmath.isfinite(x):
        raise ArithmeticError("nonfinite root approximation")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return 0
    shift = exp + prec
    v = int(man << shift if shift >= 0 else man >> -shift)
    return -v if sign else v


def _approx_roots(f: IntPoly, prec: int):
    coeffs_desc = [mpmath.mpf(c) for c in reversed(f.coeffs)]
    try:
        with mpmath.workprec(prec + 64):
            roots = mpmath.polyroots(
                coeffs_desc, maxsteps=200 + prec, extraprec=prec // 2 + 64
            )
            out = []
            for r in roots:
                rc = mpmath.mpc(r)
                out.append((_mpf_to_fixed(rc.real, prec), _mpf_to_fixed(rc.imag, prec)))
    except (mpmath.libmp.NoConvergence, ZeroDivisionError, ArithmeticError):
        return None
    return out


def _certify(f: IntPoly, mids, prec: int):
    """Weierstrass-correction disks around the approximations, or None."""
    n = f.degree
    d2 = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dr = mids[i][0] - mids[j][0]
            di = mids[i][1] - mids[j][1]
            d2[i][j] = d2[j][i] = dr * dr + di * di
            if d2[i][j] == 0:
                return None
    rads = []
    for i in range(n):
        den = 1
        for j in range(n):
            if j != i:
                root = math.isqrt(d2[i][j])
                if root == 0:
                    return None
                den *= root
        zi = ComplexBall(mids[i][0], mids[i][1], prec, Mag.zero())
        num = eval_poly_ball(f, zi).abs_upper()
        rads.append(num.mul_int(n).div_by(den, -prec * (n - 1)))
    two_p = 1 << (2 * prec)
    for i in range(n):
        for j in range(i + 1, n):
            s = rads[i].add(rads[j]).to_fraction()
            if Fraction(d2[i][j], two_p) <= s * s:
                return None
    balls = [
        ComplexBall(mids[i][0], mids[i][1], prec, rads[i]) for i in range(n)
    ]
    balls.sort(key=lambda b: (b.re, b.im))
    return tuple(balls)


@lru_cache(maxsize=128)
def isolate_roots(f: IntPoly, precision: int = 128) -> RootIsolation:
    """Certified disjoint inclusion disks, one per root of f.

    f must be monic and squarefree (checked exactly).  Precision escalates
    internally until the disks are pairwise disjoint; the hard cap raises
    PrecisionExhausted.
    """
    if f.degree < 1:
        raise ValueError("cannot isolate roots of a constant")
    if f.lc != 1:
        raise ValueError("root isolation expects a monic polynomial")
    fr = f.to_rat()
    if poly_gcd(fr, fr.derivative()).degree > 0:
        raise ValueError("root isolation expects a squarefree polynomial")
    if f.degree == 1:
        ball = ComplexBall.exact_int(-f.coeffs[0], max(precision, 8))
        return RootIsolation(f, (ball,), max(precision, 8))
    P = max(precision, 32)
    while P <= PRECISION_CAP:
        mids = _approx_roots(f, P)
        if mids is not None:
            balls = _certify(f, mids, P)
            if balls is not None:
                return RootIsolation(f, balls, P)
        P *= 2
    raise PrecisionExhausted("precision exhausted during root isolation")
