"""Certified complex root isolation and integer-radius ball arithmetic.

A ball at precision P is three Python ints: the closed disk
|z - (re + im*i) * 2**-P| <= rad * 2**-P.  Midpoints are exact dyadic
complex numbers, so addition is exact.  A product truncates its midpoint
by `>> P`, which loses less than one ulp per component; the radius of every
product is the propagated error bound divided by 2**P and rounded up, plus
2 ulps for the truncation.  Ball polynomials multiply by the same rule
coefficient by coefficient, and `root_product` builds prod (x - r) by a
balanced product tree that truncates at every node, so coefficients stay
near P bits.  Every radius is therefore an integer upper bound, and the
containment contract holds throughout: the true value lies in the ball.
A snap to an integer succeeds only when 2(|im| + rad) < 2**P and
[re - rad, re + rad] holds exactly one multiple of 2**P.

Roots are approximated by the Weierstrass (Durand-Kerner) iteration
z_i <- z_i - W_i with W_i = f(z_i) / prod_{j != i} (z_i - z_j), started
from the result at half the precision, or else on a circle of
Fujiwara-bound radius.  f(z_i) and the products are evaluated
exactly on the dyadic midpoints, and only W_i is rounded to the nearest
ulp.  The step count is bounded; an iteration that does not converge
returns None and the precision doubles.  The approximation needs no rigor:
the final midpoints are certified a posteriori by the disks
D(z_i, n*|W_i|), with |W_i| an upper bound computed exactly in integers.
These disks jointly contain all n roots, and when they are pairwise
disjoint each contains exactly one (Carstensen, 1991).  `pairwise_disjoint`
tests these disks and the class-label balls of `weierstrass` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .exactpoly import IntPoly, _zmul, poly_gcd

__all__ = [
    "ComplexBall",
    "RootIsolation",
    "PrecisionExhausted",
    "isolate_roots",
    "pairwise_disjoint",
    "root_product",
    "snap_to_integer",
    "PRECISION_CAP",
]

PRECISION_CAP = 1 << 20


class PrecisionExhausted(RuntimeError):
    """Escalation passed the hard precision cap; indicates a logic error."""


def _abs_upper(re: int, im: int) -> int:
    """An integer upper bound of |re + im*i|."""
    return math.isqrt(re * re + im * im) + 1


class ComplexBall:
    """Disk {z : |z - (re + im*i) * 2**-prec| <= rad * 2**-prec}."""

    __slots__ = ("re", "im", "prec", "rad")

    def __init__(self, re: int, im: int, prec: int, rad: int = 0):
        if rad < 0:
            raise ValueError("ball radius must be nonnegative")
        self.re = re
        self.im = im
        self.prec = prec
        self.rad = rad

    def add(self, other: "ComplexBall") -> "ComplexBall":
        if self.prec != other.prec:
            raise ValueError("mixed precisions in ball addition")
        return ComplexBall(
            self.re + other.re, self.im + other.im, self.prec, self.rad + other.rad
        )

    def mul_int(self, n: int) -> "ComplexBall":
        return ComplexBall(self.re * n, self.im * n, self.prec, self.rad * abs(n))

    def mul(self, other: "ComplexBall") -> "ComplexBall":
        if self.prec != other.prec:
            raise ValueError("mixed precisions in ball multiplication")
        P = self.prec
        a, b = self, other
        err = _abs_upper(a.re, a.im) * b.rad + a.rad * (_abs_upper(b.re, b.im) + b.rad)
        return ComplexBall(
            (a.re * b.re - a.im * b.im) >> P,
            (a.re * b.im + a.im * b.re) >> P,
            P,
            -(-err >> P) + 2,
        )

    def contains_zero(self) -> bool:
        """True iff |mid| <= rad, i.e. 0 may lie in the disk."""
        return self.re * self.re + self.im * self.im <= self.rad * self.rad

    def __repr__(self):
        scale = 2.0 ** -self.prec
        return "ComplexBall(%.6g%+.6gi, rad~2^%d)" % (
            self.re * scale, self.im * scale, self.rad.bit_length() - self.prec
        )


def snap_to_integer(b: ComplexBall):
    """The unique integer the ball certifies, or None.

    Succeeds iff 2(|im| + rad) < 2**prec and [re - rad, re + rad] contains
    exactly one multiple of 2**prec.
    """
    if 2 * (abs(b.im) + b.rad) >= 1 << b.prec:
        return None
    lo = -(-(b.re - b.rad) >> b.prec)
    hi = (b.re + b.rad) >> b.prec
    return lo if lo == hi else None


def _poly_mul(a, b, P: int):
    """Product of two ball polynomials, each (re, im, rad) coefficient lists
    at precision P, by the rule of `ComplexBall.mul` per coefficient: the
    exact midpoint product shifted down by P bits, and radii
    (|A| r_B + r_A (|B| + r_B)) / 2**P rounded up, plus 2 ulps."""
    (ar, ai, ra), (br, bi, rb) = a, b
    re = [x - y for x, y in zip(_zmul(ar, br), _zmul(ai, bi))]
    im = [x + y for x, y in zip(_zmul(ar, bi), _zmul(ai, br))]
    abs_a = [_abs_upper(x, y) for x, y in zip(ar, ai)]
    abs_b = [_abs_upper(x, y) + r for x, y, r in zip(br, bi, rb)]
    err = [x + y for x, y in zip(_zmul(abs_a, rb), _zmul(ra, abs_b))]
    return [x >> P for x in re], [y >> P for y in im], [-(-e >> P) + 2 for e in err]


def root_product(roots, prec: int) -> list:
    """Ball coefficients, ascending, of prod (x - r) over balls at precision
    prec, by a balanced product tree that truncates at every node."""
    polys = [([-r.re, 1 << prec], [-r.im, 0], [r.rad, 0]) for r in roots]
    while len(polys) > 1:
        polys = [
            _poly_mul(polys[i], polys[i + 1], prec) if i + 1 < len(polys) else polys[i]
            for i in range(0, len(polys), 2)
        ]
    return [ComplexBall(re, im, prec, rad) for re, im, rad in zip(*polys[0])]


def pairwise_disjoint(balls) -> bool:
    """True iff the closed disks (one precision) are pairwise disjoint.

    Sort-and-sweep by left edge: each ball meets only later balls whose real
    interval starts before its own ends, and two balls meet, tangency
    included, iff |m1 - m2|^2 <= (r1 + r2)^2, tested exactly."""
    order = sorted(balls, key=lambda b: b.re - b.rad)
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if b.re - b.rad > a.re + a.rad:
                break
            if (a.re - b.re) ** 2 + (a.im - b.im) ** 2 <= (a.rad + b.rad) ** 2:
                return False
    return True


# ---------------------------------------------------------------------------
# isolation

@dataclass(frozen=True)
class RootIsolation:
    """Pairwise disjoint certified disks, one per root of a monic poly."""

    balls: tuple
    precision: int


def _weierstrass(f: IntPoly, zs, P: int):
    """Exact (numerator, denominator) pairs with W_i = num_i / den_i in ulps.

    num_i = f(z_i) * 2**(n*P) and den_i = prod_{j != i} (Z_i - Z_j), both
    Gaussian integers; None when two midpoints coincide.
    """
    n = f.degree
    out = []
    for i, (zr, zi) in enumerate(zs):
        fr, fi = 1, 0
        for k in range(n - 1, -1, -1):
            fr, fi = fr * zr - fi * zi + (f.coeffs[k] << (P * (n - k))), fr * zi + fi * zr
        dr, di = 1, 0
        for j, (wr, wi) in enumerate(zs):
            if j != i:
                ur, ui = zr - wr, zi - wi
                dr, di = dr * ur - di * ui, dr * ui + di * ur
        if dr == 0 and di == 0:
            return None
        out.append(((fr, fi), (dr, di)))
    return out


def _approx_roots(f: IntPoly, P: int):
    """Durand-Kerner midpoints at precision P, or None when the iteration
    does not settle within 64 + 4n + P steps.

    The start is the result at precision P/2 when that converges (then a
    few quadratic steps suffice), else a circle of Fujiwara-bound radius.
    Once the largest correction is at most 2**(P/4) ulps the iteration is
    in its quadratic regime and the next iterate is accurate to about one
    ulp; that iterate is returned.
    """
    n = f.degree
    zs = _approx_roots(f, P // 2) if P > 64 else None
    if zs is not None:
        zs = [(zr << (P - P // 2), zi << (P - P // 2)) for zr, zi in zs]
    else:
        # Fujiwara: every root has modulus < 2 * max |a_k|^(1/(n-k)) <= 2^e
        e = 1 + max(-(-abs(c).bit_length() // (n - k)) for k, c in enumerate(f.coeffs[:-1]))
        zs = []
        for k in range(n):
            t = (2 * math.pi * k + 0.4) / n
            zs.append(tuple(
                int(math.ldexp(v, 52)) << (P + e) >> 52 for v in (math.cos(t), math.sin(t))
            ))
    close = 1 << (P // 4)
    for _ in range(64 + 4 * n + P):
        ws = _weierstrass(f, zs, P)
        if ws is None:
            return None
        step = 0
        for i, ((fr, fi), (dr, di)) in enumerate(ws):
            den = dr * dr + di * di  # W_i = num * conj(den_i) / |den_i|^2, nearest ulp
            wr = (2 * (fr * dr + fi * di) + den) // (2 * den)
            wi = (2 * (fi * dr - fr * di) + den) // (2 * den)
            zs[i] = (zs[i][0] - wr, zs[i][1] - wi)
            step = max(step, abs(wr), abs(wi))
        if step <= close:
            return zs
    return None


def _certify(f: IntPoly, zs, P: int):
    """Disjoint disks D(z_i, n*|W_i|) around the midpoints, or None."""
    ws = _weierstrass(f, zs, P)
    if ws is None:
        return None
    n = f.degree
    rads = []
    for (fr, fi), (dr, di) in ws:
        q = -(-(fr * fr + fi * fi) // (dr * dr + di * di))
        rads.append(n * (math.isqrt(q) + 1))
    balls = [ComplexBall(zr, zi, P, r) for (zr, zi), r in zip(zs, rads)]
    if not pairwise_disjoint(balls):
        return None
    return tuple(sorted(balls, key=lambda b: (b.re, b.im)))


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
        P = max(precision, 8)
        return RootIsolation((ComplexBall(-f.coeffs[0] << P, 0, P),), P)
    P = max(precision, 32)
    while P <= PRECISION_CAP:
        zs = _approx_roots(f, P)
        if zs is not None:
            balls = _certify(f, zs, P)
            if balls is not None:
                return RootIsolation(balls, P)
        P *= 2
    raise PrecisionExhausted("precision exhausted during root isolation")
