"""Certified complex root isolation and integer-radius ball arithmetic.

A ball at precision P is three Python ints: the closed disk
|z - (re + im*i) * 2**-P| <= rad * 2**-P.  Midpoints are exact dyadic
complex numbers, so addition is exact.  A product truncates its midpoint
by `>> P`, which loses less than one ulp per component; the radius of every
product is the propagated error bound divided by 2**P and rounded up, plus
2 ulps for the truncation.  `root_product` builds prod (x - r) by a
balanced product tree that truncates at every node, so coefficients stay
near P bits.  A node's midpoints are exact integer products shifted down
by P bits, and one radius bounds all its coefficients: the same rule with
the 1-norm, the sum of |re| + |im| over the coefficients, in place of
|a|.  Every radius is therefore an integer upper bound, and the
containment contract holds throughout: the true value lies in the ball.
A snap to an integer succeeds only when 2(|im| + rad) < 2**P and
[re - rad, re + rad] holds exactly one multiple of 2**P.

Roots are approximated by the Weierstrass (Durand-Kerner) iteration
z_i <- z_i - W_i with W_i = f(z_i) / prod_{j != i} (z_i - z_j) on one
ladder of precisions, which MPSolve also climbs from floats (Bini &
Fiorentino, 2000).  An isolation asked for at P runs each rung once:
the bottom rung P >> k, the first at most 64 bits, then P >> (k-1), ...,
P // 2, P, 2P, ... up to the cap.  A rung above 64 bits starts from the
midpoints of the rung below when that rung converged, else on a circle of
Fujiwara-bound radius.  The bottom rung takes its first steps from that
circle in double precision, within the same step bound; it starts
exactly from the circle when a coefficient or an iterate is not a finite
float, or the float steps do not settle.  The exact steps evaluate
f(z_i) and the products exactly on the dyadic midpoints, and only W_i is
rounded to the nearest ulp.  The step count is bounded; an iteration
that does not converge gives the next rung nothing to start from.  The
rungs from P up are certified in turn until one gives disjoint disks.
The approximation needs no rigor: the final midpoints are certified a
posteriori by the disks D(z_i, n*|W_i|), with |W_i| an upper bound
computed exactly in integers.
These disks jointly contain all n roots, and when they are pairwise
disjoint each contains exactly one (Carstensen, 1991).  `pairwise_disjoint`
tests these disks and the class-label balls of `weierstrass` alike.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exactpoly import IntPoly, _zmul
from .factorq import _root_bound_exponent, is_squarefree

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


def _norm1(re, im) -> int:
    """The sum of |re| + |im| over the coefficients of a ball polynomial."""
    return sum(map(abs, re)) + sum(map(abs, im))


def _poly_mul(a, b, P: int):
    """Product of two ball polynomials, each (re, im, rad): coefficient
    lists at precision P and one radius for every coefficient.

    The midpoints are the exact products shifted down by P bits; re and
    im come from three integer products, ar*br, ai*bi and
    (ar + ai)*(br + bi).  A coefficient of the product sums at most len(b)
    terms, so its error is at most |A|_1 r_B + r_A (|B|_1 + len(b) r_B),
    which divided by 2**P, rounded up and plus 2 ulps is the radius."""
    (ar, ai, ra), (br, bi, rb) = a, b
    rr = _zmul(ar, br)
    ii = _zmul(ai, bi)
    ss = _zmul([x + y for x, y in zip(ar, ai)], [x + y for x, y in zip(br, bi)])
    err = _norm1(ar, ai) * rb + ra * (_norm1(br, bi) + len(br) * rb)
    return (
        [(x - y) >> P for x, y in zip(rr, ii)],
        [(s - x - y) >> P for s, x, y in zip(ss, rr, ii)],
        -(-err >> P) + 2,
    )


def root_product(roots, prec: int) -> list:
    """Ball coefficients, ascending, of prod (x - r) over balls at precision
    prec, by a balanced product tree that truncates at every node; the
    coefficients share one radius."""
    polys = [([-r.re, 1 << prec], [-r.im, 0], r.rad) for r in roots]
    while len(polys) > 1:
        polys = [
            _poly_mul(polys[i], polys[i + 1], prec) if i + 1 < len(polys) else polys[i]
            for i in range(0, len(polys), 2)
        ]
    re, im, rad = polys[0]
    return [ComplexBall(x, y, prec, rad) for x, y in zip(re, im)]


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

class RootIsolation(NamedTuple):
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


def _circle(f: IntPoly):
    """(e, [(cos t_k, sin t_k)]) with t_k = (2 pi k + 0.4) / n: the start
    points of the iteration lie on the circle of radius 2**e, a Fujiwara
    bound on the moduli of the roots."""
    n = f.degree
    e = _root_bound_exponent(f)
    return e, [(math.cos(t), math.sin(t)) for t in ((2 * math.pi * k + 0.4) / n for k in range(n))]


def _float_roots(f: IntPoly, circle, steps: int):
    """Double-precision Durand-Kerner from the circle: (complex roots, steps
    taken), or None when a coefficient or an iterate is not a finite float
    or the iteration does not settle within `steps` steps.

    Like `_iterate` it returns the iterate after the first step whose
    corrections are all small, here at most 2**-32 times the radius.
    """
    e, points = circle
    try:
        cs = [float(c) for c in reversed(f.coeffs)]
        zs = [complex(math.ldexp(x, e), math.ldexp(y, e)) for x, y in points]
        close = math.ldexp(1.0, e - 32)
        for k in range(1, steps + 1):
            step = 0.0
            new = []
            for i, z in enumerate(zs):
                v = 0j
                for c in cs:
                    v = v * z + c
                d = 1 + 0j
                for j, w in enumerate(zs):
                    if j != i:
                        d *= z - w
                w = v / d
                new.append(z - w)
                step = max(step, abs(w))
            zs = new
            if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs):
                return None
            if step <= close:
                return zs, k
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def _dyadic(z: complex, P: int):
    """The midpoint (re, im) in ulps of 2**-P of the float z, each part
    rounded down."""
    out = []
    for v in (z.real, z.imag):
        num, den = v.as_integer_ratio()
        out.append((num << P) // den)
    return tuple(out)


def _approx_roots(f: IntPoly, P: int, below):
    """One rung: Durand-Kerner midpoints at precision P, or None when the
    iteration does not settle within 64 + 4n + P steps.

    ``below`` is (precision, midpoints) of the rung below, which this rung
    starts from, shifted up (then a few quadratic steps suffice); when it
    is None the rung starts from a circle of Fujiwara-bound radius.  At P <= 64
    the iteration runs from the circle in floats first (`_float_roots`)
    and goes on exactly from their dyadic midpoints, the steps of both
    counted against the one bound, so the rung settles when the start from
    the circle would; it starts exactly from the circle when the float run
    gives nothing.  Once the largest correction is at most 2**(P/4) ulps
    the iteration is in its quadratic regime and the next iterate is
    accurate to about one ulp; that iterate is returned.
    """
    steps = 64 + 4 * f.degree + P
    if below is not None:
        Q, zs = below
        return _iterate(f, [(zr << (P - Q), zi << (P - Q)) for zr, zi in zs], P, steps)
    circle = _circle(f)
    start = _float_roots(f, circle, steps) if P <= 64 else None
    if start is not None:
        zs, taken = start
        return _iterate(f, [_dyadic(z, P) for z in zs], P, steps - taken)
    e, points = circle
    return _iterate(f, [
        tuple(int(math.ldexp(v, 52)) << (P + e) >> 52 for v in point) for point in points
    ], P, steps)


def _iterate(f: IntPoly, zs, P: int, steps: int):
    """At most `steps` exact steps of the iteration from the midpoints zs."""
    close = 1 << (P // 4)
    for _ in range(steps):
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


def _ladder(P: int):
    """The rungs of an isolation asked for at P: P >> k, ..., P // 2 with k
    the least shift that reaches 64 bits or less, then P, 2P, ... up to
    the cap; none when P is past the cap."""
    if P > PRECISION_CAP:
        return
    k = 0
    while P >> k > 64:
        k += 1
    for shift in range(k, 0, -1):
        yield P >> shift
    while P <= PRECISION_CAP:
        yield P
        P *= 2


def isolate_roots(f: IntPoly, precision: int = 128) -> RootIsolation:
    """Certified disjoint inclusion disks, one per root of f.

    f must be monic and squarefree, which `factorq.is_squarefree` checks
    exactly.  The rungs of `_ladder` run once each, every rung above 64
    bits from the midpoints of the one below; from the requested
    precision up each rung is certified, and the first whose disks are
    pairwise disjoint gives the isolation.  Past the hard cap
    PrecisionExhausted is raised.
    """
    if f.degree < 1:
        raise ValueError("cannot isolate roots of a constant")
    if f.lc != 1:
        raise ValueError("root isolation expects a monic polynomial")
    if not is_squarefree(f):
        raise ValueError("root isolation expects a squarefree polynomial")
    if f.degree == 1:
        P = max(precision, 8)
        return RootIsolation((ComplexBall(-f.coeffs[0] << P, 0, P),), P)
    P = max(precision, 32)
    below = None
    for Q in _ladder(P):
        zs = _approx_roots(f, Q, below if Q > 64 else None)
        if zs is not None and Q >= P:
            balls = _certify(f, zs, Q)
            if balls is not None:
                return RootIsolation(balls, Q)
        below = None if zs is None else (Q, zs)
    raise PrecisionExhausted("precision exhausted during root isolation")
