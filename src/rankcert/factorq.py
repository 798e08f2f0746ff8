"""Factorization of squarefree integer polynomials over Q, and degree
patterns mod p.

Every polynomial factored here is squarefree: the resolvents are, because
an injective labelling makes them so, and `factor_over_q` checks its input
and raises ValueError on anything else.  `is_squarefree` is the one
squarefreeness test of the package: a squarefree reduction modulo a prime
certifies it, and the exact gcd with the derivative over Z decides only
when every tried reduction has a repeated factor.  `rational_roots`, which
reads the family discriminant, factors the squarefree part of its input.

The pipeline is classical Zassenhaus: reduce a primitive squarefree
polynomial modulo several primes, keep the prime with the fewest modular
factors, Hensel-lift those factors past the Mignotte coefficient bound,
then recombine subsets with exact trial division.  The distinct-degree
split takes one gcd per block of floor(sqrt(n)) degree steps and splits
inside a block only when that gcd is not 1.  The lift climbs the exponent
ladder 1, ..., ceil(k/2), k, so it ends at p^k.  Recombination is
exhaustive over subsets of size <= m/2, so the routine is complete without
any lattice step, but a subset is multiplied out and tried only after the
d-1 test: its x^(d-1) coefficient, read off the sum of its factors' second
coefficients mod p^k, must lie within the bound a Fujiwara root bound puts
on a true factor.  A caller that already knows a good prime and bounds on
the factor degrees passes them in and no prime is screened here: the
curve pipelines read both off f mod p (`weierstrass.frobenius_screen`).
The screen on the polynomial itself (`_candidate_primes`) serves
`factor_over_q`, hence an external chi, and parts without a usable
screened prime; the chosen prime's distinct-degree split is kept for its
equal-degree split.

Modulo-p polynomials are internal: plain ascending coefficient lists with
entries in [0, p), factored only as squarefree monic reductions
(`gf_factor_sqf_monic`).  Every product, mod p and over Z (Hensel
lifting, recombination), is `exactpoly._zmul`: a plain convolution when
a factor is shorter than its crossover, the Kronecker-substitution
multiply otherwise; remainders modulo a fixed f reuse packed rows
x^(n+i) mod f (`_FixedModulus`).  Equal-degree splitting uses a fixed PRNG
seed, so factorizations are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable

from .exactpoly import IntPoly, RatPoly, _digit_bytes, _long_division, _pack, _unpack, _zadd
from .exactpoly import _zmul, _zneg
from .exactpoly import _strip as gf_strip

__all__ = [
    "BadPrimeError",
    "degree_pattern",
    "possible_degrees",
    "factor_over_q",
    "is_irreducible_over_q",
    "rational_roots",
    "squarefree_by_reduction",
    "coprime_by_reduction",
    "is_squarefree",
]

_EDF_SEED = 0x9E3779B9
# usable primes a reduction check tries before it leaves the answer open
_REDUCTION_TRIES = 8
# primes `_candidate_primes` screens: it keeps the first _SCREEN_WANT usable
# ones, and gives up after _SCREEN_SCAN primes once it has any
_SCREEN_WANT = 8
_SCREEN_SCAN = 400


class BadPrimeError(ValueError):
    """The chosen prime violates a precondition (lc or squarefree reduction)."""


# ---------------------------------------------------------------------------
# primes

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_from(start: int):
    n = max(2, start)
    while True:
        if _is_prime(n):
            yield n
        n += 1


# ---------------------------------------------------------------------------
# arithmetic in F_p[x]; ascending coefficient lists, entries in [0, p)

def gf_from_int(coeffs, p):
    return gf_strip([c % p for c in coeffs])


def gf_add(f, g, p):
    return gf_from_int(_zadd(f, g), p)


def gf_sub(f, g, p):
    return gf_from_int(_zadd(f, _zneg(g)), p)


def gf_mul(f, g, p):
    return gf_strip([v % p for v in _zmul(f, g)])


def gf_mul_scalar(f, c, p):
    c %= p
    if not c:
        return []
    return [a * c % p for a in f]


def gf_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("mod-p division by zero polynomial")
    inv = pow(g[-1], -1, p)
    q, r = _long_division(f, g, lambda c: c * inv % p)
    return gf_strip(q), gf_strip([v % p for v in r])


def gf_rem(f, g, p):
    """f mod g, taken in place without the quotient: each step subtracts
    a multiple of g from the top down, and the remainder is reduced mod p
    once."""
    if not g:
        raise ZeroDivisionError("mod-p division by zero polynomial")
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    r = list(f)
    for k in range(len(r) - 1, dg - 1, -1):
        c = r[k] * inv % p
        if c:
            r[k - dg : k] = [a - c * b for a, b in zip(r[k - dg : k], g)]
    return gf_strip([v % p for v in r[:dg]])


def gf_quo(f, g, p):
    return gf_divmod(f, g, p)[0]


def gf_monic(f, p):
    if not f or f[-1] == 1:
        return list(f)
    return gf_mul_scalar(f, pow(f[-1], -1, p), p)


def gf_gcd(f, g, p):
    a, b = list(f), list(g)
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_gcdex(f, g, p):
    """Extended Euclid: returns (s, t, h) with s*f + t*g = h, h monic gcd."""
    a, b = list(f), list(g)
    sa, sb = [1], []
    ta, tb = [], [1]
    while b:
        q, r = gf_divmod(a, b, p)
        a, b = b, r
        sa, sb = sb, gf_sub(sa, gf_mul(q, sb, p), p)
        ta, tb = tb, gf_sub(ta, gf_mul(q, tb, p), p)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = gf_mul_scalar(a, inv, p)
        sa = gf_mul_scalar(sa, inv, p)
        ta = gf_mul_scalar(ta, inv, p)
    return sa, ta, a


def gf_deriv(f, p):
    return gf_strip([i * c % p for i, c in enumerate(f)][1:])


class _FixedModulus:
    """Remainders modulo one fixed f of degree n >= 1 over F_p.

    A product of two reduced polynomials has degree <= 2n - 2, so its
    remainder is h[:n] + sum h[n+i] * (x^(n+i) mod f).  The n - 1 rows
    x^(n+i) mod f are packed once by `_pack`; a remainder then costs n - 1
    bigint multiply-adds and one unpack.  A packed digit sums at most n
    terms below p^2, which sets the digit width.
    """

    def __init__(self, f, p):
        f = gf_monic(f, p)
        n = len(f) - 1
        self.f, self.p, self.n = f, p, n
        self.nbytes = _digit_bytes((n * p * p).bit_length())
        self.rows = []
        row = [0] * (n - 1) + [1]
        for _ in range(n - 1):
            top = row[-1]
            row = [(a - top * b) % p for a, b in zip([0] + row[:-1], f)]
            self.rows.append(_pack(row, self.nbytes))

    def combine(self, acc, coeffs, rows):
        """The packed acc plus sum coeffs[i] * rows[i], unpacked mod p."""
        for c, row in zip(coeffs, rows):
            if c:
                acc += c * row
        return gf_strip([v % self.p for v in _unpack(acc, self.n, self.nbytes)])

    def rem(self, h):
        """h mod f, for h of length < 2n with entries in [0, p)."""
        n = self.n
        if len(h) <= n:
            return h
        return self.combine(_pack(h[:n], self.nbytes), h[n:], self.rows)

    def mulmod(self, a, b):
        return self.rem(gf_mul(a, b, self.p))

    def pow(self, h, e):
        """h^e mod f, for h as `rem` takes it, by left-to-right binary powering."""
        if not e:
            return [1]
        base = self.rem(h)
        result = base
        for bit in bin(e)[3:]:
            result = self.mulmod(result, result)
            if bit == "1":
                result = self.mulmod(result, base)
        return result


def gf_sqf_p(f, p) -> bool:
    """True iff f mod p is squarefree (nonzero, no repeated factor)."""
    f = gf_strip(list(f))
    if not f:
        return False
    if len(f) == 1:
        return True
    d = gf_deriv(f, p)
    if not d:
        return False
    return len(gf_gcd(f, d, p)) == 1


def _by_reduction(polys, holds):
    """True when ``holds(q)`` for one of the first `_REDUCTION_TRIES`
    primes q above every degree of ``polys`` that divide no leading
    coefficient, else None."""
    usable = (q for q in _primes_from(max(g.degree for g in polys) + 1)
              if all(g.lc % q for g in polys))
    return True if any(map(holds, itertools.islice(usable, _REDUCTION_TRIES))) else None


def squarefree_by_reduction(F: IntPoly):
    """True when a modular reduction certifies that F is squarefree over Z.

    For a prime q > deg F with q not dividing lc(F), a squarefree reduction
    forces Res(F, F') != 0, hence squarefreeness over Q.  Returns None when
    `_REDUCTION_TRIES` usable reductions all have repeated factors (the
    caller must then decide exactly); never claims squarefreeness wrongly.
    """
    if F.degree <= 0:
        return None
    return _by_reduction((F,), lambda q: gf_sqf_p(gf_from_int(F.coeffs, q), q))


def is_squarefree(F: IntPoly) -> bool:
    """Exact squarefreeness of F over Q, the package's one squarefreeness
    test: a modular certificate first, the exact gcd with F' only when
    every tried reduction has a repeated factor."""
    return bool(squarefree_by_reduction(F)) or F.gcd(F.derivative()).degree == 0


def coprime_by_reduction(a: IntPoly, b: IntPoly):
    """True when a modular reduction certifies gcd(a, b) = 1 over Q.

    A trivial gcd of the reductions at a prime not dividing either leading
    coefficient forces Res(a, b) != 0.  Returns None when inconclusive.
    """
    if a.is_zero or b.is_zero:
        return None
    return _by_reduction(
        (a, b), lambda q: gf_gcd(gf_from_int(a.coeffs, q), gf_from_int(b.coeffs, q), q) == [1]
    )


def _gf_frobenius_base(fm):
    """Packed x^(j*p) mod f for j < deg f.

    By Fermat on the coefficients, h^p mod f = sum h[j] * x^(j*p) mod f,
    which `fm.combine(0, h, base)` evaluates.
    """
    xp = fm.pow([0, 1], fm.p)
    cur = [1]
    base = [_pack(cur, fm.nbytes)]
    for _ in range(1, fm.n):
        cur = fm.mulmod(cur, xp)
        base.append(_pack(cur, fm.nbytes))
    return base


def gf_ddf(f, p):
    """Distinct-degree split of a monic squarefree f mod p: [(product, d)].

    The degree steps run in blocks of floor(sqrt(n)) steps.  A block takes
    one gcd of f* with the product of its x^(p^i) - x, and splits inside
    that gcd, in step order, only when it is not 1 (the interval idea of
    von zur Gathen & Shoup, 1992).  By then f* has no factor of degree
    below the block, so a factor of degree d turns up at step d, and the
    split is the one step-by-step gcds give.
    """
    n = len(f) - 1
    if n == 1:
        return [(list(f), 1)]
    fm = _FixedModulus(f, p)
    base = _gf_frobenius_base(fm)
    width = math.isqrt(n)
    h = [0, 1]
    fstar = list(f)
    out = []
    i = 1
    while 2 * i <= len(fstar) - 1:
        end = min(i + width, (len(fstar) - 1) // 2 + 1)
        steps = []
        for j in range(i, end):
            h = fm.combine(0, h, base)
            steps.append((gf_sub(h, [0, 1], p), j))
        prod = steps[0][0]
        for hx, _ in steps[1:]:
            prod = fm.mulmod(prod, hx)
        g = gf_gcd(gf_rem(prod, fstar, p), fstar, p)
        if len(g) > 1:
            fstar = gf_quo(fstar, g, p)
            # g has no factor of degree below step j; below degree 2j it is
            # one irreducible factor, and at the last step all of its
            # factors have that step's degree
            for hx, j in steps[:-1]:
                if 2 * j > len(g) - 1:
                    break
                gj = gf_gcd(gf_rem(hx, g, p), g, p)
                if len(gj) > 1:
                    out.append((gj, j))
                    g = gf_quo(g, gj, p)
            if len(g) > 1:
                out.append((g, min(len(g), end) - 1))
        i = end
    if len(fstar) > 1:
        out.append((fstar, len(fstar) - 1))
    return out


def gf_edf(f, d, p, rng):
    """Cantor-Zassenhaus equal-degree split: all irreducible factors of
    a monic squarefree f mod p whose factors all have degree d."""
    out = []
    stack = [list(f)]
    while stack:
        h = stack.pop()
        nh = len(h) - 1
        if nh == d:
            out.append(h)
            continue
        hm = _FixedModulus(h, p)
        while True:
            r = gf_strip([rng.randrange(p) for _ in range(nh)])
            if len(r) - 1 < 1:
                continue
            if p == 2:
                w = list(r)
                trace = list(r)
                for _ in range(d - 1):
                    w = hm.mulmod(w, w)
                    trace = gf_add(trace, w, p)
                g = gf_gcd(trace, h, p)
            else:
                w = hm.pow(r, (p ** d - 1) // 2)
                g = gf_gcd(gf_sub(w, [1], p), h, p)
            if 0 < len(g) - 1 < nh:
                stack.append(g)
                stack.append(gf_quo(h, g, p))
                break
    out.sort(key=lambda v: (len(v), v))
    return out


def gf_factor_sqf_monic(f, p, split=None):
    """Irreducible monic factors of a monic squarefree f mod p, sorted.

    ``split`` is ``gf_ddf(f, p)`` when the caller already has it.
    """
    rng = random.Random(_EDF_SEED)
    out = []
    for prod, d in gf_ddf(f, p) if split is None else split:
        out.extend(gf_edf(prod, d, p, rng))
    out.sort(key=lambda v: (len(v), v))
    return out


# ---------------------------------------------------------------------------
# degree patterns

def degree_pattern(f: IntPoly, p: int) -> tuple:
    """Sorted irreducible factor degrees of f mod p (the Frobenius cycle
    type); requires a squarefree reduction."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _split_pattern(_reduction_split(f, p))


def _reduction_split(f: IntPoly, p: int):
    """The distinct-degree split of f mod p, made monic; raises
    BadPrimeError unless p is a good prime of f."""
    if f.lc % p == 0:
        raise BadPrimeError(f"p={p} divides the leading coefficient")
    fp = gf_from_int(f.coeffs, p)
    if not gf_sqf_p(fp, p):
        raise BadPrimeError(f"f mod {p} is not squarefree; choose another prime")
    return gf_ddf(gf_monic(fp, p), p)


def _split_pattern(split) -> tuple:
    return tuple(sorted(d for prod, d in split for _ in range((len(prod) - 1) // d)))


def possible_degrees(patterns: Iterable[tuple], d: int) -> frozenset:
    """Degrees a true factor over Q can have, from modular degree patterns.

    Intersection over the patterns of the subset-sum closures of each degree
    multiset; always contains 0 and d.  Result == {0, d} proves
    irreducibility.
    """
    result = None
    for pat in patterns:
        sums = {0}
        for deg in pat:
            sums |= {s + deg for s in sums}
        result = sums if result is None else (result & sums)
    if result is None:
        return frozenset(range(d + 1))
    return frozenset(result)


# ---------------------------------------------------------------------------
# Hensel lifting over Z

def _ztrunc(f, m):
    """Coefficients reduced into the symmetric range (-m/2, m/2]."""
    half = m // 2
    out = []
    for c in f:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return gf_strip(out)


def _hensel_step(M, f, g, h, s, t):
    """One Hensel step of the factors, to the target modulus M.

    Requires f = g*h (mod m) and s*g + t*h = 1 (mod m) for some m with M
    dividing m**2, h monic, and lc(f) invertible mod m.  Returns (G, H)
    with f = G*H (mod M), G = g and H = h (mod m), H monic.
    """
    e = _ztrunc(_zadd(f, _zneg(_zmul(g, h))), M)
    q, r = gf_divmod(_zmul(s, e), h, M)
    q = _ztrunc(q, M)
    r = _ztrunc(r, M)
    u = _zadd(_zmul(t, e), _zmul(q, g))
    return _ztrunc(_zadd(g, u), M), _ztrunc(_zadd(h, r), M)


def _bezout_step(M, G, H, s, t):
    """The Bezout pair s*G + t*H = 1 (mod m), lifted to modulus M as in
    `_hensel_step`: returns (S, T) with S*G + T*H = 1 (mod M)."""
    u = _zadd(_zmul(s, G), _zmul(t, H))
    b = _ztrunc(_zadd(u, [-1]), M)
    c, d = gf_divmod(_zmul(s, b), H, M)
    c = _ztrunc(c, M)
    d = _ztrunc(d, M)
    u = _zadd(_zmul(t, b), _zmul(c, G))
    return _ztrunc(_zadd(s, _zneg(d)), M), _ztrunc(_zadd(t, _zneg(u)), M)


def _hensel_lift_list(p, f, f_list, l):
    """Lift monic pairwise-coprime mod-p factors of f to factors mod p**l.

    f = lc(f) * prod(f_list) (mod p); the result multiplies back to f
    modulo p**l the same way.  Each split into two halves climbs the
    exponent ladder 1, ..., ceil(l/2), l: a step at most doubles the
    exponent and the last one ends at p**l.
    """
    r = len(f_list)
    lc = f[-1]
    pl = p ** l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [_ztrunc([c * inv for c in f], pl)]
    k = r // 2
    ladder = [l]
    while ladder[-1] > 1:
        ladder.append((ladder[-1] + 1) // 2)
    g = [lc % p]
    for fi in f_list[:k]:
        g = gf_mul(g, fi, p)
    h = [1]
    for fi in f_list[k:]:
        h = gf_mul(h, fi, p)
    s, t, one = gf_gcdex(g, h, p)
    if one != [1]:
        raise ValueError("modular factors are not pairwise coprime")
    for e in reversed(ladder[:-1]):
        M = p ** e
        g, h = _hensel_step(M, f, g, h, s, t)
        if e < l:
            s, t = _bezout_step(M, g, h, s, t)
    return _hensel_lift_list(p, g, f_list[:k], l) + _hensel_lift_list(
        p, h, f_list[k:], l
    )


# ---------------------------------------------------------------------------
# factorization over Q

def _mignotte_bound(F: IntPoly) -> int:
    """2**deg * l2norm * |lc|, rounded up; bounds any factor's coefficients."""
    n = F.degree
    l2 = math.isqrt(sum(c * c for c in F.coeffs)) + 1
    return (1 << n) * l2 * abs(F.lc)


def _root_bound_exponent(f: IntPoly) -> int:
    """An e with every complex root of f of modulus below 2**e: Fujiwara's
    bound 2 * max |a_k / a_n|^(1/(n-k)), rounded up to powers of two."""
    n = f.degree
    # |a_k / a_n| < 2^(bits(a_k) - top)
    top = abs(f.lc).bit_length() - 1
    return 1 + max(-((top - abs(c).bit_length()) // (n - k)) for k, c in enumerate(f.coeffs[:-1]))


def _candidate_primes(F: IntPoly):
    """Triples (modular factor count, p, distinct-degree split of F mod p)
    for primes p > deg F giving a squarefree reduction, and the factor
    degrees their patterns allow: the first `_SCREEN_WANT` primes, or
    fewer once the patterns prove F irreducible."""
    out = []
    patterns = []
    scanned = 0
    for p in _primes_from(F.degree + 1):
        scanned += 1
        if scanned > _SCREEN_SCAN and out:
            break
        try:
            split = _reduction_split(F, p)
        except BadPrimeError:
            continue
        pattern = _split_pattern(split)
        out.append((len(pattern), p, split))
        patterns.append(pattern)
        allowed = possible_degrees(patterns, F.degree)
        if allowed == {0, F.degree} or len(out) >= _SCREEN_WANT:
            break
    return out, possible_degrees(patterns, F.degree)


def _zassenhaus(F: IntPoly, allowed=None, p=None) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree F with lc > 0.

    ``allowed`` bounds the factor degrees and ``p`` is a prime at which F
    is squarefree with a unit leading coefficient, both known to the
    caller (the Frobenius screen of the curve pipelines).  Without p,
    `_candidate_primes` screens primes on F itself, its degree patterns
    narrow ``allowed``, and the chosen prime's distinct-degree split is
    reused.

    Subsets of the lifted factors are tried in order of size, and each
    first meets the degree bound, then the d-1 test (Abbott, Shoup &
    Zimmermann, ISSAC 2000): a true factor with leading coefficient
    lc(cur) and d roots of modulus below 2**e has an x^(d-1) coefficient
    of absolute value at most |lc(cur)| * d * 2**e, and the lift modulus
    exceeds twice that, so the coefficient is read off the sum of the
    lifted factors' second coefficients.  Only the subsets that pass get
    the constant-term test and, last, a product and a trial division.
    None of the tests rejects a true factor, so the first subset found
    at each size is the one exhaustive trial division finds.
    """
    n = F.degree
    if n == 1:
        return [F]
    split = None
    if p is None:
        cands, screened = _candidate_primes(F)
        allowed = screened if allowed is None else allowed & screened
        _, p, split = min(cands, key=lambda cand: cand[:2])
    if allowed == {0, n}:
        return [F]
    fp = gf_monic(gf_from_int(F.coeffs, p), p)
    modular = gf_factor_sqf_monic(fp, p, split)
    # a larger bound is still a bound, and a shift needs e >= 0
    e = max(_root_bound_exponent(F), 0)
    lc = abs(F.lc)
    # past 2 * Mignotte * |lc| for the products, and past 2 * |lc| * n * 2^e
    # for the d-1 test
    target = max(2 * _mignotte_bound(F) * lc, (lc * n << (e + 1)) + 1)
    k, pl = 1, p
    while pl < target:
        k, pl = k + 1, pl * p
    lifted = _hensel_lift_list(p, list(F.coeffs), modular, k)
    degs = [len(g) - 1 for g in lifted]
    T = list(range(len(lifted)))
    factors = []
    cur = list(F.coeffs)
    s = 1
    while 2 * s <= len(T):
        found = False
        lc_cur = cur[-1]
        # the x^(d-1) coefficient of lc_cur * (product of S), mod p^k, is
        # the sum over S of lc_cur times each factor's x^(deg-1) coefficient
        seconds = [lc_cur * g[-2] % pl for g in lifted]
        radius = abs(lc_cur) << e
        # each subset comes paired with its factor degrees, so the degree
        # filter costs one sum per subset
        subsets = zip(itertools.combinations(T, s), itertools.combinations([degs[i] for i in T], s))
        for S, S_degs in subsets:
            d = sum(S_degs)
            if d not in allowed:
                continue
            c = sum(map(seconds.__getitem__, S)) % pl
            if radius * d < c < pl - radius * d:
                continue
            # constant-term divisibility filter
            tc = lc_cur
            for i in S:
                tc = tc * lifted[i][0] % pl
            if tc > pl // 2:
                tc -= pl
            if tc != 0 and cur[0] != 0 and (cur[0] * lc_cur) % tc != 0:
                continue
            G = [lc_cur]
            for i in S:
                G = _ztrunc(_zmul(G, lifted[i]), pl)
            G = IntPoly(G).primitive()
            Q = IntPoly(cur).exact_div(G)
            if Q is not None:
                factors.append(G)
                cur = list(Q.coeffs)
                T = [i for i in T if i not in S]
                found = True
                break
        if not found:
            s += 1
    rest = IntPoly(cur)
    if rest.degree >= 1:
        factors.append(rest)
    return factors


def factor_over_q(f: RatPoly) -> tuple:
    """Irreducible factors over Q of a squarefree f, which is checked.

    Returns the primitive factors with positive leading coefficient,
    sorted by (degree, coefficient tuple); their product is the primitive
    part of f, and a nonzero constant has none.  A zero or non-squarefree
    f raises ValueError.

    >>> [str(g) for g in factor_over_q(RatPoly([-1, 0, 1]))]
    ['x - 1', 'x + 1']
    >>> factor_over_q(RatPoly([1, 2, 1]))
    Traceback (most recent call last):
    ...
    ValueError: factor_over_q needs a squarefree polynomial
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    F = f.to_int()[1]
    if F.degree == 0:
        return ()
    if not is_squarefree(F):
        raise ValueError("factor_over_q needs a squarefree polynomial")
    factors = tuple(sorted(_zassenhaus(F), key=lambda g: (g.degree, g.coeffs)))
    if math.prod(factors, start=IntPoly([1])) != F:
        raise RuntimeError("factorization identity check failed")
    return factors


def is_irreducible_over_q(f: RatPoly) -> bool:
    """True iff f is irreducible over Q (degree >= 1).

    A squarefree f goes to `_zassenhaus`, whose prime screen stops as soon
    as the degree patterns prove irreducibility; any other f is reducible.
    """
    if f.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    F = f.to_int()[1]
    return is_squarefree(F) and len(_zassenhaus(F)) == 1


def rational_roots(f: RatPoly) -> tuple:
    """The distinct rational roots of a nonzero f, sorted.

    They are the roots of the linear factors of its squarefree part: F
    itself when a reduction certifies it squarefree, else F / gcd(F, F').
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    F = f.to_int()[1]
    if F.degree < 1:
        return ()
    if not squarefree_by_reduction(F):
        F = F.exact_div(F.gcd(F.derivative()))
    linear = [g.coeffs for g in _zassenhaus(F) if g.degree == 1]
    return tuple(sorted(Fraction(-c0, c1) for c0, c1 in linear))
