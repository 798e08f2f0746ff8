"""Factorization of integer polynomials over Q, and degree patterns mod p.

The pipeline is classical Zassenhaus: reduce a primitive squarefree
polynomial modulo several primes, keep the prime with the fewest modular
factors, Hensel-lift those factors past the Mignotte coefficient bound,
then recombine subsets with exact trial division.  Recombination is
exhaustive over subsets of size <= m/2, so the routine is complete without
any lattice step.  A caller that already knows a good prime and bounds on
the factor degrees passes them in and no prime is screened here: the
curve pipelines read both off f mod p (`weierstrass.frobenius_screen`).
The screen on the polynomial itself (`_candidate_primes`) serves
`factor_over_q`, hence an external chi, and parts without a usable
screened prime.

Modulo-p polynomials are internal: plain ascending coefficient lists with
entries in [0, p), factored only as squarefree monic reductions
(`gf_factor_sqf_monic`).  Every product, mod p and over Z (Hensel
lifting, recombination), is the Kronecker-substitution multiply
`exactpoly._zmul`; remainders modulo a fixed f reuse packed rows
x^(n+i) mod f (`_FixedModulus`).  Equal-degree splitting uses a fixed PRNG
seed, so factorizations are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactpoly import IntPoly, RatPoly, _digit_bytes, _long_division, _pack, _unpack, _zadd
from .exactpoly import _zmul, _zneg
from .exactpoly import _strip as gf_strip

__all__ = [
    "FactorizationQ",
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
    return gf_divmod(f, g, p)[1]


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
        """h mod f, for h with entries in [0, p)."""
        n = self.n
        if len(h) <= n:
            return h
        if len(h) >= 2 * n:
            return gf_rem(h, self.f, self.p)
        return self.combine(_pack(h[:n], self.nbytes), h[n:], self.rows)

    def mulmod(self, a, b):
        return self.rem(gf_mul(a, b, self.p))

    def pow(self, h, e):
        result = [1]
        base = self.rem(h)
        while e:
            if e & 1:
                result = self.mulmod(result, base)
            base = self.mulmod(base, base)
            e >>= 1
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


def squarefree_by_reduction(F: IntPoly):
    """True when a modular reduction certifies that F is squarefree over Z.

    For a prime q > deg F with q not dividing lc(F), a squarefree reduction
    forces Res(F, F') != 0, hence squarefreeness over Q.  Returns None when
    `_REDUCTION_TRIES` usable reductions all have repeated factors (the
    caller must then decide exactly); never claims squarefreeness wrongly.
    """
    d = F.degree
    if d <= 0:
        return None
    seen = 0
    for q in _primes_from(d + 1):
        if F.lc % q == 0:
            continue
        if gf_sqf_p(gf_from_int(F.coeffs, q), q):
            return True
        seen += 1
        if seen >= _REDUCTION_TRIES:
            return None
    return None


def is_squarefree(F: IntPoly) -> bool:
    """Exact squarefreeness of F over Q: a modular certificate first, the
    exact gcd with F' only when every tried reduction has a repeated factor."""
    return bool(squarefree_by_reduction(F)) or F.gcd(F.derivative()).degree == 0


def coprime_by_reduction(a: IntPoly, b: IntPoly):
    """True when a modular reduction certifies gcd(a, b) = 1 over Q.

    A trivial gcd of the reductions at a prime not dividing either leading
    coefficient forces Res(a, b) != 0.  Returns None when inconclusive.
    """
    if a.is_zero or b.is_zero:
        return None
    seen = 0
    for q in _primes_from(max(a.degree, b.degree) + 1):
        if a.lc % q == 0 or b.lc % q == 0:
            continue
        if gf_gcd(gf_from_int(a.coeffs, q), gf_from_int(b.coeffs, q), q) == [1]:
            return True
        seen += 1
        if seen >= _REDUCTION_TRIES:
            return None
    return None


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
    """Distinct-degree split of a monic squarefree f mod p: [(product, d)]."""
    n = len(f) - 1
    if n == 1:
        return [(list(f), 1)]
    fm = _FixedModulus(f, p)
    base = _gf_frobenius_base(fm)
    h = [0, 1]
    fstar = list(f)
    out = []
    i = 1
    while 2 * i <= len(fstar) - 1:
        h = fm.combine(0, h, base)
        g = gf_gcd(gf_sub(gf_rem(h, fstar, p), [0, 1], p), fstar, p)
        if len(g) > 1:
            out.append((g, i))
            fstar = gf_quo(fstar, g, p)
        i += 1
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


def gf_factor_sqf_monic(f, p):
    """Irreducible monic factors of a monic squarefree f mod p, sorted."""
    rng = random.Random(_EDF_SEED)
    out = []
    for prod, d in gf_ddf(f, p):
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
    if f.lc % p == 0:
        raise BadPrimeError(f"p={p} divides the leading coefficient")
    fp = gf_from_int(f.coeffs, p)
    if not gf_sqf_p(fp, p):
        raise BadPrimeError(f"f mod {p} is not squarefree; choose another prime")
    fp = gf_monic(fp, p)
    degs = []
    for prod, d in gf_ddf(fp, p):
        degs.extend([d] * ((len(prod) - 1) // d))
    return tuple(sorted(degs))


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


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: from mod m to mod m**2.

    Requires f = g*h (mod m), s*g + t*h = 1 (mod m), h monic, and lc(f)
    invertible mod m.  Returns (G, H, S, T) with the same relations mod m**2.
    """
    M = m * m
    e = _ztrunc(_zadd(f, _zneg(_zmul(g, h))), M)
    q, r = gf_divmod(_zmul(s, e), h, M)
    q = _ztrunc(q, M)
    r = _ztrunc(r, M)
    u = _zadd(_zmul(t, e), _zmul(q, g))
    G = _ztrunc(_zadd(g, u), M)
    H = _ztrunc(_zadd(h, r), M)
    u = _zadd(_zmul(s, G), _zmul(t, H))
    b = _ztrunc(_zadd(u, [-1]), M)
    c, d = gf_divmod(_zmul(s, b), H, M)
    c = _ztrunc(c, M)
    d = _ztrunc(d, M)
    u = _zadd(_zmul(t, b), _zmul(c, G))
    S = _ztrunc(_zadd(s, _zneg(d)), M)
    T = _ztrunc(_zadd(t, _zneg(u)), M)
    return G, H, S, T


def _hensel_lift_list(p, f, f_list, l):
    """Lift monic pairwise-coprime mod-p factors of f to factors mod p**l.

    f = lc(f) * prod(f_list) (mod p); the result multiplies back to f
    modulo p**l the same way.
    """
    r = len(f_list)
    lc = f[-1]
    pl = p ** l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [_ztrunc([c * inv for c in f], pl)]
    m = p
    k = r // 2
    d = int(math.ceil(math.log2(l))) if l > 1 else 1
    g = [lc % p]
    for fi in f_list[:k]:
        g = gf_mul(g, fi, p)
    h = [1]
    for fi in f_list[k:]:
        h = gf_mul(h, fi, p)
    s, t, one = gf_gcdex(g, h, p)
    if one != [1]:
        raise ValueError("modular factors are not pairwise coprime")
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift_list(p, g, f_list[:k], l) + _hensel_lift_list(
        p, h, f_list[k:], l
    )


# ---------------------------------------------------------------------------
# factorization over Q

@dataclass(frozen=True)
class FactorizationQ:
    """unit * prod(factor**multiplicity) == the input, exactly.

    Factors are primitive irreducible integer polynomials with positive
    leading coefficient, sorted by (degree, coefficient tuple).
    """

    unit: Fraction
    factors: tuple  # of (IntPoly, int)

    def expand(self) -> RatPoly:
        acc = RatPoly((self.unit,))
        for g, mult in self.factors:
            acc = acc * (g.to_rat() ** mult)
        return acc

    def degrees(self) -> tuple:
        out = []
        for g, mult in self.factors:
            out.extend([g.degree] * mult)
        return tuple(sorted(out))


def _mignotte_bound(F: IntPoly) -> int:
    """2**deg * l2norm * |lc|, rounded up; bounds any factor's coefficients."""
    n = F.degree
    l2 = math.isqrt(sum(c * c for c in F.coeffs)) + 1
    return (1 << n) * l2 * abs(F.lc)


def _candidate_primes(F: IntPoly):
    """Pairs (modular factor count, p) for primes p > deg F giving a
    squarefree reduction, and the factor degrees their distinct-degree
    patterns allow: the first `_SCREEN_WANT` primes, or fewer once the
    patterns prove F irreducible."""
    out = []
    patterns = []
    scanned = 0
    for p in _primes_from(F.degree + 1):
        scanned += 1
        if scanned > _SCREEN_SCAN and out:
            break
        try:
            pattern = degree_pattern(F, p)
        except BadPrimeError:
            continue
        out.append((len(pattern), p))
        patterns.append(pattern)
        allowed = possible_degrees(patterns, F.degree)
        if allowed == {0, F.degree} or len(out) >= _SCREEN_WANT:
            break
    if not out:
        raise RuntimeError("no usable prime found (is the input squarefree?)")
    return out, possible_degrees(patterns, F.degree)


def _zassenhaus(F: IntPoly, allowed=None, p=None) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree F with lc > 0.

    ``allowed`` bounds the factor degrees and ``p`` is a prime at which F
    is squarefree with a unit leading coefficient, both known to the
    caller (the Frobenius screen of the curve pipelines).  Without p,
    `_candidate_primes` screens primes on F itself, and its degree
    patterns narrow ``allowed``.
    """
    n = F.degree
    if n == 1:
        return [F]
    if p is None:
        cands, screened = _candidate_primes(F)
        allowed = screened if allowed is None else allowed & screened
        _, p = min(cands)
    if allowed == {0, n}:
        return [F]
    fp = gf_monic(gf_from_int(F.coeffs, p), p)
    modular = gf_factor_sqf_monic(fp, p)
    bound = _mignotte_bound(F)
    k = 1
    target = 2 * bound * abs(F.lc)
    while p ** k < target:
        k += 1
    lifted = _hensel_lift_list(p, list(F.coeffs), modular, k)
    pl = p ** k
    degs = [len(g) - 1 for g in lifted]
    T = list(range(len(lifted)))
    factors = []
    cur = list(F.coeffs)
    s = 1
    while 2 * s <= len(T):
        found = False
        # each subset comes paired with its factor degrees, so the degree
        # filter costs one sum per subset
        subsets = zip(itertools.combinations(T, s), itertools.combinations([degs[i] for i in T], s))
        for S, S_degs in subsets:
            if sum(S_degs) not in allowed:
                continue
            lc_cur = cur[-1]
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


def _int_squarefree_decomposition(F: IntPoly):
    """Yun's algorithm over Z on a primitive F with lc > 0: [(part, mult)]."""
    if squarefree_by_reduction(F):
        return [(F, 1)]
    out = []
    u = F.gcd(F.derivative())
    if u.degree == 0:
        return [(F, 1)]
    v = F.exact_div(u)
    w = F.derivative().exact_div(u)
    i = 1
    while v.degree > 0:
        z = w - v.derivative()
        h = v.gcd(z) if not z.is_zero else v
        if h.degree > 0:
            out.append((h, i))
        v_next = v.exact_div(h)
        if z.is_zero:
            w_next = w  # unused: v_next is constant next round
        else:
            w_next = z.exact_div(h)
        v, w = v_next, w_next
        i += 1
    return out


def factor_over_q(f: RatPoly) -> FactorizationQ:
    """Complete factorization of f into irreducibles over Q.

    >>> fac = factor_over_q(RatPoly([-1, 0, 1]))
    >>> [str(g) for g, m in fac.factors]
    ['x - 1', 'x + 1']
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    content, F = f.to_int()
    if F.degree == 0:
        return FactorizationQ(content, ())
    factors = []
    for part, mult in _int_squarefree_decomposition(F):
        for g in _zassenhaus(part):
            factors.append((g, mult))
    factors.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    result = FactorizationQ(content, tuple(factors))
    if result.expand() != f:
        raise RuntimeError("factorization identity check failed")
    return result


def is_irreducible_over_q(f: RatPoly) -> bool:
    """True iff f is irreducible over Q (degree >= 1).

    A thin wrapper over `factor_over_q`, whose prime screen stops as soon
    as the degree patterns prove irreducibility.
    """
    if f.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    fac = factor_over_q(f)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1


def rational_roots(f: RatPoly) -> tuple:
    """All rational roots of a nonzero f, sorted, via its linear factors."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    roots = []
    for g, _mult in factor_over_q(f).factors:
        if g.degree == 1:
            roots.append(Fraction(-g.coeffs[0], g.coeffs[1]))
    return tuple(sorted(set(roots)))
