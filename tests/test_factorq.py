import itertools
import math
import random
from fractions import Fraction

import pytest

from rankcert import factorq
from rankcert.cli import parse_poly
from rankcert.exactpoly import IntPoly, RatPoly
from rankcert.factorq import (
    BadPrimeError,
    degree_pattern,
    factor_over_q,
    _FixedModulus,
    _hensel_lift_list,
    gf_ddf,
    gf_factor_sqf_monic,
    gf_from_int,
    gf_gcd,
    gf_monic,
    gf_mul,
    gf_rem,
    gf_sqf_p,
    gf_strip,
    is_irreducible_over_q,
    is_squarefree,
    possible_degrees,
    rational_roots,
)

from conftest import random_squarefree_poly
from test_exactpoly import schoolbook


def brute_factor_mod_p(coeffs, p):
    """Exhaustive mod-p factorization oracle for tiny degrees.

    Splits off monic irreducible divisors in (degree, coeffs) order by
    trying every monic polynomial of degree < deg f.
    """
    f = gf_from_int(coeffs, p)
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    out = []
    d = 1
    while len(f) - 1 > 0:
        if d > (len(f) - 1) // 2:
            out.append(tuple(f))
            break
        divided = False
        for tail in itertools.product(range(p), repeat=d):
            cand = list(tail) + [1]
            if any(len(q) > 1 for q in _divisors_of(cand, p)):
                continue  # not irreducible
            q, r = _gf_divmod(f, cand, p)
            if not r:
                out.append(tuple(cand))
                f = q
                divided = True
                break
        if not divided:
            d += 1
    return sorted(out)


def _gf_divmod(f, g, p):
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return [], list(f)
    inv = pow(g[-1], -1, p)
    r = list(f)
    q = [0] * (df - dg + 1)
    for k in range(df - dg, -1, -1):
        c = r[k + dg] % p
        if c:
            c = c * inv % p
            q[k] = c
            for j in range(dg + 1):
                r[k + j] = (r[k + j] - c * g[j]) % p
    while r and not r[-1]:
        r.pop()
    while q and not q[-1]:
        q.pop()
    return q, r


def _divisors_of(cand, p):
    """Nontrivial monic divisors of a small monic polynomial (brute force)."""
    d = len(cand) - 1
    out = []
    for dd in range(1, d):
        for tail in itertools.product(range(p), repeat=dd):
            g = list(tail) + [1]
            _, r = _gf_divmod(cand, g, p)
            if not r:
                out.append(g)
    return out


class TestModPKernel:
    PRIMES = (2, 3, 101, (1 << 61) - 1)

    def test_gf_mul_matches_schoolbook(self):
        rng = random.Random(61)
        for p in (2, (1 << 61) - 1):
            for _ in range(25):
                f = gf_strip([rng.randrange(p) for _ in range(rng.randint(0, 120))])
                g = gf_strip([rng.randrange(p) for _ in range(rng.randint(0, 120))])
                assert gf_mul(f, g, p) == gf_strip([c % p for c in schoolbook(f, g)])

    def test_fixed_modulus_matches_gf_rem(self):
        rng = random.Random(5)
        for p in self.PRIMES:
            for n in (1, 2, 5, 40):
                f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
                fm = _FixedModulus(f, p)
                for _ in range(8):
                    # lengths up to 2n - 1 take the packed rows, longer ones
                    # fall back to plain division
                    h = gf_strip([rng.randrange(p) for _ in range(rng.randint(0, 3 * n))])
                    assert fm.rem(h) == gf_rem(h, f, p), (p, n, h)
                    a = gf_rem(h, f, p)
                    b = gf_strip([rng.randrange(p) for _ in range(n)])
                    assert fm.mulmod(a, b) == gf_rem(gf_mul(a, b, p), f, p)

    def test_fixed_modulus_pow(self):
        rng = random.Random(9)
        for p in self.PRIMES:
            f = [rng.randrange(p) for _ in range(12)] + [1]
            fm = _FixedModulus(f, p)
            h = [rng.randrange(p) for _ in range(30)]
            acc = [1]
            for e in range(20):
                assert fm.pow(h, e) == acc
                acc = gf_rem(gf_mul(acc, h, p), f, p)


def _schoolbook_ddf(f, p):
    """Distinct-degree split of a monic squarefree f mod p with plain
    products and `_gf_divmod`: x^(p^i) mod f by square-and-multiply."""
    rem = lambda h, g: _gf_divmod(gf_strip([c % p for c in h]), g, p)[1]

    def gcd(a, b):
        while b:
            a, b = b, rem(a, b)
        return gf_monic(a, p)

    h, fstar, out, i = [0, 1], list(f), [], 1
    while 2 * i <= len(fstar) - 1:
        acc, e = [1], p
        while e:
            if e & 1:
                acc = rem(schoolbook(acc, h), f)
            h = rem(schoolbook(h, h), f)
            e >>= 1
        h = acc
        x_sub = [c - d for c, d in itertools.zip_longest(h, [0, 1], fillvalue=0)]
        g = gcd(rem(x_sub, fstar), fstar)
        if len(g) > 1:
            out.append((g, i))
            fstar = _gf_divmod(fstar, g, p)[0]
        i += 1
    if len(fstar) > 1:
        out.append((fstar, len(fstar) - 1))
    return out


class TestRemainders:
    """`gf_rem` divides without keeping the quotient; `gf_gcd` and `gf_ddf`
    take every remainder through it."""

    PRIMES = [p for p in range(2, 1010) if factorq._is_prime(p)]

    def test_rem_matches_schoolbook_division(self):
        rng = random.Random(1013)
        for _ in range(400):
            p = rng.choice(self.PRIMES + [(1 << 61) - 1])
            f = gf_strip([rng.randrange(p) for _ in range(rng.randint(0, 30))])
            g = [rng.randrange(p) for _ in range(rng.randint(0, 12))] + [rng.randrange(1, p)]
            assert gf_rem(f, g, p) == _gf_divmod(f, g, p)[1], (f, g, p)
        with pytest.raises(ZeroDivisionError):
            gf_rem([1, 2], [], 5)

    def test_gcd_matches_schoolbook_euclid(self):
        rng = random.Random(43)
        for _ in range(400):
            p = rng.choice([2, 3, 7, 43, 1009])
            common = gf_strip([rng.randrange(p) for _ in range(rng.randint(0, 4))])
            f, g = (
                gf_mul(gf_strip([rng.randrange(p) for _ in range(rng.randint(0, 10))]), common, p)
                for _ in range(2)
            )
            a, b = f, g
            while b:
                a, b = b, _gf_divmod(a, b, p)[1]
            assert gf_gcd(f, g, p) == gf_monic(a, p), (f, g, p)

    def test_ddf_matches_a_schoolbook_split(self):
        # seeded squarefree f of degree 2-12 over primes 2-1009: the packed
        # Frobenius rows split f as plain square-and-multiply does
        rng = random.Random(1009)
        cases = []
        while len(cases) < 300:
            p = rng.choice(self.PRIMES)
            f = [rng.randrange(p) for _ in range(rng.randint(2, 12))] + [1]
            if gf_sqf_p(f, p):
                cases.append((f, p))
        assert {len(f) - 1 for f, _ in cases} == set(range(2, 13))
        for f, p in cases:
            assert gf_ddf(f, p) == _schoolbook_ddf(f, p), (f, p)


class TestFactorModP:
    """`gf_factor_sqf_monic` on squarefree reductions, the only ones the
    pipelines factor."""

    def test_split_quadratic(self):
        assert gf_factor_sqf_monic([1, 0, 1], 5) == [[2, 1], [3, 1]]

    def test_inert_quadratic(self):
        assert gf_factor_sqf_monic([1, 0, 1], 3) == [[1, 0, 1]]

    def test_x4_plus_1_mod_3_oracle(self):
        # derived by exhaustive search over the 9 monic quadratics mod 3
        expected = brute_factor_mod_p([1, 0, 0, 0, 1], 3)
        assert [len(c) - 1 for c in expected] == [2, 2]
        assert [tuple(m) for m in gf_factor_sqf_monic([1, 0, 0, 0, 1], 3)] == expected

    def test_lc_divisible_rejected(self):
        with pytest.raises(BadPrimeError):
            degree_pattern(IntPoly([1, 0, 5]), 5)

    def test_randomized_against_brute_force(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            deg = rng.randint(1, 4)
            coeffs = [rng.randint(0, p - 1) for _ in range(deg)] + [1]
            if not gf_sqf_p(coeffs, p):
                continue
            got = [tuple(m) for m in gf_factor_sqf_monic(coeffs, p)]
            assert sorted(got) == brute_factor_mod_p(coeffs, p)
            checked += 1
        assert checked >= 15


class TestDegreePattern:
    def test_cubic_patterns_oracle(self):
        # x^3 - 2 splits as cube residues dictate: exhaustively factored,
        # mod 7 it stays irreducible (2 is not a cube), mod 5 it splits 1+2
        assert brute_factor_mod_p([-2, 0, 0, 1], 7) == [(5, 0, 0, 1)]
        assert degree_pattern(IntPoly([-2, 0, 0, 1]), 7) == (3,)
        assert [len(c) - 1 for c in brute_factor_mod_p([-2, 0, 0, 1], 5)] == [1, 2]
        assert degree_pattern(IntPoly([-2, 0, 0, 1]), 5) == (1, 2)

    def test_split_pattern(self):
        assert degree_pattern(IntPoly([2, -3, 1]), 5) == (1, 1)

    def test_non_squarefree_reduction_rejected(self):
        with pytest.raises(BadPrimeError):
            degree_pattern(IntPoly([1, 0, 1]), 2)


class TestPossibleDegrees:
    def test_single_full_degree(self):
        assert possible_degrees([(5,)], 5) == {0, 5}

    def test_spec_intersections(self):
        pats = [(2, 3), (1, 4)]
        assert possible_degrees(pats, 5) == {0, 5}
        pats = [(1, 1, 2), (2, 2)]
        assert possible_degrees(pats, 4) == {0, 2, 4}


def modular_factors(f: IntPoly, p: int) -> list:
    return gf_factor_sqf_monic(gf_monic(gf_from_int(f.coeffs, p), p), p)


class TestHenselLift:
    """`_hensel_lift_list(p, f, factors, l)` lifts to factors mod p**l."""

    def test_exact_integer_factors(self):
        f = IntPoly([-1, 0, 1])
        lifted = _hensel_lift_list(3, list(f.coeffs), modular_factors(f, 3), 5)
        assert sorted(tuple(g) for g in lifted) == [(-1, 1), (1, 1)]

    def test_sqrt7_congruence_at_k5(self):
        f = IntPoly([-7, 0, 1])
        lifted = _hensel_lift_list(3, list(f.coeffs), modular_factors(f, 3), 5)
        assert len(lifted) == 2
        prod = IntPoly(lifted[0]) * IntPoly(lifted[1])
        m = 3 ** 5
        assert all((a - b) % m == 0 for a, b in zip(prod.coeffs, f.coeffs))

    def test_irreducible_image_lifts_to_self(self):
        f = IntPoly([1, 1, 1])  # irreducible mod 5
        mods = modular_factors(f, 5)
        assert len(mods) == 1
        lifted = _hensel_lift_list(5, list(f.coeffs), mods, 2)
        assert IntPoly(lifted[0]) == f

    def test_bad_factor_data_rejected(self):
        f = IntPoly([-1, 0, 1])
        with pytest.raises(ValueError):
            _hensel_lift_list(3, list(f.coeffs), [[1, 1], [1, 1]], 5)


class TestFactorOverQ:
    def test_difference_of_squares(self):
        fac = factor_over_q(RatPoly([-1, 0, 1]))
        assert [g.coeffs for g in fac] == [(-1, 1), (1, 1)]

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            factor_over_q(parse_poly("(x-1)^2*(x+2)"))
        with pytest.raises(ValueError):
            factor_over_q(parse_poly("3/2*(x-1)^2*(x+2)"))

    def test_content_dropped(self):
        # 3/2 * (x - 1)(x + 2): the factors of the primitive part
        fac = factor_over_q(parse_poly("3/2*(x-1)*(x+2)"))
        assert [g.coeffs for g in fac] == [(-1, 1), (2, 1)]
        assert factor_over_q(RatPoly([Fraction(-5, 3)])) == ()

    def test_non_monic_content(self):
        f = RatPoly([2, 7, 6])  # (2x + 1)(3x + 2) = 6x^2 + 7x + 2
        fac = factor_over_q(f)
        assert fac[0] * fac[1] == f.to_int()[1]
        assert all(g.lc > 0 and g == g.primitive() for g in fac)

    def test_roundtrip_random_products(self):
        rng = random.Random(101)
        for _ in range(8):
            parts = []
            while len(parts) < rng.randint(2, 5):
                d = rng.randint(1, 8)
                g = RatPoly([rng.randint(-100, 100) for _ in range(d)] + [rng.randint(1, 100)])
                if g.degree < 1 or not is_irreducible_over_q(g):
                    continue
                gi = g.to_int()[1]
                if gi not in parts:
                    parts.append(gi)
            fac = factor_over_q(math.prod(parts, start=IntPoly([1])).to_rat())
            assert sorted(g.coeffs for g in fac) == sorted(g.coeffs for g in parts)

    def test_degrees_within_possible_degrees(self):
        rng = random.Random(55)
        for _ in range(6):
            f = random_squarefree_poly(rng, rng.randint(2, 9))
            F = f.to_int()[1]
            pats = []
            p = F.degree + 1
            from rankcert.factorq import _primes_from

            for q in _primes_from(F.degree + 1):
                try:
                    pats.append(degree_pattern(F, q))
                except BadPrimeError:
                    continue
                if len(pats) == 3:
                    break
            allowed = possible_degrees(pats, F.degree)
            for d in (g.degree for g in factor_over_q(f)):
                assert d in allowed

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_over_q(RatPoly())


class TestIrreducibility:
    def test_basics(self):
        assert is_irreducible_over_q(RatPoly([1, 0, 1]))
        assert not is_irreducible_over_q(RatPoly([-1, 0, 1]))
        assert is_irreducible_over_q(RatPoly([7, 1]))
        assert not is_irreducible_over_q(RatPoly([1, 2, 1]))  # (x + 1)^2

    def test_agrees_with_full_factorization(self):
        rng = random.Random(77)
        for _ in range(20):
            if rng.random() < 0.5:
                f = RatPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 20))] + [rng.randint(1, 30)])
            else:
                a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 10))] + [1])
                b = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 10))] + [1])
                f = (a * b).to_rat()
            if f.degree < 1:
                continue
            F = f.to_int()[1]
            expect = is_squarefree(F) and len(factor_over_q(f)) == 1
            assert is_irreducible_over_q(f) == expect


def test_rational_roots():
    f = parse_poly("(x^2-1)*(3*x+1)*(x^4+x^3+1)")
    assert rational_roots(f) == (Fraction(-1), Fraction(-1, 3), Fraction(1))


def test_rational_roots_of_the_squarefree_part():
    # (x - 1)^2 (3x + 1) (x^2 + 1)^3: each root once, whatever its multiplicity
    f = parse_poly("(x-1)^2*(3*x+1)*(x^2+1)^3")
    assert not is_squarefree(f.to_int()[1])
    assert rational_roots(f) == (Fraction(-1, 3), Fraction(1))
    assert rational_roots(RatPoly([0, 0, 0, 2])) == (Fraction(0),)
    assert rational_roots(RatPoly([7])) == ()
