import itertools
import random
from fractions import Fraction

import pytest

from rankcert.exactpoly import IntPoly, RatPoly
from rankcert.factorq import (
    BadPrimeError,
    degree_pattern,
    factor_over_q,
    _FixedModulus,
    _hensel_lift_list,
    gf_factor_sqf_monic,
    gf_from_int,
    gf_monic,
    gf_mul,
    gf_rem,
    gf_sqf_p,
    gf_strip,
    is_irreducible_over_q,
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
        assert all(c % m == 0 for c in (prod - f).coeffs)

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
        assert fac.unit == 1
        assert [(g.coeffs, m) for g, m in fac.factors] == [((-1, 1), 1), ((1, 1), 1)]

    def test_unit_and_multiplicity(self):
        f = RatPoly([-1, 1]) ** 2 * RatPoly([2, 1]) * Fraction(3, 2)
        fac = factor_over_q(f)
        assert fac.unit == Fraction(3, 2)
        assert [(g.coeffs, m) for g, m in fac.factors] == [((-1, 1), 2), ((2, 1), 1)]
        assert fac.expand() == f

    def test_non_monic_content(self):
        f = RatPoly([2, 7, 6])  # (2x + 3)(3x + 2) / ... = 6x^2 + 7x + 2
        fac = factor_over_q(f)
        assert fac.expand() == f
        assert all(g.lc > 0 and g == g.primitive() for g, _ in fac.factors)

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
            prod = RatPoly.one()
            for g in parts:
                prod = prod * g.to_rat()
            fac = factor_over_q(prod)
            got = sorted(g.coeffs for g, m in fac.factors for _ in range(m))
            assert got == sorted(g.coeffs for g in parts)

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
            for d in factor_over_q(f).degrees():
                assert d in allowed

    def test_multiplicities_recovered(self):
        rng = random.Random(909)
        for _ in range(6):
            parts = []
            while len(parts) < rng.randint(2, 3):
                d = rng.randint(1, 4)
                g = RatPoly([rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 9)])
                if g.degree < 1 or not is_irreducible_over_q(g):
                    continue
                gi = g.to_int()[1]
                if all(gi != other for other, _ in parts):
                    parts.append((gi, rng.randint(1, 4)))
            prod = RatPoly.one()
            for g, mult in parts:
                prod = prod * g.to_rat() ** mult
            fac = factor_over_q(prod)
            assert sorted((g.coeffs, m) for g, m in fac.factors) == sorted(
                (g.coeffs, m) for g, m in parts
            )

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_over_q(RatPoly())


class TestIrreducibility:
    def test_basics(self):
        assert is_irreducible_over_q(RatPoly([1, 0, 1]))
        assert not is_irreducible_over_q(RatPoly([-1, 0, 1]))
        assert is_irreducible_over_q(RatPoly([7, 1]))
        assert not is_irreducible_over_q(RatPoly([1, 2, 1]))

    def test_agrees_with_full_factorization(self):
        rng = random.Random(77)
        for _ in range(20):
            if rng.random() < 0.5:
                f = RatPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 20))] + [rng.randint(1, 30)])
            else:
                a = RatPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 10))] + [1])
                b = RatPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 10))] + [1])
                f = a * b
            if f.degree < 1:
                continue
            fac = factor_over_q(f)
            expect = len(fac.factors) == 1 and fac.factors[0][1] == 1
            assert is_irreducible_over_q(f) == expect


def test_rational_roots():
    f = RatPoly([-1, 0, 1]) * RatPoly([1, 3]) * RatPoly([1, 0, 0, 1, 1])
    assert rational_roots(f) == (Fraction(-1), Fraction(-1, 3), Fraction(1))
