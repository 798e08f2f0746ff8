import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from rankcert import factorq
from rankcert.cli import main, parse_poly
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

    # p = 2, 3, a mid prime and one above 2^16
    SPREAD = (2, 3, 1009, 65537)

    def test_ddf_matches_a_schoolbook_split(self):
        # seeded squarefree f of degree 2-12 over primes 2-1009, then one of
        # each degree 13-70 over the spread of primes: the packed Frobenius
        # rows and the blocks of steps split f as plain square-and-multiply
        # and one gcd per step do
        rng = random.Random(1009)
        cases = []
        while len(cases) < 300:
            p = rng.choice(self.PRIMES)
            f = [rng.randrange(p) for _ in range(rng.randint(2, 12))] + [1]
            if gf_sqf_p(f, p):
                cases.append((f, p))
        for n in range(13, 71):
            p = self.SPREAD[n % 4]
            while True:
                f = [rng.randrange(p) for _ in range(n)] + [1]
                if gf_sqf_p(f, p):
                    break
            cases.append((f, p))
        assert {len(f) - 1 for f, _ in cases} == set(range(2, 71))
        assert {p for _, p in cases} >= set(self.SPREAD)
        for f, p in cases:
            assert gf_ddf(f, p) == _schoolbook_ddf(f, p), (f, p)

    @staticmethod
    def _irreducible_mod_p(rng, d, p, taken):
        while True:
            g = [rng.randrange(p) for _ in range(d)] + [1]
            if _schoolbook_ddf(g, p) == [(g, d)] and g not in taken:
                taken.append(g)
                return g

    # factor degrees; a block holds floor(sqrt(n)) steps, so a block edge
    # lies after step 5 at n = 25-35, after step 6 at n = 36-48 and after
    # step 7 at n = 49-63
    BUILT = (
        (5, 6, 7, 9),  # n = 27: 6, 7 and 9 in the block 6-10, 5 and 6 across its edge
        (1, 1, 2, 3, 3, 5, 10),  # n = 25: five factors in the first block, two of degree 3
        (6, 6, 7, 8, 9, 10),  # n = 46: all six in the block 7-12 or across its lower edge
        (2, 7, 7, 8, 11, 16),  # n = 51: 7 and 8 across an edge, 16 left after the blocks
        (4, 4, 4, 5),  # n = 17: three factors of the first block's last degree, then a 5
    )

    def test_ddf_blocks_split_as_steps_do(self):
        # several factors inside one block, a factor on each side of a block
        # edge: every split is the step-by-step one
        rng = random.Random(2027)
        for degrees in self.BUILT:
            for p in self.SPREAD:
                taken = []
                f = [1]
                for d in degrees:
                    f = gf_mul(f, self._irreducible_mod_p(rng, d, p, taken), p)
                got = gf_ddf(f, p)
                assert got == _schoolbook_ddf(f, p), (degrees, p)
                assert sorted(d for g, d in got for _ in range((len(g) - 1) // d)) == list(degrees)


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

    def test_ladder_ends_at_every_exponent(self):
        # l = 1-40 takes in every 2^j and 2^j + 1 up to 33: the lifts are
        # monic, reduce to the modular factors, multiply back to f mod p^l,
        # and are the lifts to p^(2l) cut down to p^l
        # lc 6; squarefree mod 5 (degrees 1, 1, 5) and mod 17 (1, 1, 2, 3)
        f = IntPoly([5, -3, 7, 0, 2, 1, -4, 6])
        for p in (5, 17):
            mods = modular_factors(f, p)
            assert len(mods) >= 3
            for l in range(1, 41):
                pl = p ** l
                lifted = _hensel_lift_list(p, list(f.coeffs), mods, l)
                assert [g[-1] for g in lifted] == [1] * len(mods)
                assert [gf_from_int(g, p) for g in lifted] == mods
                prod = math.prod(map(IntPoly, lifted), start=IntPoly([f.lc]))
                assert all((a - b) % pl == 0 for a, b in zip(prod.coeffs, f.coeffs))
                twice = _hensel_lift_list(p, list(f.coeffs), mods, 2 * l)
                assert lifted == [factorq._ztrunc(g, pl) for g in twice], (p, l)

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


def _swinnerton_dyer(primes) -> IntPoly:
    """The product of x - sum(+-sqrt(q)) over all sign choices, built one
    prime q at a time: P(x + sqrt q) = A + B sqrt q by Horner, and
    P(x + sqrt q) P(x - sqrt q) = A^2 - q B^2."""
    P = IntPoly([0, 1])
    for q in primes:
        A, B = [], []
        for c in reversed(P.coeffs):
            # (A + B sqrt q)(x + sqrt q) + c
            A, B = _zsum([0] + A, [q * b for b in B], [c]), _zsum([0] + B, A)
        P = IntPoly(_zsum(schoolbook(A, A), [-q * v for v in schoolbook(B, B)]))
    return P


def _zsum(*polys):
    out = [0] * max(map(len, polys))
    for f in polys:
        for i, c in enumerate(f):
            out[i] += c
    return gf_strip(out)


class TestRecombination:
    """The d-1 test rejects subsets before their product is built, and never
    a true factor."""

    def test_swinnerton_dyer_comes_back_with_few_trial_divisions(self, monkeypatch):
        # degree 32 and irreducible, while every reduction splits into
        # factors of degree <= 2: the subset search runs to its end
        F = _swinnerton_dyer((2, 3, 5, 7, 11))
        assert F.degree == 32 and F.lc == 1
        divisions = []
        exact_div = IntPoly.exact_div

        def counted(self, other):
            divisions.append(other.degree)
            return exact_div(self, other)

        monkeypatch.setattr(IntPoly, "exact_div", counted)
        assert factorq._zassenhaus(F) == [F]
        assert len(divisions) <= 32

    @staticmethod
    def _irreducible_over_z(rng, d, bits):
        """A primitive irreducible polynomial of degree d with lc >= 2 and
        coefficients of up to ``bits`` bits: a prime at which it stays
        irreducible proves it."""
        while True:
            coeffs = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(d)]
            g = IntPoly(coeffs + [rng.randrange(2, 1 << bits)]).primitive()
            if g.degree != d or g.lc < 2:
                continue
            for q in itertools.islice(factorq._primes_from(d + 1), 40):
                try:
                    if degree_pattern(g, q) == (d,):
                        return g
                except BadPrimeError:
                    continue

    def test_roots_far_inside_the_unit_circle(self):
        # a large leading coefficient makes the root bound exponent negative
        parts = [IntPoly([-1, 1000]), IntPoly([3, 1000]), IntPoly([1, 0, 10 ** 6])]
        F = math.prod(parts, start=IntPoly([1]))
        assert factorq._root_bound_exponent(F) < 0
        assert sorted(g.coeffs for g in factor_over_q(F.to_rat())) == sorted(g.coeffs for g in parts)

    def test_known_factors_at_every_prime(self):
        # seeded products of 2-4 irreducible factors with non-unit leading
        # coefficients and 30-200-bit coefficients, factored at every usable
        # prime up to 50
        rng = random.Random(4099)
        for _ in range(4):
            parts = []
            while len(parts) < rng.randint(2, 4):
                g = self._irreducible_over_z(rng, rng.randint(1, 6), rng.randint(30, 200))
                if g not in parts:
                    parts.append(g)
            F = math.prod(parts, start=IntPoly([1]))
            every = frozenset(range(F.degree + 1))
            usable = [
                p for p in range(2, 51)
                if factorq._is_prime(p) and F.lc % p and gf_sqf_p(gf_from_int(F.coeffs, p), p)
            ]
            assert len(usable) >= 5
            for p in usable:
                got = factorq._zassenhaus(F, every, p)
                assert sorted(g.coeffs for g in got) == sorted(g.coeffs for g in parts), p


# the --json stdout of a curve whose j2 orbits are 5, 10, 40, 80 and 120,
# recorded before the d-1 test, when the command took 12-14 s
HEAVY_RECOMBINATION = "f93fb756de1aba48583f6527763a8bd4e75c0e5f6078667c1f845203042697a5"


def test_heavy_recombination_keeps_its_bytes(capsys):
    code = main(["certify", "hyperelliptic", "--f", "(x^2-x)^5+(x^2-x)^2+2", "--full-criterion", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["orbits"]["j2"] == [5, 10, 40, 80, 120]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HEAVY_RECOMBINATION


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


def test_reductions_skip_primes_dividing_a_leading_coefficient():
    # mod 5 the lc of (5x - 1)^2 (x + 2) vanishes and leaves the squarefree
    # x + 2, and 5x - 1 becomes a unit: 5 is the one prime whose reduction
    # passes either check, so both must skip it and stay inconclusive
    a = IntPoly([-1, 5])
    assert factorq.squarefree_by_reduction(a * a * IntPoly([2, 1])) is None
    assert factorq.coprime_by_reduction(a, a * IntPoly([3, 1])) is None
    assert factorq.squarefree_by_reduction(a * IntPoly([2, 1])) is True
    assert factorq.coprime_by_reduction(a, IntPoly([2, 1])) is True
