import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

from rankcert.exactpoly import (
    IntPoly,
    RatPoly,
    _decimal,
    _read_decimal,
    _zmul,
    discriminant,
    format_poly,
    make_integral_monic,
    poly_digest,
    resultant,
)
from rankcert.factorq import is_squarefree


def gaussian_abs2(coeffs, re, im):
    """|f(re + i*im)|^2 for f = sum coeffs[k] x^k and rationals re, im, by
    Horner's rule in exact rational arithmetic."""
    vr = vi = Fraction(0)
    for c in reversed(coeffs):
        vr, vi = vr * re - vi * im + c, vr * im + vi * re
    return vr * vr + vi * vi


def sylvester_det(a, b):
    """Independent resultant oracle: expand the Sylvester determinant."""
    da, db = a.degree, b.degree
    n = da + db
    rows = []
    ac = list(reversed(a.coeffs))
    bc = list(reversed(b.coeffs))
    for i in range(db):
        rows.append([Fraction(0)] * i + ac + [Fraction(0)] * (n - da - 1 - i))
    for i in range(da):
        rows.append([Fraction(0)] * i + bc + [Fraction(0)] * (n - db - 1 - i))

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j, pivot in enumerate(m[0]):
            if pivot:
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                total += (-1) ** j * pivot * det(minor)
        return total

    return det(rows)


def schoolbook(f, g):
    """Reference product: the plain double loop over coefficient pairs."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _random_coeffs(rng, n, bits):
    """n signed coefficients of up to `bits` bits, about a fifth of them zero."""
    return [0 if rng.random() < 0.2 else rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]


class TestKroneckerProduct:
    def test_matches_schoolbook(self):
        rng = random.Random(20260)
        for _ in range(40):
            f = _random_coeffs(rng, rng.randint(0, 300), rng.choice((1, 7, 64, 200)))
            g = _random_coeffs(rng, rng.randint(0, 300), rng.choice((1, 7, 64, 200)))
            assert _zmul(f, g) == schoolbook(f, g)
        # both sides of the schoolbook crossover: every short length against
        # long ones, at each coefficient width
        for bits in (1, 8, 130, 600):
            for m in range(1, 13):
                for n in (1, 2, 3, 4, 5, 8, 13, 33, 70):
                    f, g = _random_coeffs(rng, m, bits), _random_coeffs(rng, n, bits)
                    assert _zmul(f, g) == schoolbook(f, g)
                    assert _zmul(g, f) == schoolbook(g, f)

    def test_edge_shapes(self):
        big = 1 << 200
        cases = [
            ([], [1, 2]),
            ([0], [5]),
            ([0, 0, 0], [-3, 4]),
            ([-big] * 300, [-big] * 300),
            ([big, -big, big], [-big, 0, 0, big]),
            ([1] + [0] * 299 + [-1], [-1]),
            ([-1] * 17, [1] * 300),
            ([0, 0, 0], [0] * 70),
            ([0, 1], [-big, 0, big] * 20),
            ([-(1 << 600), 0, 1 << 600], [(1 << 600) - 1] * 12),
            ([-255, 255, -255, 255], [255] * 70),
        ]
        for f, g in cases:
            assert _zmul(f, g) == schoolbook(f, g)
            assert _zmul(g, f) == schoolbook(g, f)

    def test_square_matches_schoolbook(self):
        rng = random.Random(7)
        for n in (1, 2, 31, 300):
            f = _random_coeffs(rng, n, 200)
            assert _zmul(f, f) == schoolbook(f, f)
        for bits in (1, 8, 130, 600):
            for n in range(1, 13):
                f = _random_coeffs(rng, n, bits)
                assert _zmul(f, f) == schoolbook(f, f)

    def test_poly_classes(self):
        rng = random.Random(3)
        for _ in range(10):
            a = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(rng.randint(0, 12))]
            b = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(rng.randint(0, 12))]
            ia = [int(c * 9) for c in a]
            ib = [int(c * 9) for c in b]
            assert IntPoly(ia) * IntPoly(ib) == IntPoly(schoolbook(ia, ib))


class TestPolyGcd:
    """`IntPoly.gcd`, the exact fallback of `factorq.is_squarefree`."""

    def test_common_root(self):
        a = IntPoly([-1, 0, 1])        # x^2 - 1
        b = IntPoly([1, -2, 1])        # (x - 1)^2
        assert a.gcd(b) == IntPoly([-1, 1])

    def test_gcd_with_zero(self):
        assert IntPoly([0, 0, 0, 2]).gcd(IntPoly()) == IntPoly([0, 0, 0, 1])
        assert IntPoly().gcd(IntPoly()) == IntPoly()

    def test_coprime_certified_by_sylvester(self):
        # oracle first: nonzero resultant forces gcd = 1
        a = RatPoly([1, 0, 1])
        b = RatPoly([1, 1, 1])
        assert sylvester_det(a, b) != 0
        assert a.to_int()[1].gcd(b.to_int()[1]) == IntPoly([1])

    def test_gcd_divides_both_exactly(self):
        rng = random.Random(11)
        for _ in range(25):
            a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
            b = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
            if a.is_zero or b.is_zero:
                continue
            g = a.gcd(b)
            assert a.exact_div(g) is not None
            assert b.exact_div(g) is not None

    def test_monic_output(self):
        # contents and signs drop out: the common factor x - 1 comes back
        # primitive with a positive leading coefficient
        g = IntPoly([4, 0, -4]).gcd(IntPoly([2, -4, 2]))
        assert g == IntPoly([-1, 1]) and g.lc == 1


class TestDiscriminant:
    def test_quadratic_formula(self):
        rng = random.Random(3)
        for _ in range(10):
            b, c = rng.randint(-20, 20), rng.randint(-20, 20)
            assert discriminant(RatPoly([c, b, 1])) == b * b - 4 * c
        assert discriminant(RatPoly([2, -3, 1])) == 1

    def test_depressed_cubic(self):
        # -4p^3 - 27q^2 with p = -1, q = 0
        assert discriminant(RatPoly([0, -1, 0, 1])) == 4

    def test_repeated_root_gives_zero(self):
        assert discriminant(RatPoly([1, -2, 1])) == 0

    def test_zero_iff_gcd_with_derivative(self):
        rng = random.Random(17)
        for _ in range(25):
            f = RatPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 7))])
            if f.degree < 1:
                continue
            assert (discriminant(f) == 0) == (not is_squarefree(f.to_int()[1]))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            discriminant(RatPoly([3]))


class TestResultant:
    def test_evaluation(self):
        assert resultant(RatPoly([-2, 1]), RatPoly([1, 0, 1])) == 5
        rng = random.Random(23)
        for _ in range(10):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            g = RatPoly([rng.randint(-9, 9) for _ in range(4)] + [1])
            assert resultant(RatPoly([-c, 1]), g) == g(c)

    def test_symmetry_sign(self):
        rng = random.Random(29)
        for _ in range(10):
            a = RatPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            b = RatPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            sign = (-1) ** (a.degree * b.degree)
            assert resultant(a, b) == sign * resultant(b, a)

    def test_sylvester_oracle(self):
        a = RatPoly([-2, 0, 1])
        b = RatPoly([-3, 0, 1])
        expected = sylvester_det(a, b)
        assert expected == 1
        assert resultant(a, b) == expected

    def test_sylvester_oracle_randomized(self):
        rng = random.Random(31)
        for _ in range(10):
            a = RatPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 4)])
            b = RatPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 4)])
            assert resultant(a, b) == sylvester_det(a, b)

    def test_multiplicative(self):
        rng = random.Random(37)
        for _ in range(10):
            a, b, c = (IntPoly([rng.randint(-4, 4) for _ in range(2)] + [1]) for _ in range(3))
            assert resultant((a * b).to_rat(), c.to_rat()) == (
                resultant(a.to_rat(), c.to_rat()) * resultant(b.to_rat(), c.to_rat())
            )

    def test_constant(self):
        # Res(c, g) = c^deg g and Res(f, c) = c^deg f, whatever the signs
        rng = random.Random(41)
        for _ in range(10):
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
            g = RatPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
                        + [Fraction(rng.choice([-3, -1, 2]), rng.randint(1, 5))])
            assert resultant(RatPoly([c]), g) == c ** g.degree
            assert resultant(g, RatPoly([c])) == c ** g.degree
        assert resultant(RatPoly([Fraction(-2, 3)]), RatPoly([5])) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resultant(RatPoly(), RatPoly([1, 1]))


class TestMakeIntegralMonic:
    def test_clears_leading_coefficient(self):
        g, s = make_integral_monic(RatPoly([-1, 0, 4]))
        assert g == IntPoly([-4, 0, 1])
        assert s == 4

    def test_identity_on_monic_integral(self):
        f = RatPoly([-3, 0, 1])
        g, s = make_integral_monic(f)
        assert g == IntPoly([-3, 0, 1])
        assert s == 1

    def test_rational_coefficients(self):
        g, s = make_integral_monic(RatPoly([-1, 0, Fraction(1, 3)]))
        assert g == IntPoly([-27, 0, 1])
        assert s == 3

    def test_root_correspondence_exactly(self):
        # g(y) must equal s^d * f(y/s) / lc(f) as polynomials
        rng = random.Random(41)
        for _ in range(15):
            f = RatPoly(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
                + [Fraction(rng.choice([-7, -2, 1, 3, 8]), rng.randint(1, 4))]
            )
            d = f.degree
            g, s = make_integral_monic(f)
            composed = RatPoly([c * s ** (d - i) / f.lc for i, c in enumerate(f.coeffs)])
            assert composed == g.to_rat()

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            make_integral_monic(RatPoly([5]))

    def test_matches_the_fraction_formula(self):
        def reference(f):
            # g_i = s^(d-i) f_i / lc(f), s = den * |lc of den * f|
            d = f.degree
            den = math.lcm(*(c.denominator for c in f.coeffs))
            s = den * abs(int(f.lc * den))
            g = [c / f.lc * Fraction(s) ** (d - i) for i, c in enumerate(f.coeffs)]
            assert all(v.denominator == 1 for v in g)
            return IntPoly(int(v) for v in g), Fraction(s)

        rng = random.Random(2501)
        cases = [
            RatPoly([Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(d)]
                    + [Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 9))])
            for d in range(1, 11)
            for _ in range(4)
        ]
        cases += [
            RatPoly([Fraction(10**1500, 7), 0, -1, Fraction(-5, 3)]),
            RatPoly([1, Fraction(-2, 3), -(10**1500)]),
            RatPoly([-1, Fraction(1, 10**1500)]),
        ]
        assert any(f.lc < 0 for f in cases) and any(f.lc.denominator > 1 for f in cases)
        for f in cases:
            assert make_integral_monic(f) == reference(f)

    def test_certified_roots_map_back(self):
        # each certified root ball beta of g satisfies f(beta/scale) ~ 0:
        # |f|^2 at the midpoint, in exact rational arithmetic
        from rankcert.certroots import isolate_roots

        bound = Fraction(1, 2 ** 180)
        rng = random.Random(47)
        tried = 0
        for _ in range(5):
            f = RatPoly(
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
                + [Fraction(rng.randint(1, 5), rng.randint(1, 3))]
            )
            if not is_squarefree(f.to_int()[1]):
                continue
            g, s = make_integral_monic(f)
            iso = isolate_roots(g, 128)
            for b in iso.balls:
                re, im = Fraction(b.re, 2 ** b.prec), Fraction(b.im, 2 ** b.prec)
                assert gaussian_abs2(f.coeffs, re / s, im / s) < bound
                # the bound rejects a midpoint moved by 2^-40
                moved = re + Fraction(1, 2 ** 40)
                assert gaussian_abs2(f.coeffs, moved / s, im / s) >= bound
                tried += 1
        assert tried


class TestPolyRecord:
    """The members `RatPoly` and `IntPoly` share."""

    def test_equality_holds_within_one_class(self):
        assert RatPoly([1]) != IntPoly([1])
        assert IntPoly([1]) != RatPoly([1])
        assert not RatPoly([1]) == IntPoly([1])
        assert RatPoly([1]) != (Fraction(1),)
        assert RatPoly([1, 2, 0]) == RatPoly([Fraction(1), Fraction(2)])
        assert IntPoly([1, 2, 0]) == IntPoly([1, 2])

    def test_equal_polynomials_hash_equal(self):
        assert hash(RatPoly([1, Fraction(1, 2), 0])) == hash(RatPoly([1, Fraction(1, 2)]))
        assert hash(IntPoly([3, 0, -1, 0])) == hash(IntPoly((3, 0, -1)))
        assert hash(RatPoly()) == hash(RatPoly([0, 0]))
        assert len({RatPoly([1, 2]), RatPoly([1, 2, 0]), IntPoly([1, 2]), IntPoly([1, 2])}) == 2

    def test_text(self):
        assert repr(RatPoly([1, Fraction(-3, 2), 1])) == "RatPoly('x^2 - 3/2*x + 1')"
        assert repr(IntPoly([-4, 0, 1])) == "IntPoly('x^2 - 4')"
        assert repr(RatPoly()) == "RatPoly('0')"
        assert repr(IntPoly([0, 0])) == "IntPoly('0')"
        assert str(IntPoly([0, -1, 0, 5])) == "5*x^3 - x"
        assert str(RatPoly([Fraction(-1, 3)])) == "-1/3"

    def test_truth(self):
        assert not RatPoly() and not RatPoly([0]) and not IntPoly() and not IntPoly([0, 0])
        assert RatPoly([0, Fraction(1, 2)]) and IntPoly([-1])

    def test_zero_polynomial(self):
        assert RatPoly().lc == 0 and type(RatPoly().lc) is Fraction
        assert IntPoly().lc == 0 and type(IntPoly().lc) is int
        assert RatPoly().degree == IntPoly().degree == -1
        assert RatPoly().is_zero and IntPoly([0]).is_zero and not IntPoly([2]).is_zero

    def test_derivative_keeps_the_class(self):
        d = RatPoly([5, Fraction(1, 2), 0, 3]).derivative()
        assert type(d) is RatPoly
        assert d.coeffs == (Fraction(1, 2), 0, 9)
        assert all(type(c) is Fraction for c in d.coeffs)
        d = IntPoly([5, 2, 0, -3]).derivative()
        assert type(d) is IntPoly
        assert d.coeffs == (2, 0, -9)
        assert all(type(c) is int for c in d.coeffs)
        assert RatPoly([7]).derivative() == RatPoly()
        assert IntPoly([7]).derivative() == IntPoly()
        assert IntPoly().derivative() == IntPoly()

    def test_to_int_splits_off_a_signed_content(self):
        assert RatPoly([Fraction(-6, 5), Fraction(3, 7)]).to_int() == (
            Fraction(3, 35), IntPoly([-14, 5])
        )
        assert RatPoly([2, -4]).to_int() == (Fraction(-2), IntPoly([-1, 2]))
        assert RatPoly().to_int() == (Fraction(0), IntPoly())
        rng = random.Random(2502)
        for _ in range(30):
            f = RatPoly([Fraction(rng.randint(-40, 40), rng.randint(1, 15))
                         for _ in range(rng.randint(1, 9))])
            if f.is_zero:
                continue
            content, prim = f.to_int()
            assert type(content) is Fraction
            assert prim.lc > 0 and prim.primitive() == prim
            assert RatPoly(content * c for c in prim.coeffs) == f


class TestFormatting:
    def test_normal_form(self):
        assert str(RatPoly([1, Fraction(-3, 2), 1])) == "x^2 - 3/2*x + 1"
        assert str(RatPoly([1, 1, 0, 0, 0, 0, 1])) == "x^6 + x + 1"
        assert str(RatPoly()) == "0"
        assert str(RatPoly([0, -1])) == "-x"
        assert format_poly([0, 2, 1], var="t") == "t^2 + 2*t"

    def test_past_the_str_digit_limit(self):
        # Python's int-to-str conversion stops at 4300 digits by default;
        # digests and text must not, and must not change the setting
        rng = random.Random(3)
        big = rng.randrange(10**4999, 10**5000)
        coeffs = [-big, 7, Fraction(big, big + 2), 1]
        digest, text = poly_digest(coeffs), format_poly(coeffs)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            payload = "deg:3;" + ",".join(str(c) for c in coeffs)
            expected = "x^3 + %s*x^2 + 7*x - %s" % (Fraction(big, big + 2), big)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert digest == hashlib.sha256(payload.encode("ascii")).hexdigest()
        assert text == expected

    def test_read_decimal_inverts_decimal(self):
        rng = random.Random(4)
        for digits in (1, 600, 601, 1200, 4301, 9000):
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            for v in (n, -n, 10 ** (digits - 1), 10**digits - 1):
                assert _read_decimal(_decimal(v)) == v
        assert _read_decimal("0" * 5000 + "12") == 12
        for text in ("", "-", "--5", "+5", "1_000", "1e3", " 5", "5" * 700 + "x"):
            with pytest.raises(ValueError, match="is not an integer written in decimal"):
                _read_decimal(text)

    def test_intpoly_content(self):
        p = IntPoly([6, -9, 12])
        assert p.primitive() == IntPoly([2, -3, 4])
        assert p == IntPoly([3]) * p.primitive()
        assert IntPoly([-2, -4]).primitive() == IntPoly([1, 2])

    def test_exact_div(self):
        a = IntPoly([2, 3, 1])  # (x+1)(x+2)
        assert a.exact_div(IntPoly([1, 1])) == IntPoly([2, 1])
        assert a.exact_div(IntPoly([5, 1])) is None
        # a leading coefficient that does not divide, and the zero divisor
        assert IntPoly([1, 0, 2]).exact_div(IntPoly([1, 3])) is None
        assert IntPoly([1, 2]).exact_div(IntPoly([])) is None
