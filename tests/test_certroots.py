import math
import random
from fractions import Fraction

import pytest

from rankcert.certroots import (
    ComplexBall,
    Mag,
    ball_sum,
    eval_poly_ball,
    isolate_roots,
    snap_to_integer,
)
from rankcert.exactpoly import IntPoly

from conftest import random_monic_squarefree


class TestMag:
    def test_round_up(self):
        big = (1 << 40) + 1
        m = Mag(big)
        assert m.to_fraction() >= big

    def test_add_upper_bound(self):
        a, b = Mag(3, -5), Mag(7, -89)
        assert a.add(b).to_fraction() >= a.to_fraction() + b.to_fraction()

    def test_mul_upper_bound(self):
        a, b = Mag((1 << 32) - 1, 3), Mag((1 << 32) - 5, -700)
        assert a.mul(b).to_fraction() >= a.to_fraction() * b.to_fraction()

    def test_div_upper_bound(self):
        a = Mag(12345, -40)
        q = a.div_by(789, -11)
        assert q.to_fraction() >= a.to_fraction() / (789 * Fraction(1, 2 ** 11))
        # and not absurdly loose
        assert q.to_fraction() <= a.to_fraction() / (789 * Fraction(1, 2 ** 11)) * Fraction(11, 10)


class TestBallArithmetic:
    def test_exact_sum(self):
        prec = 64
        a = ComplexBall(1 << prec, 2 << prec, prec, Mag.zero())
        b = ComplexBall(3 << prec, -(2 << prec), prec, Mag.zero())
        s = ball_sum([a, b])
        assert (s.re >> prec, s.im) == (4, 0)
        assert s.rad.is_zero

    def test_zero_annihilates(self):
        prec = 64
        z = ComplexBall.exact_int(0, prec)
        w = ComplexBall(3 << prec, 5 << prec, prec, Mag(7, -30))
        assert z.mul(w).is_exact_zero

    def test_sum_radius_additivity(self):
        prec = 96
        r = Mag(5, -60)
        balls = [ComplexBall(1 << prec, 0, prec, r) for _ in range(7)]
        s = ball_sum(balls)
        assert s.re >> prec == 7
        assert s.rad.to_fraction() >= 7 * r.to_fraction()

    def test_mul_containment(self):
        # |true product - midpoint| <= radius for sampled true values
        prec = 80
        rng = random.Random(9)
        for _ in range(20):
            ar, ai = rng.randint(-99, 99), rng.randint(-99, 99)
            br, bi = rng.randint(-99, 99), rng.randint(-99, 99)
            a = ComplexBall(ar << prec, ai << prec, prec, Mag(1, -70))
            b = ComplexBall(br << prec, bi << prec, prec, Mag(1, -70))
            p = a.mul(b)
            true = complex(ar, ai) * complex(br, bi)
            mid = complex(p.re / 2 ** prec, p.im / 2 ** prec)
            assert abs(true - mid) <= float(p.rad.to_fraction()) + 1e-12


class TestSnap:
    def test_near_integer(self):
        # mirrors ball(2.9999 + 0.00001i, ~0.001)
        prec = 100
        b = ComplexBall(
            3 * (1 << prec) - (1 << prec) // 10000,
            (1 << prec) // 100000,
            prec,
            Mag(1, -10),
        )
        assert snap_to_integer(b) == 3

    def test_no_integer_in_interval(self):
        prec = 100
        b = ComplexBall(5 << (prec - 1), 0, prec, Mag(13107, -16))  # 2.5 += ~0.2
        assert snap_to_integer(b) is None

    def test_two_integers_in_interval(self):
        prec = 100
        b = ComplexBall(5 << (prec - 1), 0, prec, Mag(39322, -16))  # 2.5 += ~0.6
        assert snap_to_integer(b) is None

    def test_imaginary_blocks(self):
        prec = 100
        b = ComplexBall(3 << prec, 1 << (prec - 1), prec, Mag(1, -50))
        assert snap_to_integer(b) is None


class TestIsolateRoots:
    def test_gaussian_units(self):
        iso = isolate_roots(IntPoly([1, 0, 1]), 128)
        assert len(iso.balls) == 2
        for b in iso.balls:
            assert b.rad.to_fraction() < Fraction(1, 2 ** 50)
            assert abs(abs(Fraction(b.im, 2 ** b.prec)) - 1) < Fraction(1, 2 ** 40)

    def test_integer_roots_snap(self):
        iso = isolate_roots(IntPoly([-6, 11, -6, 1]), 128)
        assert [snap_to_integer(b) for b in iso.balls] == [1, 2, 3]

    def test_containment(self):
        for coeffs in ([1, 0, 1], [-6, 11, -6, 1], [1, -1, 0, 0, 0, 1], [3, 0, -2, 0, 1]):
            f = IntPoly(coeffs)
            iso = isolate_roots(f, 128)
            for b in iso.balls:
                assert eval_poly_ball(f, b).contains_zero()

    def test_disjointness(self):
        iso = isolate_roots(IntPoly([1, -1, 0, 0, 0, 1]), 128)
        balls = iso.balls
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                d2 = (balls[i].re - balls[j].re) ** 2 + (balls[i].im - balls[j].im) ** 2
                rsum = balls[i].rad.add(balls[j].rad).to_fraction()
                assert Fraction(d2, 1 << (2 * balls[i].prec)) > rsum * rsum

    def test_quintic_structure_against_numpy(self):
        import numpy as np

        f = IntPoly([1, -1, 0, 0, 0, 1])
        iso = isolate_roots(f, 128)
        reals = sum(1 for b in iso.balls if b.im == 0 or snap_real(b))
        got = sorted(
            (round(b.re / 2 ** b.prec, 8), round(b.im / 2 ** b.prec, 8)) for b in iso.balls
        )
        want = sorted(
            (round(z.real, 8), round(z.imag, 8))
            for z in np.roots([1, 0, 0, 0, -1, 1])
        )
        for (gr, gi), (wr, wi) in zip(got, want):
            assert math.isclose(gr, wr, abs_tol=1e-7)
            assert math.isclose(gi, wi, abs_tol=1e-7)

    def test_conjugation_closure(self):
        iso = isolate_roots(IntPoly([1, -1, 0, 0, 0, 1]), 128)
        mids = sorted((b.re, b.im) for b in iso.balls)
        conj = sorted((b.re, -b.im) for b in iso.balls)
        for (ar, ai), (br, bi) in zip(mids, conj):
            assert abs(ar - br) <= 2 and abs(ai - bi) <= 2

    def test_monotone_refinement(self):
        for coeffs in ([1, 0, 1], [1, -1, 0, 0, 0, 1]):
            lo = isolate_roots(IntPoly(coeffs), 128)
            hi = isolate_roots(IntPoly(coeffs), 256)
            max_lo = max(b.rad.to_fraction() for b in lo.balls)
            max_hi = max(b.rad.to_fraction() for b in hi.balls)
            assert max_hi <= max_lo

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            isolate_roots(IntPoly([1, 2, 1]), 128)  # (x+1)^2
        with pytest.raises(ValueError):
            isolate_roots(IntPoly([1, 0, 2]), 128)  # not monic
        with pytest.raises(ValueError):
            isolate_roots(IntPoly([5]), 128)

    def test_random_monic_squarefree(self):
        rng = random.Random(13)
        for _ in range(6):
            f = random_monic_squarefree(rng, rng.randint(2, 8)).to_int()[1]
            iso = isolate_roots(f, 128)
            assert len(iso.balls) == f.degree
            for b in iso.balls:
                assert eval_poly_ball(f, b).contains_zero()


def snap_real(b):
    return abs(b.im) <= (1 << max(b.prec - 40, 0))
