import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from rankcert import certroots, weierstrass
from rankcert.certroots import (
    ComplexBall,
    isolate_roots,
    pairwise_disjoint,
    root_product,
    snap_to_integer,
)
from rankcert.cli import parse_poly
from rankcert.exactpoly import IntPoly
from rankcert.factorq import is_squarefree
from rankcert.weierstrass import build_curve, enumerate_j2_classes, enumerate_theta_classes

from conftest import random_monic_squarefree, resolvents
from test_exactpoly import schoolbook
from test_labeling_gate import RECORDED as LABELLING_GATE


def durand_kerner(coeffs, steps=200):
    """The complex roots of the monic polynomial sum coeffs[k] x^k in double
    precision: Durand-Kerner iteration from the powers of 0.4+0.9j.  A
    reference that shares no code with `certroots`."""
    d = len(coeffs) - 1

    def value(z):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    zs = [(0.4 + 0.9j) ** k for k in range(d)]
    for _ in range(steps):
        for i, z in enumerate(zs):
            others = 1
            for j, w in enumerate(zs):
                if j != i:
                    others *= z - w
            zs[i] = z - value(z) / others
    return zs


def match_roots(points, roots, tol):
    """Whether the points and the roots pair off one to one, each point
    within tol of its root."""
    left = list(roots)
    for z in points:
        near = min(left, key=lambda r: abs(r - z))
        if abs(near - z) >= tol:
            return False
        left.remove(near)
    return not left


def ball_sum(balls):
    acc = balls[0]
    for b in balls[1:]:
        acc = acc.add(b)
    return acc


def eval_ball(f, b):
    """Horner evaluation of an integer polynomial on a ball."""
    acc = ComplexBall(0, 0, b.prec)
    for c in reversed(f.coeffs):
        acc = acc.mul(b).add(ComplexBall(c << b.prec, 0, b.prec))
    return acc


def point_in(rng, b):
    """A Gaussian rational (re, im) in the closed disk of the ball."""
    while True:
        u, v = Fraction(rng.randint(-64, 64), 64), Fraction(rng.randint(-64, 64), 64)
        if u * u + v * v <= 1:
            scale = Fraction(1, 1 << b.prec)
            return (b.re + u * b.rad) * scale, (b.im + v * b.rad) * scale


def inside(value, b):
    """Is the Gaussian rational (re, im) in the closed disk of the ball?"""
    dr = value[0] * (1 << b.prec) - b.re
    di = value[1] * (1 << b.prec) - b.im
    return dr * dr + di * di <= b.rad * b.rad


def radius(b):
    return Fraction(b.rad, 1 << b.prec)


class TestBallArithmetic:
    def test_exact_sum(self):
        prec = 64
        a = ComplexBall(1 << prec, 2 << prec, prec)
        b = ComplexBall(3 << prec, -(2 << prec), prec)
        s = ball_sum([a, b])
        assert (s.re >> prec, s.im) == (4, 0)
        assert s.rad == 0

    def test_zero_annihilates(self):
        # the product with an exact zero is centred on zero, and its radius
        # is the propagated bound (under one ulp here) plus the truncation
        prec = 64
        z = ComplexBall(0, 0, prec)
        w = ComplexBall(3 << prec, 5 << prec, prec, 7 << 34)
        p = z.mul(w)
        assert (p.re, p.im) == (0, 0)
        assert p.rad <= 3
        assert p.contains_zero()

    def test_sum_radius_additivity(self):
        prec = 96
        r = 5 << 36
        balls = [ComplexBall(1 << prec, 0, prec, r) for _ in range(7)]
        s = ball_sum(balls)
        assert s.re >> prec == 7
        assert s.rad == 7 * r

    def test_mul_containment(self):
        # every product of points drawn from the two balls lies in the
        # product ball, checked exactly
        prec = 80
        rng = random.Random(9)
        for _ in range(20):
            a = ComplexBall(
                rng.randint(-99 << prec, 99 << prec), rng.randint(-99 << prec, 99 << prec),
                prec, rng.choice([0, 1, 1 << 10, rng.randint(0, 1 << 60)]),
            )
            b = ComplexBall(
                rng.randint(-99 << prec, 99 << prec), rng.randint(-99 << prec, 99 << prec),
                prec, rng.choice([0, 1, 1 << 10, rng.randint(0, 1 << 60)]),
            )
            p = a.mul(b)
            for _ in range(5):
                (xr, xi), (yr, yi) = point_in(rng, a), point_in(rng, b)
                assert inside((xr * yr - xi * yi, xr * yi + xi * yr), p)

    def test_mul_int_and_radius_sign(self):
        b = ComplexBall(3, -4, 10, 5).mul_int(-3)
        assert (b.re, b.im, b.rad) == (-9, 12, 15)
        with pytest.raises(ValueError):
            ComplexBall(0, 0, 10, -1)


def random_balls(rng, n, prec, bits, exact):
    """n balls with midpoints of modulus below 2**bits, some on the real
    axis; radius 0 when ``exact``."""
    top = 1 << (bits + prec)
    return [
        ComplexBall(
            rng.randint(-top, top),
            rng.choice([0, rng.randint(-top, top)]),
            prec,
            0 if exact else rng.choice([0, 1, rng.randint(0, 1 << (prec // 2))]),
        )
        for _ in range(n)
    ]


def four_product_midpoints(balls, prec):
    """(re, im) of each coefficient of prod (x - r), by the balanced tree of
    `root_product`, each node from the four schoolbook products ar*br,
    ai*bi, ar*bi and ai*br shifted down by prec bits."""
    polys = [([-b.re, 1 << prec], [-b.im, 0]) for b in balls]
    while len(polys) > 1:
        nxt = []
        for i in range(0, len(polys) - 1, 2):
            (ar, ai), (br, bi) = polys[i], polys[i + 1]
            re = [x - y for x, y in zip(schoolbook(ar, br), schoolbook(ai, bi))]
            im = [x + y for x, y in zip(schoolbook(ar, bi), schoolbook(ai, br))]
            nxt.append(([x >> prec for x in re], [y >> prec for y in im]))
        polys = nxt + polys[len(nxt) * 2:]
    return list(zip(*polys[0]))


class TestRootProduct:
    def test_contains_exact_product(self):
        # true Gaussian-rational labels drawn inside the balls; the exact
        # coefficients of prod (x - label) must lie in the computed balls
        # (exact labels leave only the truncation ulps in the radii);
        # midpoints of modulus up to 16, and near 2**400 with fewer labels,
        # whose exact products are long
        rng = random.Random(2024)
        small = itertools.product(list(range(1, 17)) + [24, 32, 48, 64], [4])
        large = itertools.product(list(range(1, 17)) + [24, 32], [400])
        for (n, bits), exact_labels in itertools.product([*small, *large], (True, False)):
            prec = rng.choice([48, 64, 128])
            balls = random_balls(rng, n, prec, bits, exact_labels)
            coeffs = root_product(balls, prec)
            labels = [point_in(rng, b) for b in balls]
            exact = [(Fraction(1), Fraction(0))]
            for lr, li in labels:
                shifted = [(Fraction(0), Fraction(0))] + exact
                for k, (cr, ci) in enumerate(exact):
                    sr, si = shifted[k]
                    shifted[k] = (sr - (cr * lr - ci * li), si - (cr * li + ci * lr))
                exact = shifted
            assert len(coeffs) == n + 1
            for k, (value, b) in enumerate(zip(exact, coeffs)):
                assert b.prec == prec
                assert inside(value, b), (n, k)

    def test_integer_roots_snap(self):
        prec = 64
        balls = [ComplexBall(r << prec, 0, prec, 3) for r in (1, 2, 3)]
        assert [snap_to_integer(b) for b in root_product(balls, prec)] == [-6, 11, -6, 1]

    def test_midpoints_are_the_four_product_ones(self):
        # the three-product midpoints are today's integers bit for bit, and
        # every coefficient carries the one radius of the root node
        rng = random.Random(77)
        for n, bits in itertools.product([1, 2, 3, 5, 8, 15, 16, 35, 64], [4, 400]):
            prec = rng.choice([48, 128, 384])
            balls = random_balls(rng, n, prec, bits, exact=False)
            coeffs = root_product(balls, prec)
            assert [(b.re, b.im) for b in coeffs] == four_product_midpoints(balls, prec)
            assert len({b.rad for b in coeffs}) == 1

    def test_isolations_on_the_labelling_gate_curves(self, monkeypatch):
        # the two-torsion and theta resolvents of the 24 labelling-gate
        # curves isolate roots 52 times: once per resolvent build, plus one
        # re-isolation per snap failure (three curves have them).  A product
        # radius that fails a snap the per-coefficient radii passed adds one
        calls = []
        original = weierstrass.isolate_roots

        def counting(f, precision=128):
            calls.append(precision)
            return original(f, precision)

        monkeypatch.setattr(weierstrass, "isolate_roots", counting)
        for row in LABELLING_GATE:
            curve = build_curve(parse_poly(row[0]))
            resolvents(curve, [enumerate_j2_classes(curve)])
            resolvents(curve, enumerate_theta_classes(curve))
        assert len(calls) == 52


class TestSnap:
    def test_near_integer(self):
        # mirrors ball(2.9999 + 0.00001i, ~0.001)
        prec = 100
        b = ComplexBall(
            3 * (1 << prec) - (1 << prec) // 10000,
            (1 << prec) // 100000,
            prec,
            1 << (prec - 10),
        )
        assert snap_to_integer(b) == 3

    def test_no_integer_in_interval(self):
        prec = 100
        b = ComplexBall(5 << (prec - 1), 0, prec, 13107 << (prec - 16))  # 2.5 += ~0.2
        assert snap_to_integer(b) is None

    def test_two_integers_in_interval(self):
        prec = 100
        b = ComplexBall(5 << (prec - 1), 0, prec, 39322 << (prec - 16))  # 2.5 += ~0.6
        assert snap_to_integer(b) is None

    def test_closed_interval_endpoints(self):
        prec = 100
        quarter = 1 << (prec - 2)
        assert snap_to_integer(ComplexBall(9 * quarter, 0, prec, quarter)) == 2  # [2, 2.5]
        assert snap_to_integer(ComplexBall(-9 * quarter, 0, prec, quarter)) == -2
        assert snap_to_integer(ComplexBall(10 * quarter, 0, prec, 2 * quarter - 1)) is None

    def test_imaginary_blocks(self):
        prec = 100
        b = ComplexBall(3 << prec, 1 << (prec - 1), prec, 1 << (prec - 50))
        assert snap_to_integer(b) is None
        # 2(|im| + rad) must stay below one unit
        assert snap_to_integer(ComplexBall(3 << prec, (1 << (prec - 1)) - 2, prec, 2)) is None
        assert snap_to_integer(ComplexBall(3 << prec, -(1 << (prec - 1)) + 3, prec, 2)) == 3


def all_pairs_disjoint(balls):
    return all(
        (a.re - b.re) ** 2 + (a.im - b.im) ** 2 > (a.rad + b.rad) ** 2
        for a, b in itertools.combinations(balls, 2)
    )


class TestPairwiseDisjoint:
    def test_zero_and_one_ball(self):
        assert pairwise_disjoint([])
        assert pairwise_disjoint([ComplexBall(5, -7, 10, 3)])

    def test_tangent_disks_meet(self):
        # |(3, 4)| = 5 = 2 + 3; also tangent along the real axis, where the
        # left edge of one ball is the right edge of the other
        assert not pairwise_disjoint([ComplexBall(0, 0, 0, 2), ComplexBall(3, 4, 0, 3)])
        assert pairwise_disjoint([ComplexBall(0, 0, 0, 2), ComplexBall(3, 4, 0, 2)])
        assert not pairwise_disjoint([ComplexBall(0, 0, 0, 1), ComplexBall(2, 0, 0, 1)])
        assert pairwise_disjoint([ComplexBall(0, 0, 0, 1), ComplexBall(3, 0, 0, 1)])

    def test_equal_midpoints_meet(self):
        assert not pairwise_disjoint([ComplexBall(4, 4, 0), ComplexBall(4, 4, 0)])
        assert not pairwise_disjoint([ComplexBall(-1, 9, 0, 5), ComplexBall(-1, 9, 0, 1)])

    def test_same_real_part(self):
        # every real interval overlaps, so the sweep never stops early
        balls = [ComplexBall(0, 10 * k, 0, 4) for k in range(50)]
        assert pairwise_disjoint(balls)
        assert not pairwise_disjoint(balls + [ComplexBall(2, 253, 0, 1)])

    def test_agrees_with_all_pairs_reference(self):
        rng = random.Random(8101)
        seen = set()
        for _ in range(40):
            rmax = rng.choice([10, 300, 1000, 3000, 30000])
            balls = [
                ComplexBall(
                    rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), 0,
                    rng.randint(0, rmax),
                )
                for _ in range(300)
            ]
            want = all_pairs_disjoint(balls)
            assert pairwise_disjoint(balls) == want
            seen.add(want)
        assert seen == {True, False}


class TestIsolateRoots:
    def test_gaussian_units(self):
        iso = isolate_roots(IntPoly([1, 0, 1]), 128)
        assert len(iso.balls) == 2
        for b in iso.balls:
            assert radius(b) < Fraction(1, 2 ** 50)
            assert abs(abs(Fraction(b.im, 2 ** b.prec)) - 1) < Fraction(1, 2 ** 40)

    def test_integer_roots_snap(self):
        iso = isolate_roots(IntPoly([-6, 11, -6, 1]), 128)
        assert [snap_to_integer(b) for b in iso.balls] == [1, 2, 3]
        # a linear polynomial takes its one root exactly
        assert [snap_to_integer(b) for b in isolate_roots(IntPoly([-3, 1])).balls] == [3]

    def test_containment(self):
        for coeffs in ([1, 0, 1], [-6, 11, -6, 1], [1, -1, 0, 0, 0, 1], [3, 0, -2, 0, 1]):
            f = IntPoly(coeffs)
            iso = isolate_roots(f, 128)
            for b in iso.balls:
                assert eval_ball(f, b).contains_zero()

    def test_disjointness(self):
        iso = isolate_roots(IntPoly([1, -1, 0, 0, 0, 1]), 128)
        balls = iso.balls
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                d2 = (balls[i].re - balls[j].re) ** 2 + (balls[i].im - balls[j].im) ** 2
                assert d2 > (balls[i].rad + balls[j].rad) ** 2

    def test_quintic_structure_against_durand_kerner(self):
        f = IntPoly([1, -1, 0, 0, 0, 1])
        iso = isolate_roots(f, 128)
        mids = [complex(b.re / 2 ** b.prec, b.im / 2 ** b.prec) for b in iso.balls]
        roots = durand_kerner(f.coeffs)
        assert len(mids) == 5
        assert match_roots(mids, roots, 1e-12)
        # the reference rejects a midpoint moved by 1e-6
        for i in range(len(mids)):
            moved = mids[:i] + [mids[i] + 1e-6] + mids[i + 1:]
            assert not match_roots(moved, roots, 1e-12)

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
            max_lo = max(radius(b) for b in lo.balls)
            max_hi = max(radius(b) for b in hi.balls)
            assert max_hi <= max_lo

    def test_large_coefficient_keeps_every_bit(self):
        # an 18-digit coefficient rounded to 53 bits would stop the disks
        # near 2^-39 at every precision
        f = IntPoly([1, 123456789012345678, 0, 0, 0, 0, 1])
        iso = isolate_roots(f, 256)
        assert iso.precision == 256
        for b in iso.balls:
            assert radius(b) <= Fraction(1, 2 ** 200)
            assert eval_ball(f, b).contains_zero()

    def test_clustered_roots(self):
        # x^6 - 2(1000x - 1)^2 has two roots about 2^-39 apart near 1/1000
        f = IntPoly([-2, 4000, -2000000, 0, 0, 0, 1])
        iso = isolate_roots(f, 32)
        assert len(iso.balls) == 6
        balls = iso.balls
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                d2 = (balls[i].re - balls[j].re) ** 2 + (balls[i].im - balls[j].im) ** 2
                assert d2 > (balls[i].rad + balls[j].rad) ** 2
        for b in balls:
            assert eval_ball(f, b).contains_zero()

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
                assert eval_ball(f, b).contains_zero()


# sha256 of `_isolation_digest` over `_pinned_corpus()` at precision 128, and
# over the clustered polynomial of `test_clustered_roots` at 32 bits, both
# recorded before the bottom rung of the ladder started from floats
PINNED_CORPUS_SHA256 = "dc5cda8286ae25ce0339ddba7659c2b4c1eaa622b77ab86c6567ae15f07138eb"
PINNED_CLUSTERED_SHA256 = "5c3488917a192bfa60d22f900ed3f4eb0e485007d5ff34bfa84640ce26c42983"
CLUSTERED = IntPoly([-2, 4000, -2000000, 0, 0, 0, 1])


def _pinned_corpus():
    """200 seeded monic squarefree polynomials of degree 5 to 10, with
    coefficients up to 10, 10^3 or 10^9 in absolute value."""
    rng = random.Random(16)
    polys = []
    while len(polys) < 200:
        n = rng.randint(5, 10)
        bound = rng.choice((10, 1000, 10**9))
        f = IntPoly([rng.randint(-bound, bound) for _ in range(n)] + [1])
        if is_squarefree(f):
            polys.append(f)
    return polys


def _isolation_digest(polys, precision):
    h = hashlib.sha256()
    for f in polys:
        iso = isolate_roots(f, precision)
        h.update(repr((iso.precision, [(b.re, b.im, b.rad) for b in iso.balls])).encode())
    return h.hexdigest()


def test_each_rung_runs_once(monkeypatch):
    # settles at 512 bits: one ladder climbs 64, 128, 256, 512, each rung
    # from the one below, where a restart per precision would run 64 and
    # 128 three times each
    rng = random.Random(0)
    f = IntPoly([rng.randint(-10**30, 10**30) for _ in range(10)] + [1])
    rungs = []
    approx = certroots._approx_roots

    def counted(f, P, *below):
        rungs.append(P)
        return approx(f, P, *below)

    monkeypatch.setattr(certroots, "_approx_roots", counted)
    assert isolate_roots(f, 128).precision == 512
    assert rungs == [64, 128, 256, 512]


class TestFloatStart:
    """The double-precision start of the bottom rung changes no ball."""

    def test_pinned_isolations(self):
        assert _isolation_digest(_pinned_corpus(), 128) == PINNED_CORPUS_SHA256
        assert _isolation_digest([CLUSTERED], 32) == PINNED_CLUSTERED_SHA256

    def test_same_balls_as_the_circle_start(self, monkeypatch):
        # with 100-bit coefficients the iteration from the circle needs more
        # steps than the bound at 32 and 64 bits, from floats as exactly
        rng = random.Random(5)
        wide = [IntPoly([rng.randint(-2**100, 2**100) for _ in range(n)] + [1]) for n in (3, 4, 4)]
        polys = _pinned_corpus()[::10] + [CLUSTERED] + wide
        seeded = [_isolation_digest(polys, P) for P in (32, 64, 128)]
        monkeypatch.setattr(certroots, "_float_roots", lambda f, circle, steps: None)
        assert [_isolation_digest(polys, P) for P in (32, 64, 128)] == seeded

    @pytest.mark.parametrize("f", [
        IntPoly([1, 10**400, 0, 0, 0, 0, 0, 0, 1]),  # a coefficient past the float range
        IntPoly([1, 10**307] + [0] * 8 + [1]),  # iterates overflow
    ], ids=["coefficient", "iterate"])
    def test_falls_back_to_the_circle(self, f):
        assert certroots._float_roots(f, certroots._circle(f), 100) is None
        iso = isolate_roots(f, 32)
        assert len(iso.balls) == f.degree and pairwise_disjoint(iso.balls)
        for b in iso.balls:
            assert eval_ball(f, b).contains_zero()
