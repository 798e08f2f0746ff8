import itertools
import random

import pytest

from rankcert.cli import parse_poly
from rankcert.exactpoly import IntPoly, RatPoly
from rankcert.factorq import BadPrimeError, degree_pattern, factor_over_q
from rankcert.weierstrass import (
    EVEN,
    ODD,
    SingularModelError,
    build_curve,
    build_label_resolvents,
    class_orbits,
    enumerate_j2_classes,
    frobenius_orbit_oracle,
)

from conftest import random_squarefree_poly, resolvents

SEXTIC = RatPoly([1, 1, 0, 0, 0, 0, 1])      # x^6 + x + 1
QUINTIC = RatPoly([1, -1, 0, 0, 0, 1])       # x^5 - x + 1


def j2_orbits(curve):
    """(orbit sizes, chi, labelling index) of the two-torsion piece."""
    (orbits,), (chi,), c = class_orbits(curve, [enumerate_j2_classes(curve)])
    return orbits, chi, c


def j2_chi(curve):
    """(chi, labelling index), nothing factored."""
    (chi,), c = resolvents(curve, [enumerate_j2_classes(curve)])
    return chi, c


def good_primes_for(curve, polys, count, start=2, bound=100000):
    out = []
    p = start - 1
    while len(out) < count:
        p += 1
        if p > bound:
            break
        try:
            degree_pattern(curve.f, p)
            for q in polys:
                degree_pattern(q, p)
        except (BadPrimeError, ValueError):
            continue
        out.append(p)
    return out


class TestBuildCurve:
    def test_even_model(self):
        c = build_curve(SEXTIC)
        assert (c.genus, c.parity, c.lc_is_square) == (2, EVEN, True)
        assert c.f == IntPoly([1, 1, 0, 0, 0, 0, 1])  # already monic integral

    def test_odd_model(self):
        c = build_curve(QUINTIC)
        assert (c.genus, c.parity) == (2, ODD)

    def test_singular_rejected(self):
        with pytest.raises(SingularModelError):
            build_curve(parse_poly("(x-1)^2*(x+2)"))

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            build_curve(RatPoly([1, 1, 1]))
        with pytest.raises(ValueError):
            build_curve(RatPoly([1] + [0] * 10 + [1]))  # degree 11 > cap

    def test_genus_one_warns(self):
        with pytest.warns(UserWarning):
            build_curve(RatPoly([-2, 0, 0, 1]))

    def test_nonsquare_lc(self):
        assert not build_curve(RatPoly([5, 0, 2, 0, 0, 0, 3])).lc_is_square


class TestClassEnumeration:
    def test_counts(self):
        assert len(enumerate_j2_classes(build_curve(SEXTIC))) == 15
        assert len(enumerate_j2_classes(build_curve(QUINTIC))) == 15
        octic = RatPoly([2, -1, 3, 1, 0, 1, 0, 0, 1])
        assert len(enumerate_j2_classes(build_curve(octic))) == 63

    def test_even_model_reps_are_pair_subsets(self):
        # derived by direct enumeration of even subsets of 6 modulo complement
        classes = enumerate_j2_classes(build_curve(SEXTIC))
        expected = set()
        for size in (2, 4, 6):
            for combo in itertools.combinations(range(6), size):
                m = sum(1 << i for i in combo)
                expected.add(min(m, 63 ^ m))
        expected.discard(0)
        assert set(classes) == expected
        # every class {S, S^c} contains exactly one 2-subset
        for m in classes:
            assert 2 in (m.bit_count(), 6 - m.bit_count())
        assert len(classes) == 15

    def test_odd_model_reps_even_size(self):
        classes = enumerate_j2_classes(build_curve(QUINTIC))
        assert all(m.bit_count() % 2 == 0 and m.bit_count() > 0 for m in classes)


class TestResolvent:
    def test_sextic_irreducible(self):
        orbits, chi, _c = j2_orbits(build_curve(SEXTIC))
        assert chi.degree == 15
        assert orbits == (15,)

    def test_quintic_degree(self):
        orbits, chi, _c = j2_orbits(build_curve(QUINTIC))
        assert chi.degree == 15
        assert sum(orbits) == 15

    def test_rational_two_torsion_gives_linear_factor(self):
        orbits, chi, _c = j2_orbits(build_curve(parse_poly("x*(x-1)*(x^4+x+2)")))
        assert 1 in orbits
        assert any(g.degree == 1 for g in factor_over_q(chi.to_rat()))

    def test_chi_squarefree_exact(self):
        for f in (SEXTIC, QUINTIC):
            chi, _c = j2_chi(build_curve(f))
            assert chi.gcd(chi.derivative()).degree == 0

    def test_zero_label_retry(self):
        # 6th roots of unity come in +-pairs, so plain root sums collide;
        # the labeling index must move past c = 0
        curve = build_curve(RatPoly([-1, 0, 0, 0, 0, 0, 1]))
        chi, c = j2_chi(curve)
        assert chi.degree == 15
        assert c >= 1
        ps = good_primes_for(curve, [chi], 6)
        for p in ps:
            assert degree_pattern(chi, p) == frobenius_orbit_oracle(curve, p)

    def test_labeling_independence(self):
        curve = build_curve(SEXTIC)
        masks = enumerate_j2_classes(curve)
        orbits, _chi, c = j2_orbits(curve)
        polys, labeling, _ = build_label_resolvents(curve, [masks], start_c=c + 1)
        assert labeling.c > c
        assert tuple(g.degree for g in factor_over_q(polys[0].to_rat())) == orbits


def test_genus_four_cap():
    # the largest admitted genus: 255 two-torsion classes, generic orbits
    # are the subset-size strata C(9,8), C(9,2), C(9,6), C(9,4)
    curve = build_curve(RatPoly([1, 1, 0, 0, 0, 0, 0, 0, 0, 1]))
    assert curve.genus == 4
    orbits, chi, _c = j2_orbits(curve)
    assert chi.degree == 255
    assert orbits == (9, 36, 84, 126)


class TestFrobeniusOracle:
    def test_identity_permutation_fixes_everything(self):
        from rankcert.weierstrass import _orbit_lengths, _perm_from_cycle_type

        perm = _perm_from_cycle_type([1] * 6)
        assert perm == list(range(6))
        masks = enumerate_j2_classes(build_curve(SEXTIC))
        assert _orbit_lengths(masks, lambda m: m) == tuple([1] * 15)

    def test_six_cycle_on_pair_classes(self):
        # derived by hand: a 6-cycle acting on 2-subsets of 6 points splits
        # them by difference d in {1,2,3}: two 6-orbits and one 3-orbit
        from rankcert.weierstrass import _apply_perm, _orbit_lengths, _perm_from_cycle_type

        perm = _perm_from_cycle_type([6])
        expected = {}
        for i, j in itertools.combinations(range(6), 2):
            d = min(j - i, 6 - (j - i))
            expected.setdefault(d, set()).add((i, j))
        assert sorted(len(v) for v in expected.values()) == [3, 6, 6]
        masks = enumerate_j2_classes(build_curve(SEXTIC))
        lengths = _orbit_lengths(masks, lambda m: min(_apply_perm(m, perm), 63 ^ _apply_perm(m, perm)))
        assert lengths == (3, 6, 6)

    def test_oracle_matches_degree_pattern(self):
        rng = random.Random(4242)
        for _ in range(4):
            f = random_squarefree_poly(rng, rng.choice([5, 6]))
            curve = build_curve(f)
            chi, _c = j2_chi(curve)
            for p in good_primes_for(curve, [chi], 10):
                assert degree_pattern(chi, p) == frobenius_orbit_oracle(curve, p)

    def test_bad_prime_rejected(self):
        curve = build_curve(SEXTIC)
        # disc(x^6+x+1) = -43531 = -101 * 431
        with pytest.raises(BadPrimeError):
            frobenius_orbit_oracle(curve, 101)

    def test_orbit_sum(self):
        curve = build_curve(SEXTIC)
        for p in good_primes_for(curve, [], 5):
            assert sum(frobenius_orbit_oracle(curve, p)) == 15
