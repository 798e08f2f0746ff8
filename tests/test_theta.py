import random
import warnings

import pytest

from rankcert.certify import INFINITY_WITNESS, RATIONAL_THETA, certify_curve
from rankcert.cli import parse_poly
from rankcert.exactpoly import RatPoly
from rankcert.factorq import BadPrimeError, degree_pattern, factor_over_q
from rankcert.weierstrass import (
    _h0_for_mask,
    build_curve,
    enumerate_theta_classes,
    frobenius_cycle_types,
    theta_class_counts,
    theta_data,
)

from conftest import random_squarefree_poly, resolvents

SEXTIC = RatPoly([1, 1, 0, 0, 0, 0, 1])
QUINTIC = RatPoly([1, -1, 0, 0, 0, 1])


def make_curve(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_curve(RatPoly(coeffs))


def theta_chis(curve):
    """(chi_odd, chi_even), nothing factored."""
    chis, _c = resolvents(curve, enumerate_theta_classes(curve))
    return chis


class TestEnumeration:
    def test_count_formulas(self):
        assert theta_class_counts(1) == (1, 3)
        assert theta_class_counts(2) == (6, 10)
        assert theta_class_counts(3) == (28, 36)

    @pytest.mark.parametrize(
        "coeffs, genus",
        [
            ([-2, 0, 0, 1], 1),            # odd model, genus 1
            ([1, -1, 0, 0, 0, 1], 2),      # odd model, genus 2
            ([1, 1, 0, 0, 0, 0, 1], 2),    # even model, genus 2
            ([1, 2, 0, 0, 0, 0, 0, 1], 3), # odd model, genus 3
            ([2, -1, 3, 1, 0, 1, 0, 0, 1], 3),  # even model, genus 3
        ],
    )
    def test_counts_by_curve(self, coeffs, genus):
        curve = make_curve(coeffs)
        odd, even = enumerate_theta_classes(curve)
        assert (len(odd), len(even)) == theta_class_counts(genus)
        assert len(set(odd + even)) == 1 << (2 * genus)

    def test_h0_values_quintic(self):
        curve = build_curve(QUINTIC)
        odd, even = enumerate_theta_classes(curve)
        # 6 odd classes with h0 = 1, 10 even with h0 = 0
        assert [_h0_for_mask(m, curve) for m in odd] == [1] * 6
        assert [_h0_for_mask(m, curve) for m in even] == [0] * 10


class TestResolvents:
    def test_quintic_degrees(self):
        chi_odd, chi_even = theta_chis(build_curve(QUINTIC))
        assert (chi_odd.degree, chi_even.degree) == (6, 10)

    def test_squarefree_and_coprime(self):
        chi_odd, chi_even = theta_chis(build_curve(SEXTIC))
        for chi in (chi_odd, chi_even):
            assert chi.gcd(chi.derivative()).degree == 0
        assert chi_odd.gcd(chi_even).degree == 0

    def test_factor_degree_sum(self):
        chi_odd, chi_even = theta_chis(build_curve(SEXTIC))
        total = sum(g.degree for g in factor_over_q(chi_odd.to_rat())) + sum(
            g.degree for g in factor_over_q(chi_even.to_rat())
        )
        assert total == 16


class TestRationalTheta:
    """A rational theta characteristic is an orbit of size 1 in
    `theta_data`; odd-degree models skip the theta step and name the class
    of (g-1)*infinity instead."""

    def test_odd_model_fast_path(self):
        cert = certify_curve(QUINTIC)
        theta = [r for r in cert.reasons if r.kind == RATIONAL_THETA]
        assert [r.witness for r in theta] == [INFINITY_WITNESS]
        assert "chi_odd" not in dict(cert.hashes)

    def test_odd_model_general_path_agrees(self):
        # the class of {infinity}, stored as its infinity-avoiding member
        # (all finite roots), is odd (h0 = 1) and Galois-fixed
        curve = build_curve(QUINTIC)
        infinity_class = (1 << 5) - 1
        assert _h0_for_mask(infinity_class, curve) == 1
        odd, _even, _hashes = theta_data(curve)
        assert infinity_class in enumerate_theta_classes(curve)[0]
        assert 1 in odd

    def test_even_model_without_rational_theta(self):
        odd, even, _hashes = theta_data(build_curve(SEXTIC))
        assert 1 not in odd + even

    def test_galois_stable_triple(self):
        curve = build_curve(parse_poly("(x^3-2)*(x^3-3)"))
        odd, even, _hashes = theta_data(curve)
        # the roots of one cubic: |T| = 3, h0 = 0, an even characteristic
        assert 1 in even and 1 not in odd
        _chi_odd, chi_even = theta_chis(curve)
        assert any(g.degree == 1 for g in factor_over_q(chi_even.to_rat()))


class TestThetaOracle:
    def good_primes(self, curve, chis, count=8):
        out = []
        p = 2
        while len(out) < count and p < 10000:
            p += 1
            try:
                degree_pattern(curve.f, p)
                for chi in chis:
                    degree_pattern(chi, p)
            except (BadPrimeError, ValueError):
                continue
            out.append(p)
        return out

    @pytest.mark.parametrize("coeffs", [[1, 1, 0, 0, 0, 0, 1], [1, -1, 0, 0, 0, 1]])
    def test_matches_degree_patterns(self, coeffs):
        curve = make_curve(coeffs)
        chi_odd, chi_even = chis = theta_chis(curve)
        classes = enumerate_theta_classes(curve)
        for p in self.good_primes(curve, chis):
            odd_cycles, even_cycles = frobenius_cycle_types(curve, p, classes)
            assert odd_cycles == degree_pattern(chi_odd, p)
            assert even_cycles == degree_pattern(chi_even, p)

    def test_random_curves(self):
        rng = random.Random(777)
        for _ in range(3):
            f = random_squarefree_poly(rng, rng.choice([5, 6]))
            curve = make_curve(list(f.coeffs))
            chi_odd, chi_even = chis = theta_chis(curve)
            classes = enumerate_theta_classes(curve)
            for p in self.good_primes(curve, chis, count=5):
                odd_cycles, even_cycles = frobenius_cycle_types(curve, p, classes)
                assert odd_cycles == degree_pattern(chi_odd, p)
                assert even_cycles == degree_pattern(chi_even, p)

    def test_orbit_sums_match_counts(self):
        curve = build_curve(SEXTIC)
        classes = enumerate_theta_classes(curve)
        for p in self.good_primes(curve, theta_chis(curve), count=3):
            odd_cycles, even_cycles = frobenius_cycle_types(curve, p, classes)
            assert sum(odd_cycles) == 6
            assert sum(even_cycles) == 10


def test_parity_preserved_by_frobenius_action():
    # the branch-point permutation preserves subset sizes, hence h^0 parity:
    # no oracle orbit ever crosses between the odd and even class sets
    from rankcert.factorq import degree_pattern
    from rankcert.weierstrass import _apply_perm, _perm_from_cycle_type

    curve = build_curve(SEXTIC)
    odd, even = enumerate_theta_classes(curve)
    parity_of = {m: m in odd for m in odd + even}
    full = (1 << curve.nroots) - 1
    for p in (5, 7, 11):
        try:
            perm = _perm_from_cycle_type(degree_pattern(curve.f, p))
        except Exception:
            continue
        for m, is_odd in parity_of.items():
            im = _apply_perm(m, perm)
            im = min(im, full ^ im)
            assert parity_of[im] == is_odd


def test_odd_model_genus3_empty_class_allowed():
    # odd septic: the empty finite representative labels zero structurally
    curve = make_curve([1, 2, 0, 0, 0, 0, 0, 1])
    chi_odd, chi_even = theta_chis(curve)
    assert (chi_odd.degree, chi_even.degree) == (28, 36)
    # chi_even has the root 0 from the empty-set class
    assert chi_even.coeffs[0] == 0 or any(
        g.degree == 1 and g.coeffs[0] == 0 for g in factor_over_q(chi_even.to_rat())
    )
