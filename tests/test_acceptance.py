"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Randomized inputs use fixed seeds, so the whole suite is
reproducible; the family-scan fiber count is a frozen regression value
(first derived by running the pipeline, then pinned).
"""

import json
import math
import random
import time
import warnings

import pytest

from rankcert.certify import (
    RATIONAL_THETA,
    RATIONAL_TWO_TORSION,
    VERDICT_INCONCLUSIVE,
    VERDICT_RANK_AT_LEAST_ONE,
    INFINITY_WITNESS,
    certify_curve,
    verify_certificate,
)
from rankcert.cli import load_chi_fixture, main, parse_family
from rankcert.exactpoly import IntPoly, RatPoly
from rankcert.factorq import (
    BadPrimeError,
    degree_pattern,
    factor_over_q,
    is_irreducible_over_q,
    is_squarefree,
    possible_degrees,
    _primes_from,
)
from rankcert.weierstrass import (
    build_curve,
    class_orbits,
    enumerate_j2_classes,
    enumerate_theta_classes,
    frobenius_cycle_types,
    frobenius_orbit_oracle,
    theta_data,
)

from conftest import fixture_path, resolvents

SEED = 20260809
FROZEN_SCAN_CERTIFIED = 98          # derived by running the pipeline, then pinned
FROZEN_SCAN_SKIPPED = [-2, 0, 2]    # fibers of x^6 + t*x + 1 with reducible chi


def _report(line):
    print("\nPASS: %s" % line)


def _random_squarefree(rng, degree, bound=10):
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
        coeffs.append(rng.choice([c for c in range(-bound, bound + 1) if c]))
        f = RatPoly(coeffs)
        if is_squarefree(f.to_int()[1]):
            return f


@pytest.fixture(scope="module")
def counting_curves():
    """10 random genus-2 sextics and 3 genus-3 octics with their resolvents:
    (curve, chi, (chi_odd, chi_even))."""
    rng = random.Random(SEED)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for degree in [6] * 10 + [8] * 3:
            curve = build_curve(_random_squarefree(rng, degree))
            (chi,), _c = resolvents(curve, [enumerate_j2_classes(curve)])
            theta, _c = resolvents(curve, enumerate_theta_classes(curve))
            out.append((curve, chi, theta))
    return out


@pytest.fixture(scope="module")
def scan_runs(capsys_factory=None):
    """Two identical CLI runs of the criterion-8 family scan."""
    import io
    from contextlib import redirect_stdout

    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(
                ["family", "scan", "--f-t", "x^6+t*x+1", "--range=-50..50", "--json"]
            )
        outs.append((code, buf.getvalue()))
    return outs


def test_criterion_1_chi1_reproduction():
    start = time.time()
    chi = load_chi_fixture(fixture_path("chi1.txt"))
    assert chi.degree == 63 and chi.lc == 1
    # multi-prime fast path: degree patterns force irreducibility
    F = chi.to_int()[1]
    patterns = []
    for p in _primes_from(64):
        try:
            patterns.append(degree_pattern(F, p))
        except BadPrimeError:
            continue
        if possible_degrees(patterns, 63) == {0, 63}:
            break
        assert len(patterns) < 25, "fast path failed to conclude"
    assert possible_degrees(patterns, 63) == {0, 63}
    # full factorization agrees
    assert [g.degree for g in factor_over_q(chi)] == [63]
    assert is_irreducible_over_q(chi)
    # end-to-end CLI certification through the transitivity path
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(
            [
                "certify", "chi",
                "--file", str(fixture_path("chi1.txt")),
                "--genus", "3", "--assert-deg1-class", "--json",
            ]
        )
    assert code == 0
    doc = json.loads(buf.getvalue())
    assert doc["verdict"] == VERDICT_RANK_AT_LEAST_ONE
    assert doc["path"] == "transitivity"
    elapsed = time.time() - start
    assert elapsed <= 300, "exceeded the 5-minute budget: %.1fs" % elapsed
    _report(
        "criterion 1 - degree-63 fixture certifies via transitivity "
        "(fast path %d primes, full factorization, %.1fs)" % (len(patterns), elapsed)
    )


def test_criterion_2_orbit_mode_reproduction():
    g = 3
    j2, odd, even = (3, 12, 48), (4, 24), (12, 24)
    assert sum(j2) == 63 == (1 << (2 * g)) - 1
    assert sum(odd) == 28 == (1 << (g - 1)) * ((1 << g) - 1)
    assert sum(even) == 36 == (1 << (g - 1)) * ((1 << g) + 1)
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(
            [
                "certify", "orbits",
                "--j2", "3,12,48", "--theta-odd", "4,24", "--theta-even", "12,24",
                "--genus", "3", "--assert-deg1-class", "--json",
            ]
        )
    assert code == 0
    doc = json.loads(buf.getvalue())
    assert doc["verdict"] == VERDICT_RANK_AT_LEAST_ONE
    assert doc["path"] == "direct"
    assert doc["reasons"] == []
    _report("criterion 2 - orbit data (3,12,48 / 4,24 / 12,24) certifies via the direct path")


def test_criterion_3_counting_invariants(counting_curves):
    for curve, chi, (chi_odd, chi_even) in counting_curves:
        g = curve.genus
        want_chi = (1 << (2 * g)) - 1
        want_odd = (1 << (g - 1)) * ((1 << g) - 1)
        want_even = (1 << (g - 1)) * ((1 << g) + 1)
        assert chi.degree == want_chi
        assert chi.gcd(chi.derivative()).degree == 0
        assert chi_odd.degree == want_odd
        assert chi_even.degree == want_even
        for theta_chi in (chi_odd, chi_even):
            assert theta_chi.gcd(theta_chi.derivative()).degree == 0
    genus_counts = [c.genus for c, _, _ in counting_curves]
    assert genus_counts.count(2) == 10 and genus_counts.count(3) == 3
    _report(
        "criterion 3 - 10 genus-2 curves give squarefree 15/6/10 resolvents, "
        "3 genus-3 curves give 63/28/36 (exact)"
    )


def test_criterion_4_oracle_agreement(counting_curves):
    checked = 0
    for curve, chi, (chi_odd, chi_even) in counting_curves:
        theta_classes = enumerate_theta_classes(curve)
        good = []
        p = 2
        while len(good) < 20:
            p += 1
            assert p < 500, "fewer than 20 good primes below 500"
            try:
                degree_pattern(curve.f, p)
                pat_chi = degree_pattern(chi, p)
                pat_odd = degree_pattern(chi_odd, p)
                pat_even = degree_pattern(chi_even, p)
            except (BadPrimeError, ValueError):
                continue
            good.append(p)
            assert pat_chi == frobenius_orbit_oracle(curve, p)
            odd_cycles, even_cycles = frobenius_cycle_types(curve, p, theta_classes)
            assert pat_odd == odd_cycles
            assert pat_even == even_cycles
            checked += 3
    _report(
        "criterion 4 - Frobenius oracle matches all degree patterns: "
        "13 curves x 20 primes x 3 resolvents (%d multiset equalities)" % checked
    )


def test_criterion_5_odd_model_fast_path():
    rng = random.Random(SEED + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        degrees = [5] * 7 + [7] * 3
        for d in degrees:
            f = _random_squarefree(rng, d)
            cert = certify_curve(f)
            curve = build_curve(f)
            assert cert.verdict == VERDICT_INCONCLUSIVE
            theta_reasons = [r for r in cert.reasons if r.kind == RATIONAL_THETA]
            assert len(theta_reasons) == 1
            assert theta_reasons[0].witness == INFINITY_WITNESS
            # independent confirmation: a theta orbit of size 1
            odd, even, _hashes = theta_data(curve)
            assert 1 in odd + even
    _report(
        "criterion 5 - 10 odd-degree models are Inconclusive(RationalTheta) with "
        "witness (g-1)*infinity, confirmed by a size-1 theta orbit"
    )


def test_criterion_6_rational_two_torsion():
    rng = random.Random(SEED + 6)
    built = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while built < 5:
            r = rng.randint(-6, 6)
            s = rng.randint(-6, 6)
            if r == s:
                continue
            h = RatPoly([rng.randint(-9, 9) for _ in range(4)] + [rng.randint(1, 9)])
            if h.degree != 4 or not is_irreducible_over_q(h):
                continue
            f = (IntPoly([-r, 1]) * IntPoly([-s, 1]) * IntPoly(h.coeffs)).to_rat()
            if not is_squarefree(f.to_int()[1]):
                continue
            built += 1
            curve = build_curve(f)
            (orbits,), (chi,), _c = class_orbits(curve, [enumerate_j2_classes(curve)])
            assert 1 in orbits
            assert any(g.degree == 1 for g in factor_over_q(chi.to_rat()))
            cert = certify_curve(f)
            assert cert.verdict == VERDICT_INCONCLUSIVE
            assert RATIONAL_TWO_TORSION in cert.reason_kinds()
    _report(
        "criterion 6 - 5 curves (x-r)(x-s)h(x) show a linear chi factor and "
        "Inconclusive(RationalTwoTorsion)"
    )


def test_criterion_7_factorization_stack():
    rng = random.Random(SEED + 7)
    done = 0
    while done < 100:
        parts = []
        want = rng.randint(2, 5)
        while len(parts) < want:
            d = rng.randint(1, 8)
            g = RatPoly([rng.randint(-100, 100) for _ in range(d)] + [rng.randint(1, 100)])
            if g.degree < 1 or not is_irreducible_over_q(g):
                continue
            gi = g.to_int()[1]
            if gi not in parts:
                parts.append(gi)
        prod = math.prod(parts, start=IntPoly([1])).to_rat()
        fac = factor_over_q(prod)  # raises internally if the product != input
        assert math.prod(fac, start=IntPoly([1])).to_rat() == prod
        got = sorted(g.coeffs for g in fac)
        assert got == sorted(g.coeffs for g in parts)
        done += 1
    _report(
        "criterion 7 - 100 random products of 2-5 primitive irreducibles recovered "
        "exactly, product identity exact on every call"
    )


def test_criterion_8_family_scan(scan_runs):
    code, out = scan_runs[0]
    assert code == 0
    doc = json.loads(out)
    fam = parse_family("x^6+t*x+1")
    from rankcert.family import exclusion_sets, family_discriminant_numerator

    excl = exclusion_sets(fam)
    disc = family_discriminant_numerator(fam)
    # every excluded value satisfies its defining vanishing by evaluation
    for a in excl.z1 | excl.z2:
        lc = fam.numerators[-1](a)
        assert disc.to_rat()(a) == 0 or lc == 0
    assert sorted(doc["exclusions"]["z1"]) == sorted(str(v) for v in excl.z1)
    assert sorted(doc["exclusions"]["z2"]) == sorted(str(v) for v in excl.z2)
    # at least one fiber certified; the exact count is a frozen regression value
    assert doc["counts"]["certified"] >= 1
    assert doc["counts"]["certified"] == FROZEN_SCAN_CERTIFIED
    assert sorted(int(e["t"]) for e in doc["skipped"]) == FROZEN_SCAN_SKIPPED
    # every certified fiber's certificate re-verifies
    for entry in doc["certified"]:
        ok, problems = verify_certificate(entry["certificate"])
        assert ok, (entry["t"], problems)
    _report(
        "criterion 8 - scan of x^6 + t*x + 1 over [-50, 50]: %d fibers certified "
        "(frozen), every certificate re-verifies, exclusions vanish by evaluation"
        % doc["counts"]["certified"]
    )


def test_criterion_9_determinism(scan_runs):
    import io
    from contextlib import redirect_stdout

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    commands = [
        ["certify", "chi", "--file", str(fixture_path("chi1.txt")),
         "--genus", "3", "--assert-deg1-class", "--json"],
        ["certify", "orbits", "--j2", "3,12,48", "--theta-odd", "4,24",
         "--theta-even", "12,24", "--genus", "3", "--assert-deg1-class", "--json"],
        ["certify", "hyperelliptic", "--f", "x^6+x+1", "--json"],
        ["oracle", "--f", "x^6+x+1", "--primes", "8", "--json"],
    ]
    for argv in commands:
        first = run(argv)
        second = run(argv)
        assert first == second, "nondeterministic output for %s" % " ".join(argv)
    # the full criterion-8 scan, run twice, is byte-identical
    assert scan_runs[0] == scan_runs[1]
    _report("criterion 9 - byte-identical structured output across repeated runs")
