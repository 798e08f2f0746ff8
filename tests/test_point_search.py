"""The sieved rational-point search returns the point the plain search did.

`find_deg1_class` once walked every x = p/q in height order and tested
whether the Fraction f(x) was a square.  That loop is kept here as the
oracle: on seeded sextics with a non-square leading coefficient (integer
and Fraction coefficients, several height bounds) and on curves whose
first point is x = 0, the sieve must return the same (x, y).  The other
tests pin the exact re-check of the witness, the sieve's memory at a
large height bound, and the run time of two commands that used to spend
about 50 s in the search.
"""

import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest

from rankcert import certify
from rankcert.certify import _PointSieve, deg1_evidence, find_deg1_class
from rankcert.exactpoly import RatPoly
from rankcert.factorq import is_squarefree
from rankcert.weierstrass import build_curve


def _height_points(bound):
    """(p, q) with p/q in lowest terms: 0 first, then by max(|p|, q), q, p."""
    yield 0, 1
    for h in range(1, bound + 1):
        for q in range(1, h + 1):
            for p in range(-h, h + 1) if q == h else (-h, h):
                if gcd(p, q) == 1:
                    yield p, q


def _square_root_of_fraction(v: Fraction):
    if v < 0:
        return None
    rn, rd = isqrt(v.numerator), isqrt(v.denominator)
    if rn * rn == v.numerator and rd * rd == v.denominator:
        return Fraction(rn, rd)
    return None


def _first_point(f: RatPoly, bound: int):
    """The plain search: the first x in height order with f(x) a square.

    f(p/q) = n / (den q^d) for the integer n computed here, so it is a
    square exactly when n * den is; that integer test skips the Fraction
    work at the x that are not points.  A hit's y is the square root of
    the Fraction f(x).
    """
    den = lcm(*(c.denominator for c in f.coeffs))
    top, *rest = [int(c * den) for c in reversed(f.coeffs)]
    for p, q in _height_points(bound):
        n, qk = top, 1
        for c in rest:
            qk *= q
            n = n * p + c * qk
        if n * den >= 0 and isqrt(n * den) ** 2 == n * den:
            x = Fraction(p, q)
            return x, _square_root_of_fraction(f(x))
    return None


def _searched(f: RatPoly, bound: int):
    ev = find_deg1_class(build_curve(f), bound)
    return None if ev is None else (ev.x, ev.y)


def _curves(seed: int, count: int, degree: int, denominators=(1,)):
    """Seeded nonsingular models of even degree whose leading coefficient
    is not a rational square, so that the search runs."""
    rng = random.Random(seed)
    curves = []
    while len(curves) < count:
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.choice(denominators)) for _ in range(degree + 1)
        ]
        f = RatPoly(coeffs)
        if coeffs[-1] == 0 or not is_squarefree(f.to_int()[1]):
            continue
        if _square_root_of_fraction(f.lc) is None:
            curves.append(f)
    return curves


def _mismatches(curves, bounds):
    pairs = [
        (str(f), bound, _first_point(f, bound), _searched(f, bound))
        for f in curves
        for bound in bounds
    ]
    return [pair for pair in pairs if pair[2] != pair[3]]


INTEGER_SEXTICS = _curves(12, 200, 6)
FRACTION_SEXTICS = _curves(13, 100, 6, denominators=(1, 2, 3, 4, 5, 6, 9))


def test_integer_sextics_get_the_plain_search_witness():
    assert _mismatches(INTEGER_SEXTICS, (0, 1, 10, 30, 100)) == []


def test_fraction_sextics_get_the_plain_search_witness():
    assert _mismatches(FRACTION_SEXTICS, (0, 1, 10, 30)) == []


@pytest.mark.filterwarnings("ignore:genus-1 model accepted")
def test_quartics_octics_and_decics_get_the_plain_search_witness():
    curves = _curves(14, 20, 4) + _curves(15, 20, 8) + _curves(16, 20, 10)
    assert _mismatches(curves, (1, 10, 30)) == []


def test_the_corpus_covers_every_kind_of_answer():
    firsts = [_first_point(f, 30) for f in INTEGER_SEXTICS + FRACTION_SEXTICS]
    assert any(point is None for point in firsts)
    assert any(point is not None and point[0] == 0 for point in firsts)
    assert any(point is not None and point[0].denominator > 1 for point in firsts)


@pytest.mark.parametrize("coeffs,y", [
    ([0, 2, 0, 0, 0, 0, 2], 0),  # 2x^6 + 2x: f(0) = 0, and f(-1) = 0 as well
    ([4, 0, 0, 0, 0, 3, 3], 2),  # 3x^6 + 3x^5 + 4: f(0) = f(-1) = 4
    ([Fraction(9, 4), 1, 0, 0, 0, 0, -5], Fraction(3, 2)),
])
def test_x_zero_comes_first(coeffs, y):
    f = RatPoly(coeffs)
    assert _searched(f, 10) == _first_point(f, 10) == (0, y)


def test_a_witness_off_the_curve_is_never_evidence(monkeypatch):
    # y^2 = 3x^6 + 1 has the point (0, 1); a slip that returned (0, 2)
    # must fail the exact check on the original model
    monkeypatch.setattr(certify, "_least_point", lambda f, bound: (Fraction(0), Fraction(2)))
    with pytest.raises(RuntimeError, match=r"returned \(0, 2\), which is not on the curve"):
        find_deg1_class(build_curve(RatPoly([1, 0, 0, 0, 0, 0, 3])))


def test_an_asserted_class_still_searches_first():
    # a found point is stronger evidence than the flag, and costs nothing
    found = deg1_evidence(build_curve(RatPoly([-5, -5, 3, 6, 0, -1, 3])), 1000, True)
    assert (found.kind, found.x, found.y) == ("rational-point", -1, 1)
    pointless = deg1_evidence(build_curve(RatPoly([5, 0, 2, 0, 0, 0, 3])), 1000, True)
    assert pointless.kind == "user-assertion"


def test_sieve_memory_does_not_grow_with_the_height_bound():
    # The rows q = H-127..H at H = 20000 each sieve 40001 numerators and
    # meet every residue q mod l of every sieving prime.  Keeping one
    # 40001-bit mask per (l, q mod l) would hold several MiB; windows of
    # fixed width hold a few hundred KiB.  (The whole search at this bound
    # takes seconds, and much longer under tracemalloc.)
    bound = 20000
    sieve = _PointSieve(RatPoly([5, 0, 2, 0, 0, 0, 3]))  # 3x^6 + 2x^2 + 5
    tracemalloc.start()
    try:
        survivors = [
            p for q in range(bound - 127, bound + 1) for p in sieve.survivors(q, -bound, bound)
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(survivors) < 128 * 100  # the rows were sieved, not listed


@pytest.mark.parametrize("argv", [
    ["certify", "hyperelliptic", "--f=3*x^6+9*x^5+6*x^4+8*x^3+9*x^2+4*x+8"],
    ["certify", "hyperelliptic", "--f=3*x^6+2*x^2+5", "--assert-deg1-class",
     "--full-criterion"],
])
def test_pointless_sextics_search_to_the_default_height_in_seconds(argv):
    # both searched every x of height <= 1000 for about 50 s before the
    # sieve; the verdict is Inconclusive either way
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys; from rankcert.cli import main; sys.exit(main(%r))" % (argv,)
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert run.returncode == 2
    assert b"verdict: Inconclusive" in run.stdout
    assert elapsed < 3
