"""The Frobenius screen never claims a reducible stratum irreducible, and
the curve pipelines need no prime screen on the resolvents.

`weierstrass.frobenius_screen` bounds the Galois orbits on each size
stratum of classes by the cycle types Frobenius induces at good primes of
f.  Each curve here builds its two-torsion and its theta strata, each
under its own labelling as the pipelines do.  The resolvent part of every
stratum is then factored by `factor_over_q`, which screens primes on the
part itself and knows nothing of f.  Its factor degrees must lie in the
screen's allowed set; a stratum the screen proves one orbit must be
irreducible; and `stratum_factors`, the pipelines' factoring, must give
the same degrees.  The controls have reducible strata, which the screen
must leave open.

The curve pipelines take their primes from the screen, so they must give
the same bytes with the resolvent-side screen `_candidate_primes` made to
fail; `certify chi`, which has no f, still goes through it.
"""

import hashlib
import random
from pathlib import Path

import pytest

from rankcert import factorq, weierstrass
from rankcert.cli import main, parse_poly
from rankcert.exactpoly import IntPoly
from rankcert.factorq import _zassenhaus, factor_over_q
from rankcert.theta import enumerate_theta_classes, theta_data
from rankcert.weierstrass import (
    EVEN,
    ODD,
    SCREEN_PRIMES,
    build_curve,
    enumerate_j2_classes,
    frobenius_screen,
    stratified_parts,
    stratum_factors,
)

from conftest import random_squarefree_poly


def _seeded():
    # one to three curves of each degree 5-10, so genus 2-4 in both
    # parities; the seed and the draw keep the reference `factor_over_q`
    # of the genus-4 parts to a few seconds in all
    rng = random.Random(17)
    degrees = (5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 10)
    return [random_squarefree_poly(rng, d, 3) for d in degrees]


CURVES = _seeded() + [parse_poly("x^9+x+1"), parse_poly("x^8+3*x^3-x+7")]
CONTROLS = [parse_poly(s) for s in ("x^7+x+2", "x^10-2", "x^6-1", "x^8+x+1")]


def _pieces(curve):
    """(strata, parts) of the two-torsion, the odd and the even theta piece."""
    (j2_strata,), (j2_parts,), _labeling = stratified_parts(curve, [enumerate_j2_classes(curve)])
    th_strata, th_parts, _labeling = stratified_parts(curve, enumerate_theta_classes(curve))
    return [(j2_strata, j2_parts), *zip(th_strata, th_parts)]


def _check(f):
    """Check every stratum of y^2 = f; return (proven, reducible) counts."""
    curve = build_curve(f)
    proven = reducible = 0
    for strata, parts in _pieces(curve):
        screen = frobenius_screen(curve, strata)
        factored = stratum_factors(curve, strata, parts)
        for (allowed, primes), masks, part, factors in zip(screen, strata, parts, factored):
            n = len(masks)
            assert part.degree == n
            degrees = tuple(g.degree for g in factor_over_q(part.to_rat()))
            assert set(degrees) <= allowed
            assert tuple(sorted(g.degree for g in factors)) == degrees
            if allowed == {0, n}:
                assert degrees == (n,), (str(f), n)
                proven += 1
            else:
                # an open stratum saw every good prime up to its cap
                assert len(primes) == min(n, SCREEN_PRIMES)
            reducible += len(degrees) > 1
    return proven, reducible


def test_corpus_covers_both_parities_and_genera():
    curves = [build_curve(f) for f in CURVES]
    assert {(c.genus, c.parity) for c in curves} == {
        (g, par) for g in (2, 3, 4) for par in (ODD, EVEN)
    }


@pytest.mark.parametrize("f", CURVES, ids=str)
def test_proven_strata_are_irreducible(f):
    proven, _reducible = _check(f)
    assert proven >= 1


@pytest.mark.parametrize("f", CONTROLS, ids=str)
def test_reducible_strata_are_never_claimed(f):
    _proven, reducible = _check(f)
    assert reducible >= 1


# the parities that hold a rational theta class (an orbit of size 1),
# measured before the witness search was retired; that search returned a
# class of the first parity listed, odd before even
THETA_WITNESSES = [
    ("x^6+x+1", ()),
    ("x^10+x+1", ()),
    ("x^8+x+1", ("odd", "even")),
    ("(x^3-2)*(x^3-3)", ("even",)),
    ("x^6-1", ("odd", "even")),
    ("x^8+3*x^3-x+7", ("even",)),
]


@pytest.mark.parametrize("f,parities", THETA_WITNESSES, ids=[f for f, _ in THETA_WITNESSES])
def test_rational_theta_witness_unchanged(f, parities, monkeypatch):
    factored = []

    def counted(F, *args):
        factored.append(F.degree)
        return _zassenhaus(F, *args)

    monkeypatch.setattr(weierstrass, "_zassenhaus", counted)
    odd, even, _hashes = theta_data(build_curve(parse_poly(f)))
    assert tuple(name for name, orbits in (("odd", odd), ("even", even)) if 1 in orbits) == parities
    if not parities:
        # every theta stratum is proven one orbit of several classes
        assert factored == []


# sha256 of stdout, recorded before the curve pipelines took their primes
# from the Frobenius screen; the strata of the first three are all proven
# one orbit, those of x^7+x+2 are factored at a screened prime
PIPELINE_STDOUT = [
    (["--f=x^6+x+1"], 0, "0d34962b0d5b664506577d4850bb330fd0ea6284dd61bb4b227e24104e6ac42c"),
    (["--f=x^9+x+1"], 2, "dcb4cc72dc1c21016f699174b4b2ce249cec3e0bcbe564e26c49dfc4eea80088"),
    (
        ["--f=x^10+x+1", "--full-criterion"],
        0,
        "95edd5309c07ef48c857aa02ea15c192b5e7b7c761967fe8624d8ec56a24cf77",
    ),
    (
        ["--f=x^7+x+2", "--full-criterion"],
        2,
        "7b6a24e1195bd8a5e3b93db2ca0e5420cdc6c561d126de2e407ba73e8360316e",
    ),
]
CHI_STDOUT = "185a782e8876744173909a47a7413ec674701cc5ba11819e5abd54b022e81af4"


def _stdout(capsys, argv):
    code = main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "argv,code,sha256", PIPELINE_STDOUT, ids=[" ".join(argv) for argv, _, _ in PIPELINE_STDOUT]
)
def test_curve_pipeline_runs_no_resolvent_screen(argv, code, sha256, capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("resolvent-side prime screen called")

    monkeypatch.setattr(factorq, "_candidate_primes", refuse)
    assert _stdout(capsys, ["certify", "hyperelliptic"] + argv) == (code, sha256)


def test_external_chi_keeps_resolvent_screen(capsys, monkeypatch):
    calls = []
    screen = factorq._candidate_primes

    def counted(*args, **kwargs):
        calls.append(args[0].degree)
        return screen(*args, **kwargs)

    monkeypatch.setattr(factorq, "_candidate_primes", counted)
    argv = ["certify", "chi", "--file", "src/rankcert/fixtures/chi1.txt", "--genus", "3",
            "--assert-deg1-class"]
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    assert _stdout(capsys, argv) == (0, CHI_STDOUT)
    assert calls == [63]


def test_zassenhaus_takes_degree_bounds_without_a_prime():
    # the fallback of `stratum_factors`: bounds from the screen, but no
    # screened prime at which the part is squarefree
    quartic = IntPoly([2, 0, 3, 0, 1])  # (x^2 + 1)(x^2 + 2)
    factors = _zassenhaus(quartic, frozenset({0, 2, 4}))
    assert sorted(g.coeffs for g in factors) == [(1, 0, 1), (2, 0, 1)]
