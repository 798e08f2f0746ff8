"""Resolvents assembled one class-size stratum at a time.

The size of a class (|S| for odd-degree models, min(|S|, |S^c|) for
even-degree models) is a Galois invariant, so every stratum's resolvent
lies in Z[x] and chi is their product.  These tests rebuild chi from one
group of all masks at the same labeling index, and check each part
against the Frobenius action on its own stratum.
"""

import itertools
import random

import pytest

from rankcert.cli import parse_poly
from rankcert.exactpoly import RatPoly
from rankcert.factorq import (
    BadPrimeError,
    coprime_by_reduction,
    degree_pattern,
    squarefree_by_reduction,
)
from rankcert.theta import enumerate_theta_classes
from rankcert.weierstrass import (
    EVEN,
    ODD,
    _apply_perm,
    _orbit_lengths,
    _perm_from_cycle_type,
    build_curve,
    build_label_resolvents,
    class_orbits,
    enumerate_j2_classes,
    size_strata,
    stratified_parts,
)

from conftest import random_squarefree_poly


def _curves():
    rng = random.Random(20260)
    out = [random_squarefree_poly(rng, d, 3) for d in range(5, 11)]
    out.append(parse_poly("x^9+x+1"))
    out.append(parse_poly("x^8+3*x^3-x+7"))  # even model of genus 3
    return out


CURVES = _curves()


def _j2_parts(curve):
    (_strata,), (parts,), labeling = stratified_parts(curve, [enumerate_j2_classes(curve)])
    return parts, labeling


def _product(polys):
    out = polys[0]
    for q in polys[1:]:
        out = out * q
    return out


def _frobenius_image(curve, p):
    perm = _perm_from_cycle_type(degree_pattern(curve.f, p))
    full = (1 << curve.nroots) - 1
    if curve.parity == ODD:
        return lambda m: _apply_perm(m, perm)

    def image(m):
        im = _apply_perm(m, perm)
        return min(im, full ^ im)

    return image


def _good_primes(curve, polys, count):
    out = []
    p = 2
    while len(out) < count:
        p += 1
        try:
            degree_pattern(curve.f, p)
            for q in polys:
                degree_pattern(q, p)
        except (BadPrimeError, ValueError):
            continue
        out.append(p)
    return out


def test_corpus_covers_both_parities_and_genera():
    curves = [build_curve(f) for f in CURVES]
    assert {(c.genus, c.parity) for c in curves} == {
        (g, par) for g in (2, 3, 4) for par in (ODD, EVEN)
    }


@pytest.mark.parametrize("f", CURVES, ids=str)
def test_parts_multiply_to_single_group_chi(f):
    curve = build_curve(f)
    parts, labeling = _j2_parts(curve)
    masks = enumerate_j2_classes(curve)
    _orbits, (chi,), c = class_orbits(curve, [masks])
    (whole,), whole_labeling, _prec = build_label_resolvents(
        curve, [masks], start_c=labeling.c
    )
    assert whole_labeling == labeling and c == labeling.c
    assert _product(parts) == chi == whole
    strata = size_strata(curve, masks)
    assert [len(group) for group in strata] == [q.degree for q in parts]
    assert sorted(m for group in strata for m in group) == sorted(masks)


@pytest.mark.parametrize("f", CURVES, ids=str)
def test_part_patterns_match_frobenius_on_stratum(f):
    curve = build_curve(f)
    parts, _labeling = _j2_parts(curve)
    strata = size_strata(curve, enumerate_j2_classes(curve))
    for p in _good_primes(curve, parts, 2):
        image = _frobenius_image(curve, p)
        for group, part in zip(strata, parts):
            assert degree_pattern(part, p) == _orbit_lengths(group, image)


@pytest.mark.parametrize("f", CURVES, ids=str)
def test_theta_parts_multiply_to_parity_resolvents(f):
    curve = build_curve(f)
    pieces = enumerate_theta_classes(curve)
    _strata, (odd_parts, even_parts), _labeling = stratified_parts(curve, pieces)
    _orbits, (chi_odd, chi_even), _c = class_orbits(curve, pieces)
    assert _product(odd_parts) == chi_odd
    assert _product(even_parts) == chi_even
    for piece, parts in zip(pieces, (odd_parts, even_parts)):
        groups = size_strata(curve, piece)
        assert [len(group) for group in groups] == [q.degree for q in parts]


@pytest.mark.parametrize("f", CURVES, ids=str)
def test_parts_pass_modular_squarefree_and_coprime_checks(f):
    # disjoint label balls replaced these checks as the injectivity
    # certificate; the parts they accept must still pass them
    curve = build_curve(f)
    _strata, (odd_parts, even_parts), _labeling = stratified_parts(
        curve, enumerate_theta_classes(curve)
    )
    for parts in (_j2_parts(curve)[0], odd_parts + even_parts):
        assert all(squarefree_by_reduction(q) for q in parts)
        assert all(coprime_by_reduction(a, b) for a, b in itertools.combinations(parts, 2))


def test_single_stratum_for_genus_two_sextics():
    curve = build_curve(RatPoly([1, 1, 0, 0, 0, 0, 1]))  # x^6 + x + 1
    assert len(_j2_parts(curve)[0]) == 1
