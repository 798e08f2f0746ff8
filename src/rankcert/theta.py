"""Theta characteristics of a hyperelliptic curve via branch-point subsets.

A theta characteristic corresponds to a subset T of the 2g+2 branch points
(the roots of f, plus the point at infinity for odd-degree models) with
|T| = g+1 (mod 2), taken modulo complementation; h^0 of the class is
(g+1 - |T'|)/2 for the representative with |T'| <= g+1, and the class is
odd or even with h^0.  The two parity pieces get separate exact resolvent
polynomials through the same certified labeling machinery as the
two-torsion, and a rational theta characteristic exists iff one of them
has a linear factor.  h^0 depends only on the class size, so each piece is
assembled and factored one size stratum at a time, like the two-torsion
resolvent.  Odd-degree models short-circuit: (g-1) times the
infinite Weierstrass point doubles to the canonical class, so the answer
there is always yes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certroots import ComplexBall, isolate_roots
from .exactpoly import IntPoly, poly_digest
from .factorq import (
    BadPrimeError,
    degree_pattern,
    factor_over_q,
    gf_from_int,
    gf_sqf_p,
)
from .weierstrass import (
    EVEN,
    ODD,
    HyperellipticCurve,
    Labeling,
    _apply_perm,
    _orbit_lengths,
    _perm_from_cycle_type,
    _label,
    _popcount,
    _product,
    _u_values,
    build_label_resolvents,
    part_degrees,
    size_strata,
)

__all__ = [
    "ThetaClass",
    "ThetaResolvents",
    "enumerate_theta_classes",
    "resolvent_theta",
    "theta_orbit_decomposition",
    "theta_data",
    "has_rational_theta",
    "theta_class_counts",
    "frobenius_theta_oracle",
]


@dataclass(frozen=True)
class ThetaClass:
    """A branch-point subset modulo complementation with its parity data.

    ``mask`` is the canonical representative over the finite roots: for
    odd-degree models the member avoiding infinity, for even-degree models
    the lexicographically smaller of {T, T^c}.
    """

    mask: int
    nroots: int
    h0: int

    @property
    def parity(self) -> str:
        return ODD if self.h0 % 2 else EVEN

    @property
    def is_odd(self) -> bool:
        return self.h0 % 2 == 1


@dataclass(frozen=True)
class ThetaResolvents:
    """Exact squarefree resolvents of the odd and even theta characteristics.

    ``odd_parts`` and ``even_parts`` hold one factor per class size, in
    ascending size; chi_odd and chi_even are their products.
    """

    chi_odd: IntPoly
    chi_even: IntPoly
    labeling: Labeling
    curve_digest: str
    odd_parts: tuple
    even_parts: tuple


def theta_class_counts(genus: int) -> tuple[int, int]:
    """(odd, even) theta characteristic counts: 2^(g-1)(2^g -+ 1)."""
    return (
        (1 << (genus - 1)) * ((1 << genus) - 1),
        (1 << (genus - 1)) * ((1 << genus) + 1),
    )


def _h0_for_mask(mask: int, curve: HyperellipticCurve) -> int:
    g = curve.genus
    size = _popcount(mask)
    if curve.parity == ODD:
        other = 2 * g + 2 - size  # complement picks up the infinite point
    else:
        other = curve.nroots - size
    return (g + 1 - min(size, other)) // 2


def enumerate_theta_classes(curve: HyperellipticCurve) -> tuple:
    """All 2^(2g) theta classes with parity, deterministic ascending order."""
    n = curve.nroots
    g = curve.genus
    full = (1 << n) - 1
    masks = []
    if curve.parity == ODD:
        # the infinity-avoiding member of each class; |T| counts infinity,
        # so finite representatives of either size parity can occur
        for m in range(1 << n):
            if _popcount(m) % 2 == (g + 1) % 2:
                masks.append(m)
    else:
        for m in range(1 << n):
            comp = full ^ m
            if _popcount(m) % 2 == (g + 1) % 2 and m <= comp:
                masks.append(m)
    out = tuple(
        ThetaClass(m, n, _h0_for_mask(m, curve)) for m in masks
    )
    odd = sum(1 for t in out if t.is_odd)
    even = len(out) - odd
    if (odd, even) != theta_class_counts(g):
        raise AssertionError(
            "theta parity counts (%d, %d) disagree with formulas %s"
            % (odd, even, theta_class_counts(g))
        )
    return out


def resolvent_theta(curve: HyperellipticCurve) -> ThetaResolvents:
    """Squarefree chi_odd, chi_even whose roots label the theta classes.

    Degrees are 2^(g-1)(2^g - 1) and 2^(g-1)(2^g + 1).  The class {empty
    set, full set} (present when its size parity allows) has the
    structurally zero label and is exempt from the zero-label retry.
    """
    classes = enumerate_theta_classes(curve)
    odd_groups = size_strata(curve, [t.mask for t in classes if t.is_odd])
    even_groups = size_strata(curve, [t.mask for t in classes if not t.is_odd])
    polys, labeling, _prec = build_label_resolvents(
        curve, odd_groups + even_groups, zero_exempt=frozenset({0})
    )
    odd_parts = tuple(polys[: len(odd_groups)])
    even_parts = tuple(polys[len(odd_groups):])
    chi_odd, chi_even = _product(odd_parts), _product(even_parts)
    n_odd, n_even = theta_class_counts(curve.genus)
    if chi_odd.degree != n_odd or chi_even.degree != n_even:
        raise AssertionError("theta resolvent degrees mismatch")
    return ThetaResolvents(
        chi_odd, chi_even, labeling, curve.digest(), odd_parts, even_parts
    )


def theta_orbit_decomposition(res: ThetaResolvents) -> tuple[tuple, tuple]:
    """Sorted factor degrees over Q of chi_odd and of chi_even."""
    return part_degrees(res.odd_parts), part_degrees(res.even_parts)


def theta_data(curve: HyperellipticCurve) -> tuple:
    """The theta step of every pipeline: (odd orbit sizes, even orbit
    sizes, hashes of chi_odd and chi_even)."""
    res = resolvent_theta(curve)
    hashes = (
        ("chi_odd", poly_digest(res.chi_odd.coeffs)),
        ("chi_even", poly_digest(res.chi_even.coeffs)),
    )
    return (*theta_orbit_decomposition(res), hashes)


def _witness_class(curve, classes, labeling, value: int, parity_odd: bool):
    """The theta class whose label equals the given integer root."""
    prec = 128
    wanted = [t for t in classes if t.is_odd == parity_odd]
    while True:
        iso = isolate_roots(curve.f, prec)
        uvals = _u_values(iso, labeling.c)
        target = ComplexBall(-value << iso.precision, 0, iso.precision)
        hits = [
            t for t in wanted
            if _label(uvals, t.mask, curve.parity == EVEN).add(target).contains_zero()
        ]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise AssertionError("no theta class carries the rational label")
        prec = iso.precision * 2


def has_rational_theta(
    curve: HyperellipticCurve, fast_path: bool = True
) -> tuple[bool, ThetaClass | None]:
    """Does the curve carry a rational theta characteristic?

    Odd-degree models answer yes immediately: the witness is the class of
    the empty set or {infinity} (whichever matches the size parity), which
    encodes (g-1) times the infinite point, and twice that is the canonical
    class.  Otherwise both theta resolvents are factored and a linear
    factor yields the witness class (the least one of chi_odd, else of
    chi_even).
    """
    if fast_path and curve.parity == ODD:
        g = curve.genus
        if (g + 1) % 2 == 0:
            # T = empty set; the stored representative avoids infinity
            mask = 0
        else:
            # T = {infinity}; the infinity-avoiding member is the full root set
            mask = (1 << curve.nroots) - 1
        return True, ThetaClass(mask, curve.nroots, _h0_for_mask(mask, curve))
    res = resolvent_theta(curve)
    classes = enumerate_theta_classes(curve)
    for parts, parity_odd in ((res.odd_parts, True), (res.even_parts, False)):
        linear = [
            gpoly.coeffs
            for part in parts
            for gpoly, _mult in factor_over_q(part.to_rat()).factors
            if gpoly.degree == 1 and gpoly.lc == 1
        ]
        if linear:
            value = -min(linear)[0]
            witness = _witness_class(curve, classes, res.labeling, value, parity_odd)
            return True, witness
    return False, None


def frobenius_theta_oracle(
    curve: HyperellipticCurve,
    p: int,
    resolvents: ThetaResolvents | None = None,
) -> tuple[tuple, tuple]:
    """Frobenius cycle types on (odd, even) theta classes at a good prime.

    Same construction as the two-torsion oracle; the branch-point
    permutation fixes infinity on odd-degree models, so it acts directly
    on the canonical finite representatives.  For good primes the result
    matches the degree patterns of chi_odd and chi_even mod p.
    """
    pattern = degree_pattern(curve.f, p)
    if resolvents is not None:
        for chi in (resolvents.chi_odd, resolvents.chi_even):
            if not gf_sqf_p(gf_from_int(chi.coeffs, p), p):
                raise BadPrimeError(f"theta resolvent mod {p} is not squarefree")
    perm = _perm_from_cycle_type(pattern.degrees)
    classes = enumerate_theta_classes(curve)
    n = curve.nroots
    full = (1 << n) - 1
    if curve.parity == ODD:
        image = lambda m: _apply_perm(m, perm)
    else:
        def image(m):
            im = _apply_perm(m, perm)
            return min(im, full ^ im)
    odd_masks = tuple(t.mask for t in classes if t.is_odd)
    even_masks = tuple(t.mask for t in classes if not t.is_odd)
    return _orbit_lengths(odd_masks, image), _orbit_lengths(even_masks, image)
