"""Theta characteristics of a hyperelliptic curve: what only they know.

A theta characteristic corresponds to a subset T of the 2g+2 branch points
(the roots of f, plus the point at infinity for odd-degree models) with
|T| = g+1 (mod 2), taken modulo complementation.  The class-set machinery
is `weierstrass`'s: the canonical masks, the labels, the stratified
resolvents and the Frobenius action.  This module owns the rest:

- h^0 and parity: h^0 of a class is (g+1 - |T'|)/2 for the representative
  with |T'| <= g+1, and the class is odd or even with h^0.  h^0 depends
  only on the class size, so the odd and the even piece are unions of
  size strata, and each gets its own resolvent, chi_odd and chi_even;
- the parity counts 2^(g-1)(2^g -+ 1), checked on every enumeration;
- `has_rational_theta`: a rational theta characteristic exists iff
  chi_odd or chi_even has a linear factor, and the witness is the class
  whose label is that rational root.  Odd-degree models short-circuit:
  (g-1) times the infinite Weierstrass point doubles to the canonical
  class, so the answer there is always yes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .certroots import ComplexBall, isolate_roots
from .exactpoly import IntPoly, poly_digest
from .weierstrass import (
    EVEN,
    ODD,
    HyperellipticCurve,
    Labeling,
    canonical_masks,
    class_labels,
    frobenius_cycle_types,
    part_degrees,
    stratified_parts,
    stratum_factors,
)

__all__ = [
    "ThetaClass",
    "ThetaResolvents",
    "enumerate_theta_classes",
    "resolvent_theta",
    "theta_data",
    "has_rational_theta",
    "theta_class_counts",
    "frobenius_theta_oracle",
]


@dataclass(frozen=True)
class ThetaClass:
    """A branch-point subset modulo complementation with its parity data.

    ``mask`` is the canonical representative over the finite roots (see
    `weierstrass.canonical_masks`).
    """

    mask: int
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
    ascending size; chi_odd and chi_even are their products.  The masks of
    the classes labelled by the roots of each part are in ``odd_strata``
    and ``even_strata``.
    """

    chi_odd: IntPoly
    chi_even: IntPoly
    labeling: Labeling
    odd_parts: tuple
    even_parts: tuple
    odd_strata: tuple
    even_strata: tuple


def theta_class_counts(genus: int) -> tuple[int, int]:
    """(odd, even) theta characteristic counts: 2^(g-1)(2^g -+ 1)."""
    return (
        (1 << (genus - 1)) * ((1 << genus) - 1),
        (1 << (genus - 1)) * ((1 << genus) + 1),
    )


def _h0_for_mask(mask: int, curve: HyperellipticCurve) -> int:
    # the complement has 2g+2 - |T| branch points; on odd-degree models it
    # picks up the infinite point
    g = curve.genus
    size = mask.bit_count()
    return (g + 1 - min(size, 2 * g + 2 - size)) // 2


def enumerate_theta_classes(curve: HyperellipticCurve) -> tuple:
    """All 2^(2g) theta classes with parity, deterministic ascending order."""
    g = curve.genus
    out = tuple(
        ThetaClass(m, _h0_for_mask(m, curve)) for m in canonical_masks(curve, (g + 1) % 2)
    )
    odd = sum(1 for t in out if t.is_odd)
    if (odd, len(out) - odd) != theta_class_counts(g):
        raise AssertionError(
            "theta parity counts (%d, %d) disagree with formulas %s"
            % (odd, len(out) - odd, theta_class_counts(g))
        )
    return out


def _parity_pieces(classes) -> tuple:
    """The masks of the odd and of the even classes: two Galois-stable pieces."""
    return tuple(tuple(t.mask for t in classes if t.is_odd == odd) for odd in (True, False))


def resolvent_theta(curve: HyperellipticCurve) -> ThetaResolvents:
    """Squarefree chi_odd, chi_even whose roots label the theta classes.

    Degrees are 2^(g-1)(2^g - 1) and 2^(g-1)(2^g + 1).  The class {empty
    set, full set} (present when its size parity allows) has the label
    exactly zero, which `weierstrass.class_labels` always accepts.
    """
    pieces = _parity_pieces(enumerate_theta_classes(curve))
    strata, (odd_parts, even_parts), labeling = stratified_parts(curve, pieces)
    chi_odd = prod(odd_parts[1:], start=odd_parts[0])
    chi_even = prod(even_parts[1:], start=even_parts[0])
    if (chi_odd.degree, chi_even.degree) != theta_class_counts(curve.genus):
        raise AssertionError("theta resolvent degrees mismatch")
    return ThetaResolvents(chi_odd, chi_even, labeling, odd_parts, even_parts, *strata)


def theta_data(curve: HyperellipticCurve) -> tuple:
    """The theta step of every pipeline: (odd orbit sizes, even orbit
    sizes, hashes of chi_odd and chi_even)."""
    res = resolvent_theta(curve)
    hashes = (
        ("chi_odd", poly_digest(res.chi_odd.coeffs)),
        ("chi_even", poly_digest(res.chi_even.coeffs)),
    )
    return (
        part_degrees(curve, res.odd_strata, res.odd_parts),
        part_degrees(curve, res.even_strata, res.even_parts),
        hashes,
    )


def _witness_class(curve, classes, labeling, value: int, parity_odd: bool):
    """The theta class whose label equals the given integer root."""
    prec = 128
    wanted = [t for t in classes if t.is_odd == parity_odd]
    while True:
        iso = isolate_roots(curve.f, prec)
        target = ComplexBall(-value << iso.precision, 0, iso.precision)
        labels = class_labels(curve, iso, labeling.c, [t.mask for t in wanted])
        hits = [t for t, label in zip(wanted, labels) if label.add(target).contains_zero()]
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
    class.  Otherwise a linear factor of chi_odd or chi_even yields the
    witness class (the least one of chi_odd, else of chi_even).  The
    factors come from `weierstrass.stratum_factors`, so a stratum of more
    than one class that the Frobenius screen proves one orbit has no
    linear factor and is never factored.
    """
    if fast_path and curve.parity == ODD:
        if (curve.genus + 1) % 2 == 0:
            # T = empty set; the stored representative avoids infinity
            mask = 0
        else:
            # T = {infinity}; the infinity-avoiding member is the full root set
            mask = (1 << curve.nroots) - 1
        return True, ThetaClass(mask, _h0_for_mask(mask, curve))
    res = resolvent_theta(curve)
    classes = enumerate_theta_classes(curve)
    for strata, parts, parity_odd in (
        (res.odd_strata, res.odd_parts, True),
        (res.even_strata, res.even_parts, False),
    ):
        # the parts are monic, so every linear factor is x - root
        roots = [
            -g.coeffs[0]
            for factors in stratum_factors(curve, strata, parts)
            for g in factors
            if g.degree == 1
        ]
        if roots:
            value = max(roots)
            witness = _witness_class(curve, classes, res.labeling, value, parity_odd)
            return True, witness
    return False, None


def frobenius_theta_oracle(curve: HyperellipticCurve, p: int) -> tuple[tuple, tuple]:
    """Frobenius cycle types on (odd, even) theta classes at a good prime.

    Where chi_odd and chi_even are squarefree mod p too, the result
    matches their degree patterns mod p.
    """
    pieces = _parity_pieces(enumerate_theta_classes(curve))
    return frobenius_cycle_types(curve, p, pieces)
