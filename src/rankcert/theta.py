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
- `theta_data`: the Galois orbit sizes on the odd and on the even piece.
  A rational theta characteristic exists iff some orbit has size 1, and
  every pipeline reads the answer off these orbits through `certify.decide`.
  Odd-degree models need no theta data: (g-1) times the infinite
  Weierstrass point doubles to the canonical class, so the answer there
  is always yes, and `cli.pipeline_hyperelliptic` passes that witness
  (`certify.INFINITY_WITNESS`).
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .exactpoly import IntPoly, poly_digest
from .weierstrass import (
    HyperellipticCurve,
    Labeling,
    canonical_masks,
    frobenius_cycle_types,
    part_degrees,
    stratified_parts,
)

__all__ = [
    "ThetaResolvents",
    "enumerate_theta_classes",
    "resolvent_theta",
    "theta_data",
    "theta_class_counts",
    "frobenius_theta_oracle",
]


class ThetaResolvents(NamedTuple):
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
    """The canonical masks of the 2^(2g) theta classes as two Galois-stable
    pieces, (odd masks, even masks), each ascending."""
    g = curve.genus
    odd, even = [], []
    for m in canonical_masks(curve, (g + 1) % 2):
        (odd if _h0_for_mask(m, curve) % 2 else even).append(m)
    if (len(odd), len(even)) != theta_class_counts(g):
        raise AssertionError(
            "theta parity counts (%d, %d) disagree with formulas %s"
            % (len(odd), len(even), theta_class_counts(g))
        )
    return tuple(odd), tuple(even)


def resolvent_theta(curve: HyperellipticCurve) -> ThetaResolvents:
    """Squarefree chi_odd, chi_even whose roots label the theta classes.

    Degrees are 2^(g-1)(2^g - 1) and 2^(g-1)(2^g + 1).  The class {empty
    set, full set} (present when its size parity allows) has the label
    exactly zero, which `weierstrass.class_labels` always accepts.
    """
    strata, (odd_parts, even_parts), labeling = stratified_parts(
        curve, enumerate_theta_classes(curve)
    )
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


def frobenius_theta_oracle(curve: HyperellipticCurve, p: int) -> tuple[tuple, tuple]:
    """Frobenius cycle types on (odd, even) theta classes at a good prime.

    Where chi_odd and chi_even are squarefree mod p too, the result
    matches their degree patterns mod p.
    """
    return frobenius_cycle_types(curve, p, enumerate_theta_classes(curve))
