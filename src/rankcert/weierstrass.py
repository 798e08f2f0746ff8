"""Hyperelliptic curves y^2 = f(x) and the class sets of their branch points.

Nonzero two-torsion classes of the Jacobian and theta characteristics are
both subsets of the branch points (the roots of f, plus the point at
infinity on odd-degree models) modulo complementation, stored as bitmasks
over the finite roots.  This module owns every decision made on such a
set, for both class sets:

- `canonical_masks`: the representatives of one subset-size parity;
- `class_labels`: the ball label of a class, the sum of u_c(alpha) =
  alpha + c*alpha^2 over the mask (times the sum over the complement on
  even-degree models);
- `stratified_parts`: the exact resolvent parts of Galois-stable mask
  pieces, one per class-size stratum, all under one labelling index.
  `build_label_resolvents` proves the labelling injective by pairwise
  disjoint label balls, then snaps each stratum's ball product to integers;
- `frobenius_cycle_types`: the cycle type of Frobenius at a good prime p
  on each piece, read off the factor degrees of f mod p.

The two-torsion is the piece of nonzero even masks: its resolvent chi
(`resolvent_j2`, degree 2^(2g) - 1) is the product of its parts, factored
over Q one part at a time (`orbit_decomposition`), and
`frobenius_orbit_oracle` cross-checks it against chi mod p.  The theta
module adds what only theta characteristics know: h^0, parity and the
rational-theta witness.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from .certroots import (
    ComplexBall,
    isolate_roots,
    pairwise_disjoint,
    root_product,
    snap_to_integer,
)
from .exactpoly import IntPoly, RatPoly, make_integral_monic, poly_digest, poly_gcd
from .factorq import BadPrimeError, degree_pattern, factor_over_q, gf_from_int, gf_sqf_p

__all__ = [
    "ODD",
    "EVEN",
    "HyperellipticCurve",
    "SubsetClass",
    "Labeling",
    "TwoTorsionResolvent",
    "SingularModelError",
    "NoInjectiveLabelingError",
    "build_curve",
    "canonical_masks",
    "class_labels",
    "enumerate_j2_classes",
    "resolvent_j2",
    "orbit_decomposition",
    "two_torsion_data",
    "part_degrees",
    "size_strata",
    "stratified_parts",
    "frobenius_cycle_types",
    "frobenius_orbit_oracle",
    "build_label_resolvents",
]

ODD = "odd"
EVEN = "even"

MAX_GENUS = 4
MAX_LABELING = 64


class SingularModelError(ValueError):
    """f has a repeated root, so y^2 = f(x) is not a smooth model."""


class NoInjectiveLabelingError(RuntimeError):
    """No labeling index c <= 64 gave pairwise disjoint label balls."""


@dataclass(frozen=True)
class HyperellipticCurve:
    """y^2 = f(x) over Q together with its monic integral model.

    `f` is the monic integral polynomial whose roots are `scale` times the
    roots of the original; genus and parity refer to the original model.
    """

    original: RatPoly
    f: IntPoly
    scale: Fraction
    genus: int
    parity: str
    lc_is_square: bool

    @property
    def nroots(self) -> int:
        return self.f.degree


@dataclass(frozen=True)
class SubsetClass:
    """A nonzero two-torsion class: an even subset of the Weierstrass roots
    modulo complementation, stored as its canonical mask."""

    mask: int

    @property
    def size(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class Labeling:
    """Index c of the labeling map u_c(x) = x + c*x^2."""

    c: int


@dataclass(frozen=True)
class TwoTorsionResolvent:
    """Squarefree chi in Z[x] of degree 2^(2g) - 1 labeling J[2] \\ {0}.

    ``parts`` holds one Galois-stable factor of chi per class size, in
    ascending size; chi is their product.
    """

    chi: IntPoly
    labeling: Labeling
    parts: tuple


def _fraction_is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def build_curve(f: RatPoly) -> HyperellipticCurve:
    """Validate and normalize y^2 = f(x)."""
    d = f.degree
    if d < 3:
        raise ValueError("need deg f >= 3 (genus >= 1); got degree %d" % d)
    if d > 2 * MAX_GENUS + 2:
        raise ValueError(
            "degree %d exceeds the genus cap g <= %d (resolvent degree would "
            "pass the practical factorization ceiling)" % (d, MAX_GENUS)
        )
    if poly_gcd(f, f.derivative()).degree > 0:
        raise SingularModelError("f has a repeated root: singular model")
    genus = (d - 1) // 2
    if genus < 2:
        warnings.warn(
            "genus-1 model accepted, but the rank criterion needs genus > 1",
            stacklevel=2,
        )
    monic, scale = make_integral_monic(f)
    return HyperellipticCurve(
        original=f,
        f=monic,
        scale=scale,
        genus=genus,
        parity=ODD if d % 2 else EVEN,
        lc_is_square=_fraction_is_square(f.lc),
    )


# ---------------------------------------------------------------------------
# class enumeration

def canonical_masks(curve: HyperellipticCurve, parity: int) -> tuple:
    """Canonical masks of the classes of subset size ``parity`` mod 2,
    ascending: every such mask on odd-degree models (the member of {S, S^c}
    that avoids the infinite point), the smaller of {S, S^c} on even-degree
    models.  Two-torsion takes parity 0 without mask 0, theta
    characteristics parity g+1."""
    full = (1 << curve.nroots) - 1
    return tuple(
        m for m in range(full + 1)
        if m.bit_count() % 2 == parity and (curve.parity == ODD or m < full ^ m)
    )


def enumerate_j2_classes(curve: HyperellipticCurve) -> tuple:
    """All 2^(2g) - 1 nonzero two-torsion classes, canonical, ascending."""
    return tuple(SubsetClass(m) for m in canonical_masks(curve, 0) if m)


def size_strata(curve: HyperellipticCurve, masks) -> tuple:
    """The masks grouped by class size, in ascending size, order kept.

    The size is |S| for odd-degree models (the stored member avoids the
    infinite point) and min(|S|, |S^c|) for even-degree models; Galois
    permutes the roots, so every group is Galois-stable and its resolvent
    lies in Z[x].
    """
    n = curve.nroots
    groups = {}
    for m in masks:
        size = m.bit_count()
        if curve.parity == EVEN:
            size = min(size, n - size)
        groups.setdefault(size, []).append(m)
    return tuple(tuple(groups[k]) for k in sorted(groups))


# ---------------------------------------------------------------------------
# labels and resolvents

def _initial_precision(nclasses: int, c: int) -> int:
    # resolvent coefficient sizes are strongly data dependent (symmetric
    # functions of the labels cancel massively), so a worst-case bound is
    # useless; start near the typical need and let snap failures double
    # the precision (the rebuild ladder is geometric)
    return max(128, ((nclasses + 8 * c + 96 + 63) // 64) * 64)


def _subset_sum(uvals, mask: int) -> ComplexBall:
    acc = ComplexBall(0, 0, uvals[0].prec)
    for i, u in enumerate(uvals):
        if mask >> i & 1:
            acc = acc.add(u)
    return acc


def class_labels(
    curve: HyperellipticCurve, iso, c: int, masks, allow_zero: bool = True
) -> list:
    """Ball labels of the classes ``masks`` at labelling index c, from the
    root balls of the isolation ``iso``.

    The label is the subset sum of u_c(x) = x + c*x^2 over the mask, times
    the sum over the complement on even-degree models.  Without
    ``allow_zero``, a nonzero mask whose subset sum may vanish gets None.
    Mask 0, the theta class of the empty set, has the label exactly zero
    and always gets it.
    """
    uvals = [b.add(b.mul(b).mul_int(c)) if c else b for b in iso.balls]
    full = (1 << len(uvals)) - 1
    out = []
    for m in masks:
        sums = [_subset_sum(uvals, m)]
        if curve.parity == EVEN:
            sums.append(_subset_sum(uvals, full ^ m))
        if not allow_zero and m and any(s.contains_zero() for s in sums):
            out.append(None)
        else:
            out.append(sums[0].mul(sums[1]) if curve.parity == EVEN else sums[0])
    return out


def _resolvent_from_labels(labels, prec: int):
    """Monic integer prod (x - label); None when a coefficient fails to snap."""
    out = []
    for b in root_product(labels, prec):
        v = snap_to_integer(b)
        if v is None:
            return None
        out.append(v)
    return IntPoly(out)


def build_label_resolvents(curve: HyperellipticCurve, mask_groups, start_c: int = 0):
    """Exact squarefree resolvents for groups of classes, one labelling.

    ``mask_groups`` is a sequence of mask tuples; one integer polynomial is
    produced per group, the product over the group of x - label with the
    labels of `class_labels`.  The label balls of all groups, pairwise
    disjoint before any product is built, prove the labels distinct, so each
    part is squarefree and the parts are pairwise coprime.  Retry protocol:
    a zero-containing label of a nonzero mask or two meeting balls increment
    c; a snap failure doubles the precision.  After c > 64 a final pass
    permits zero-containing labels, still insisting on disjoint balls.

    Returns (polys, Labeling, precision).
    """
    total = sum(len(g) for g in mask_groups)
    for allow_zero in (False, True):
        c = start_c
        prec_req = _initial_precision(total, start_c)
        while c <= MAX_LABELING:
            iso = isolate_roots(curve.f, prec_req)
            groups = [class_labels(curve, iso, c, m, allow_zero) for m in mask_groups]
            labels = [b for group in groups for b in group]
            if None in labels or not pairwise_disjoint(labels):
                c += 1
                continue
            polys = []
            for group in groups:
                polys.append(_resolvent_from_labels(group, iso.precision))
                if polys[-1] is None:
                    prec_req = iso.precision * 2
                    break
            else:
                return polys, Labeling(c), iso.precision
    raise NoInjectiveLabelingError(
        "no injective labeling found with c <= %d" % MAX_LABELING
    )


def stratified_parts(curve: HyperellipticCurve, pieces) -> tuple:
    """Resolvent parts of Galois-stable mask pieces under one labelling.

    Every piece is split into its size strata (`size_strata`), and the
    parts of all strata of all pieces are built by one
    `build_label_resolvents` call.  Returns (parts of each piece, in
    ascending class size; Labeling).
    """
    groups = [size_strata(curve, piece) for piece in pieces]
    polys, labeling, _prec = build_label_resolvents(curve, [g for gs in groups for g in gs])
    out = []
    for gs in groups:
        out.append(tuple(polys[:len(gs)]))
        polys = polys[len(gs):]
    return tuple(out), labeling


def resolvent_j2(curve: HyperellipticCurve) -> TwoTorsionResolvent:
    """Exact squarefree chi in Z[x] of degree 2^(2g) - 1 for J[2] \\ {0}.

    >>> curve = build_curve(RatPoly([1, 1, 0, 0, 0, 0, 1]))  # y^2 = x^6+x+1
    >>> resolvent_j2(curve).chi.degree
    15
    """
    masks = tuple(cl.mask for cl in enumerate_j2_classes(curve))
    (parts,), labeling = stratified_parts(curve, [masks])
    chi = prod(parts[1:], start=parts[0])
    expected = (1 << (2 * curve.genus)) - 1
    if chi.degree != expected:
        raise AssertionError("resolvent degree %d != %d" % (chi.degree, expected))
    return TwoTorsionResolvent(chi, labeling, parts)


def part_degrees(parts) -> tuple:
    """Sorted degrees of the irreducible factors over Q of the product of
    pairwise coprime parts, factoring one part at a time."""
    out = []
    for part in parts:
        out.extend(factor_over_q(part.to_rat()).degrees())
    return tuple(sorted(out))


def orbit_decomposition(r: TwoTorsionResolvent) -> tuple:
    """Sorted degrees of the irreducible factors of chi over Q."""
    return part_degrees(r.parts)


def two_torsion_data(curve: HyperellipticCurve) -> tuple:
    """The two-torsion step of every pipeline: (orbit sizes, hashes,
    labelling index), with hashes ``(("chi", sha256 of chi),)``."""
    res = resolvent_j2(curve)
    return orbit_decomposition(res), (("chi", poly_digest(res.chi.coeffs)),), res.labeling.c


# ---------------------------------------------------------------------------
# Frobenius action

def _perm_from_cycle_type(degrees) -> list:
    perm = list(range(sum(degrees)))
    base = 0
    for d in sorted(degrees):
        for k in range(d):
            perm[base + k] = base + (k + 1) % d
        base += d
    return perm


def _apply_perm(mask: int, perm) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _orbit_lengths(masks, image) -> tuple:
    index = {m: k for k, m in enumerate(masks)}
    seen = [False] * len(masks)
    out = []
    for k in range(len(masks)):
        if seen[k]:
            continue
        length = 0
        cur = k
        while not seen[cur]:
            seen[cur] = True
            length += 1
            cur = index[image(masks[cur])]
        out.append(length)
    return tuple(sorted(out))


def frobenius_cycle_types(
    curve: HyperellipticCurve, p: int, pieces, resolvents=()
) -> tuple:
    """Cycle types of Frobenius at p on each Galois-stable mask piece.

    Factors f mod p (BadPrimeError unless squarefree) and realizes the
    factor-degree multiset as a permutation of the roots.  It fixes the
    infinite point, so on odd-degree models it maps canonical masks to
    canonical masks; on even-degree models each image is brought back to
    the smaller of {S, S^c}.  Each of ``resolvents`` must be squarefree
    mod p too, so that its degree pattern mod p is the cycle type on its
    classes.
    """
    perm = _perm_from_cycle_type(degree_pattern(curve.f, p).degrees)
    for chi in resolvents:
        if not gf_sqf_p(gf_from_int(chi.coeffs, p), p):
            raise BadPrimeError(f"resolvent mod {p} is not squarefree")
    full = (1 << curve.nroots) - 1

    def image(m):
        im = _apply_perm(m, perm)
        return im if curve.parity == ODD else min(im, full ^ im)

    return tuple(_orbit_lengths(piece, image) for piece in pieces)


def frobenius_orbit_oracle(
    curve: HyperellipticCurve, p: int, resolvent: TwoTorsionResolvent | None = None
) -> tuple:
    """Cycle-length multiset of Frobenius acting on the two-torsion classes.

    For a good prime this equals ``degree_pattern(chi, p).degrees``; pass
    the resolvent to have the chi-side goodness (squarefree reduction)
    checked too.
    """
    masks = tuple(cl.mask for cl in enumerate_j2_classes(curve))
    chis = () if resolvent is None else (resolvent.chi,)
    return frobenius_cycle_types(curve, p, [masks], chis)[0]
