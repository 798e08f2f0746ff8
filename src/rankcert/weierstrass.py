"""Hyperelliptic curves y^2 = f(x), their two-torsion, and its resolvent.

Nonzero two-torsion classes of the Jacobian correspond to even-cardinality
subsets of the Weierstrass roots modulo complementation.  Each class gets a
numeric label built from certified root enclosures (sum of u_c(alpha) over
the class representative, with u_c(x) = x + c*x^2; even-degree models use
the complement-invariant product of the two subset sums).  The resolvent
chi is the exact integer polynomial whose roots are these labels.  The size
of a class (|S| for odd-degree models, min(|S|, |S^c|) for even-degree
models) is a Galois invariant, so chi is assembled one size stratum at a
time: the ball product of each stratum's linear factors is snapped
coefficient-by-coefficient to integers, each part is checked squarefree and
the parts pairwise coprime (together: chi is squarefree), which certifies
that the labeling is injective and Galois-equivariant.  chi is the exact
product of the parts, and the parts are factored over Q one at a time.

An independent cross-check is available through `frobenius_orbit_oracle`:
factoring f modulo a good prime gives the Frobenius cycle type on the
roots, whose induced action on subset classes must reproduce the
factor-degree pattern of chi mod p.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .certroots import ComplexBall, isolate_roots, root_product, snap_to_integer
from .exactpoly import IntPoly, RatPoly, make_integral_monic, poly_digest, poly_gcd
from .factorq import (
    BadPrimeError,
    degree_pattern,
    factor_over_q,
    coprime_by_reduction,
    gf_from_int,
    gf_sqf_p,
    is_squarefree,
)

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
    "enumerate_j2_classes",
    "resolvent_j2",
    "orbit_decomposition",
    "two_torsion_data",
    "part_degrees",
    "size_strata",
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
    """No labeling index c <= 64 produced a squarefree resolvent."""


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

    def digest(self) -> str:
        return poly_digest(self.f.coeffs)


@dataclass(frozen=True)
class SubsetClass:
    """An even subset of the Weierstrass roots modulo complementation.

    The stored bitmask is the canonical representative: odd-degree models
    keep the even-cardinality member supported on the finite roots,
    even-degree models the lexicographically smaller of {S, S^c}.
    """

    mask: int
    nroots: int

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")



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
    curve_digest: str
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

def _popcount(x: int) -> int:
    return bin(x).count("1")


def enumerate_j2_classes(curve: HyperellipticCurve) -> tuple:
    """All 2^(2g) - 1 nonzero two-torsion classes, canonical, ascending."""
    n = curve.nroots
    full = (1 << n) - 1
    masks = []
    if curve.parity == ODD:
        for m in range(1, 1 << n):
            if _popcount(m) % 2 == 0:
                masks.append(m)
    else:
        for m in range(1, full):
            if _popcount(m) % 2 == 0 and m < full ^ m:
                masks.append(m)
    expected = (1 << (2 * curve.genus)) - 1
    if len(masks) != expected:
        raise AssertionError("class count mismatch: %d != %d" % (len(masks), expected))
    return tuple(SubsetClass(m, n) for m in masks)


# ---------------------------------------------------------------------------
# resolvent construction

def _initial_precision(curve: HyperellipticCurve, nclasses: int, c: int) -> int:
    # resolvent coefficient sizes are strongly data dependent (symmetric
    # functions of the labels cancel massively), so a worst-case bound is
    # useless; start near the typical need and let snap failures double
    # the precision (the rebuild ladder is geometric)
    return max(128, ((nclasses + 8 * c + 96 + 63) // 64) * 64)


def _u_values(iso, c: int) -> list:
    out = []
    for b in iso.balls:
        u = b
        if c:
            u = b.add(b.mul(b).mul_int(c))
        out.append(u)
    return out


def _subset_sum(uvals, mask: int) -> ComplexBall:
    acc = ComplexBall(0, 0, uvals[0].prec)
    for i, u in enumerate(uvals):
        if mask >> i & 1:
            acc = acc.add(u)
    return acc


def _label(uvals, mask: int, even_model: bool, allow_zero: bool = True):
    """Ball label of a class: the subset sum of u_c over the mask, times the
    sum over the complement on even-degree models.  None when
    ``allow_zero`` is false and a subset sum may vanish."""
    sums = [_subset_sum(uvals, mask)]
    if even_model:
        sums.append(_subset_sum(uvals, ((1 << len(uvals)) - 1) ^ mask))
    if not allow_zero and any(s.contains_zero() for s in sums):
        return None
    return sums[0].mul(sums[1]) if even_model else sums[0]


def _resolvent_from_labels(labels, prec: int):
    """Monic integer prod (x - label); None when a coefficient fails to snap."""
    out = []
    for b in root_product(labels, prec):
        v = snap_to_integer(b)
        if v is None:
            return None
        out.append(v)
    return IntPoly(out)


def build_label_resolvents(
    curve: HyperellipticCurve,
    mask_groups,
    zero_exempt=frozenset(),
    start_c: int = 0,
):
    """Exact squarefree resolvents for groups of subset classes.

    ``mask_groups`` is a sequence of mask tuples; one integer polynomial is
    produced per group (product over the group of x - label).  The label of
    a mask is the subset sum of u_c over the mask for odd-degree models and
    the product of the sums over mask and complement for even-degree
    models.  Retry protocol: a label ball containing zero (outside
    ``zero_exempt``) or a squarefreeness failure increments c; a snap
    failure doubles the precision.  After c > 64 a final pass permits
    zero-containing labels, still insisting on exact squarefreeness.

    Returns (polys, Labeling, precision).
    """
    total = sum(len(g) for g in mask_groups)
    even_model = curve.parity == EVEN

    for allow_zero in (False, True):
        c = start_c
        prec_req = _initial_precision(curve, total, start_c)
        while c <= MAX_LABELING:
            iso = isolate_roots(curve.f, prec_req)
            prec = iso.precision
            uvals = _u_values(iso, c)
            group_labels = [
                [_label(uvals, m, even_model, allow_zero or m in zero_exempt) for m in masks]
                for masks in mask_groups
            ]
            if any(None in labels for labels in group_labels):
                c += 1
                continue
            polys = []
            snap_failed = False
            for labels in group_labels:
                chi = _resolvent_from_labels(labels, prec)
                if chi is None:
                    snap_failed = True
                    break
                polys.append(chi)
            if snap_failed:
                prec_req = prec * 2
                continue
            ok = all(is_squarefree(chi) for chi in polys)
            if ok and len(polys) > 1:
                for i in range(len(polys)):
                    for j in range(i + 1, len(polys)):
                        if coprime_by_reduction(polys[i], polys[j]):
                            continue
                        if polys[i].gcd(polys[j]).degree > 0:
                            ok = False
            if ok:
                return polys, Labeling(c), prec
            c += 1
    raise NoInjectiveLabelingError(
        "no injective labeling found with c <= %d" % MAX_LABELING
    )


def resolvent_j2(curve: HyperellipticCurve) -> TwoTorsionResolvent:
    """Exact squarefree chi in Z[x] of degree 2^(2g) - 1 for J[2] \\ {0}.

    >>> curve = build_curve(RatPoly([1, 1, 0, 0, 0, 0, 1]))  # y^2 = x^6+x+1
    >>> resolvent_j2(curve).chi.degree
    15
    """
    masks = tuple(cl.mask for cl in enumerate_j2_classes(curve))
    parts, labeling, _prec = build_label_resolvents(curve, size_strata(curve, masks))
    chi = _product(parts)
    expected = (1 << (2 * curve.genus)) - 1
    if chi.degree != expected:
        raise AssertionError("resolvent degree %d != %d" % (chi.degree, expected))
    return TwoTorsionResolvent(chi, labeling, curve.digest(), tuple(parts))


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
        size = _popcount(m)
        if curve.parity == EVEN:
            size = min(size, n - size)
        groups.setdefault(size, []).append(m)
    return tuple(tuple(groups[k]) for k in sorted(groups))


def _product(polys) -> IntPoly:
    out = polys[0]
    for q in polys[1:]:
        out = out * q
    return out


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
# Frobenius oracle

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


def frobenius_orbit_oracle(
    curve: HyperellipticCurve, p: int, resolvent: TwoTorsionResolvent | None = None
) -> tuple:
    """Cycle-length multiset of Frobenius acting on the two-torsion classes.

    Factors f mod p, realizes the factor-degree multiset as a permutation
    of the roots, and returns the cycle type of the induced action on the
    subset classes.  For a good prime this equals
    ``degree_pattern(chi, p).degrees``; pass the resolvent to have the
    chi-side goodness (squarefree reduction) checked too.
    """
    pattern = degree_pattern(curve.f, p)
    if resolvent is not None:
        if not gf_sqf_p(gf_from_int(resolvent.chi.coeffs, p), p):
            raise BadPrimeError(f"chi mod {p} is not squarefree")
    perm = _perm_from_cycle_type(pattern.degrees)
    classes = enumerate_j2_classes(curve)
    masks = tuple(cl.mask for cl in classes)
    n = curve.nroots
    full = (1 << n) - 1
    if curve.parity == ODD:
        image = lambda m: _apply_perm(m, perm)
    else:
        def image(m):
            im = _apply_perm(m, perm)
            return min(im, full ^ im)
    return _orbit_lengths(masks, image)
