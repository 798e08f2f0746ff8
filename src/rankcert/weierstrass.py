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
  on each piece, read off the factor degrees of f mod p;
- `frobenius_screen` and `stratum_factors`: the Galois orbits on each
  stratum.  Every orbit is a union of Frobenius cycles, so the cycle types
  at good primes of f bound the orbit sizes, and most strata are proven
  one orbit without factoring their part.  The other parts go to
  Zassenhaus with those bounds and a screened prime;
- `class_orbits`: the one place where orbit sizes are read off a class
  set: per piece, the orbit sizes and the resolvent, the product of the
  piece's parts.

The two-torsion is the piece of nonzero even masks: `two_torsion_data`
reads its orbits and its resolvent chi, of degree 2^(2g) - 1, and
`frobenius_orbit_oracle` cross-checks chi mod p.  The theta module adds
what only theta characteristics know: h^0 and parity.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from fractions import Fraction
from math import isqrt, prod
from typing import NamedTuple

from .certroots import (
    ComplexBall,
    isolate_roots,
    pairwise_disjoint,
    root_product,
    snap_to_integer,
)
from .exactpoly import IntPoly, RatPoly, make_integral_monic, poly_digest
from .factorq import (
    BadPrimeError,
    _primes_from,
    _zassenhaus,
    degree_pattern,
    gf_from_int,
    gf_sqf_p,
    is_squarefree,
    possible_degrees,
)

__all__ = [
    "ODD",
    "EVEN",
    "HyperellipticCurve",
    "Labeling",
    "SingularModelError",
    "NoInjectiveLabelingError",
    "check_genus_cap",
    "check_curve_degree",
    "j2_class_count",
    "build_curve",
    "canonical_masks",
    "class_labels",
    "enumerate_j2_classes",
    "class_orbits",
    "two_torsion_data",
    "size_strata",
    "stratified_parts",
    "frobenius_cycle_types",
    "frobenius_screen",
    "stratum_factors",
    "frobenius_orbit_oracle",
    "build_label_resolvents",
]

ODD = "odd"
EVEN = "even"

MAX_GENUS = 4
MAX_LABELING = 64
# good primes of f that `frobenius_screen` tries before it hands a stratum
# it has not proven one orbit to Zassenhaus; a stratum of n < SCREEN_PRIMES
# classes gets n, since its part has degree n and is cheap to factor
SCREEN_PRIMES = 30


class SingularModelError(ValueError):
    """f has a repeated root, so y^2 = f(x) is not a smooth model."""


class NoInjectiveLabelingError(RuntimeError):
    """No labeling index c <= 64 gave pairwise disjoint label balls."""


class HyperellipticCurve(NamedTuple):
    """y^2 = f(x) over Q together with its monic integral model.

    `f` is the monic integral polynomial whose roots are a fixed rational
    multiple of the roots of the original (`make_integral_monic`); genus
    and parity refer to the original model.
    """

    original: RatPoly
    f: IntPoly
    genus: int
    parity: str
    lc_is_square: bool

    @property
    def nroots(self) -> int:
        return self.f.degree


class Labeling(NamedTuple):
    """Index c of the labeling map u_c(x) = x + c*x^2."""

    c: int


def _fraction_is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def j2_class_count(genus: int) -> int:
    """Nonzero two-torsion classes of a genus-g Jacobian: 2^(2g) - 1."""
    return (1 << (2 * genus)) - 1


def check_genus_cap(d: int) -> None:
    """Reject an x-degree d whose curves would pass the genus cap."""
    if d > 2 * MAX_GENUS + 2:
        raise ValueError(
            "degree %d exceeds the genus cap g <= %d (resolvent degree would "
            "pass the practical factorization ceiling)" % (d, MAX_GENUS)
        )


def check_curve_degree(d: int) -> None:
    """Reject an x-degree d outside 3..2 * MAX_GENUS + 2."""
    if d < 3:
        raise ValueError("need deg f >= 3 (genus >= 1); got degree %d" % d)
    check_genus_cap(d)


def build_curve(f: RatPoly) -> HyperellipticCurve:
    """Validate and normalize y^2 = f(x)."""
    d = f.degree
    check_curve_degree(d)
    if not is_squarefree(f.to_int()[1]):
        raise SingularModelError("f has a repeated root: singular model")
    genus = (d - 1) // 2
    if genus < 2:
        warnings.warn(
            "genus-1 model accepted, but the rank criterion needs genus > 1",
            stacklevel=2,
        )
    return HyperellipticCurve(
        original=f,
        f=make_integral_monic(f)[0],
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
    """The canonical masks of the 2^(2g) - 1 nonzero two-torsion classes,
    ascending."""
    return tuple(m for m in canonical_masks(curve, 0) if m)


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


def class_labels(curve: HyperellipticCurve, iso, c: int, masks, allow_zero: bool) -> list:
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
    `build_label_resolvents` call.  Returns (strata of each piece, parts of
    each piece, Labeling), strata and parts in ascending class size.
    """
    groups = [size_strata(curve, piece) for piece in pieces]
    polys, labeling, _prec = build_label_resolvents(curve, [g for gs in groups for g in gs])
    out = []
    for gs in groups:
        out.append(tuple(polys[:len(gs)]))
        polys = polys[len(gs):]
    return tuple(groups), tuple(out), labeling


def class_orbits(curve: HyperellipticCurve, pieces) -> tuple:
    """Galois orbit sizes and resolvents of Galois-stable mask pieces.

    One `stratified_parts` call labels every piece; the orbit sizes of a
    piece are the degrees of the irreducible factors of its parts
    (`stratum_factors`: a part proven one orbit by `frobenius_screen` is
    not factored), and its resolvent is the product of its parts.  Returns
    (sorted orbit sizes of each piece, resolvent of each piece, labelling
    index c).

    >>> curve = build_curve(RatPoly([1, 1, 0, 0, 0, 0, 1]))  # y^2 = x^6+x+1
    >>> (orbits,), (chi,), c = class_orbits(curve, [enumerate_j2_classes(curve)])
    >>> orbits, chi.degree
    ((15,), 15)
    """
    strata, parts, labeling = stratified_parts(curve, pieces)
    orbits = tuple(
        tuple(sorted(g.degree for group in stratum_factors(curve, s, ps) for g in group))
        for s, ps in zip(strata, parts)
    )
    return orbits, tuple(prod(ps[1:], start=ps[0]) for ps in parts), labeling.c


def two_torsion_data(curve: HyperellipticCurve) -> tuple:
    """The two-torsion step of every pipeline: (orbit sizes, hashes,
    labelling index), with hashes ``(("chi", sha256 of chi),)`` for the
    squarefree chi in Z[x] of degree 2^(2g) - 1 labelling J[2] \\ {0}."""
    (orbits,), (chi,), c = class_orbits(curve, [enumerate_j2_classes(curve)])
    expected = j2_class_count(curve.genus)
    if chi.degree != expected:
        raise AssertionError("resolvent degree %d != %d" % (chi.degree, expected))
    return orbits, (("chi", poly_digest(chi.coeffs)),), c


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


@lru_cache(maxsize=1024)
def _root_cycle_type(fp: tuple, p: int) -> tuple:
    """Factor degrees mod p of the monic f whose coefficients mod p are
    ``fp``: the fibers t and t + p of a family share one computation."""
    if not fp[-1]:
        raise BadPrimeError(f"p={p} divides the leading coefficient")
    return degree_pattern(IntPoly(fp), p)


@lru_cache(maxsize=1024)
def _induced_cycle_type(nroots: int, parity: str, masks: tuple, roots: tuple) -> tuple:
    """Cycle type on ``masks`` of a permutation of cycle type ``roots``."""
    perm = _perm_from_cycle_type(roots)
    full = (1 << nroots) - 1

    def image(m):
        im = _apply_perm(m, perm)
        return im if parity == ODD else min(im, full ^ im)

    return _orbit_lengths(masks, image)


def frobenius_cycle_types(curve: HyperellipticCurve, p: int, pieces) -> tuple:
    """Cycle types of Frobenius at p on each Galois-stable mask piece.

    Factors f mod p (BadPrimeError unless squarefree) and realizes the
    factor-degree multiset as a permutation of the roots.  It fixes the
    infinite point, so on odd-degree models it maps canonical masks to
    canonical masks; on even-degree models each image is brought back to
    the smaller of {S, S^c}.  Both steps are memoized: the cycle type of
    f mod p by the reduction, and the induced cycle type by the piece and
    the root cycle type, so that the fibers of a family scan share them.
    """
    roots = _root_cycle_type(tuple(c % p for c in curve.f.coeffs), p)
    return tuple(
        _induced_cycle_type(curve.nroots, curve.parity, tuple(piece), roots) for piece in pieces
    )


def frobenius_screen(curve: HyperellipticCurve, strata) -> tuple:
    """Orbit bounds on Galois-stable class strata from Frobenius at good
    primes of f.

    Every Galois orbit on a stratum is a union of cycles of each
    Frobenius, so its size is a subset sum of each cycle type that
    `frobenius_cycle_types` induces on the stratum (`possible_degrees`).
    A good prime is any p at which f mod p is squarefree, small p
    included.  A stratum of n classes is screened until it is proven one
    orbit (allowed sizes {0, n}) or for min(n, SCREEN_PRIMES) good
    primes; the screen stops when no stratum is left open.  Returns,
    per stratum, the allowed orbit-union sizes and the primes screened
    while it was open, fewest induced cycles first: where the stratum's
    resolvent is squarefree mod p, those cycles are its modular factors.

    >>> curve = build_curve(RatPoly([1, 1, 0, 0, 0, 0, 1]))  # y^2 = x^6+x+1
    >>> strata = size_strata(curve, enumerate_j2_classes(curve))
    >>> [sorted(allowed) for allowed, _primes in frobenius_screen(curve, strata)]
    [[0, 15]]
    """
    allowed = [frozenset(range(len(s) + 1)) for s in strata]
    cycles = [[] for _ in strata]
    for p in _primes_from(2):
        live = [
            i
            for i, s in enumerate(strata)
            if allowed[i] != {0, len(s)} and len(cycles[i]) < min(len(s), SCREEN_PRIMES)
        ]
        if not live:
            break
        try:
            types = frobenius_cycle_types(curve, p, [strata[i] for i in live])
        except BadPrimeError:
            continue
        for i, t in zip(live, types):
            allowed[i] &= possible_degrees([t], len(strata[i]))
            cycles[i].append((len(t), p))
    return tuple((a, tuple(p for _n, p in sorted(c))) for a, c in zip(allowed, cycles))


def stratum_factors(curve: HyperellipticCurve, strata, parts) -> tuple:
    """Irreducible factors over Q of each part, ``parts[i]`` being the
    resolvent of the classes ``strata[i]`` under an injective labelling.

    Each factor is then the resolvent of one Galois orbit, so the bounds
    of `frobenius_screen` hold for the factor degrees.  A part proven one
    orbit is its own factor and is not factored.  Any other part goes to
    Zassenhaus with those bounds and the screened prime of fewest induced
    cycles at which the part is squarefree; only when there is no such
    prime does Zassenhaus screen primes on the part itself.
    """
    out = []
    for (allowed, primes), part in zip(frobenius_screen(curve, strata), parts):
        if allowed == {0, part.degree}:
            out.append((part,))
            continue
        p = next((q for q in primes if gf_sqf_p(gf_from_int(part.coeffs, q), q)), None)
        out.append(tuple(_zassenhaus(part, allowed, p)))
    return tuple(out)


def frobenius_orbit_oracle(curve: HyperellipticCurve, p: int) -> tuple:
    """Cycle-length multiset of Frobenius acting on the two-torsion classes.

    Where chi is squarefree mod p too, this equals
    ``degree_pattern(chi, p)``.
    """
    return frobenius_cycle_types(curve, p, [enumerate_j2_classes(curve)])[0]
