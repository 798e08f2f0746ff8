"""One-parameter hyperelliptic families y^2 = f_t(x) and their fiber scans.

A family is a polynomial in x whose coefficients are polynomials in t.
Finitely many parameter values are excluded: z1 collects the rational
roots of the discriminant, z2 those of the discriminant and of the
leading coefficient (degenerate or bad-reduction fibers).  Away from them each
integer fiber is certified independently by the steps the curve pipeline
uses: build the curve, find a degree-1 class (`certify.deg1_evidence`),
read the two-torsion orbits (`weierstrass.two_torsion_data`), and call
`certify.decide`.  A transitive action concludes through the
transitivity shortcut; a reducible chi is reported as NeedsThetaData on
that path, or, on request, decided on the direct path from the theta
orbits (`theta.theta_data`).  No generic resolvent over Q(t) is ever
formed; per-fiber recomputation is both simpler and strictly verified.

The discriminant of f_t in x is computed exactly by evaluation and
interpolation in Newton form: disc_x specializes correctly wherever the
leading coefficient survives, and, being homogeneous of degree 2d - 2 in
the coefficients, it has t-degree at most (2d - 2) * max coefficient
degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certify import (
    DEFAULT_HEIGHT_BOUND,
    Certificate,
    OrbitReport,
    decide,
    deg1_evidence,
    digest_text,
)
from .certroots import PrecisionExhausted
from .exactpoly import IntPoly, RatPoly, discriminant
from .factorq import rational_roots
from .theta import theta_data
from .weierstrass import (
    NoInjectiveLabelingError,
    SingularModelError,
    build_curve,
    two_torsion_data,
)

__all__ = [
    "FamilyCurve",
    "ExclusionSet",
    "ScanOptions",
    "ScanReport",
    "exclusion_sets",
    "check_good_fiber",
    "scan",
]

SKIP_IN_Z1 = "InZ1"
SKIP_IN_Z2 = "InZ2"
SKIP_INCONCLUSIVE = "Inconclusive"
SKIP_ERROR = "Error"


@dataclass(frozen=True)
class FamilyCurve:
    """y^2 = f_t(x); the coefficient of x^i is the polynomial numerators[i] in t."""

    numerators: tuple
    description: str = ""

    def __post_init__(self):
        if not self.numerators or self.numerators[-1].is_zero:
            raise ValueError("zero generic leading coefficient")

    @property
    def deg_x(self) -> int:
        return len(self.numerators) - 1

    @property
    def genus(self) -> int:
        return (self.deg_x - 1) // 2

    def specialize(self, a: Fraction) -> RatPoly:
        """The fiber polynomial f_a(x); fails on a vanishing leading
        coefficient (such values belong to the exclusion sets)."""
        a = Fraction(a)
        f = RatPoly([num(a) for num in self.numerators])
        if f.degree != self.deg_x:
            raise SingularModelError(f"leading coefficient vanishes at t={a}")
        return f

    def __str__(self):
        return self.description or "<family of x-degree %d>" % self.deg_x


@dataclass(frozen=True)
class ExclusionSet:
    """Parameter values where the fiber pipeline is undefined or degenerate."""

    z1: frozenset
    z2: frozenset

    def excluded(self, a: Fraction):
        a = Fraction(a)
        if a in self.z1:
            return SKIP_IN_Z1
        if a in self.z2:
            return SKIP_IN_Z2
        return None


@dataclass(frozen=True)
class ScanOptions:
    full_theta: bool = False
    height_bound: int = DEFAULT_HEIGHT_BOUND
    assert_deg1: bool = False


@dataclass(frozen=True)
class ScanReport:
    family: str
    exclusions: ExclusionSet
    certified: tuple  # (Fraction, Certificate)
    skipped: tuple  # (Fraction, kind, details tuple)


# ---------------------------------------------------------------------------
# exact discriminant of the family in x

def _interpolate(xs, ys) -> RatPoly:
    """The polynomial of degree < len(xs) through (xs[i], ys[i]): divided
    differences, then the Newton form expanded by Horner steps."""
    coeffs = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - k])
    poly = [coeffs[-1]]
    for x0, c in zip(xs[-2::-1], coeffs[-2::-1]):
        # poly * (t - x0) + c
        poly = [c - x0 * poly[0]] + [a - x0 * b for a, b in zip(poly, poly[1:])] + [poly[-1]]
    return RatPoly(poly)


def _sample_values():
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def family_discriminant_numerator(fam: FamilyCurve) -> IntPoly:
    """disc_x(f_t) as a polynomial in t, scaled to a primitive integer one.

    Raises when the discriminant vanishes identically (generically
    singular family).
    """
    d = fam.deg_x
    if d < 1:
        raise ValueError("family must have positive x-degree")
    m = max(c.degree for c in fam.numerators if not c.is_zero)
    npoints = (2 * d - 2) * m + 1
    xs, ys = [], []
    for t0 in _sample_values():
        if fam.numerators[-1](t0) == 0:
            continue
        xs.append(t0)
        ys.append(discriminant(RatPoly([c(t0) for c in fam.numerators])))
        if len(xs) == npoints:
            break
    disc = _interpolate(xs, ys)
    if disc.is_zero:
        raise ValueError("family is generically singular (disc_x vanishes)")
    return disc.to_int()[1]


def exclusion_sets(fam: FamilyCurve) -> ExclusionSet:
    """z1: discriminant vanishing; z2: bad fibers (disc or lc).

    Every member provably annihilates its defining polynomial: the sets are
    the exact rational root sets, found through complete factorization.
    """
    disc_num = family_discriminant_numerator(fam)
    disc_roots = set(rational_roots(disc_num.to_rat()))
    z2 = set(disc_roots)
    lc_num = fam.numerators[-1]
    if lc_num.degree >= 1:
        z2 |= set(rational_roots(lc_num))
    return ExclusionSet(frozenset(disc_roots), frozenset(z2))


# ---------------------------------------------------------------------------
# fibers

def _fiber_inputs_digest(fam: FamilyCurve, a: Fraction) -> str:
    return digest_text("family:%s;t=%s" % (fam.description or "?", a))


def certify_fiber(
    fam: FamilyCurve,
    a: Fraction,
    options: ScanOptions = ScanOptions(),
) -> Certificate:
    """Run the per-fiber pipeline at t = a (caller screens exclusions).

    The transitivity path is taken unless chi is reducible and
    ``options.full_theta`` asks for the direct criterion on theta data.
    """
    a = Fraction(a)
    curve = build_curve(fam.specialize(a))
    evidence = deg1_evidence(curve, options.height_bound, options.assert_deg1)
    j2, hashes, labeling = two_torsion_data(curve)
    report = OrbitReport(curve.genus, j2)
    chi_irreducible = report.transitive
    if options.full_theta and not chi_irreducible:
        theta_odd, theta_even, theta_hashes = theta_data(curve)
        report = OrbitReport(curve.genus, j2, theta_odd, theta_even)
        hashes += theta_hashes
        chi_irreducible = None
    return decide(
        report,
        evidence,
        chi_irreducible=chi_irreducible,
        hashes=hashes,
        labeling=labeling,
        inputs_digest=_fiber_inputs_digest(fam, a),
    )


def check_good_fiber(fam: FamilyCurve, b: Fraction) -> tuple[bool, OrbitReport]:
    """Is the Galois action on the fiber's nonzero two-torsion transitive?

    b must avoid the exclusion sets.  Returns the flag together with the
    fiber's two-torsion orbit report.
    """
    b = Fraction(b)
    excl = exclusion_sets(fam)
    kind = excl.excluded(b)
    if kind is not None:
        raise ValueError(f"t={b} is excluded ({kind})")
    curve = build_curve(fam.specialize(b))
    j2, _hashes, _labeling = two_torsion_data(curve)
    report = OrbitReport(genus=curve.genus, j2_orbits=j2)
    return report.transitive, report


def scan(
    fam: FamilyCurve,
    lo: int,
    hi: int,
    options: ScanOptions = ScanOptions(),
) -> ScanReport:
    """Certify every integer fiber in [lo, hi] outside the exclusion sets.

    Per-fiber failures are recorded as skips, never raised; the report
    lists every scanned value exactly once, ordered by parameter value.
    """
    excl = exclusion_sets(fam)
    certified = []
    skipped = []
    for n in range(lo, hi + 1):
        a = Fraction(n)
        kind = excl.excluded(a)
        if kind is not None:
            skipped.append((a, kind, ()))
            continue
        try:
            cert = certify_fiber(fam, a, options)
        except (ValueError, ZeroDivisionError, NoInjectiveLabelingError, PrecisionExhausted) as exc:
            skipped.append((a, SKIP_ERROR, (str(exc),)))
            continue
        if cert.certified:
            certified.append((a, cert))
        else:
            skipped.append((a, SKIP_INCONCLUSIVE, cert.reason_kinds()))
    return ScanReport(
        family=fam.description,
        exclusions=excl,
        certified=tuple(certified),
        skipped=tuple(skipped),
    )
