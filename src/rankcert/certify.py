"""Decision core: the positive-rank criterion and machine-checkable certificates.

A curve with a rational degree-1 divisor class has a Jacobian of
Mordell-Weil rank >= 1 as soon as it carries no rational nonzero
two-torsion point and no rational theta characteristic.  `decide` is the
one decision function and the only place a `Certificate` is built.  It
applies the rule on one of two paths.  The "direct" path reads all three
conditions off the Galois orbit data of the resolvents.  The
"transitivity" path uses the shortcut that a transitive action on the
nonzero two-torsion of a genus > 1 curve already excludes both
obstructions.  `certify_curve` is the pipeline for a curve and a fiber:
it gathers the data (`deg1_evidence`, the orbit steps in `weierstrass`)
and calls `decide`, as `certify_chi` and `certify_orbits` do from
external resolvents and orbit data.  Each writes its certificate's subject.

The degree-1 class of an even model with a non-square leading
coefficient comes from a rational point.  `find_deg1_class` finds the
least one up to a height bound with a sieve in the manner of Stoll's
ratpoints: bit masks of the numerators p at which the homogenized f is a
square modulo small primes, ANDed a row q at a time, leave a few
candidates that are tested exactly.  The point found is the one the
plain walk through all x in height order would find, and it is checked
on the original model before it is returned.

A certificate is the rendering of its data: `verify_certificate`
re-checks the embedded arithmetic facts (orbit sums, count formulas,
hash shapes), replays the data through the same `decide` call, without
recomputing any resolvent, and compares every rendered field with the
document.  That data includes the subject (the curve,
fiber, external chi or orbit data), whose `inputs_text` has the sha256
that `decide` records as the inputs digest, and the curve the subject
names, read with `grammar` and checked against the genus and the
rational point.  `document_problems` is the whole check of `rankcert
verify`, family-scan documents included; the command only prints it.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple

from . import __version__
from .exactpoly import RatPoly, poly_digest
from .factorq import factor_over_q, is_squarefree
from .grammar import parse_family, parse_poly, parse_rational
from .weierstrass import MAX_GENUS, ODD, HyperellipticCurve, build_curve, j2_class_count
from .weierstrass import theta_class_counts, theta_data, two_torsion_data

__all__ = [
    "Deg1Evidence",
    "Reason",
    "OrbitReport",
    "Certificate",
    "MalformedReportError",
    "MalformedSubjectError",
    "VERDICT_RANK_AT_LEAST_ONE",
    "VERDICT_INCONCLUSIVE",
    "PATH_DIRECT",
    "PATH_TRANSITIVITY",
    "RATIONAL_TWO_TORSION",
    "RATIONAL_THETA",
    "NO_DEG1_CLASS",
    "GENUS_TOO_SMALL",
    "NEEDS_THETA_DATA",
    "INFINITY_WITNESS",
    "find_deg1_class",
    "deg1_evidence",
    "decide",
    "certify_curve",
    "certify_chi",
    "certify_orbits",
    "inputs_text",
    "render_certificate",
    "certificate_doc",
    "certificate_from_doc",
    "verify_certificate",
    "document_problems",
    "canonical_json",
    "digest_text",
]

VERDICT_RANK_AT_LEAST_ONE = "RankAtLeastOne"
VERDICT_INCONCLUSIVE = "Inconclusive"
PATH_DIRECT = "direct"
PATH_TRANSITIVITY = "transitivity"

RATIONAL_TWO_TORSION = "RationalTwoTorsion"
RATIONAL_THETA = "RationalTheta"
NO_DEG1_CLASS = "NoDeg1Class"
GENUS_TOO_SMALL = "GenusTooSmall"
NEEDS_THETA_DATA = "NeedsThetaData"

INFINITY_WITNESS = "(g-1)*infinity"

DEFAULT_HEIGHT_BOUND = 1000


class MalformedReportError(ValueError):
    """Orbit sums contradict the genus formulas."""


class MalformedSubjectError(ValueError):
    """A subject of unknown kind, or without the fields its kind needs."""


class Deg1Evidence(NamedTuple):
    """Why a rational degree-1 divisor class exists.

    kind is one of "rational-point" (x, y with y^2 = f(x)),
    "infinite-place" (odd model, or even model with square leading
    coefficient) or "user-assertion".
    """

    kind: str
    x: Fraction | None = None
    y: Fraction | None = None
    note: str = ""

    def to_doc(self) -> dict:
        doc = {"kind": self.kind}
        if self.kind == "rational-point":
            doc["x"] = str(self.x)
            doc["y"] = str(self.y)
        if self.note:
            doc["note"] = self.note
        return doc

    @classmethod
    def from_doc(cls, doc) -> "Deg1Evidence":
        if doc is None:
            return None
        x = parse_rational(doc["x"]) if "x" in doc else None
        y = parse_rational(doc["y"]) if "y" in doc else None
        if doc["kind"] == "rational-point" and (x is None or y is None):
            raise ValueError("rational-point evidence without x and y")
        return cls(kind=doc["kind"], x=x, y=y, note=doc.get("note", ""))


class Reason(NamedTuple):
    kind: str
    witness: str | None = None

    def to_doc(self) -> dict:
        doc = {"kind": self.kind}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


class _OrbitReportFields(NamedTuple):
    genus: int
    j2_orbits: tuple
    theta_odd: tuple | None = None
    theta_even: tuple | None = None


class OrbitReport(_OrbitReportFields):
    """Galois orbit-size multisets of the resolvents, each sorted."""

    __slots__ = ()

    def __new__(cls, genus, j2_orbits, theta_odd=None, theta_even=None):
        return super().__new__(
            cls,
            genus,
            tuple(sorted(j2_orbits)),
            None if theta_odd is None else tuple(sorted(theta_odd)),
            None if theta_even is None else tuple(sorted(theta_even)),
        )

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`: sort its orbits as well
        return cls(*iterable)

    def validate(self):
        g = self.genus
        if g < 1:
            raise MalformedReportError("genus must be >= 1")
        # the class counts below have 2g bits
        if g > MAX_GENUS:
            raise MalformedReportError(
                "genus %d exceeds the genus cap g <= %d" % (g, MAX_GENUS)
            )
        want_j2 = j2_class_count(g)
        if sum(self.j2_orbits) != want_j2:
            raise MalformedReportError(
                "two-torsion orbit sizes sum to %d, expected 2^(2g)-1 = %d"
                % (sum(self.j2_orbits), want_j2)
            )
        if (self.theta_odd is None) != (self.theta_even is None):
            raise MalformedReportError("odd and even theta orbits must be given together")
        want_odd, want_even = theta_class_counts(g)
        if self.theta_odd is not None and sum(self.theta_odd) != want_odd:
            raise MalformedReportError(
                "odd theta orbit sizes sum to %d, expected 2^(g-1)(2^g-1) = %d"
                % (sum(self.theta_odd), want_odd)
            )
        if self.theta_even is not None and sum(self.theta_even) != want_even:
            raise MalformedReportError(
                "even theta orbit sizes sum to %d, expected 2^(g-1)(2^g+1) = %d"
                % (sum(self.theta_even), want_even)
            )
        for orbits in (self.j2_orbits, self.theta_odd or (), self.theta_even or ()):
            if any(v < 1 for v in orbits):
                raise MalformedReportError("orbit sizes must be positive")

    @property
    def theta_present(self) -> bool:
        return self.theta_odd is not None and self.theta_even is not None

    @property
    def transitive(self) -> bool:
        """One orbit on the nonzero two-torsion: chi is irreducible over Q."""
        return self.j2_orbits == (j2_class_count(self.genus),)

    def to_doc(self) -> dict:
        return {
            "j2": list(self.j2_orbits),
            "theta_odd": list(self.theta_odd) if self.theta_odd is not None else None,
            "theta_even": list(self.theta_even) if self.theta_even is not None else None,
        }

    @classmethod
    def from_doc(cls, genus, doc) -> "OrbitReport":
        return cls(genus, doc["j2"], doc.get("theta_odd"), doc.get("theta_even"))


class Certificate(NamedTuple):
    """Machine-checkable verdict with the provenance of every hypothesis."""

    verdict: str
    path: str
    genus: int
    reasons: tuple
    evidence: Deg1Evidence | None
    report: OrbitReport
    hashes: tuple = ()  # pairs (name, sha256 hex)
    labeling: int | None = None
    subject: tuple = ()  # pairs (key, value)
    inputs_digest: str = ""

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_RANK_AT_LEAST_ONE

    @property
    def chi_irreducible(self) -> bool | None:  # on the transitivity path only
        return self.report.transitive if self.path == PATH_TRANSITIVITY else None

    def reason_kinds(self) -> tuple:
        return tuple(r.kind for r in self.reasons)


# ---------------------------------------------------------------------------
# evidence search

# odd primes whose square patterns sieve the numerators p, set up one at
# a time as a search reaches them
_SIEVE_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127,
)
# numerators sieved at once, so that the memory does not grow with the
# height bound
_WINDOW = 1 << 16
# a window's masks are ANDed until at most this many candidates are left
_FEW = 2
# the heights of the first band; each later band doubles its upper end
_FIRST_BAND = 8


class _PointSieve:
    """The x = p/q at which f is a rational square, for f of even degree d.

    With L the lcm of the denominators of f, the integer
    F(p, q) = L^2 q^d f(p/q) is a square exactly when f(p/q) is, and
    `root` tests that exactly.  `survivors` lists the p of a row q that
    pass the square test modulo small odd primes l.  Whether F(p, q) is a
    square mod l depends on p mod l and q mod l only: for q prime to l it
    is F(p/q, 1) times the nonzero square q^d, so the mask of a row is
    the set of x*q with F(x, 1) a square; for q divisible by l only p
    prime to l is in lowest terms, and F(p, q) is A_d p^d mod l.  Each
    l-bit mask is tiled across a window of p by one multiplication.
    """

    def __init__(self, f: RatPoly):
        self.den = lcm(*(c.denominator for c in f.coeffs))
        self.coeffs = tuple(int(c * self.den * self.den) for c in f.coeffs)
        self.half = f.degree // 2
        self.primes = []  # per prime: (l, x with F(x, 1) square, A_d square), or None
        self.masks = {}  # (l, q mod l) -> l-bit mask
        self.repunits = {}  # (l, b) -> sum of 2^(k l) over at least 2^b bits

    def root(self, p: int, q: int) -> Fraction | None:
        """y >= 0 with y^2 = f(p/q), for p/q in lowest terms; else None."""
        if gcd(p, q) != 1:
            return None
        v, qk = self.coeffs[-1], 1
        for a in reversed(self.coeffs[:-1]):
            qk *= q
            v = v * p + a * qk
        if v < 0:
            return None
        r = isqrt(v)
        return Fraction(r, self.den * q**self.half) if r * r == v else None

    def _prime(self, i: int):
        while len(self.primes) <= i:
            l = _SIEVE_PRIMES[len(self.primes)]
            squares = {x * x % l for x in range(l)}
            cs = [a % l for a in self.coeffs]
            ok = []
            for x in range(l):
                v = 0
                for a in reversed(cs):
                    v = (v * x + a) % l
                if v in squares:
                    ok.append(x)
            # a prime at which every F(x, 1) is a square rules nothing out
            self.primes.append(None if len(ok) == l else (l, ok, cs[-1] in squares))
        return self.primes[i]

    def _mask(self, prime: tuple, q: int) -> int:
        l, ok, lc_square = prime
        key = (l, q % l)
        mask = self.masks.get(key)
        if mask is None:
            r = key[1]
            if r:
                mask = sum(1 << (x * r % l) for x in ok)
            else:
                mask = ((1 << l) - 2) if lc_square else 0
            self.masks[key] = mask
        return mask

    def survivors(self, q: int, lo: int, hi: int):
        """The p in [lo, hi], ascending, that no prime rules out."""
        for start in range(lo, hi + 1, _WINDOW):
            width = min(_WINDOW, hi + 1 - start)
            size = (width - 1).bit_length()
            cand = (1 << width) - 1
            i = 0
            while cand.bit_count() > _FEW and i < len(_SIEVE_PRIMES):
                prime = self._prime(i)
                i += 1
                if prime is None:
                    continue
                l = prime[0]
                mask = self._mask(prime, q)
                s = start % l  # rotate: bit j of the window is p = start + j
                mask = (mask >> s) | ((mask << (l - s)) & ((1 << l) - 1))
                rep = self.repunits.get((l, size))
                if rep is None:
                    n = (1 << size) // l + 1
                    rep = self.repunits[l, size] = ((1 << (n * l)) - 1) // ((1 << l) - 1)
                cand &= mask * rep
            while cand:
                low = cand & -cand
                yield start + low.bit_length() - 1
                cand ^= low


def _least_point(f: RatPoly, bound: int):
    """The first x = p/q in lowest terms with max(|p|, q) <= bound and
    f(x) a rational square, as (x, y) with y >= 0, or None.

    The order is x = 0 first, then by the key (max(|p|, q), q, p).  The
    heights are searched in bands (0, 8], (8, 16], (16, 32], ...: every
    point of a band is found, and the band's least point is returned.
    """
    sieve = _PointSieve(f)
    y = sieve.root(0, 1)
    if y is not None:
        return Fraction(0), y
    h0 = 0
    while h0 < bound:
        h1 = min(bound, max(_FIRST_BAND, 2 * h0))
        found = []
        for q in range(1, h1 + 1):
            # the p with h0 < max(|p|, q) <= h1
            rows = ((-h1, h1),) if q > h0 else ((-h1, -h0 - 1), (h0 + 1, h1))
            for lo, hi in rows:
                for p in sieve.survivors(q, lo, hi):
                    y = sieve.root(p, q)
                    if y is not None:
                        found.append((max(abs(p), q), q, p, y))
        if found:
            _, q, p, y = min(found, key=lambda point: point[:3])
            return Fraction(p, q), y
        h0 = h1
    return None


def find_deg1_class(
    curve: HyperellipticCurve, height_bound: int = DEFAULT_HEIGHT_BOUND
) -> Deg1Evidence | None:
    """A rational degree-1 divisor class, when one is visible.

    Odd-degree models and even-degree models with square leading
    coefficient have a rational place at infinity.  Otherwise the least
    x = p/q (lowest terms, x = 0 first, then by max(|p|, q), q, p) with
    max(|p|, q) <= height_bound and f(x) a rational square is found by a
    sieve (`_least_point`), and checked exactly on the original model.
    """
    if curve.parity == ODD:
        return Deg1Evidence("infinite-place", note="odd-degree model")
    if curve.lc_is_square:
        return Deg1Evidence(
            "infinite-place", note="even-degree model with square leading coefficient"
        )
    point = _least_point(curve.original, height_bound)
    if point is None:
        return None
    x, y = point
    if curve.original(x) != y * y:
        raise RuntimeError("point search returned (%s, %s), which is not on the curve" % point)
    return Deg1Evidence("rational-point", x=x, y=y)


def deg1_evidence(
    curve: HyperellipticCurve | None, height_bound: int, assert_deg1: bool
) -> Deg1Evidence | None:
    """`find_deg1_class` on the curve (skipped without one), else the
    user's assertion when ``assert_deg1`` is set, else None."""
    evidence = find_deg1_class(curve, height_bound) if curve is not None else None
    if evidence is None and assert_deg1:
        evidence = Deg1Evidence("user-assertion", note="degree-1 class asserted by flag")
    return evidence


# ---------------------------------------------------------------------------
# decisions

def _ordered_reasons(reasons) -> tuple:
    order = {
        RATIONAL_TWO_TORSION: 0,
        RATIONAL_THETA: 1,
        NO_DEG1_CLASS: 2,
        GENUS_TOO_SMALL: 3,
        NEEDS_THETA_DATA: 4,
    }
    return tuple(sorted(reasons, key=lambda r: (order.get(r.kind, 99), r.kind)))


def decide(
    report: OrbitReport,
    evidence: Deg1Evidence | None,
    *,
    path: str = PATH_DIRECT,
    theta_witness: str | None = None,
    hashes: tuple = (),
    labeling: int | None = None,
    subject: tuple = (),
) -> Certificate:
    """Apply the rank criterion to orbit data; the one way to a certificate.

    RankAtLeastOne iff a degree-1 class is given and both obstructions are
    excluded; otherwise every failed condition is listed.

    On the transitivity path a transitive action on the nonzero
    two-torsion of a genus > 1 curve excludes rational two-torsion
    outright and rational theta characteristics through the parity split.
    A reducible chi (more than one two-torsion orbit) gives NeedsThetaData;
    genus 1 cannot conclude (the curve is its own theta-characteristic
    obstruction).

    The direct path reads both obstructions off the orbits: a size-1
    two-torsion orbit, a size-1 theta orbit of either parity.
    ``theta_witness`` names a rational theta characteristic known without
    theta data (the odd-model shortcut) and stands in for that data; with
    neither, the theta side is NeedsThetaData.

    ``subject``, (key, value) pairs, names what the data is about; the
    inputs digest is the sha256 of its `inputs_text` ("" without one).
    """
    if path not in (PATH_DIRECT, PATH_TRANSITIVITY):
        raise ValueError("unknown path %r" % path)
    report.validate()
    reasons = []
    if path == PATH_TRANSITIVITY:
        if not report.transitive:
            reasons.append(Reason(NEEDS_THETA_DATA, "two-torsion resolvent is reducible"))
        if report.genus <= 1:
            reasons.append(Reason(GENUS_TOO_SMALL))
    else:
        if 1 in report.j2_orbits:
            reasons.append(
                Reason(RATIONAL_TWO_TORSION, "size-1 Galois orbit in the two-torsion resolvent")
            )
        if report.theta_present:
            sides = [
                side
                for side, orbits in (("odd", report.theta_odd), ("even", report.theta_even))
                if 1 in orbits
            ]
            if sides:
                reasons.append(
                    Reason(
                        RATIONAL_THETA,
                        theta_witness
                        or "size-1 Galois orbit among %s theta characteristics"
                        % " and ".join(sides),
                    )
                )
        elif theta_witness is not None:
            reasons.append(Reason(RATIONAL_THETA, theta_witness))
        else:
            reasons.append(Reason(NEEDS_THETA_DATA, "theta resolvents not computed"))
    if evidence is None:
        reasons.append(Reason(NO_DEG1_CLASS))
    reasons = _ordered_reasons(reasons)
    return Certificate(
        verdict=VERDICT_INCONCLUSIVE if reasons else VERDICT_RANK_AT_LEAST_ONE,
        path=path,
        genus=report.genus,
        reasons=reasons,
        evidence=evidence,
        report=report,
        hashes=tuple(hashes),
        labeling=labeling,
        subject=tuple(subject),
        inputs_digest=digest_text(inputs_text(subject, hashes, report)) if subject else "",
    )


# ---------------------------------------------------------------------------
# pipelines

def certify_curve(
    f: RatPoly,
    *,
    fiber: tuple | None = None,
    full_theta: bool = False,
    height_bound: int = DEFAULT_HEIGHT_BOUND,
    assert_deg1: bool = False,
) -> Certificate:
    """The certificate of y^2 = f(x): of the curve, or, with ``fiber`` =
    (family, a), of the fiber ``f = family.specialize(a)`` of a
    `grammar.FamilyCurve`.  The subject is written from f or from ``fiber``.

    A transitive two-torsion action concludes on the transitivity path
    unless ``full_theta`` asks for the direct criterion on theta data; a
    fiber keeps that path in the two cases the comment below names.
    Odd-degree models pass the rational theta witness (g-1)*infinity.
    """
    curve = build_curve(f)
    evidence = deg1_evidence(curve, height_bound, assert_deg1)
    j2, hashes, labeling = two_torsion_data(curve)
    report = OrbitReport(curve.genus, j2)
    path = PATH_TRANSITIVITY if report.transitive else PATH_DIRECT
    if fiber is None:
        subject = (("kind", "hyperelliptic"), ("f", str(f)), ("genus", curve.genus))
    else:
        family, a = fiber
        subject = (("kind", "family-fiber"), ("family", family.description), ("t", str(a)))
        # A fiber computes theta data only when its chi is reducible, so a
        # transitive fiber keeps the transitivity path under full_theta
        # (a); without full_theta a reducible fiber stays on that path
        # too, as NeedsThetaData (b).
        full_theta = full_theta and not report.transitive
        path = PATH_TRANSITIVITY
    if full_theta:
        theta_odd, theta_even, theta_hashes = theta_data(curve)
        report = OrbitReport(curve.genus, j2, theta_odd, theta_even)
        hashes += theta_hashes
        path = PATH_DIRECT
    return decide(
        report,
        evidence,
        path=path,
        theta_witness=INFINITY_WITNESS if curve.parity == ODD else None,
        hashes=hashes,
        labeling=labeling,
        subject=subject,
    )


def _factor_degrees(poly: RatPoly) -> tuple:
    return tuple(g.degree for g in factor_over_q(poly))


def certify_chi(
    chi: RatPoly, genus: int, *, assert_deg1: bool = False, theta_odd=None, theta_even=None
) -> Certificate:
    """Certification from an external chi.  Given theta resolvents are
    checked before any decision and factored only when chi is reducible."""
    if genus < 1:
        raise ValueError("genus must be >= 1; got %d" % genus)
    if genus > MAX_GENUS:
        raise ValueError("genus %d exceeds the genus cap g <= %d" % (genus, MAX_GENUS))
    expected = j2_class_count(genus)
    if chi.degree != expected:
        raise ValueError(
            "chi has degree %d; genus %d requires 2^(2g)-1 = %d"
            % (chi.degree, genus, expected)
        )
    chi_int = chi.to_int()[1]
    if not is_squarefree(chi_int):
        raise ValueError("chi is not squarefree (not an etale-algebra resolvent)")
    theta_hashes = ()
    if theta_odd is not None:
        want_odd, want_even = theta_class_counts(genus)
        if theta_odd.degree != want_odd or theta_even.degree != want_even:
            raise ValueError(
                "theta resolvent degrees (%d, %d) do not match genus %d (%d, %d)"
                % (theta_odd.degree, theta_even.degree, genus, want_odd, want_even)
            )
        for name, poly in (("odd", theta_odd), ("even", theta_even)):
            poly_int = poly.to_int()[1]
            if not is_squarefree(poly_int):
                raise ValueError("theta %s resolvent is not squarefree" % name)
            theta_hashes += (("chi_" + name, poly_digest(poly_int.coeffs)),)
    hashes = (("chi", poly_digest(chi_int.coeffs)),)
    report = OrbitReport(genus, _factor_degrees(chi))
    if not report.transitive and theta_hashes:
        hashes += theta_hashes
        report = OrbitReport(
            genus, report.j2_orbits, _factor_degrees(theta_odd), _factor_degrees(theta_even)
        )
    return decide(
        report,
        deg1_evidence(None, 0, assert_deg1),
        path=PATH_TRANSITIVITY if report.transitive else PATH_DIRECT,
        hashes=hashes,
        subject=(("kind", "external-chi"), ("chi_degree", chi.degree), ("genus", genus)),
    )


def certify_orbits(report: OrbitReport, *, assert_deg1: bool = False) -> Certificate:
    """Certification from orbit data, on the direct path."""
    subject = (("kind", "orbit-data"), ("genus", report.genus))
    return decide(report, deg1_evidence(None, 0, assert_deg1), subject=subject)


def inputs_text(subject: tuple, hashes: tuple, report: OrbitReport) -> str:
    """The text whose sha256 is the inputs digest of a certificate on
    ``subject``: f names a curve, the family and t a fiber, the genus and
    the hashes of chi, then of the theta resolvents if given, an external
    chi, and the genus and the orbit lists orbit data."""
    fields, named = dict(subject), dict(hashes)
    kind = fields.get("kind")
    try:
        if kind == "hyperelliptic":
            return "hyperelliptic;f=%s" % fields["f"]
        if kind == "family-fiber":
            return "family:%s;t=%s" % (fields["family"], fields["t"])
        if kind == "external-chi":
            theta = "chi_odd" in named or "chi_even" in named
            names = ("chi", "chi_odd", "chi_even") if theta else ("chi",)
            return ";".join(["chi;g=%d" % fields["genus"]] + [named[n] for n in names])
        if kind == "orbit-data":
            return "orbits;g=%d;j2=%s;odd=%s;even=%s" % (
                fields["genus"], report.j2_orbits, report.theta_odd, report.theta_even
            )
    except KeyError as exc:
        # the hashes are chi, chi_odd and chi_even; no subject field is named so
        (key,) = exc.args
        where = "certificate has no hash" if key.startswith("chi") else "subject has no field"
        raise MalformedSubjectError("the %s %s %s" % (kind, where, key)) from None
    except TypeError as exc:
        raise MalformedSubjectError(exc) from None
    raise MalformedSubjectError("unknown subject kind %r" % kind)


# ---------------------------------------------------------------------------
# serialization

def canonical_json(doc) -> str:
    """Stable bytes for a document: fixed key order, two-space indent."""
    return json.dumps(doc, indent=2, ensure_ascii=True, sort_keys=False)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def certificate_doc(cert: Certificate) -> dict:
    """Canonical structured form; timings are never embedded (deterministic bytes)."""
    return {
        "schema_version": 1,
        "tool": {"name": "rankcert", "version": __version__},
        "subject": dict(cert.subject),
        "genus": cert.genus,
        "verdict": cert.verdict,
        "path": cert.path,
        "reasons": [r.to_doc() for r in cert.reasons],
        "evidence": cert.evidence.to_doc() if cert.evidence else None,
        "orbits": cert.report.to_doc(),
        "chi_irreducible": cert.chi_irreducible,
        "hashes": {k: v for k, v in cert.hashes},
        "labeling": cert.labeling,
        "inputs_digest": cert.inputs_digest,
        "timings": None,
    }


def certificate_from_doc(doc: dict) -> Certificate:
    """The certificate `decide` draws from a document's embedded data.

    The inputs are the orbit report, the evidence, the path (an unknown
    one read as direct), the witness of a RationalTheta reason, and the
    hashes, labelling index and subject.  For a document that
    `certificate_doc` emitted, the result is the original certificate.
    """
    report = OrbitReport.from_doc(doc["genus"], doc["orbits"])
    theta_witness = next(
        (r.get("witness") for r in doc["reasons"] if r["kind"] == RATIONAL_THETA), None
    )
    return decide(
        report,
        Deg1Evidence.from_doc(doc.get("evidence")),
        path=PATH_TRANSITIVITY if doc["path"] == PATH_TRANSITIVITY else PATH_DIRECT,
        theta_witness=theta_witness,
        hashes=tuple(doc.get("hashes", {}).items()),
        labeling=doc.get("labeling"),
        subject=tuple((doc.get("subject") or {}).items()),
    )


_REASON_TEXT = {
    RATIONAL_TWO_TORSION: "rational nonzero two-torsion point",
    RATIONAL_THETA: "rational theta characteristic",
    NO_DEG1_CLASS: "no rational degree-1 divisor class supplied or found",
    GENUS_TOO_SMALL: "genus must exceed 1 for the transitivity shortcut",
    NEEDS_THETA_DATA: "reducible two-torsion resolvent: needs theta data",
}


def render_certificate(cert: Certificate) -> str:
    """Human-readable report; deterministic bytes for a fixed certificate."""
    lines = []
    lines.append("verdict: %s" % cert.verdict)
    lines.append("path: %s" % cert.path)
    lines.append("genus: %d" % cert.genus)
    if cert.evidence is not None:
        ev = cert.evidence
        desc = ev.kind
        if ev.kind == "rational-point":
            desc += " (%s, %s)" % (ev.x, ev.y)
        elif ev.note:
            desc += " (%s)" % ev.note
        lines.append("degree-1 class: %s" % desc)
    else:
        lines.append("degree-1 class: none")
    rep = cert.report
    lines.append("two-torsion orbits: %s" % _fmt_orbits(rep.j2_orbits))
    if rep.theta_present:
        lines.append("odd theta orbits: %s" % _fmt_orbits(rep.theta_odd))
        lines.append("even theta orbits: %s" % _fmt_orbits(rep.theta_even))
    if cert.chi_irreducible is not None:
        lines.append(
            "two-torsion resolvent irreducible: %s"
            % ("yes" if cert.chi_irreducible else "no")
        )
    if cert.certified:
        lines.append("checks:")
        lines.append("  [ok] rational degree-1 divisor class present")
        lines.append("  [ok] no rational nonzero two-torsion")
        lines.append("  [ok] no rational theta characteristic")
        lines.append("conclusion: Mordell-Weil rank of the Jacobian is at least 1")
    else:
        lines.append("obstructions:")
        for r in cert.reasons:
            w = " [witness: %s]" % r.witness if r.witness else ""
            lines.append("  - %s: %s%s" % (r.kind, _REASON_TEXT.get(r.kind, ""), w))
    for name, value in cert.hashes:
        lines.append("hash %s: %s" % (name, value))
    if cert.labeling is not None:
        lines.append("labeling index: %d" % cert.labeling)
    if cert.inputs_digest:
        lines.append("inputs digest: %s" % cert.inputs_digest)
    lines.append("tool: rankcert %s" % __version__)
    return "\n".join(lines) + "\n"


def _fmt_orbits(orbits) -> str:
    return " ".join(str(v) for v in orbits) if orbits else "-"


# ---------------------------------------------------------------------------
# verification

def verify_certificate(doc: dict) -> tuple[bool, list]:
    """Re-check a certificate document without recomputing resolvents.

    Checks the schema and the hash shapes and requires orbit data, then
    replays the embedded data through `decide` (via `certificate_from_doc`,
    which also checks the orbit sums).  Every field that `certificate_doc`
    renders from the replay, except ``tool``, must equal the document's:
    a line per field that differs, the inputs digest naming the text it
    is the hash of.  Last, the subject must agree with the certificate
    (`_subject_problems`): the genus it names, and the point and the genus
    of the curve it names.
    """
    problems = []
    for key in ("schema_version", "tool", "genus", "verdict", "path", "reasons"):
        if key not in doc:
            problems.append("missing field: %s" % key)
    if problems:
        return False, problems
    if doc["schema_version"] != 1:
        return False, ["unknown schema_version %r" % doc["schema_version"]]
    if doc.get("orbits") is None:
        problems.append("certificate without orbit data")
    hashes = doc.get("hashes") or {}
    if not isinstance(hashes, dict):
        problems.append("hashes is not an object")
        hashes = {}
    for name, value in hashes.items():
        if not isinstance(value, str) or len(value) != 64 or any(
            ch not in "0123456789abcdef" for ch in value
        ):
            problems.append("hash %s is not sha256 hex" % name)
    if not isinstance(doc.get("subject") or {}, dict):
        problems.append("unreadable subject: subject is not an object")
    if problems:
        return False, problems
    try:
        cert = certificate_from_doc(doc)
    except MalformedReportError as exc:
        return False, [str(exc)]
    except MalformedSubjectError as exc:
        return False, ["unreadable subject: %s" % exc]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return False, ["unparseable certificate: %s" % exc]
    # a subject or a digest may be absent, as on bare orbit data
    given = dict(doc, subject=doc.get("subject") or {}, inputs_digest=doc.get("inputs_digest", ""))
    for key, value in certificate_doc(cert).items():
        if key == "tool" or given.get(key) == value:
            continue
        if key != "inputs_digest":
            problems.append("%s does not replay from embedded data" % key)
            continue
        try:
            problems.append("inputs_digest does not match the subject (%s)"
                            % inputs_text(cert.subject, cert.hashes, cert.report))
        except MalformedSubjectError as exc:  # a digest without a subject
            problems.append("unreadable subject: %s" % exc)
    if problems:
        return False, problems
    problems = _subject_problems(dict(cert.subject), cert.genus, cert.evidence)
    return (not problems), problems


def _subject_problems(subject: dict, genus: int, evidence) -> list:
    """Where a subject disagrees with the certificate: the genus that a
    curve, an external chi or orbit data names, the degree 2^(2g)-1 of an
    external chi, and on the curve it names (a curve, or the family at t)
    a rational point, exactly, and the genus (deg f - 1) // 2."""
    kind, problems = subject.get("kind"), []
    if kind in ("hyperelliptic", "external-chi", "orbit-data") and subject.get("genus") != genus:
        problems.append("the subject has genus %s, not %d" % (subject.get("genus"), genus))
    if kind == "external-chi" and subject.get("chi_degree") != j2_class_count(genus):
        problems.append("the subject's chi has degree %s, not 2^(2g)-1 = %d"
                        % (subject.get("chi_degree"), j2_class_count(genus)))
    if problems or not subject:
        return problems
    point = evidence is not None and evidence.kind == "rational-point"
    try:
        f = _subject_curve(subject)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return ["unreadable subject: %s" % exc]
    if f is None:
        return ["rational point given, but the subject names no curve"] if point else []
    if point and f(evidence.x) != evidence.y * evidence.y:
        return ["(%s, %s) is not a point of y^2 = %s" % (evidence.x, evidence.y, f)]
    if (f.degree - 1) // 2 != genus:
        return ["y^2 = %s has genus %d, not %s" % (f, (f.degree - 1) // 2, genus)]
    return []


def _subject_curve(subject: dict) -> RatPoly | None:
    """The f of y^2 = f(x) that a subject names (a curve, a fiber), or None."""
    if subject.get("kind") == "hyperelliptic":
        return parse_poly(subject["f"])
    if subject.get("kind") == "family-fiber":
        return parse_family(subject["family"]).specialize(parse_rational(subject["t"]))
    return None


def document_problems(doc) -> list:
    """What `rankcert verify` reports on a document, a line a problem: a
    certificate must pass `verify_certificate` and name its subject (unlike
    one on bare orbit data), and so must each certified entry of a scan
    document, which must tie to the document (`_fiber_ties`) and its count."""
    if isinstance(doc, dict) and doc.get("command") == "family-scan":
        return _scan_problems(doc)
    return _certificate_problems(doc)


def _certificate_problems(doc) -> list:
    if not isinstance(doc, dict):
        return ["certificate is not a JSON object"]
    ok, problems = verify_certificate(doc)
    if ok and not doc.get("subject"):
        return ["unreadable subject: unknown subject kind None"]
    return problems


def _fiber_ties(entry, family, bounds) -> list:
    """A re-checked fiber certificate belongs to its scan entry: its subject
    names the scan's family and the entry's t, an integer in the scan's
    range ``bounds`` (None when the range is unreadable)."""
    t, subject = entry["t"], dict(entry["certificate"]["subject"])
    problems = []
    if subject.get("t") != t:
        problems.append("the certificate's subject has t=%s" % subject.get("t"))
    if subject.get("family") != family:
        problems.append("the certificate's subject has the family %s, not %s"
                        % (subject.get("family"), family))
    if bounds is not None:
        try:
            a = parse_rational(t)
            inside = a.denominator == 1 and bounds[0] <= a <= bounds[1]
        except (TypeError, ValueError, ZeroDivisionError):
            inside = False
        if not inside:
            problems.append("t is not in the range %d..%d" % tuple(bounds))
    return problems


def _scan_problems(doc) -> list:
    entries = doc.get("certified", [])
    if not isinstance(entries, list):
        return ["certified is not a list"]
    problems = []
    bounds = doc.get("range")
    if not (isinstance(bounds, list) and len(bounds) == 2 and all(type(b) is int for b in bounds)):
        problems.append("range is not a pair of integers")
        bounds = None
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "t" not in entry:
            problems.append("certified entry %d is not an object with a t field" % k)
            continue
        probs = _certificate_problems(entry.get("certificate"))
        probs = probs or _fiber_ties(entry, doc.get("family"), bounds)
        problems.extend("t=%s: %s" % (entry["t"], p) for p in probs)
    counts = doc.get("counts")
    certified = counts.get("certified") if isinstance(counts, dict) else None
    if certified != len(entries):
        problems.append("counts.certified is %s, but %d entries are certified"
                        % (certified, len(entries)))
    return problems
