"""Decision core: the positive-rank criterion and machine-checkable certificates.

A curve with a rational degree-1 divisor class has a Jacobian of
Mordell-Weil rank >= 1 as soon as it carries no rational nonzero
two-torsion point and no rational theta characteristic.  Two certification
paths realize this: `decide_from_orbits` checks all three conditions from
the Galois orbit data of the resolvents ("direct"), and
`decide_from_irreducibility` uses the shortcut that a transitive action on
the nonzero two-torsion of a genus > 1 curve already excludes both
obstructions ("transitivity").

Certificates are self-contained: `verify_certificate` re-checks every
embedded arithmetic fact (orbit sums, count formulas, the decision logic)
without recomputing any resolvent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from . import __version__
from .exactpoly import RatPoly
from .weierstrass import ODD, HyperellipticCurve

__all__ = [
    "Deg1Evidence",
    "Reason",
    "OrbitReport",
    "Certificate",
    "MalformedReportError",
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
    "decide_from_orbits",
    "decide_without_theta",
    "decide_from_irreducibility",
    "render_certificate",
    "certificate_doc",
    "certificate_from_doc",
    "verify_certificate",
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


@dataclass(frozen=True)
class Deg1Evidence:
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
        x = Fraction(doc["x"]) if "x" in doc else None
        y = Fraction(doc["y"]) if "y" in doc else None
        return cls(kind=doc["kind"], x=x, y=y, note=doc.get("note", ""))


@dataclass(frozen=True)
class Reason:
    kind: str
    witness: str | None = None

    def to_doc(self) -> dict:
        doc = {"kind": self.kind}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc

    @classmethod
    def from_doc(cls, doc) -> "Reason":
        return cls(kind=doc["kind"], witness=doc.get("witness"))


@dataclass(frozen=True)
class OrbitReport:
    """Galois orbit-size multisets of the resolvents."""

    genus: int
    j2_orbits: tuple
    theta_odd: tuple | None = None
    theta_even: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "j2_orbits", tuple(sorted(self.j2_orbits)))
        if self.theta_odd is not None:
            object.__setattr__(self, "theta_odd", tuple(sorted(self.theta_odd)))
        if self.theta_even is not None:
            object.__setattr__(self, "theta_even", tuple(sorted(self.theta_even)))

    def validate(self):
        g = self.genus
        if g < 1:
            raise MalformedReportError("genus must be >= 1")
        want_j2 = (1 << (2 * g)) - 1
        if sum(self.j2_orbits) != want_j2:
            raise MalformedReportError(
                "two-torsion orbit sizes sum to %d, expected 2^(2g)-1 = %d"
                % (sum(self.j2_orbits), want_j2)
            )
        if any(v < 1 for v in self.j2_orbits):
            raise MalformedReportError("orbit sizes must be positive")
        want_odd = (1 << (g - 1)) * ((1 << g) - 1)
        want_even = (1 << (g - 1)) * ((1 << g) + 1)
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

    @property
    def theta_present(self) -> bool:
        return self.theta_odd is not None and self.theta_even is not None

    def to_doc(self) -> dict:
        return {
            "j2": list(self.j2_orbits),
            "theta_odd": list(self.theta_odd) if self.theta_odd is not None else None,
            "theta_even": list(self.theta_even) if self.theta_even is not None else None,
        }

    @classmethod
    def from_doc(cls, genus, doc) -> "OrbitReport":
        return cls(
            genus=genus,
            j2_orbits=tuple(doc["j2"]),
            theta_odd=tuple(doc["theta_odd"]) if doc.get("theta_odd") is not None else None,
            theta_even=tuple(doc["theta_even"]) if doc.get("theta_even") is not None else None,
        )


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable verdict with the provenance of every hypothesis."""

    verdict: str
    path: str
    genus: int
    reasons: tuple
    evidence: Deg1Evidence | None
    report: OrbitReport | None
    chi_irreducible: bool | None = None
    hashes: tuple = ()  # pairs (name, sha256 hex)
    labeling: int | None = None
    inputs_digest: str = ""
    tool_version: str = __version__

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_RANK_AT_LEAST_ONE

    def reason_kinds(self) -> tuple:
        return tuple(r.kind for r in self.reasons)


# ---------------------------------------------------------------------------
# evidence search

def _square_root_of_fraction(q: Fraction):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _height_points(bound: int):
    """Rationals p/q in lowest terms ordered by max(|p|, q), then (q, p)."""
    from math import gcd

    yield Fraction(0)
    for h in range(1, bound + 1):
        for q in range(1, h + 1):
            ps = range(-h, h + 1) if q == h else (-h, h)
            for p in ps:
                if gcd(abs(p), q) == 1:
                    yield Fraction(p, q)


def find_deg1_class(
    curve: HyperellipticCurve, height_bound: int = DEFAULT_HEIGHT_BOUND
) -> Deg1Evidence | None:
    """A rational degree-1 divisor class, when one is visible.

    Odd-degree models and even-degree models with square leading
    coefficient have a rational place at infinity; otherwise x = p/q with
    |p|, q <= height_bound is searched for f(x) a rational square.
    """
    if curve.parity == ODD:
        return Deg1Evidence("infinite-place", note="odd-degree model")
    if curve.lc_is_square:
        return Deg1Evidence(
            "infinite-place", note="even-degree model with square leading coefficient"
        )
    f = curve.original
    for x in _height_points(height_bound):
        y = _square_root_of_fraction(f(x))
        if y is not None:
            return Deg1Evidence("rational-point", x=x, y=y)
    return None


def validate_point(f: RatPoly, ev: Deg1Evidence) -> bool:
    """False only for rational-point evidence with y^2 != f(x), exactly."""
    if ev.kind != "rational-point":
        return True
    return f(ev.x) == ev.y * ev.y


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


def decide_from_orbits(
    report: OrbitReport,
    evidence: Deg1Evidence | None,
    *,
    theta_witness: str | None = None,
    two_torsion_witness: str | None = None,
    hashes: tuple = (),
    labeling: int | None = None,
    inputs_digest: str = "",
) -> Certificate:
    """Apply the three-condition criterion to orbit data ("direct" path).

    RankAtLeastOne iff a degree-1 class is given, no two-torsion orbit has
    size 1, and no theta orbit of either parity has size 1; otherwise every
    failed condition is listed.  ``theta_witness`` may substitute for theta
    orbit data when a rational theta characteristic is already known (the
    odd-model shortcut).
    """
    report.validate()
    known_rational_theta = theta_witness is not None and not report.theta_present
    if not report.theta_present and not known_rational_theta:
        raise MalformedReportError("theta orbit data missing")
    reasons = []
    if 1 in report.j2_orbits:
        reasons.append(
            Reason(
                RATIONAL_TWO_TORSION,
                two_torsion_witness
                or "size-1 Galois orbit in the two-torsion resolvent",
            )
        )
    theta_hit = None
    if known_rational_theta:
        theta_hit = theta_witness
    elif report.theta_present:
        sides = []
        if 1 in report.theta_odd:
            sides.append("odd")
        if 1 in report.theta_even:
            sides.append("even")
        if sides:
            theta_hit = theta_witness or (
                "size-1 Galois orbit among %s theta characteristics"
                % " and ".join(sides)
            )
    if theta_hit is not None:
        reasons.append(Reason(RATIONAL_THETA, theta_hit))
    if evidence is None:
        reasons.append(Reason(NO_DEG1_CLASS))
    reasons = _ordered_reasons(reasons)
    verdict = VERDICT_RANK_AT_LEAST_ONE if not reasons else VERDICT_INCONCLUSIVE
    return Certificate(
        verdict=verdict,
        path=PATH_DIRECT,
        genus=report.genus,
        reasons=reasons,
        evidence=evidence,
        report=report,
        hashes=tuple(hashes),
        labeling=labeling,
        inputs_digest=inputs_digest,
    )


def decide_without_theta(
    report: OrbitReport,
    evidence: Deg1Evidence | None,
    *,
    two_torsion_witness: str | None = None,
    hashes: tuple = (),
    labeling: int | None = None,
    inputs_digest: str = "",
) -> Certificate:
    """Direct path with the theta side unavailable: always inconclusive.

    Lists rational two-torsion when a size-1 orbit is visible, a missing
    degree-1 class, and the theta gap itself.
    """
    report.validate()
    reasons = []
    if 1 in report.j2_orbits:
        reasons.append(
            Reason(
                RATIONAL_TWO_TORSION,
                two_torsion_witness
                or "size-1 Galois orbit in the two-torsion resolvent",
            )
        )
    if evidence is None:
        reasons.append(Reason(NO_DEG1_CLASS))
    reasons.append(Reason(NEEDS_THETA_DATA, "theta resolvents not computed"))
    return Certificate(
        verdict=VERDICT_INCONCLUSIVE,
        path=PATH_DIRECT,
        genus=report.genus,
        reasons=_ordered_reasons(reasons),
        evidence=evidence,
        report=report,
        hashes=tuple(hashes),
        labeling=labeling,
        inputs_digest=inputs_digest,
    )


def decide_from_irreducibility(
    chi_irreducible: bool,
    genus: int,
    evidence: Deg1Evidence | None,
    *,
    j2_orbits: tuple | None = None,
    hashes: tuple = (),
    labeling: int | None = None,
    inputs_digest: str = "",
) -> Certificate:
    """The transitivity shortcut: irreducible chi + genus > 1 + degree-1 class.

    Transitive Galois action on the nonzero two-torsion of a genus > 1
    curve excludes rational two-torsion outright and rational theta
    characteristics through the parity split, so the direct criterion's
    conditions hold wholesale.  Genus 1 cannot conclude (the curve is its
    own theta-characteristic obstruction); a reducible chi defers to the
    direct path.
    """
    reasons = []
    if not chi_irreducible:
        reasons.append(
            Reason(NEEDS_THETA_DATA, "two-torsion resolvent is reducible")
        )
    if genus <= 1:
        reasons.append(Reason(GENUS_TOO_SMALL))
    if evidence is None:
        reasons.append(Reason(NO_DEG1_CLASS))
    reasons = _ordered_reasons(reasons)
    verdict = VERDICT_RANK_AT_LEAST_ONE if not reasons else VERDICT_INCONCLUSIVE
    report = None
    if j2_orbits is not None:
        report = OrbitReport(genus=genus, j2_orbits=tuple(j2_orbits))
        report.validate()
    return Certificate(
        verdict=verdict,
        path=PATH_TRANSITIVITY,
        genus=genus,
        reasons=reasons,
        evidence=evidence,
        report=report,
        chi_irreducible=chi_irreducible,
        hashes=tuple(hashes),
        labeling=labeling,
        inputs_digest=inputs_digest,
    )


# ---------------------------------------------------------------------------
# serialization

def canonical_json(doc) -> str:
    """Stable bytes for a document: fixed key order, two-space indent."""
    return json.dumps(doc, indent=2, ensure_ascii=True, sort_keys=False)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def certificate_doc(cert: Certificate, subject: dict | None = None) -> dict:
    """Canonical structured form; timings are never embedded (deterministic bytes)."""
    return {
        "schema_version": 1,
        "tool": {"name": "rankcert", "version": cert.tool_version},
        "subject": subject or {},
        "genus": cert.genus,
        "verdict": cert.verdict,
        "path": cert.path,
        "reasons": [r.to_doc() for r in cert.reasons],
        "evidence": cert.evidence.to_doc() if cert.evidence else None,
        "orbits": cert.report.to_doc() if cert.report else None,
        "chi_irreducible": cert.chi_irreducible,
        "hashes": {k: v for k, v in cert.hashes},
        "labeling": cert.labeling,
        "inputs_digest": cert.inputs_digest,
        "timings": None,
    }


def certificate_from_doc(doc: dict) -> Certificate:
    report = None
    if doc.get("orbits") is not None:
        report = OrbitReport.from_doc(doc["genus"], doc["orbits"])
    return Certificate(
        verdict=doc["verdict"],
        path=doc["path"],
        genus=doc["genus"],
        reasons=tuple(Reason.from_doc(r) for r in doc["reasons"]),
        evidence=Deg1Evidence.from_doc(doc.get("evidence")),
        report=report,
        chi_irreducible=doc.get("chi_irreducible"),
        hashes=tuple(sorted(doc.get("hashes", {}).items())),
        labeling=doc.get("labeling"),
        inputs_digest=doc.get("inputs_digest", ""),
        tool_version=doc["tool"]["version"],
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
    if cert.report is not None:
        rep = cert.report
        lines.append("two-torsion orbits: %s" % _fmt_orbits(rep.j2_orbits))
        if rep.theta_odd is not None:
            lines.append("odd theta orbits: %s" % _fmt_orbits(rep.theta_odd))
        if rep.theta_even is not None:
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
    lines.append("tool: rankcert %s" % cert.tool_version)
    return "\n".join(lines) + "\n"


def _fmt_orbits(orbits) -> str:
    return " ".join(str(v) for v in orbits) if orbits else "-"


# ---------------------------------------------------------------------------
# verification

def verify_certificate(doc: dict) -> tuple[bool, list]:
    """Re-check a certificate document without recomputing resolvents.

    Validates the schema, the orbit-sum formulas, hash shapes, and re-runs
    the decision logic on the embedded data; the verdict and reasons must
    reproduce exactly.
    """
    problems = []
    for key in ("schema_version", "tool", "genus", "verdict", "path", "reasons"):
        if key not in doc:
            problems.append("missing field: %s" % key)
    if problems:
        return False, problems
    if doc["schema_version"] != 1:
        problems.append("unknown schema_version %r" % doc["schema_version"])
        return False, problems
    try:
        cert = certificate_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return False, ["unparseable certificate: %s" % exc]
    if cert.verdict not in (VERDICT_RANK_AT_LEAST_ONE, VERDICT_INCONCLUSIVE):
        problems.append("unknown verdict %r" % cert.verdict)
    if cert.path not in (PATH_DIRECT, PATH_TRANSITIVITY):
        problems.append("unknown path %r" % cert.path)
    if cert.report is not None:
        try:
            cert.report.validate()
        except MalformedReportError as exc:
            problems.append(str(exc))
    for name, value in cert.hashes:
        if len(value) != 64 or any(ch not in "0123456789abcdef" for ch in value):
            problems.append("hash %s is not sha256 hex" % name)
    if problems:
        return False, problems

    # replay the decision on the embedded data
    if cert.path == PATH_TRANSITIVITY:
        if cert.chi_irreducible is None:
            problems.append("transitivity path without chi_irreducible flag")
        else:
            if cert.report is not None:
                want = ((1 << (2 * cert.genus)) - 1,)
                if cert.chi_irreducible != (cert.report.j2_orbits == want):
                    problems.append(
                        "chi_irreducible flag contradicts embedded orbit data"
                    )
            replay = decide_from_irreducibility(
                cert.chi_irreducible, cert.genus, cert.evidence
            )
            if replay.verdict != cert.verdict:
                problems.append("verdict does not replay from embedded data")
            if replay.reason_kinds() != cert.reason_kinds():
                problems.append("reasons do not replay from embedded data")
    else:
        if cert.report is None:
            problems.append("direct path without orbit data")
        else:
            replay = None
            if cert.report.theta_present:
                replay = decide_from_orbits(cert.report, cert.evidence)
            elif NEEDS_THETA_DATA in cert.reason_kinds():
                replay = decide_without_theta(cert.report, cert.evidence)
            else:
                hits = [r for r in cert.reasons if r.kind == RATIONAL_THETA]
                if hits:
                    replay = decide_from_orbits(
                        cert.report,
                        cert.evidence,
                        theta_witness=hits[0].witness or INFINITY_WITNESS,
                    )
                else:
                    problems.append("direct path lacks theta data and theta reason")
            if replay is not None:
                if replay.verdict != cert.verdict:
                    problems.append("verdict does not replay from embedded data")
                if replay.reason_kinds() != cert.reason_kinds():
                    problems.append("reasons do not replay from embedded data")
    if cert.certified and cert.evidence is None:
        problems.append("certified without degree-1 evidence")
    return (not problems), problems
