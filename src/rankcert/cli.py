"""Command-line surface: parsing, fixtures and output formatting.

Polynomial grammar (whitespace insignificant)::

    expr     := '-'? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | variable | '(' expr ')'
    rational := uint ('/' uint)?

Curves use the variable x; families use x and t.  ``format(parse(s))`` is
a fixed normal form and parses back to the same polynomial.

Commands (exit codes: 0 certified/verified, 2 inconclusive, 1 error)::

    rankcert certify hyperelliptic --f "x^6+x+1" [--assert-deg1-class]
             [--height-bound N] [--full-criterion] [--json]
    rankcert certify chi --file chi.txt --genus 3 --assert-deg1-class
             [--theta-odd odd.txt --theta-even even.txt] [--json]
    rankcert certify orbits --j2 3,12,48 --theta-odd 4,24 --theta-even 12,24
             --genus 3 --assert-deg1-class [--json]
    rankcert orbits hyperelliptic --f "x^6+x+1" [--theta] [--json]
    rankcert family scan --f-t "x^6+t*x+1" --range -50..50
             [--fiber-check B0] [--full-criterion] [--json]
    rankcert oracle --f "x^6+x+1" --primes 20 [--json]
    rankcert verify --certificate cert.json

All output is deterministic: fixed PRNG seeds throughout, no timestamps
or timings in the structured documents.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from fractions import Fraction
from math import prod

from . import __version__
from .certify import (
    DEFAULT_HEIGHT_BOUND,
    Deg1Evidence,
    OrbitReport,
    _pipeline_chi,
    canonical_json,
    certificate_doc,
    certify_curve,
    decide,
    deg1_evidence,
    render_certificate,
    validate_point,
    verify_certificate,
)
from .exactpoly import RatPoly, format_poly
from .factorq import BadPrimeError, _primes_from, degree_pattern
from .family import (
    FamilyCurve,
    ScanOptions,
    check_good_fiber,
    check_t_degree_cap,
    exclusion_sets,
    scan,
)
from .weierstrass import (
    build_curve,
    check_genus_cap,
    enumerate_j2_classes,
    frobenius_orbit_oracle,
    stratified_parts,
    theta_data,
    two_torsion_data,
)

__all__ = [
    "PolyParseError",
    "parse_poly",
    "parse_family",
    "format_family",
    "load_chi_fixture",
    "main",
]


# ---------------------------------------------------------------------------
# polynomial text grammar

class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("syntax error at offset %d: %s" % (pos, message))
        self.pos = pos


class _BiPoly:
    """Tiny bivariate polynomial accumulator for the parser."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def const(cls, q):
        return cls({(0, 0): Fraction(q)})

    @classmethod
    def variable(cls, name):
        return cls({(1, 0) if name == "x" else (0, 1): Fraction(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return _BiPoly(out)

    def __neg__(self):
        return _BiPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (a, b), u in self.terms.items():
            for (c, d), v in other.terms.items():
                k = (a + c, b + d)
                out[k] = out.get(k, 0) + u * v
        return _BiPoly(out)

    def __pow__(self, n):
        acc = _BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def deg_x(self):
        return max((a for a, _ in self.terms), default=-1)

    def deg_t(self):
        return max((b for _, b in self.terms), default=-1)


_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z]+)|([-+*^/()])")


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.variables = variables
        self.tokens = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise PolyParseError("unexpected character %r" % text[pos], pos)
            self.tokens.append((m.group(0), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> _BiPoly:
        value = self.expr()
        if self.peek() is not None:
            raise PolyParseError("unexpected trailing input %r" % self.peek(), self.pos())
        return value

    def expr(self) -> _BiPoly:
        negate = False
        if self.peek() == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek() in ("+", "-"):
            op, _ = self.advance()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    # products and powers are checked against the genus cap and the t-degree
    # cap before they are expanded, so a huge exponent fails at once instead
    # of after the work
    def term(self) -> _BiPoly:
        value = self.factor()
        while self.peek() == "*":
            self.advance()
            rhs = self.factor()
            check_genus_cap(value.deg_x() + rhs.deg_x())
            check_t_degree_cap(value.deg_t() + rhs.deg_t())
            value = value * rhs
        return value

    def factor(self) -> _BiPoly:
        value = self.base()
        if self.peek() == "^":
            self.advance()
            tok = self.peek()
            if tok is None or not tok.isdigit():
                raise PolyParseError("expected a nonnegative integer exponent", self.pos())
            self.advance()
            n = int(tok)
            check_genus_cap(value.deg_x() * n)
            check_t_degree_cap(value.deg_t() * n)
            value = value ** n
        return value

    def base(self) -> _BiPoly:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of input", self.pos())
        if tok.isdigit():
            _, _pos = self.advance()
            num = int(tok)
            if self.peek() == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok is None or not den_tok.isdigit():
                    raise PolyParseError("expected a positive integer denominator", self.pos())
                self.advance()
                if int(den_tok) == 0:
                    raise PolyParseError("zero denominator", self.pos())
                return _BiPoly.const(Fraction(num, int(den_tok)))
            return _BiPoly.const(num)
        if tok.isalpha():
            _, pos = self.advance()
            if tok not in self.variables:
                raise PolyParseError("unknown variable %r" % tok, pos)
            return _BiPoly.variable(tok)
        if tok == "(":
            self.advance()
            value = self.expr()
            if self.peek() != ")":
                raise PolyParseError("expected ')'", self.pos())
            self.advance()
            return value
        raise PolyParseError("unexpected token %r" % tok, self.pos())


def parse_poly(text: str) -> RatPoly:
    """Parse a univariate polynomial in x with exact rational coefficients.

    >>> parse_poly("x^2 - 3/2*x + 1").coeffs
    (Fraction(1, 1), Fraction(-3, 2), Fraction(1, 1))
    """
    bp = _Parser(text, ("x",)).parse()
    coeffs = [Fraction(0)] * (bp.deg_x() + 1)
    for (a, _), v in bp.terms.items():
        coeffs[a] = v
    return RatPoly(coeffs)


def parse_family(text: str) -> FamilyCurve:
    """Parse a bivariate polynomial in x and t into a one-parameter family."""
    bp = _Parser(text, ("x", "t")).parse()
    dx = bp.deg_x()
    if dx < 1:
        raise PolyParseError("family must involve x", 0)
    numerators = []
    for a in range(dx + 1):
        tc = {}
        for (ax, bt), v in bp.terms.items():
            if ax == a:
                tc[bt] = v
        coeffs = [tc.get(b, Fraction(0)) for b in range(max(tc, default=0) + 1)]
        numerators.append(RatPoly(coeffs))
    return FamilyCurve(tuple(numerators), format_family(numerators))


def _format_t_monomial(coeff: Fraction, tdeg: int) -> str:
    mag = -coeff if coeff < 0 else coeff
    if tdeg == 0:
        return str(mag)
    tpow = "t" if tdeg == 1 else "t^%d" % tdeg
    return tpow if mag == 1 else "%s*%s" % (mag, tpow)


def format_family(numerators) -> str:
    """Canonical normal form of a family polynomial in x and t."""
    parts = []
    for k in range(len(numerators) - 1, -1, -1):
        c = numerators[k]
        if c.is_zero:
            continue
        nterms = sum(1 for v in c.coeffs if v)
        xpow = "" if k == 0 else ("x" if k == 1 else "x^%d" % k)
        if nterms == 1:
            tdeg = c.degree
            coeff = c.coeffs[tdeg]
            neg = coeff < 0
            body = _format_t_monomial(coeff, tdeg)
            if xpow:
                body = xpow if (body == "1") else "%s*%s" % (body, xpow)
        else:
            neg = False
            body = "(%s)" % format_poly(c.coeffs, var="t")
            if xpow:
                body = "%s*%s" % (body, xpow)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# fixtures

def load_chi_fixture(path) -> RatPoly:
    """Load a resolvent polynomial from a coefficient listing.

    Format: comment lines start with '#'; the first content line is the
    header tag ``order: ascending`` or ``order: descending``; the remaining
    whitespace/newline-separated tokens are the integer coefficients.
    """
    with open(path, "r", encoding="utf-8") as fh:
        content = [
            line.strip()
            for line in fh
            if line.strip() and not line.strip().startswith("#")
        ]
    if not content:
        raise ValueError("empty coefficient file: %s" % path)
    header = content[0].replace(" ", "").lower()
    if header not in ("order:ascending", "order:descending"):
        raise ValueError(
            "missing header tag 'order: ascending|descending' in %s" % path
        )
    tokens = " ".join(content[1:]).split()
    if not tokens:
        raise ValueError("no coefficients in %s" % path)
    try:
        coeffs = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError("malformed coefficient in %s: %s" % (path, exc)) from None
    if header.endswith("descending"):
        coeffs.reverse()
    poly = RatPoly(coeffs)
    if poly.is_zero:
        raise ValueError("zero polynomial in %s" % path)
    return poly


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, text)

def _emit_certificate(cert, as_json: bool):
    text = canonical_json(certificate_doc(cert)) + "\n" if as_json else render_certificate(cert)
    return (0 if cert.certified else 2), text


def _check_height_bound(args):
    if args.height_bound < 0:
        raise ValueError("--height-bound must be at least 0; got %d" % args.height_bound)


def _cmd_certify_hyperelliptic(args):
    _check_height_bound(args)
    f = parse_poly(args.f)
    cert = certify_curve(
        f,
        (("kind", "hyperelliptic"), ("f", str(f)), ("genus", (f.degree - 1) // 2)),
        full_theta=args.full_criterion,
        height_bound=args.height_bound,
        assert_deg1=args.assert_deg1_class,
    )
    return _emit_certificate(cert, args.json)


def _cmd_certify_chi(args):
    chi = load_chi_fixture(args.file)
    evidence = deg1_evidence(None, 0, args.assert_deg1_class)
    theta_odd = load_chi_fixture(args.theta_odd) if args.theta_odd else None
    theta_even = load_chi_fixture(args.theta_even) if args.theta_even else None
    if (theta_odd is None) != (theta_even is None):
        raise ValueError("--theta-odd and --theta-even must be given together")
    cert = _pipeline_chi(chi, args.genus, evidence, theta_odd, theta_even)
    return _emit_certificate(cert, args.json)


def _parse_orbit_list(text: str) -> tuple:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError("orbit lists are comma-separated integers: %r" % text)
    if not values or any(v < 1 for v in values):
        raise ValueError("orbit sizes must be positive integers: %r" % text)
    return values


def _cmd_certify_orbits(args):
    report = OrbitReport(
        genus=args.genus,
        j2_orbits=_parse_orbit_list(args.j2),
        theta_odd=_parse_orbit_list(args.theta_odd),
        theta_even=_parse_orbit_list(args.theta_even),
    )
    evidence = deg1_evidence(None, 0, args.assert_deg1_class)
    cert = decide(report, evidence, subject=(("kind", "orbit-data"), ("genus", args.genus)))
    return _emit_certificate(cert, args.json)


def _cmd_orbits_hyperelliptic(args):
    f = parse_poly(args.f)
    curve = build_curve(f)
    j2, hashes, labeling = two_torsion_data(curve)
    theta_odd = theta_even = None
    if args.theta:
        theta_odd, theta_even, theta_hashes = theta_data(curve)
        hashes += theta_hashes
    doc = {
        "schema_version": 1,
        "tool": {"name": "rankcert", "version": __version__},
        "command": "orbits",
        "f": str(f),
        "genus": curve.genus,
        "labeling": labeling,
        "j2": list(j2),
        "theta_odd": list(theta_odd) if args.theta else None,
        "theta_even": list(theta_even) if args.theta else None,
        "hashes": dict(hashes),
    }
    if args.json:
        return 0, canonical_json(doc) + "\n"
    lines = [
        "curve: y^2 = %s" % doc["f"],
        "genus: %d" % doc["genus"],
        "two-torsion orbits: %s" % " ".join(str(v) for v in doc["j2"]),
    ]
    if doc["theta_odd"] is not None:
        lines.append("odd theta orbits: %s" % " ".join(str(v) for v in doc["theta_odd"]))
        lines.append("even theta orbits: %s" % " ".join(str(v) for v in doc["theta_even"]))
    return 0, "\n".join(lines) + "\n"


def _cmd_family_scan(args):
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", args.range.strip())
    if not m:
        raise ValueError("--range expects A..B with integers, got %r" % args.range)
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError("empty range %d..%d" % (lo, hi))
    _check_height_bound(args)
    fam = parse_family(args.f_t)
    options = ScanOptions(
        full_theta=args.full_criterion,
        height_bound=args.height_bound,
        assert_deg1=args.assert_deg1_class,
    )
    fiber_check = None
    exclusions = None
    if args.fiber_check is not None:
        try:
            b = Fraction(args.fiber_check)
        except ZeroDivisionError:
            raise ValueError(
                "--fiber-check has a zero denominator: %s" % args.fiber_check
            ) from None
        # computed once, for the check and the scan
        exclusions = exclusion_sets(fam)
        transitive, rep = check_good_fiber(fam, b, exclusions)
        fiber_check = {
            "t": str(b),
            "transitive": transitive,
            "j2": list(rep.j2_orbits),
        }
    report = scan(fam, lo, hi, options, exclusions)
    doc = {
        "schema_version": 1,
        "tool": {"name": "rankcert", "version": __version__},
        "command": "family-scan",
        "family": report.family,
        "range": [lo, hi],
        "fiber_check": fiber_check,
        "exclusions": {
            "z1": sorted(str(v) for v in report.exclusions.z1),
            "z2": sorted(str(v) for v in report.exclusions.z2),
        },
        "counts": {
            "scanned": hi - lo + 1,
            "certified": len(report.certified),
            "skipped": len(report.skipped),
        },
        "certified": [
            {"t": str(a), "certificate": certificate_doc(c)}
            for a, c in report.certified
        ],
        "skipped": [
            {"t": str(a), "kind": kind, "details": list(details)}
            for a, kind, details in report.skipped
        ],
    }
    code = 0 if report.certified else 2
    if args.json:
        return code, canonical_json(doc) + "\n"
    lines = [
        "family: y^2 = %s" % report.family,
        "range: %d..%d" % (lo, hi),
        "z1: %s" % (", ".join(doc["exclusions"]["z1"]) or "(empty)"),
        "z2: %s" % (", ".join(doc["exclusions"]["z2"]) or "(empty)"),
    ]
    if fiber_check is not None:
        lines.append(
            "fiber check t=%s: %s (orbits %s)"
            % (
                fiber_check["t"],
                "transitive" if fiber_check["transitive"] else "not transitive",
                " ".join(str(v) for v in fiber_check["j2"]),
            )
        )
    lines.append(
        "certified %d of %d fibers: %s"
        % (
            len(report.certified),
            hi - lo + 1,
            ", ".join(str(a) for a, _ in report.certified) or "(none)",
        )
    )
    for a, kind, details in report.skipped:
        det = " (%s)" % ", ".join(str(d) for d in details) if details else ""
        lines.append("skipped t=%s: %s%s" % (a, kind, det))
    return code, "\n".join(lines) + "\n"


def _cmd_oracle(args):
    if args.primes < 1:
        raise ValueError("--primes must be at least 1; got %d" % args.primes)
    f = parse_poly(args.f)
    curve = build_curve(f)
    _strata, (parts,), _labeling = stratified_parts(curve, [enumerate_j2_classes(curve)])
    chi = prod(parts[1:], start=parts[0])
    rows = []
    all_match = True
    for p in _primes_from(2):
        if len(rows) >= args.primes:
            break
        if p > 100000:
            raise RuntimeError("ran out of primes below 100000")
        try:
            pat = degree_pattern(chi, p)
            oracle = frobenius_orbit_oracle(curve, p)
        except BadPrimeError:
            continue
        match = pat == oracle
        all_match = all_match and match
        rows.append((p, pat, oracle, match))
    doc = {
        "schema_version": 1,
        "tool": {"name": "rankcert", "version": __version__},
        "command": "oracle",
        "f": str(f),
        "chi_degree": chi.degree,
        "rows": [
            {
                "p": p,
                "chi_pattern": list(pat),
                "subset_action": list(orc),
                "match": match,
            }
            for p, pat, orc, match in rows
        ],
        "all_match": all_match,
    }
    if args.json:
        return (0 if all_match else 2), canonical_json(doc) + "\n"
    lines = ["curve: y^2 = %s" % doc["f"], "chi degree: %d" % chi.degree]
    for p, pat, orc, match in rows:
        lines.append(
            "p=%d: chi mod p %s | subset action %s | %s"
            % (p, list(pat), list(orc), "ok" if match else "MISMATCH")
        )
    lines.append("agreement: %s" % ("complete" if all_match else "FAILED"))
    return (0 if all_match else 2), "\n".join(lines) + "\n"


def _certificate_problems(doc) -> list:
    """`verify_certificate` on a certificate that names its subject, then
    the curve the subject names: rational-point evidence is checked on it
    exactly, and its genus (deg f - 1) // 2 must be the certificate's."""
    if not isinstance(doc, dict):
        return ["certificate is not a JSON object"]
    ok, problems = verify_certificate(doc)
    if not ok:
        return problems
    if not doc.get("subject"):
        # unlike one on bare orbit data, a command's certificate names its subject
        return ["unreadable subject: unknown subject kind None"]
    ev = Deg1Evidence.from_doc(doc.get("evidence"))
    point = ev is not None and ev.kind == "rational-point"
    subject = doc["subject"]
    try:
        if subject.get("kind") == "hyperelliptic":
            f = parse_poly(subject["f"])
        elif subject.get("kind") == "family-fiber":
            f = parse_family(subject["family"]).specialize(Fraction(subject["t"]))
        else:
            return ["rational point given, but the subject names no curve"] if point else []
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return ["unreadable subject: %s" % exc]
    if point and not validate_point(f, ev):
        return ["(%s, %s) is not a point of y^2 = %s" % (ev.x, ev.y, f)]
    genus = (f.degree - 1) // 2
    if genus != doc["genus"]:
        return ["y^2 = %s has genus %d, not %s" % (f, genus, doc["genus"])]
    return []


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
            inside = re.fullmatch(r"-?[0-9]+", t) and bounds[0] <= int(t) <= bounds[1]
        except (TypeError, ValueError):
            inside = False
        if not inside:
            problems.append("t is not in the range %d..%d" % tuple(bounds))
    return problems


def _scan_problems(doc) -> list:
    """Every certified entry of a family-scan document re-checks and ties
    to the document (`_fiber_ties`), and the certified count matches."""
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


def _cmd_verify(args):
    with open(args.certificate, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and doc.get("command") == "family-scan":
        problems = _scan_problems(doc)
        if problems:
            return 1, "\n".join("FAIL: %s" % p for p in problems) + "\n"
        return 0, "verified: %d fiber certificate(s) re-check\n" % len(doc.get("certified", []))
    problems = _certificate_problems(doc)
    if not problems:
        return 0, "verified: certificate re-checks\n"
    return 1, "\n".join("FAIL: %s" % p for p in problems) + "\n"


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rankcert",
        description="Certify positive Mordell-Weil rank of hyperelliptic Jacobians",
    )
    top.add_argument("--version", action="version", version="rankcert " + __version__)
    sub = top.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="produce a rank certificate")
    csub = certify.add_subparsers(dest="mode", required=True)

    ch = csub.add_parser("hyperelliptic", help="certify a curve y^2 = f(x)")
    ch.add_argument("--f", required=True, help="polynomial in x, e.g. 'x^6+x+1'")
    ch.add_argument("--assert-deg1-class", action="store_true")
    ch.add_argument("--height-bound", type=int, default=DEFAULT_HEIGHT_BOUND)
    ch.add_argument("--full-criterion", action="store_true",
                    help="always compute theta resolvents for the direct criterion")
    ch.add_argument("--json", action="store_true")
    ch.set_defaults(func=_cmd_certify_hyperelliptic)

    cc = csub.add_parser("chi", help="certify from an externally computed resolvent")
    cc.add_argument("--file", required=True)
    cc.add_argument("--genus", type=int, required=True)
    cc.add_argument("--assert-deg1-class", action="store_true")
    cc.add_argument("--theta-odd", default=None)
    cc.add_argument("--theta-even", default=None)
    cc.add_argument("--json", action="store_true")
    cc.set_defaults(func=_cmd_certify_chi)

    co = csub.add_parser("orbits", help="certify from orbit-size multisets")
    co.add_argument("--j2", required=True)
    co.add_argument("--theta-odd", required=True)
    co.add_argument("--theta-even", required=True)
    co.add_argument("--genus", type=int, required=True)
    co.add_argument("--assert-deg1-class", action="store_true")
    co.add_argument("--json", action="store_true")
    co.set_defaults(func=_cmd_certify_orbits)

    orbits = sub.add_parser("orbits", help="report Galois orbit decompositions")
    osub = orbits.add_subparsers(dest="mode", required=True)
    oh = osub.add_parser("hyperelliptic")
    oh.add_argument("--f", required=True)
    oh.add_argument("--theta", action="store_true")
    oh.add_argument("--json", action="store_true")
    oh.set_defaults(func=_cmd_orbits_hyperelliptic)

    family = sub.add_parser("family", help="one-parameter family tools")
    fsub = family.add_subparsers(dest="mode", required=True)
    fs = fsub.add_parser("scan", help="certify integer fibers in a range")
    fs.add_argument("--f-t", required=True, dest="f_t",
                    help="bivariate polynomial in x and t, e.g. 'x^6+t*x+1'")
    fs.add_argument("--range", required=True, help="A..B inclusive integer range")
    fs.add_argument("--fiber-check", default=None,
                    help="verify transitivity at this designated fiber first")
    fs.add_argument("--full-criterion", action="store_true",
                    help="compute theta resolvents for the direct criterion on "
                    "fibers whose two-torsion action is reducible; transitive "
                    "fibers keep the transitivity shortcut")
    fs.add_argument("--assert-deg1-class", action="store_true")
    fs.add_argument("--height-bound", type=int, default=DEFAULT_HEIGHT_BOUND)
    fs.add_argument("--json", action="store_true")
    fs.set_defaults(func=_cmd_family_scan)

    oracle = sub.add_parser("oracle", help="Frobenius cross-check report")
    oracle.add_argument("--f", required=True)
    oracle.add_argument("--primes", type=int, default=10)
    oracle.add_argument("--json", action="store_true")
    oracle.set_defaults(func=_cmd_oracle)

    verify = sub.add_parser("verify", help="re-check an emitted certificate")
    verify.add_argument("--certificate", required=True)
    verify.set_defaults(func=_cmd_verify)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, text = args.func(args)
            stream = sys.stdout
        except (ValueError, RuntimeError, OSError, ZeroDivisionError) as exc:
            code, text, stream = 1, "error: %s\n" % exc, sys.stderr
    # one line per distinct message, free of source paths and line numbers
    for message in dict.fromkeys(str(w.message) for w in caught):
        sys.stderr.write("warning: %s\n" % message)
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
