"""Command-line surface: argument parsing, the chi fixture reader and
output formatting.

`--f` and `--f-t` are read with the grammar of `rankcert.grammar`, and
`--fiber-check` as a rational n or n/d.  `verify` prints the problems
that `certify.document_problems` finds, and defines no check of its own.

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
from math import prod

from . import __version__
from .certify import (
    DEFAULT_HEIGHT_BOUND,
    OrbitReport,
    _pipeline_chi,
    canonical_json,
    certificate_doc,
    certify_curve,
    decide,
    deg1_evidence,
    document_problems,
    render_certificate,
)
from .exactpoly import RatPoly, _read_decimal
from .factorq import BadPrimeError, _primes_from, degree_pattern
from .family import ScanOptions, check_good_fiber, exclusion_sets, scan
from .grammar import parse_family, parse_poly, parse_rational
from .weierstrass import (
    build_curve,
    enumerate_j2_classes,
    frobenius_orbit_oracle,
    stratified_parts,
    theta_data,
    two_torsion_data,
)

__all__ = ["load_chi_fixture", "main"]


# ---------------------------------------------------------------------------
# fixtures

def load_chi_fixture(path) -> RatPoly:
    """Load a resolvent polynomial from a coefficient listing.

    Format: comment lines start with '#'; the first content line is the
    header tag ``order: ascending`` or ``order: descending``; the remaining
    whitespace/newline-separated tokens are the integer coefficients, each
    written -?digits.
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
        coeffs = [_read_decimal(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError("malformed coefficient in %s: %s" % (path, exc)) from None
    if header.endswith("descending"):
        coeffs.reverse()
    poly = RatPoly(coeffs)
    if poly.is_zero:
        raise ValueError("zero polynomial in %s" % path)
    return poly


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, document, text), and `main`
# prints the document as canonical JSON under --json, else the text

def _document(command: str, **fields) -> dict:
    tool = {"name": "rankcert", "version": __version__}
    return {"schema_version": 1, "tool": tool, "command": command, **fields}


def _certificate_output(cert):
    return (0 if cert.certified else 2), certificate_doc(cert), render_certificate(cert)


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
    return _certificate_output(cert)


def _cmd_certify_chi(args):
    chi = load_chi_fixture(args.file)
    evidence = deg1_evidence(None, 0, args.assert_deg1_class)
    theta_odd = load_chi_fixture(args.theta_odd) if args.theta_odd else None
    theta_even = load_chi_fixture(args.theta_even) if args.theta_even else None
    if (theta_odd is None) != (theta_even is None):
        raise ValueError("--theta-odd and --theta-even must be given together")
    cert = _pipeline_chi(chi, args.genus, evidence, theta_odd, theta_even)
    return _certificate_output(cert)


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
    return _certificate_output(cert)


def _cmd_orbits_hyperelliptic(args):
    f = parse_poly(args.f)
    curve = build_curve(f)
    j2, hashes, labeling = two_torsion_data(curve)
    theta_odd = theta_even = None
    if args.theta:
        theta_odd, theta_even, theta_hashes = theta_data(curve)
        hashes += theta_hashes
    doc = _document(
        "orbits",
        f=str(f),
        genus=curve.genus,
        labeling=labeling,
        j2=list(j2),
        theta_odd=list(theta_odd) if args.theta else None,
        theta_even=list(theta_even) if args.theta else None,
        hashes=dict(hashes),
    )
    lines = [
        "curve: y^2 = %s" % doc["f"],
        "genus: %d" % doc["genus"],
        "two-torsion orbits: %s" % " ".join(str(v) for v in doc["j2"]),
    ]
    if doc["theta_odd"] is not None:
        lines.append("odd theta orbits: %s" % " ".join(str(v) for v in doc["theta_odd"]))
        lines.append("even theta orbits: %s" % " ".join(str(v) for v in doc["theta_even"]))
    return 0, doc, "\n".join(lines) + "\n"


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
            b = parse_rational(args.fiber_check)
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
    doc = _document(
        "family-scan",
        family=report.family,
        range=[lo, hi],
        fiber_check=fiber_check,
        exclusions={
            "z1": sorted(str(v) for v in report.exclusions.z1),
            "z2": sorted(str(v) for v in report.exclusions.z2),
        },
        counts={
            "scanned": hi - lo + 1,
            "certified": len(report.certified),
            "skipped": len(report.skipped),
        },
        certified=[
            {"t": str(a), "certificate": certificate_doc(c)}
            for a, c in report.certified
        ],
        skipped=[
            {"t": str(a), "kind": kind, "details": list(details)}
            for a, kind, details in report.skipped
        ],
    )
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
    return (0 if report.certified else 2), doc, "\n".join(lines) + "\n"


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
    doc = _document(
        "oracle",
        f=str(f),
        chi_degree=chi.degree,
        rows=[
            {"p": p, "chi_pattern": list(pat), "subset_action": list(orc), "match": match}
            for p, pat, orc, match in rows
        ],
        all_match=all_match,
    )
    lines = ["curve: y^2 = %s" % doc["f"], "chi degree: %d" % chi.degree]
    for p, pat, orc, match in rows:
        lines.append(
            "p=%d: chi mod p %s | subset action %s | %s"
            % (p, list(pat), list(orc), "ok" if match else "MISMATCH")
        )
    lines.append("agreement: %s" % ("complete" if all_match else "FAILED"))
    return (0 if all_match else 2), doc, "\n".join(lines) + "\n"


def _cmd_verify(args):
    with open(args.certificate, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = document_problems(doc)
    if problems:
        return 1, None, "".join("FAIL: %s\n" % p for p in problems)
    if doc.get("command") == "family-scan":
        return 0, None, "verified: %d fiber certificate(s) re-check\n" % len(doc.get("certified", []))
    return 0, None, "verified: certificate re-checks\n"


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rankcert",
        description="Certify positive Mordell-Weil rank of hyperelliptic Jacobians",
    )
    top.add_argument("--version", action="version", version="rankcert " + __version__)
    top.set_defaults(json=False)  # `verify` has no --json
    sub = top.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="produce a rank certificate")
    csub = certify.add_subparsers(dest="mode", required=True)

    ch = csub.add_parser("hyperelliptic", help="certify a curve y^2 = f(x)")
    ch.add_argument("--f", required=True, help="polynomial in x, e.g. 'x^6+x+1'")
    ch.add_argument("--assert-deg1-class", action="store_true")
    ch.add_argument("--height-bound", type=int, default=DEFAULT_HEIGHT_BOUND)
    ch.add_argument("--full-criterion", action="store_true",
                    help="always compute theta resolvents for the direct criterion")
    ch.set_defaults(func=_cmd_certify_hyperelliptic)

    cc = csub.add_parser("chi", help="certify from an externally computed resolvent")
    cc.add_argument("--file", required=True)
    cc.add_argument("--genus", type=int, required=True)
    cc.add_argument("--assert-deg1-class", action="store_true")
    cc.add_argument("--theta-odd", default=None)
    cc.add_argument("--theta-even", default=None)
    cc.set_defaults(func=_cmd_certify_chi)

    co = csub.add_parser("orbits", help="certify from orbit-size multisets")
    co.add_argument("--j2", required=True)
    co.add_argument("--theta-odd", required=True)
    co.add_argument("--theta-even", required=True)
    co.add_argument("--genus", type=int, required=True)
    co.add_argument("--assert-deg1-class", action="store_true")
    co.set_defaults(func=_cmd_certify_orbits)

    orbits = sub.add_parser("orbits", help="report Galois orbit decompositions")
    osub = orbits.add_subparsers(dest="mode", required=True)
    oh = osub.add_parser("hyperelliptic")
    oh.add_argument("--f", required=True)
    oh.add_argument("--theta", action="store_true")
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
    fs.set_defaults(func=_cmd_family_scan)

    oracle = sub.add_parser("oracle", help="Frobenius cross-check report")
    oracle.add_argument("--f", required=True)
    oracle.add_argument("--primes", type=int, default=10)
    oracle.set_defaults(func=_cmd_oracle)

    verify = sub.add_parser("verify", help="re-check an emitted certificate")
    verify.add_argument("--certificate", required=True)
    verify.set_defaults(func=_cmd_verify)

    for leaf in (ch, cc, co, oh, fs, oracle):
        leaf.add_argument("--json", action="store_true")
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
            code, doc, text = args.func(args)
            if args.json:
                text = canonical_json(doc) + "\n"
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
