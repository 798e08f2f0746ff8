import warnings
from fractions import Fraction
from math import gcd, isqrt

import pytest

from rankcert.certify import (
    Deg1Evidence,
    GENUS_TOO_SMALL,
    INFINITY_WITNESS,
    MalformedReportError,
    NEEDS_THETA_DATA,
    NO_DEG1_CLASS,
    OrbitReport,
    PATH_DIRECT,
    PATH_TRANSITIVITY,
    RATIONAL_THETA,
    RATIONAL_TWO_TORSION,
    VERDICT_INCONCLUSIVE,
    VERDICT_RANK_AT_LEAST_ONE,
    certificate_doc,
    certificate_from_doc,
    decide,
    find_deg1_class,
    render_certificate,
    verify_certificate,
)
from rankcert.exactpoly import RatPoly
from rankcert.weierstrass import build_curve

ASSERTED = Deg1Evidence("user-assertion", note="asserted")
QUARTIC_REPORT = OrbitReport(genus=3, j2_orbits=(3, 12, 48), theta_odd=(4, 24), theta_even=(12, 24))

R2T, RTH, NODEG1, SMALL, NEEDS = (
    RATIONAL_TWO_TORSION, RATIONAL_THETA, NO_DEG1_CLASS, GENUS_TOO_SMALL, NEEDS_THETA_DATA
)
# (genus, kind) -> (theta_odd, theta_even); genus 1 always has a rational
# odd theta characteristic, so it has no "clean" data
THETA_DATA = {
    (2, "clean"): ((6,), (10,)),
    (2, "rational"): ((1, 5), (1, 9)),
    (1, "rational"): ((1,), (1, 2)),
}

# decide over path x theta data x witness x evidence x genus; the
# transitivity path ignores theta data, witness and two-torsion orbits
# beyond the irreducibility they imply.
# (chi_irreducible, genus, j2, theta, witness, evidence) -> reason kinds
DECIDE_TABLE = [
    # transitivity path
    (True, 2, (15,), None, None, True, ()),
    (True, 2, (15,), None, None, False, (NODEG1,)),
    (True, 2, (15,), "clean", INFINITY_WITNESS, True, ()),
    (False, 2, (5, 10), None, None, True, (NEEDS,)),
    (False, 2, (1, 2, 12), "rational", INFINITY_WITNESS, False, (NODEG1, NEEDS)),
    (True, 1, (3,), None, None, True, (SMALL,)),
    (True, 1, (3,), "rational", INFINITY_WITNESS, False, (NODEG1, SMALL)),
    (False, 1, (1, 2), None, None, False, (NODEG1, SMALL, NEEDS)),
    # direct path, theta data present
    (None, 2, (15,), "clean", None, True, ()),
    (None, 2, (15,), "clean", None, False, (NODEG1,)),
    (None, 2, (15,), "clean", INFINITY_WITNESS, True, ()),
    (None, 2, (15,), "rational", None, True, (RTH,)),
    (None, 2, (1, 2, 12), "rational", INFINITY_WITNESS, False, (R2T, RTH, NODEG1)),
    (None, 2, (1, 2, 12), "clean", None, True, (R2T,)),
    (None, 1, (3,), "rational", None, True, (RTH,)),
    (None, 1, (1, 2), "rational", INFINITY_WITNESS, False, (R2T, RTH, NODEG1)),
    # direct path, theta data absent
    (None, 2, (15,), None, None, True, (NEEDS,)),
    (None, 2, (1, 2, 12), None, None, False, (R2T, NODEG1, NEEDS)),
    (None, 2, (5, 10), None, INFINITY_WITNESS, True, (RTH,)),
    (None, 2, (1, 2, 12), None, INFINITY_WITNESS, True, (R2T, RTH)),
    (None, 1, (3,), None, None, True, (NEEDS,)),
    (None, 1, (1, 2), None, INFINITY_WITNESS, False, (R2T, RTH, NODEG1)),
]


def _table_id(row):
    irr, g, j2, theta, witness, evidence, _ = row
    path = "direct" if irr is None else "transitivity-%s" % ("irr" if irr else "red")
    return "%s-g%d-j2=%s-theta=%s-%s-%s" % (
        path, g, ",".join(map(str, j2)), theta, "witness" if witness else "nowitness",
        "evidence" if evidence else "noevidence",
    )


@pytest.mark.parametrize("row", DECIDE_TABLE, ids=[_table_id(r) for r in DECIDE_TABLE])
def test_decide_table(row):
    irr, g, j2, theta, witness, has_evidence, kinds = row
    odd, even = THETA_DATA[(g, theta)] if theta else (None, None)
    report = OrbitReport(g, j2, odd, even)
    evidence = ASSERTED if has_evidence else None
    cert = decide(report, evidence, chi_irreducible=irr, theta_witness=witness)
    assert cert.path == (PATH_DIRECT if irr is None else PATH_TRANSITIVITY)
    assert cert.reason_kinds() == kinds
    assert cert.verdict == (VERDICT_INCONCLUSIVE if kinds else VERDICT_RANK_AT_LEAST_ONE)
    assert (cert.genus, cert.report, cert.evidence, cert.chi_irreducible) == (g, report, evidence, irr)
    if irr is None and witness and RTH in kinds:
        assert cert.reasons[kinds.index(RTH)].witness == witness
    # every row replays through verify_certificate
    ok, problems = verify_certificate(certificate_doc(cert))
    assert ok, problems


def test_decide_rejects_flag_contradicting_orbits():
    with pytest.raises(MalformedReportError):
        decide(OrbitReport(2, (15,)), ASSERTED, chi_irreducible=False)
    with pytest.raises(MalformedReportError):
        decide(OrbitReport(2, (5, 10)), ASSERTED, chi_irreducible=True)


class TestDecideFromOrbits:
    """The direct path of `decide` (no chi_irreducible flag)."""

    def test_certifies_clean_report(self):
        cert = decide(QUARTIC_REPORT, ASSERTED)
        assert cert.verdict == VERDICT_RANK_AT_LEAST_ONE
        assert cert.path == PATH_DIRECT
        assert cert.reasons == ()

    def test_rational_two_torsion(self):
        rep = OrbitReport(3, (1, 2, 12, 48), (4, 24), (12, 24))
        cert = decide(rep, ASSERTED)
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert cert.reason_kinds() == (RATIONAL_TWO_TORSION,)

    def test_missing_evidence(self):
        rep = OrbitReport(3, (63,), (28,), (36,))
        cert = decide(rep, None)
        assert cert.reason_kinds() == (NO_DEG1_CLASS,)

    def test_rational_theta_both_parities(self):
        rep = OrbitReport(2, (15,), (1, 5), (1, 9))
        cert = decide(rep, ASSERTED)
        assert cert.reason_kinds() == (RATIONAL_THETA,)
        assert "odd and even" in cert.reasons[0].witness

    def test_theta_witness_substitutes_for_data(self):
        rep = OrbitReport(2, (5, 10))
        cert = decide(rep, ASSERTED, theta_witness=INFINITY_WITNESS)
        assert cert.reason_kinds() == (RATIONAL_THETA,)
        assert cert.reasons[0].witness == INFINITY_WITNESS

    def test_missing_theta_rejected(self):
        # neither theta data nor a witness: the theta side is a data gap
        cert = decide(OrbitReport(2, (15,)), ASSERTED)
        assert cert.path == PATH_DIRECT
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert cert.reason_kinds() == (NEEDS_THETA_DATA,)

    def test_malformed_sums_rejected(self):
        with pytest.raises(MalformedReportError):
            decide(OrbitReport(3, (3, 12, 40), (4, 24), (12, 24)), ASSERTED)
        with pytest.raises(MalformedReportError):
            decide(OrbitReport(3, (3, 12, 48), (4, 23), (12, 24)), ASSERTED)

    @pytest.mark.parametrize("odd,even", [((7, -1), (11, -1)), ((6, 0), (10,)), ((6,), (0, 10))])
    def test_nonpositive_theta_orbits_rejected(self, odd, even):
        # the sums are right, so only the sign check catches them
        with pytest.raises(MalformedReportError, match="^orbit sizes must be positive$"):
            decide(OrbitReport(2, (5, 10), odd, even), Deg1Evidence("user-assertion"))

    def test_monotone(self):
        # removing the reason-triggering orbit never downgrades the verdict
        bad = OrbitReport(2, (1, 14), (6,), (10,))
        good = OrbitReport(2, (15,), (6,), (10,))
        assert decide(bad, ASSERTED).verdict == VERDICT_INCONCLUSIVE
        assert decide(good, ASSERTED).verdict == VERDICT_RANK_AT_LEAST_ONE


class TestDecideFromIrreducibility:
    """The transitivity path of `decide` (chi_irreducible given)."""

    def test_certifies(self):
        cert = decide(OrbitReport(3, (63,)), ASSERTED, chi_irreducible=True)
        assert cert.verdict == VERDICT_RANK_AT_LEAST_ONE
        assert cert.path == PATH_TRANSITIVITY

    def test_genus_one_blocked(self):
        cert = decide(OrbitReport(1, (3,)), ASSERTED, chi_irreducible=True)
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert cert.reason_kinds() == (GENUS_TOO_SMALL,)

    def test_reducible_defers(self):
        cert = decide(OrbitReport(2, (5, 10)), ASSERTED, chi_irreducible=False)
        assert cert.reason_kinds() == (NEEDS_THETA_DATA,)

    def test_all_failures_listed(self):
        cert = decide(OrbitReport(1, (1, 2)), None, chi_irreducible=False)
        assert set(cert.reason_kinds()) == {NEEDS_THETA_DATA, GENUS_TOO_SMALL, NO_DEG1_CLASS}


class TestDecideWithoutTheta:
    """The direct path of `decide` without theta data or witness."""

    def test_always_inconclusive(self):
        cert = decide(OrbitReport(2, (15,)), ASSERTED)
        assert cert.verdict == VERDICT_INCONCLUSIVE
        assert NEEDS_THETA_DATA in cert.reason_kinds()

    def test_reports_two_torsion(self):
        cert = decide(OrbitReport(2, (1, 2, 12)), ASSERTED)
        assert RATIONAL_TWO_TORSION in cert.reason_kinds()


class TestFindDeg1Class:
    def test_odd_model(self):
        ev = find_deg1_class(build_curve(RatPoly([1, -1, 0, 0, 0, 1])))
        assert ev.kind == "infinite-place"

    def test_even_model_square_lc(self):
        ev = find_deg1_class(build_curve(RatPoly([1, 1, 0, 0, 0, 0, 1])))
        assert ev.kind == "infinite-place"

    def test_small_search_exhausted(self):
        # oracle: check directly that no x of height <= 2 gives a square
        f = RatPoly([5, 0, 2, 0, 0, 0, 3])
        seen = set()
        for p in range(-2, 3):
            for q in (1, 2):
                if gcd(abs(p), q) == 1:
                    seen.add(Fraction(p, q))
        for x in seen:
            v = f(x)
            assert v < 0 or isqrt(v.numerator) ** 2 != v.numerator or isqrt(v.denominator) ** 2 != v.denominator
        assert find_deg1_class(build_curve(f), height_bound=2) is None

    def test_finds_rational_point(self):
        # y^2 = 2x^6 + 7: x = -1 (first in height order) gives y = 3
        f = RatPoly([7, 0, 0, 0, 0, 0, 2])
        ev = find_deg1_class(build_curve(f), height_bound=3)
        assert ev.kind == "rational-point"
        assert ev.x == -1 and ev.y == 3
        assert f(ev.x) == ev.y ** 2


def test_orbit_report_is_a_sorted_immutable_value():
    rep = OrbitReport(3, [48, 3, 12], [24, 4], [24, 12])
    assert rep == QUARTIC_REPORT
    assert hash(rep) == hash(QUARTIC_REPORT)
    assert repr(rep) == (
        "OrbitReport(genus=3, j2_orbits=(3, 12, 48), theta_odd=(4, 24), theta_even=(12, 24))"
    )
    assert rep._replace(j2_orbits=(1, 62, 0)).j2_orbits == (0, 1, 62)
    with pytest.raises(AttributeError):
        rep.genus = 2


class TestSerialization:
    def test_doc_roundtrip(self):
        cert = decide(QUARTIC_REPORT, ASSERTED, subject=(("kind", "orbit-data"), ("genus", 3)))
        doc = certificate_doc(cert)
        assert certificate_from_doc(doc) == cert

    def test_roundtrip_with_hashes_and_labeling(self):
        cert = decide(
            OrbitReport(2, (15,)), ASSERTED, chi_irreducible=True,
            hashes=(("chi", "b" * 64),), labeling=1,
            subject=(("kind", "hyperelliptic"), ("f", "x^5 + x + 1"), ("genus", 2)),
        )
        assert certificate_from_doc(certificate_doc(cert)) == cert

    def test_roundtrip_keeps_the_hash_order(self):
        from rankcert.cli import parse_family, parse_poly, pipeline_hyperelliptic
        from rankcert.family import ScanOptions, certify_fiber

        curve_cert, _curve = pipeline_hyperelliptic(parse_poly("x^6+x+1"), full_theta=True)
        # a fiber with a reducible chi, so the full criterion adds theta hashes
        fiber_cert = certify_fiber(parse_family("x^6+t*x+1"), 2, ScanOptions(full_theta=True))
        for cert in (curve_cert, fiber_cert):
            assert [name for name, _hash in cert.hashes] == ["chi", "chi_odd", "chi_even"]
            assert certificate_from_doc(certificate_doc(cert)) == cert

    def test_render_deterministic(self):
        cert = decide(QUARTIC_REPORT, ASSERTED)
        assert render_certificate(cert) == render_certificate(cert)
        assert "RankAtLeastOne" in render_certificate(cert)


class TestVerifier:
    def test_accepts_emitted(self):
        for cert in (
            decide(QUARTIC_REPORT, ASSERTED),
            decide(OrbitReport(3, (1, 14, 48), (4, 24), (12, 24)), None),
            decide(OrbitReport(3, (63,)), ASSERTED, chi_irreducible=True),
            decide(OrbitReport(2, (5, 10)), ASSERTED, chi_irreducible=False),
            decide(OrbitReport(2, (1, 2, 12)), ASSERTED),
            decide(OrbitReport(2, (5, 10)), ASSERTED, theta_witness=INFINITY_WITNESS),
        ):
            ok, problems = verify_certificate(certificate_doc(cert))
            assert ok, problems

    def test_rejects_tampered_verdict(self):
        cert = decide(OrbitReport(3, (1, 14, 48), (4, 24), (12, 24)), ASSERTED)
        doc = certificate_doc(cert)
        doc["verdict"] = VERDICT_RANK_AT_LEAST_ONE
        ok, problems = verify_certificate(doc)
        assert not ok
        assert problems == ["verdict does not replay from embedded data"]

    @pytest.mark.parametrize("odd,even", [([7, -1], [11, -1]), ([6, 0], [10])])
    def test_rejects_nonpositive_theta_orbits(self, odd, even):
        doc = certificate_doc(decide(OrbitReport(2, (5, 10), (6,), (10,)), ASSERTED))
        doc["orbits"]["theta_odd"], doc["orbits"]["theta_even"] = odd, even
        assert verify_certificate(doc) == (False, ["orbit sizes must be positive"])

    def test_rejects_bad_sums(self):
        cert = decide(QUARTIC_REPORT, ASSERTED)
        doc = certificate_doc(cert)
        doc["orbits"]["j2"] = [3, 12, 47]
        ok, problems = verify_certificate(doc)
        assert not ok

    def test_rejects_inconsistent_irreducibility_flag(self):
        cert = decide(OrbitReport(2, (15,)), ASSERTED, chi_irreducible=True)
        doc = certificate_doc(cert)
        doc["orbits"]["j2"] = [5, 10]
        ok, problems = verify_certificate(doc)
        assert not ok
        assert problems == ["chi_irreducible flag contradicts embedded orbit data"]

    def test_rejects_missing_fields(self):
        ok, problems = verify_certificate({"schema_version": 1})
        assert not ok

    def test_rejects_path_and_flag_forgeries(self):
        transitive = certificate_doc(decide(OrbitReport(2, (15,)), ASSERTED, chi_irreducible=True))
        direct = certificate_doc(decide(OrbitReport(2, (15,), (6,), (10,)), ASSERTED))
        forgeries = [
            (dict(transitive, orbits=None), "certificate without orbit data"),
            (dict(direct, orbits=None), "certificate without orbit data"),
            (dict(transitive, chi_irreducible=None), "transitivity path without chi_irreducible flag"),
            (dict(direct, chi_irreducible=False), "chi_irreducible flag set on the direct path"),
            (dict(direct, chi_irreducible=True), "chi_irreducible flag set on the direct path"),
            (dict(transitive, path=PATH_DIRECT), "chi_irreducible flag set on the direct path"),
            (dict(direct, path="shortcut"), "path does not replay from embedded data"),
            (dict(direct, reasons=[{"kind": RATIONAL_THETA}]), "reasons do not replay from embedded data"),
            (dict(direct, hashes=["chi"]), "hashes is not an object"),
        ]
        for doc, problem in forgeries:
            ok, problems = verify_certificate(doc)
            assert not ok
            assert problem in problems, (problem, problems)


def test_transitivity_implies_direct_on_real_data():
    # whenever the shortcut concludes and theta data is computed anyway, the
    # direct criterion concludes too
    from rankcert.cli import pipeline_hyperelliptic

    f = RatPoly([1, 1, 0, 0, 0, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        short, _ = pipeline_hyperelliptic(f)
        full, _ = pipeline_hyperelliptic(f, full_theta=True)
    assert short.verdict == VERDICT_RANK_AT_LEAST_ONE
    assert short.path == PATH_TRANSITIVITY
    assert full.verdict == VERDICT_RANK_AT_LEAST_ONE
    assert full.path == PATH_DIRECT
