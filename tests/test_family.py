import json
from dataclasses import replace
from fractions import Fraction

import pytest

from rankcert import factorq
from rankcert.certify import verify_certificate, certificate_doc
from rankcert.cli import main, parse_family, parse_poly, pipeline_hyperelliptic
from rankcert.exactpoly import IntPoly, RatPoly, discriminant
from rankcert.family import (
    FamilyCurve,
    ScanOptions,
    certify_fiber,
    check_good_fiber,
    exclusion_sets,
    family_discriminant_numerator,
    scan,
)

X6_T = FamilyCurve.from_numerators(
    [RatPoly([1]), RatPoly([0, 1]), RatPoly(), RatPoly(), RatPoly(), RatPoly(), RatPoly([1])],
    "x^6 + t*x + 1",
)


class TestDiscriminant:
    def test_trinomial_closed_form(self):
        # disc(x^6 + p*x + q) = -(6^6 q^5 - 5^5 p^6); here p = t, q = 1
        disc = family_discriminant_numerator(X6_T)
        assert disc == IntPoly([-46656, 0, 0, 0, 0, 0, 3125])

    def test_sampled_against_direct_resultant(self):
        disc = family_discriminant_numerator(X6_T)
        for t0 in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            fiber = X6_T.specialize(t0)
            assert disc.to_rat()(t0) == discriminant(fiber)

    def test_constant_family(self):
        fam = FamilyCurve.from_numerators(
            [RatPoly([1]), RatPoly([1])] + [RatPoly()] * 4 + [RatPoly([1])],
            "x^6 + x + 1",
        )
        disc = family_discriminant_numerator(fam)
        assert disc.degree == 0
        excl = exclusion_sets(fam)
        assert excl.z1 == frozenset() and excl.z2 == frozenset()

    def test_generically_singular_rejected(self):
        # y^2 = (x - t)^2 * (x + 1): square factor for every t
        sq = [RatPoly([0, 0, 1]), RatPoly([0, -2]), RatPoly([1])]  # (x - t)^2 coefficients in x
        # multiply by (x + 1): coefficients of (x-t)^2 (x+1)
        # (x^2 - 2tx + t^2)(x + 1) = x^3 + (1 - 2t) x^2 + (t^2 - 2t) x + t^2
        fam = FamilyCurve.from_numerators(
            [RatPoly([0, 0, 1]), RatPoly([0, -2, 1]), RatPoly([1, -2]), RatPoly([1])],
            "(x-t)^2*(x+1)",
        )
        with pytest.raises(ValueError):
            family_discriminant_numerator(fam)


class TestExclusions:
    def test_empty_for_good_family(self):
        excl = exclusion_sets(X6_T)
        assert excl.z1 == frozenset() and excl.z2 == frozenset()

    def test_denominator_root_in_z1(self):
        nums = [RatPoly([1]), RatPoly([0, 1]), RatPoly(), RatPoly(), RatPoly(), RatPoly(), RatPoly([1])]
        dens = [RatPoly([-1, 1])] + [RatPoly.one()] * 6
        fam = FamilyCurve(tuple(nums), tuple(dens), "x^6 + t*x + 1/(t-1)")
        excl = exclusion_sets(fam)
        assert Fraction(1) in excl.z1

    def test_lc_root_in_z2(self):
        nums = [RatPoly([1]), RatPoly([1])] + [RatPoly()] * 4 + [RatPoly([0, 1])]  # t*x^6 + x + 1
        fam = FamilyCurve.from_numerators(nums, "t*x^6 + x + 1")
        excl = exclusion_sets(fam)
        assert Fraction(0) in excl.z2

    def test_exclusion_vanishing_by_evaluation(self):
        nums = [RatPoly([1]), RatPoly([1])] + [RatPoly()] * 4 + [RatPoly([0, 1])]
        fam = FamilyCurve.from_numerators(nums, "t*x^6 + x + 1")
        disc = family_discriminant_numerator(fam)
        excl = exclusion_sets(fam)
        for a in excl.z2:
            lc = fam.numerators[-1](a)
            assert lc == 0 or disc.to_rat()(a) == 0


class TestFibers:
    def test_good_fiber(self):
        ok, rep = check_good_fiber(X6_T, Fraction(1))
        assert ok
        assert rep.j2_orbits == (15,)

    def test_fiber_with_rational_root_not_transitive(self):
        # t = -2: f = x^6 - 2x + 1 has the root x = 1
        assert X6_T.specialize(Fraction(-2))(Fraction(1)) == 0
        ok, rep = check_good_fiber(X6_T, Fraction(-2))
        assert not ok
        assert 1 <= min(rep.j2_orbits) and rep.j2_orbits != (15,)

    def test_excluded_fiber_rejected(self):
        nums = [RatPoly([1]), RatPoly([1])] + [RatPoly()] * 4 + [RatPoly([0, 1])]
        fam = FamilyCurve.from_numerators(nums, "t*x^6 + x + 1")
        with pytest.raises(ValueError):
            check_good_fiber(fam, Fraction(0))


class TestScan:
    def test_small_scan(self):
        report = scan(X6_T, -3, 3)
        seen = sorted([a for a, _ in report.certified] + [a for a, _, _ in report.skipped])
        assert seen == [Fraction(n) for n in range(-3, 4)]
        assert {a for a, _ in report.certified} & {a for a, _, _ in report.skipped} == set()
        assert len(report.certified) >= 1
        for a, cert in report.certified:
            ok, problems = verify_certificate(certificate_doc(cert))
            assert ok, (a, problems)

    def test_excluded_only_range(self):
        nums = [RatPoly([1]), RatPoly([1])] + [RatPoly()] * 4 + [RatPoly([0, 1])]
        fam = FamilyCurve.from_numerators(nums, "t*x^6 + x + 1")
        report = scan(fam, 0, 0)
        assert report.certified == ()
        # t = 0 kills both the leading coefficient and the discriminant
        # numerator, so the z1 (discriminant) exclusion wins the tie
        assert [(a, kind) for a, kind, _ in report.skipped] == [(Fraction(0), "InZ1")]
        excl = exclusion_sets(fam)
        assert Fraction(0) in excl.z1 and Fraction(0) in excl.z2

    def test_constant_family_certifies_uniformly(self):
        fam = FamilyCurve.from_numerators(
            [RatPoly([1]), RatPoly([1])] + [RatPoly()] * 4 + [RatPoly([1])],
            "x^6 + x + 1",
        )
        report = scan(fam, -2, 2)
        assert len(report.certified) == 5
        verdicts = {(c.verdict, c.path, c.report.j2_orbits) for _, c in report.certified}
        assert len(verdicts) == 1

    def test_error_fiber_is_skipped(self, capsys):
        # at t = -4 two classes get colliding labels for every labelling
        # index, which raises NoInjectiveLabelingError (a RuntimeError)
        code = main(["family", "scan", "--f-t=-3*x^5-6*x^4-3*x^3-4*x^2+t*x", "--range=-5..-3"])
        out = capsys.readouterr().out
        assert code == 2
        assert "skipped t=-4: Error (no injective labeling" in out
        assert "skipped t=-5: Inconclusive (NeedsThetaData)" in out
        assert "skipped t=-3: Inconclusive (NeedsThetaData)" in out

    def test_full_theta_option(self):
        # t = 0 fiber (x^6 + 1) is reducible; with theta computed the report
        # pins the actual obstruction instead of a data gap
        report = scan(X6_T, 0, 0, ScanOptions(full_theta=True))
        assert len(report.skipped) == 1
        a, kind, details = report.skipped[0]
        assert kind == "Inconclusive"
        assert "NeedsThetaData" not in details


def test_multi_stratum_fiber_skips_irreducibility_test(monkeypatch):
    # irreducibility is read off the orbit decomposition: no fiber calls
    # the separate test, whether chi has three size strata (x^7 + x + 2)
    # or one (x^6 + x + 1)
    fam = parse_family("x^7+t*x+2")
    expected = certificate_doc(certify_fiber(fam, Fraction(1)))

    def refuse(*args, **kwargs):
        raise AssertionError("is_irreducible_over_q called")

    monkeypatch.setattr(factorq, "is_irreducible_over_q", refuse)
    doc = certificate_doc(certify_fiber(fam, Fraction(1)))
    assert doc == expected
    assert doc["orbits"]["j2"] == [1, 6, 6, 15, 15, 20]
    assert doc["chi_irreducible"] is False
    assert doc["hashes"]["chi"] == (
        "f558fa6e66453aa193818ded70bcc13657aa5a6a4d995e92c35385a6dccda9b0"
    )
    assert certify_fiber(X6_T, Fraction(1)).chi_irreducible is True


@pytest.mark.parametrize(
    "f_t,t,f,full_theta",
    [
        ("x^6+t*x+1", 1, "x^6+x+1", False),  # irreducible chi: transitivity
        ("x^6+t*x+1", 0, "x^6+1", True),  # reducible chi, full criterion: direct
    ],
)
def test_fiber_and_curve_pipelines_agree(f_t, t, f, full_theta):
    fiber = certify_fiber(parse_family(f_t), Fraction(t), ScanOptions(full_theta=full_theta))
    curve_cert, _ = pipeline_hyperelliptic(parse_poly(f), full_theta=full_theta)
    assert fiber.path == ("direct" if full_theta else "transitivity")
    assert fiber.inputs_digest != curve_cert.inputs_digest
    assert replace(fiber, inputs_digest="") == replace(curve_cert, inputs_digest="")


def test_asserted_fiber_note(capsys):
    # no point of height <= 1 on 3x^6 + 2x + 5, so the flag supplies the class
    code = main([
        "family", "scan", "--f-t=3*x^6+t*x+5", "--range=2..2",
        "--assert-deg1-class", "--height-bound=1", "--json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["certified"][0]["certificate"]["evidence"] == {
        "kind": "user-assertion", "note": "degree-1 class asserted by flag"
    }
