import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from rankcert.certify import (
    OrbitReport, canonical_json, digest_text, document_problems, inputs_text,
)
from rankcert.certify import verify_certificate as json_verify
from rankcert.cli import load_chi_fixture, main, parse_family, parse_poly
from rankcert.grammar import PolyParseError, format_family
from rankcert.exactpoly import RatPoly

from conftest import fixture_path, random_squarefree_poly


class TestParsePoly:
    def test_basic(self):
        p = parse_poly("x^2 - 3/2*x + 1")
        assert p.coeffs == (Fraction(1), Fraction(-3, 2), Fraction(1))

    def test_sparse(self):
        p = parse_poly("x^6+x+1")
        assert p.degree == 6
        assert p.coeffs[2:6] == (Fraction(0),) * 4

    def test_double_caret_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x^^2")
        assert err.value.pos == 2
        # the lexer's and the parser's other syntax errors, each at its offset
        for text, pos, message in (
            ("x # 1", 2, "unexpected character '#'"),
            ("x+", 2, "unexpected end of input"),
            ("(x+1", 4, "expected ')'"),
            (")x", 0, "unexpected token ')'"),
        ):
            with pytest.raises(PolyParseError) as err:
                parse_poly(text)
            assert err.value.pos == pos
            assert str(err.value) == "syntax error at offset %d: %s" % (pos, message)

    def test_unknown_variable(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x + y")
        assert "y" in str(err.value)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("2x")

    def test_unary_minus_and_parens(self):
        p = parse_poly("-x^3 + (x - 2)*(x + 2)")
        assert p == RatPoly([-4, 0, 1, -1])

    def test_rational_literals(self):
        assert parse_poly("1/3*x^2 - 1") == RatPoly([-1, 0, Fraction(1, 3)])
        with pytest.raises(PolyParseError):
            parse_poly("1/0*x")

    def test_roundtrip_normal_form(self):
        rng = random.Random(303)
        for _ in range(20):
            coeffs = [
                Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                for _ in range(rng.randint(1, 8))
            ]
            p = RatPoly(coeffs)
            assert parse_poly(str(p)) == p

    def test_degree_cap_boundary(self):
        # products and powers up to x-degree 10 expand as before; one more
        # degree is the genus cap's error, raised before any expansion
        assert parse_poly("(x+1)^10").coeffs == tuple(math.comb(10, k) for k in range(11))
        assert parse_poly("(x^5+1)*(x^5-1)") == RatPoly([-1] + [0] * 9 + [1])
        for text in ("(x+1)^11", "(x^5+1)*(x^6-1)"):
            with pytest.raises(ValueError, match="degree 11 exceeds the genus cap"):
                parse_poly(text)

    def test_t_rejected_for_curves(self):
        with pytest.raises(PolyParseError):
            parse_poly("x + t")

    def test_past_the_str_digit_limit(self):
        # digits past Python's int/str digit limit are read and written
        # exactly, whatever the limit is set to
        rng = random.Random(5000)
        big = rng.randrange(10**4999, 10**5000)
        f = RatPoly([-big, Fraction(big, big + 2), 0, 1])
        assert parse_poly(str(f)) == f
        assert parse_poly("x^" + "0" * 4999 + "2") == RatPoly([0, 0, 1])

    def test_million_digit_literal(self):
        start = time.perf_counter()
        f = parse_poly("x^6+x+1" + "0" * 999_999)
        assert time.perf_counter() - start < 2.0
        assert f.coeffs[0] == 10**999_999


class TestParseFamily:
    def test_basic(self):
        fam = parse_family("x^6 + t*x + 1")
        assert fam.deg_x == 6
        assert fam.numerators[1] == RatPoly([0, 1])
        assert fam.specialize(Fraction(2)) == RatPoly([1, 2, 0, 0, 0, 0, 1])

    def test_description_normal_form(self):
        fam = parse_family("x^6+t*x+1")
        assert fam.description == "x^6 + t*x + 1"
        fam2 = parse_family("(t^2 - t + 1)*x^4 + x + 2")
        assert fam2.description == "(t^2 - t + 1)*x^4 + x + 2"

    def test_roundtrip(self):
        rng = random.Random(404)
        for _ in range(10):
            nums = [
                RatPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(2, 7))
            ]
            nums.append(RatPoly([rng.randint(1, 5)]))
            text = format_family(nums)
            fam = parse_family(text)
            pad = fam.numerators + (RatPoly(),) * (len(nums) - len(fam.numerators))
            assert list(pad) == nums
            assert fam.description == text

    def test_must_involve_x(self):
        with pytest.raises(PolyParseError):
            parse_family("t^2 + 1")

    @pytest.mark.parametrize("text", ["x^6 + x/(t-1)", "x^6 + 1/(t-1)"])
    def test_no_rational_functions_of_t(self, text):
        # a denominator is an unsigned integer, so every coefficient of a
        # family is a polynomial in t
        with pytest.raises(PolyParseError):
            parse_family(text)


class TestChiFixture:
    def test_shipped_fixture(self):
        chi = load_chi_fixture(fixture_path("chi1.txt"))
        assert chi.degree == 63
        assert chi.lc == 1
        assert chi.coeffs[0] == 27541504
        assert chi.coeffs[62] == -64
        assert chi.coeffs[1] == 2803515392

    def test_ascending_header(self, tmp_path):
        p = tmp_path / "asc.txt"
        p.write_text("# comment\norder: ascending\n2 -3 1\n")
        assert load_chi_fixture(p) == RatPoly([2, -3, 1])

    def test_descending_header(self, tmp_path):
        p = tmp_path / "desc.txt"
        p.write_text("order: descending\n1 -3 2\n")
        assert load_chi_fixture(p) == RatPoly([2, -3, 1])

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(ValueError):
            load_chi_fixture(p)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "nohdr.txt"
        p.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            load_chi_fixture(p)

    def test_malformed_coefficient_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("order: ascending\n1 two 3\n")
        with pytest.raises(ValueError):
            load_chi_fixture(p)

    def test_coefficient_past_the_str_digit_limit(self, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text("order: ascending\n-%s 1\n" % ("7" * 5000))
        assert load_chi_fixture(p) == RatPoly([-7 * (10**5000 - 1) // 9, 1])


def test_quartic_orbit_fixture_certifies():
    """Shipped orbit data for a genus-3 plane quartic: regression for the
    orbit-input mode."""
    from rankcert.certify import Deg1Evidence, OrbitReport, decide

    data = json.loads(fixture_path("quartic_orbits.json").read_text())
    report = OrbitReport(
        genus=data["genus"],
        j2_orbits=tuple(data["j2"]),
        theta_odd=tuple(data["theta_odd"]),
        theta_even=tuple(data["theta_even"]),
    )
    cert = decide(report, Deg1Evidence("user-assertion", note="known point"))
    assert cert.verdict == "RankAtLeastOne"
    assert cert.reasons == ()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize(
    "argv, fiber, section, key, value, inputs",
    [
        (["certify", "hyperelliptic", "--f", "x^6+x+1"], None, "subject", "f",
         "x^6 - x^2 + 5", "hyperelliptic;f=x^6 - x^2 + 5"),
        (["family", "scan", "--f-t", "x^6+t*x+1", "--range=3..4"], 1, "subject", "t",
         "5", "family:x^6 + t*x + 1;t=5"),
        (["certify", "chi", "--file", str(fixture_path("chi1.txt")), "--genus", "3",
          "--assert-deg1-class"], None, "hashes", "chi", "0" * 64, "chi;g=3;" + "0" * 64),
    ],
    ids=["curve", "fiber", "chi"],
)
def test_library_verify_rejects_swapped_inputs(capsys, argv, fiber, section, key, value, inputs):
    # `verify_certificate`, the check the benchmark runs on every document
    # and the one `verify` runs on each certificate, recomputes the inputs
    # digest from the subject
    _, out = run_cli(capsys, *argv, "--json")
    doc = json.loads(out)
    cert = doc if fiber is None else doc["certified"][fiber]["certificate"]
    assert json_verify(cert) == (True, [])
    cert[section][key] = value
    assert json_verify(cert) == (
        False, ["inputs_digest does not match the subject (%s)" % inputs]
    )


@pytest.mark.parametrize(
    "argv, fiber, section, key, problem",
    [
        (["certify", "hyperelliptic", "--f", "x^6+x+1"], None, "subject", "f",
         "the hyperelliptic subject has no field f"),
        (["family", "scan", "--f-t", "x^6+t*x+1", "--range=3..4"], 0, "subject", "family",
         "the family-fiber subject has no field family"),
        (["family", "scan", "--f-t", "x^6+t*x+1", "--range=3..4"], 0, "subject", "t",
         "the family-fiber subject has no field t"),
        (["certify", "chi", "--file", str(fixture_path("chi1.txt")), "--genus", "3",
          "--assert-deg1-class"], None, "subject", "genus",
         "the external-chi subject has no field genus"),
        (["certify", "chi", "--file", str(fixture_path("chi1.txt")), "--genus", "3",
          "--assert-deg1-class"], None, "hashes", "chi",
         "the external-chi certificate has no hash chi"),
        (["certify", "orbits", "--j2", "15", "--theta-odd", "6", "--theta-even", "10",
          "--genus", "2", "--assert-deg1-class"], None, "subject", "genus",
         "the orbit-data subject has no field genus"),
    ],
    ids=["curve-f", "fiber-family", "fiber-t", "chi-genus", "chi-hash", "orbit-data-genus"],
)
def test_verify_names_the_missing_subject_key(capsys, tmp_path, argv, fiber, section, key, problem):
    _, out = run_cli(capsys, *argv, "--json")
    doc = json.loads(out)
    cert = doc if fiber is None else doc["certified"][fiber]["certificate"]
    del cert[section][key]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert run_cli(capsys, "verify", "--certificate", str(path)) == (
        1, "FAIL: unreadable subject: %s\n" % problem
    )


@pytest.mark.parametrize(
    "argv, key, value, problem",
    [
        (["certify", "chi", "--file", str(fixture_path("chi1.txt")), "--genus", "3",
          "--assert-deg1-class"], "chi_degree", 62,
         "the subject's chi has degree 62, not 2^(2g)-1 = 63"),
        (["certify", "orbits", "--j2", "15", "--theta-odd", "6", "--theta-even", "10",
          "--genus", "2", "--assert-deg1-class"], "genus", 3,
         "the subject has genus 3, not 2"),
    ],
    ids=["chi-degree", "orbit-data-genus"],
)
def test_library_verify_ties_subject_to_genus(capsys, argv, key, value, problem):
    # the forged field is one the inputs digest does not cover, or the
    # digest is recomputed, so only the subject's own fields can tell
    _, out = run_cli(capsys, *argv, "--json")
    doc = json.loads(out)
    doc["subject"][key] = value
    subject = tuple(doc["subject"].items())
    report = OrbitReport.from_doc(doc["genus"], doc["orbits"])
    doc["inputs_digest"] = digest_text(inputs_text(subject, tuple(doc["hashes"].items()), report))
    assert json_verify(doc) == (False, [problem])


def _replay(*fields):
    return ["%s does not replay from embedded data" % field for field in fields]


# (field, forged value or a function of the field's value, FAIL lines
# without and with --full-criterion); the plain certificate is on the
# transitivity path, the full one on the direct path
FORGED_FIELDS = [
    ("genus", 3, [["two-torsion orbit sizes sum to 15, expected 2^(2g)-1 = 63"]] * 2),
    ("verdict", "Inconclusive", [_replay("verdict")] * 2),
    # an unknown path replays as direct: without theta data that is NeedsThetaData
    ("path", "shortcut",
     [_replay("verdict", "path", "reasons", "chi_irreducible"), _replay("path")]),
    ("reasons", [{"kind": "NoDeg1Class"}], [_replay("reasons")] * 2),
    # the infinite place has no coordinates
    ("evidence", lambda evidence: dict(evidence, x="0"), [_replay("evidence")] * 2),
    # replayed sorted; on the transitivity path [5, 10] is also a reducible chi
    ("orbits", lambda orbits: dict(orbits, j2=[10, 5]),
     [_replay("verdict", "reasons", "orbits", "chi_irreducible"), _replay("orbits")]),
    ("chi_irreducible", lambda flag: not flag, [_replay("chi_irreducible")] * 2),
    ("inputs_digest", "0" * 64,
     [["inputs_digest does not match the subject (hyperelliptic;f=x^6 + x + 1)"]] * 2),
    ("timings", {"total_s": 1.5}, [_replay("timings")] * 2),
    ("schema_version", 2, [["unknown schema_version 2"]] * 2),
]


@pytest.mark.parametrize("full", [False, True], ids=["transitivity", "direct"])
@pytest.mark.parametrize("field,forged,lines", FORGED_FIELDS, ids=[r[0] for r in FORGED_FIELDS])
def test_verify_rejects_each_forged_field(capsys, tmp_path, full, field, forged, lines):
    """Each field that `certificate_doc` renders, except ``tool``, forged
    once on the certificate of x^6+x+1: `verify` prints one FAIL line per
    field that does not replay.  The subject is read, not replayed: the
    inputs digest and the curve it names check it.  Without recomputing,
    this rule cannot check ``labeling``, nor ``hashes`` on a curve
    subject, whose digest covers only f."""
    flags = ("--full-criterion",) if full else ()
    _, out = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^6+x+1", *flags, "--json")
    doc = json.loads(out)
    assert doc["path"] == ("direct" if full else "transitivity")
    doc[field] = forged(doc[field]) if callable(forged) else forged
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert json_verify(doc) == (False, lines[full])
    assert run_cli(capsys, "verify", "--certificate", str(path)) == (
        1, "".join("FAIL: %s\n" % line for line in lines[full])
    )


class TestCommands:
    def test_certify_hyperelliptic_certifies(self, capsys):
        code, out = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^6+x+1")
        assert code == 0
        assert "RankAtLeastOne" in out

    def test_certify_hyperelliptic_odd_model(self, capsys):
        code, out = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^5-x+1")
        assert code == 2
        assert "RationalTheta" in out
        assert "(g-1)*infinity" in out

    def test_certify_orbits(self, capsys):
        code, out = run_cli(
            capsys,
            "certify", "orbits",
            "--j2", "3,12,48", "--theta-odd", "4,24", "--theta-even", "12,24",
            "--genus", "3", "--assert-deg1-class",
        )
        assert code == 0
        assert "RankAtLeastOne" in out

    def test_certify_orbits_bad_sum_is_error(self, capsys):
        code, _ = run_cli(
            capsys,
            "certify", "orbits",
            "--j2", "3,12,47", "--theta-odd", "4,24", "--theta-even", "12,24",
            "--genus", "3", "--assert-deg1-class",
        )
        assert code == 1

    def test_certify_chi_fixture(self, capsys):
        code, out = run_cli(
            capsys,
            "certify", "chi",
            "--file", str(fixture_path("chi1.txt")),
            "--genus", "3", "--assert-deg1-class", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "RankAtLeastOne"
        assert doc["path"] == "transitivity"
        assert doc["chi_irreducible"] is True

    def test_certify_chi_wrong_genus_is_error(self, capsys):
        code, _ = run_cli(
            capsys,
            "certify", "chi",
            "--file", str(fixture_path("chi1.txt")),
            "--genus", "2", "--assert-deg1-class",
        )
        assert code == 1

    def test_orbits_command(self, capsys):
        code, out = run_cli(capsys, "orbits", "hyperelliptic", "--f", "x^6+x+1", "--theta", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["j2"] == [15]
        assert sum(doc["theta_odd"]) == 6
        assert sum(doc["theta_even"]) == 10

    def test_oracle_command(self, capsys):
        code, out = run_cli(capsys, "oracle", "--f", "x^6+x+1", "--primes", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"] is True
        assert len(doc["rows"]) == 5

    def test_family_scan_and_verify(self, capsys, tmp_path):
        code, out = run_cli(
            capsys,
            "family", "scan", "--f-t", "x^6+t*x+1", "--range=-2..2",
            "--fiber-check", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fiber_check"]["transitive"] is True
        assert doc["counts"]["certified"] >= 1
        path = tmp_path / "scan.json"
        path.write_text(out)
        code2, out2 = run_cli(capsys, "verify", "--certificate", str(path))
        assert code2 == 0

    def test_verify_roundtrip(self, capsys, tmp_path):
        _, out = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^6+x+1", "--json")
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out2 = run_cli(capsys, "verify", "--certificate", str(path))
        assert code == 0
        assert "verified" in out2

    def test_verify_rejects_tampering(self, capsys, tmp_path):
        _, out = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^5-x+1", "--json")
        doc = json.loads(out)
        doc["verdict"] = "RankAtLeastOne"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, "verify", "--certificate", str(path))
        assert code == 1

    def test_verify_rejects_forged_point(self, capsys, tmp_path):
        f = "2*x^6+2*x^5+3*x^4+6*x^3-3*x^2+2*x-8"
        _, out = run_cli(capsys, "certify", "hyperelliptic", "--f", f, "--json")
        path = tmp_path / "cert.json"
        for x, y in (("7", "1"), ("2", "2")):
            doc = json.loads(out)
            assert doc["evidence"] == {"kind": "rational-point", "x": "1", "y": "2"}
            doc["evidence"] = {"kind": "rational-point", "x": x, "y": y}
            problem = "(%s, %s) is not a point of y^2 = %s" % (x, y, parse_poly(f))
            assert json_verify(doc) == (False, [problem])
            path.write_text(json.dumps(doc))
            assert run_cli(capsys, "verify", "--certificate", str(path)) == (
                1, "FAIL: %s\n" % problem
            ), (x, y)
        # a coordinate in exponent notation is refused before it is expanded
        doc["evidence"]["x"] = "1e30000000"
        problem = "unparseable certificate: '1e30000000' is not a rational written n or n/d"
        assert json_verify(doc) == (False, [problem])
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run_cli(capsys, "verify", "--certificate", str(path)) == (1, "FAIL: %s\n" % problem)
        assert time.perf_counter() - start < 1.0

    def test_verify_rejects_forged_fiber_point(self, capsys, tmp_path):
        # the t = 2 fiber is the curve of test_verify_rejects_forged_point
        f_t = "2*x^6+2*x^5+3*x^4+6*x^3-3*x^2+t*x-8"
        _, out = run_cli(capsys, "family", "scan", "--f-t", f_t, "--range=2..2", "--json")
        doc = json.loads(out)
        path = tmp_path / "scan.json"
        path.write_text(out)
        assert run_cli(capsys, "verify", "--certificate", str(path))[0] == 0
        fiber = doc["certified"][0]["certificate"]
        assert fiber["evidence"] == {"kind": "rational-point", "x": "1", "y": "2"}
        curve = parse_family(f_t).specialize(2)
        for x in ("-1", "2"):
            fiber["evidence"]["x"] = x
            problem = "(%s, 2) is not a point of y^2 = %s" % (x, curve)
            assert json_verify(fiber) == (False, [problem])
            assert document_problems(doc) == ["t=2: " + problem]
            path.write_text(json.dumps(doc))
            assert run_cli(capsys, "verify", "--certificate", str(path)) == (
                1, "FAIL: t=2: %s\n" % problem
            ), x
        # a t in exponent notation, with its digest recomputed, is refused
        # before it is expanded
        fiber["evidence"]["x"] = "1"
        fiber["subject"]["t"] = "1e10000000"
        fiber["inputs_digest"] = digest_text("family:%s;t=1e10000000" % fiber["subject"]["family"])
        path.write_text(json.dumps(fiber))
        start = time.perf_counter()
        assert run_cli(capsys, "verify", "--certificate", str(path)) == (
            1, "FAIL: unreadable subject: '1e10000000' is not a rational written n or n/d\n"
        )
        assert time.perf_counter() - start < 1.0

    def test_verify_rejects_swapped_subject(self, capsys, tmp_path):
        # the evidence is the infinite place, so only the subject names f
        _, out = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^6+x+1", "--json")
        path = tmp_path / "cert.json"
        path.write_text(out)
        assert run_cli(capsys, "verify", "--certificate", str(path)) == (
            0, "verified: certificate re-checks\n"
        )
        doc = json.loads(out)
        doc["subject"]["f"] = "x^6 - x^2 + 5"
        path.write_text(json.dumps(doc))
        code, out2 = run_cli(capsys, "verify", "--certificate", str(path))
        assert code == 1
        assert out2 == (
            "FAIL: inputs_digest does not match the subject "
            "(hyperelliptic;f=x^6 - x^2 + 5)\n"
        )

    def test_verify_rejects_path_and_flag_forgeries(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        for flags, field, value, problem in (
            ((), "orbits", None, "certificate without orbit data"),
            ((), "chi_irreducible", None, "chi_irreducible does not replay from embedded data"),
            ((), "chi_irreducible", False, "chi_irreducible does not replay from embedded data"),
            (("--full-criterion",), "chi_irreducible", False,
             "chi_irreducible does not replay from embedded data"),
        ):
            _, out = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^6+x+1", *flags, "--json")
            doc = json.loads(out)
            assert doc["orbits"]["j2"] == [15]
            doc[field] = value
            path.write_text(json.dumps(doc))
            assert run_cli(capsys, "verify", "--certificate", str(path)) == (
                1, "FAIL: %s\n" % problem
            ), (flags, field)

    def test_verify_rejects_swapped_fiber(self, capsys, tmp_path):
        _, out = run_cli(
            capsys, "family", "scan", "--f-t", "x^6+t*x+1", "--range=3..4", "--json"
        )
        path = tmp_path / "scan.json"
        path.write_text(out)
        assert run_cli(capsys, "verify", "--certificate", str(path))[0] == 0
        doc = json.loads(out)
        assert [e["t"] for e in doc["certified"]] == ["3", "4"]
        doc["certified"][1]["certificate"]["subject"]["t"] = "5"
        path.write_text(json.dumps(doc))
        code, out2 = run_cli(capsys, "verify", "--certificate", str(path))
        assert code == 1
        assert out2.startswith("FAIL: t=4: inputs_digest does not match the subject")
        assert out2.count("FAIL:") == 1

    def test_verify_ties_scan_entries_to_the_document(self, capsys, tmp_path):
        # each fiber certificate re-checks alone; the document must not
        # claim it for another t, family or range, nor miscount it
        _, out = run_cli(
            capsys, "family", "scan", "--f-t", "x^6+t*x+1", "--range=3..4", "--json"
        )
        path = tmp_path / "scan.json"
        other = "the certificate's subject has the family x^6 + t*x + 1, not x^6 + 5*t*x + 1"
        for edits, problems in (
            ({"t": ("99", "-7")}, [
                "t=99: the certificate's subject has t=3",
                "t=99: t is not in the range 3..4",
                "t=-7: the certificate's subject has t=4",
                "t=-7: t is not in the range 3..4",
            ]),
            ({"family": "x^6 + 5*t*x + 1", "range": [100, 200]}, [
                "t=3: " + other,
                "t=3: t is not in the range 100..200",
                "t=4: " + other,
                "t=4: t is not in the range 100..200",
            ]),
            ({"counts": {"scanned": 2, "certified": 3, "skipped": 0}},
             ["counts.certified is 3, but 2 entries are certified"]),
            ({"range": "3..4"}, ["range is not a pair of integers"]),
        ):
            doc = json.loads(out)
            for key, value in edits.items():
                if key == "t":
                    for entry, t in zip(doc["certified"], value):
                        entry["t"] = t
                else:
                    doc[key] = value
            assert document_problems(doc) == problems, edits
            path.write_text(json.dumps(doc))
            assert run_cli(capsys, "verify", "--certificate", str(path)) == (
                1, "".join("FAIL: %s\n" % p for p in problems)
            ), edits

    def test_verify_rejects_swapped_chi_subject(self, capsys, tmp_path):
        argv = ["certify", "chi", "--file", str(fixture_path("chi1.txt")),
                "--genus", "3", "--assert-deg1-class", "--json"]
        _, out = run_cli(capsys, *argv)
        for field, value in (("genus", 4), ("kind", "curve")):
            doc = json.loads(out)
            doc["subject"][field] = value
            path = tmp_path / ("chi-%s.json" % field)
            path.write_text(json.dumps(doc))
            assert run_cli(capsys, "verify", "--certificate", str(path))[0] == 1, field
        doc = json.loads(out)
        doc["hashes"]["chi"] = "0" * 64
        path.write_text(json.dumps(doc))
        code, out2 = run_cli(capsys, "verify", "--certificate", str(path))
        assert code == 1
        assert out2.startswith("FAIL: inputs_digest does not match the subject (chi;g=3;")

    def test_verify_rejects_non_object_document(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        for text in ("[1, 2]", '"x"'):
            path.write_text(text)
            assert run_cli(capsys, "verify", "--certificate", str(path)) == (
                1, "FAIL: certificate is not a JSON object\n"
            ), text
        _, out = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^6+x+1", "--json")
        doc = json.loads(out)
        doc["subject"] = "x^6+x+1"
        path.write_text(json.dumps(doc))
        code, out2 = run_cli(capsys, "verify", "--certificate", str(path))
        assert code == 1
        assert out2.startswith("FAIL: unreadable subject")

    def test_verify_rejects_certificate_without_subject(self, capsys, tmp_path):
        # the library accepts a certificate on bare orbit data, with no
        # subject and no digest; `verify` requires what a command writes
        _, out = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^6+x+1", "--json")
        path = tmp_path / "cert.json"
        for subject in (None, {}):
            for digest in (True, False):
                doc = json.loads(out)
                doc.pop("subject")
                if subject is not None:
                    doc["subject"] = subject
                if not digest:
                    doc["inputs_digest"] = ""
                    assert json_verify(doc) == (True, [])
                path.write_text(json.dumps(doc))
                assert run_cli(capsys, "verify", "--certificate", str(path)) == (
                    1, "FAIL: unreadable subject: unknown subject kind None\n"
                ), (subject, digest)

    def test_verify_rejects_point_without_coordinates(self, capsys, tmp_path):
        f = "2*x^6+2*x^5+3*x^4+6*x^3-3*x^2+2*x-8"
        _, out = run_cli(capsys, "certify", "hyperelliptic", "--f", f, "--json")
        path = tmp_path / "cert.json"
        for missing in ("x", "y"):
            doc = json.loads(out)
            assert doc["evidence"]["kind"] == "rational-point"
            del doc["evidence"][missing]
            path.write_text(json.dumps(doc))
            assert run_cli(capsys, "verify", "--certificate", str(path)) == (
                1, "FAIL: unparseable certificate: rational-point evidence without x and y\n"
            ), missing

    def test_verify_rejects_malformed_scan_entries(self, capsys, tmp_path):
        _, out = run_cli(
            capsys, "family", "scan", "--f-t", "x^6+t*x+1", "--range=3..3", "--json"
        )
        path = tmp_path / "scan.json"
        for certified, problem in (
            ("x", "certified is not a list"),
            ([1], "certified entry 0 is not an object with a t field"),
            ([{"certificate": {}}], "certified entry 0 is not an object with a t field"),
            ([{"t": "3"}], "t=3: certificate is not a JSON object"),
            ([{"t": "3", "certificate": [1]}], "t=3: certificate is not a JSON object"),
        ):
            doc = json.loads(out)
            assert doc["command"] == "family-scan"
            doc["certified"] = certified
            assert document_problems(doc) == [problem], certified
            path.write_text(json.dumps(doc))
            assert run_cli(capsys, "verify", "--certificate", str(path)) == (
                1, "FAIL: %s\n" % problem
            ), certified

    @pytest.mark.parametrize("f_t,code", [
        ("x^6+(10^5000*t+1)*x+1", 0),
        # the fiber x^6+1 has rational two-torsion
        ("x^6+10^5000*t*x+1", 2),
        ("x^6+10^5000*t*x^2+x+1", 0),
    ])
    def test_scan_of_a_family_past_the_str_digit_limit(self, capsys, tmp_path, f_t, code):
        # the family is written into each fiber's subject and read back by
        # verify; only the fiber t = 0 is certified, which is quick
        run = run_cli(capsys, "family", "scan", "--f-t", f_t, "--range=0..0", "--json")
        assert run[0] == code
        doc = json.loads(run[1])
        assert parse_family(doc["family"]) == parse_family(f_t)
        path = tmp_path / "scan.json"
        path.write_text(run[1])
        assert run_cli(capsys, "verify", "--certificate", str(path)) == (
            0, "verified: %d fiber certificate(s) re-check\n" % (code == 0)
        )

    def test_certify_eighteen_digit_coefficient(self, capsys):
        # every bit of the coefficient reaches the root approximation, so
        # the root disks shrink with the precision and the labels snap
        code, out = run_cli(
            capsys, "certify", "hyperelliptic", "--f=x^6+123456789012345678*x+1",
            "--height-bound", "5",
        )
        assert code == 0
        assert out.startswith("verdict: RankAtLeastOne\n")

    def test_certify_chi_checks_theta_files_for_irreducible_chi(self, capsys, tmp_path):
        theta = tmp_path / "theta.txt"
        theta.write_text("order: ascending\n1 0 0 1\n")
        code = main([
            "certify", "chi", "--file", str(fixture_path("chi1.txt")), "--genus", "3",
            "--assert-deg1-class", "--theta-odd", str(theta), "--theta-even", str(theta),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: theta resolvent degrees (3, 3) do not match genus 3 (28, 36)\n"
        )

    def test_certify_chi_rejects_genus_above_cap(self, capsys, tmp_path):
        # x^1023 - x - 1 is squarefree and has the degree genus 5 requires;
        # the cap rejects it before any squarefree check or factoring
        chi = tmp_path / "chi.txt"
        chi.write_text("order: ascending\n-1 -1 %s 1\n" % " ".join(["0"] * 1021))
        start = time.perf_counter()
        code = main([
            "certify", "chi", "--file", str(chi), "--genus", "5", "--assert-deg1-class",
        ])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: genus 5 exceeds the genus cap g <= 4\n"
        assert elapsed < 0.5

    def test_certify_orbits_rejects_genus_above_cap(self, capsys):
        # the class counts of genus 10^12 have 2 * 10^12 bits: the cap is
        # checked before any of them is computed
        start = time.perf_counter()
        code = main([
            "certify", "orbits", "--j2", "15", "--theta-odd", "6", "--theta-even", "10",
            "--genus", "1000000000000",
        ])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: genus 1000000000000 exceeds the genus cap g <= 4\n"
        assert elapsed < 1.0

    def test_verify_ties_the_genus_to_the_subject(self, capsys, tmp_path):
        # every forgery keeps a consistent inputs digest and replays through
        # `decide`; only the genus of the curve the subject names differs
        def certificate(*argv):
            return json.loads(run_cli(capsys, *argv, "--json")[1])

        sextic = certificate("certify", "hyperelliptic", "--f=x^6+x+1")
        forged_genus = json.loads(json.dumps(sextic))
        forged_genus["genus"] = 3
        forged_genus["orbits"]["j2"] = [63]
        forged_subject = json.loads(json.dumps(sextic))
        forged_subject["subject"]["genus"] = 4
        swapped = certificate("certify", "hyperelliptic", "--f=x^7+x+1")
        swapped["subject"] = {"kind": "hyperelliptic", "f": "x^6 - x^2 + 1", "genus": 3}
        swapped["hashes"] = certificate("certify", "hyperelliptic", "--f=x^6-x^2+1")["hashes"]
        swapped["inputs_digest"] = digest_text("hyperelliptic;f=x^6 - x^2 + 1")
        scan = certificate("family", "scan", "--f-t=x^6+t*x+1", "--range=1..1")
        fiber = scan["certified"][0]["certificate"]
        fiber["genus"] = 3
        fiber["orbits"]["j2"] = [63]
        path = tmp_path / "cert.json"
        for doc, problem in (
            (forged_genus, "the subject has genus 2, not 3"),
            (forged_subject, "the subject has genus 4, not 2"),
            (swapped, "y^2 = x^6 - x^2 + 1 has genus 2, not 3"),
            (fiber, "y^2 = x^6 + x + 1 has genus 2, not 3"),
            (scan, "t=1: y^2 = x^6 + x + 1 has genus 2, not 3"),
        ):
            assert document_problems(doc) == [problem]
            path.write_text(json.dumps(doc))
            assert run_cli(capsys, "verify", "--certificate", str(path)) == (
                1, "FAIL: %s\n" % problem
            ), problem

    def test_verify_rejects_genus_above_cap(self, capsys, tmp_path):
        _, out = run_cli(
            capsys,
            "certify", "orbits", "--j2", "15", "--theta-odd", "6", "--theta-even", "10",
            "--genus", "2", "--assert-deg1-class", "--json",
        )
        doc = json.loads(out)
        doc["genus"] = doc["subject"]["genus"] = 10**12
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = main(["verify", "--certificate", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "FAIL: genus 1000000000000 exceeds the genus cap g <= 4\n"
        assert captured.err == ""
        assert elapsed < 1.0

    @pytest.mark.parametrize("argv, degree", [
        (["certify", "hyperelliptic", "--f", "(x+1)^4000"], 4000),
        (["certify", "hyperelliptic", "--f", "(x^3+1)^2*(x^3+x+1)^2"], 12),
        (["family", "scan", "--f-t", "(x+t)^4000", "--range", "0..1"], 4000),
    ])
    def test_parse_rejects_degree_above_cap(self, capsys, argv, degree):
        # each product and power is checked against the genus cap before it
        # is expanded: (x+1)^4000 took over a minute to expand and reject
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: degree %d exceeds the genus cap g <= 4 (resolvent degree would "
            "pass the practical factorization ceiling)\n" % degree
        )
        assert elapsed < 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_oracle_rejects_prime_count_below_one(self, capsys, count):
        code = main(["oracle", "--f", "x^6+x+1", "--primes", count])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --primes must be at least 1; got %s\n" % count

    def test_oracle_rejects_more_primes_than_lie_below_its_bound(self, capsys):
        # 9592 primes lie below 100000: more are refused before any work,
        # which on x^9+x+1 takes seconds for 80 primes
        start = time.perf_counter()
        code = main(["oracle", "--f", "x^9+x+1", "--primes", "9593"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: --primes must be at most 9592, the number of primes below 100000; got 9593\n"
        )
        assert elapsed < 1

    @pytest.mark.parametrize("genus", ["0", "-1"])
    def test_certify_chi_rejects_genus_below_one(self, capsys, genus):
        code = main([
            "certify", "chi", "--file", str(fixture_path("chi1.txt")),
            "--genus", genus, "--assert-deg1-class",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: genus must be >= 1; got %s\n" % genus

    def test_family_scan_rejects_zero_denominator_fiber(self, capsys):
        # a value is read only as str(Fraction) writes one: 1e1000000 is
        # refused at once instead of expanded to a million digits
        for value, error in (
            ("1/0", "--fiber-check has a zero denominator: 1/0"),
            ("1e1000000", "'1e1000000' is not a rational written n or n/d"),
            ("1.5", "'1.5' is not a rational written n or n/d"),
            ("1e0", "'1e0' is not a rational written n or n/d"),
        ):
            start = time.perf_counter()
            code = main([
                "family", "scan", "--f-t", "x^6+t*x+1", "--range=1..2", "--fiber-check", value,
            ])
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err == "error: %s\n" % error
            assert elapsed < 1.0, value

    @pytest.mark.parametrize("argv", [
        ["certify", "hyperelliptic", "--f", "x^6+x+1"],
        ["family", "scan", "--f-t", "x^6+t*x+1", "--range=1..2"],
    ], ids=["certify", "family-scan"])
    def test_rejects_negative_height_bound(self, capsys, argv):
        code = main(argv + ["--height-bound", "-5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --height-bound must be at least 0; got -5\n"

    def test_bad_polynomial_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^^2")
        assert code == 1

    def test_bad_range_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "family", "scan", "--f-t", "x^6+t*x+1", "--range", "5..1")
        assert code == 1

    def test_certify_chi_with_theta_files(self, capsys, tmp_path):
        # external-resolvent mode, theta data included: build real resolvents
        # for an odd quintic and feed them back through the file interface
        import warnings

        from rankcert.weierstrass import build_curve, enumerate_j2_classes, enumerate_theta_classes

        from conftest import resolvents

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = build_curve(parse_poly("x^5 - x + 1"))
            (chi,), _c = resolvents(curve, [enumerate_j2_classes(curve)])
            (chi_odd, chi_even), _c = resolvents(curve, enumerate_theta_classes(curve))

        def dump(name, poly):
            path = tmp_path / name
            path.write_text(
                "order: ascending\n" + " ".join(str(c) for c in poly.coeffs) + "\n"
            )
            return str(path)

        code, out = run_cli(
            capsys,
            "certify", "chi",
            "--file", dump("chi.txt", chi),
            "--genus", "2", "--assert-deg1-class",
            "--theta-odd", dump("odd.txt", chi_odd),
            "--theta-even", dump("even.txt", chi_even),
            "--json",
        )
        assert code == 2
        doc = json.loads(out)
        # the odd model's rational theta characteristic shows up as a
        # size-1 orbit in the external data too
        assert any(r["kind"] == "RationalTheta" for r in doc["reasons"])
        assert 1 in doc["orbits"]["theta_odd"]
        ok, problems = json_verify(doc)
        assert ok, problems

    def test_certify_chi_reducible_without_theta(self, capsys, tmp_path):
        # reducible chi and no theta data: inconclusive with the gap reported
        p = tmp_path / "chi.txt"
        from rankcert.weierstrass import build_curve, enumerate_j2_classes

        from conftest import resolvents

        curve = build_curve(parse_poly("x^6 - x^5 + x^3 + x^2 - 2*x"))
        (chi,), _c = resolvents(curve, [enumerate_j2_classes(curve)])
        p.write_text("order: ascending\n" + " ".join(str(c) for c in chi.coeffs) + "\n")
        code, out = run_cli(
            capsys,
            "certify", "chi", "--file", str(p), "--genus", "2",
            "--assert-deg1-class", "--json",
        )
        assert code == 2
        doc = json.loads(out)
        kinds = {r["kind"] for r in doc["reasons"]}
        assert "NeedsThetaData" in kinds
        assert "RationalTwoTorsion" in kinds

    def test_verify_accepts_all_certify_modes(self, capsys, tmp_path):
        commands = [
            ("hy", ["certify", "hyperelliptic", "--f", "x^6+x+1", "--json"]),
            ("odd", ["certify", "hyperelliptic", "--f", "x^5-x+1", "--json"]),
            ("chi", ["certify", "chi", "--file", str(fixture_path("chi1.txt")),
                     "--genus", "3", "--assert-deg1-class", "--json"]),
            ("orb", ["certify", "orbits", "--j2", "3,12,48", "--theta-odd", "4,24",
                     "--theta-even", "12,24", "--genus", "3",
                     "--assert-deg1-class", "--json"]),
        ]
        for name, argv in commands:
            _, out = run_cli(capsys, *argv)
            path = tmp_path / (name + ".json")
            path.write_text(out)
            code, _ = run_cli(capsys, "verify", "--certificate", str(path))
            assert code == 0, name

    def test_deterministic_bytes(self, capsys):
        args = ("certify", "hyperelliptic", "--f", "x^6+x+1", "--json")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second
        args = (
            "certify", "orbits", "--j2", "3,12,48", "--theta-odd", "4,24",
            "--theta-even", "12,24", "--genus", "3", "--assert-deg1-class", "--json",
        )
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second


def test_runs_without_numpy():
    # numpy and mpmath are test-only dependencies: blocking their imports
    # changes nothing
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["certify", "hyperelliptic", "--f=x^7+x+1", "--json"]
    runs = []
    for block in (
        "",
        "sys.modules['numpy'] = None; ",
        "sys.modules['numpy'] = None; sys.modules['mpmath'] = None; ",
    ):
        code = "import sys; %sfrom rankcert.cli import main; sys.exit(main(%r))" % (block, argv)
        runs.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, timeout=300,
        ))
    normal, *blocked = runs
    assert normal.returncode == 2
    assert normal.stdout.startswith(b"{")
    for run in blocked:
        assert run.returncode == normal.returncode
        assert run.stdout == normal.stdout


@pytest.mark.parametrize("f", [
    "x^9-x",
    "(x^2-2)*(x^2-3)*(x^2-5)*(x^2-7)*(x^2-11)",
    "x^8+1",
    "x^7-x",
    "-3*x^5-6*x^4-3*x^3-4*x^2-4*x",
])
def test_inseparable_labels_fail_fast(f):
    # two classes whose roots share the first two power sums get the same
    # label alpha + c*alpha^2 summed for every c, so no labelling index
    # separates them; meeting label balls reject each c without any gcd
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys; from rankcert.cli import main; sys.exit(main(%r))" % (
        ["certify", "hyperelliptic", "--f=" + f],
    )
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert run.returncode == 1
    assert run.stdout == b""
    assert run.stderr == b"error: no injective labeling found with c <= 64\n"
    assert elapsed < 5


# sha256 of the stdout recorded when the warning still went out in
# Python's default format
@pytest.mark.parametrize("argv,stdout_sha256", [
    (["certify", "hyperelliptic", "--f", "x^3+x+1"],
     "bcbafd3bb77590d179557e37fde17b5d4ca49cd90179b5348537daed54e36f00"),
    (["family", "scan", "--f-t", "x^3+t", "--range=1..2"],
     "b187e231a9928031f7e2f03de09d9e6c7ef0312cd9286770bdfd80e4c22475a3"),
])
def test_genus_one_warning_is_one_deterministic_line(argv, stdout_sha256):
    # the default format named the source path and line of the caller of
    # build_curve, so stderr moved with every edit to that module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys; from rankcert.cli import main; sys.exit(main(%r))" % (argv,)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert run.returncode == 2
    assert hashlib.sha256(run.stdout).hexdigest() == stdout_sha256
    assert run.stderr == (
        b"warning: genus-1 model accepted, but the rank criterion needs genus > 1\n"
    )


@pytest.mark.parametrize("f,code,stdout_sha256,stderr", [
    # the monic model's coefficients reach past the float range
    ("(x-1)*(x-1-1/1000000)*(x-2)*(x+5)*(x^2+1)+1/10^30", 0,
     "e5763932a33fcc69b4c02797769a12b0f8515720290d08d8b10f1388f67ab6b4", ""),
    # resolvent coefficients past Python's 4300-digit str limit; the hashes
    # were recorded with the limit lifted
    ("x^8+10^400*x+1", 2,
     "357bfb414f7dce5e392c1200d04e02717f45af325b5c39609be28126b38e2198", ""),
    ("10^200*x^6+x+1", 0,
     "507b055498630a99223689196edd3cb51658b8df3422aadfac0af35172d3fd2c", ""),
], ids=["perturbed-sextic", "huge-coefficient", "huge-leading-coefficient"])
def test_coefficients_past_the_float_range_keep_their_bytes(f, code, stdout_sha256, stderr, capsys):
    # root isolation starts from the circle when a coefficient does not fit
    # a float; stdout, stderr and exit code as recorded before the float start
    assert main(["certify", "hyperelliptic", "--f=" + f, "--json"]) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_sha256
    assert err == stderr


RATIONAL_POINT_TEXT = """\
verdict: RankAtLeastOne
path: transitivity
genus: 2
degree-1 class: rational-point (1, 2)
two-torsion orbits: 15
two-torsion resolvent irreducible: yes
checks:
  [ok] rational degree-1 divisor class present
  [ok] no rational nonzero two-torsion
  [ok] no rational theta characteristic
conclusion: Mordell-Weil rank of the Jacobian is at least 1
hash chi: 8ef2804d74e23b3ee863bdf065db065d4f9fd11f02eb4b1cc3d75d2502ff80ff
labeling index: 0
inputs digest: 3a85201cf5e77e9c39fda0f846c6533d371d78b6ea0152f6be66c17a901d79b8
tool: rankcert 0.1.0
"""

NO_CLASS_TEXT = """\
verdict: Inconclusive
path: direct
genus: 2
degree-1 class: none
two-torsion orbits: 15
odd theta orbits: 6
even theta orbits: 10
obstructions:
  - NoDeg1Class: no rational degree-1 divisor class supplied or found
inputs digest: 4e21e4b95a15d42046eceb59f22aa6385fc2e8486c8b9a70952e8a0f3455b404
tool: rankcert 0.1.0
"""

ORACLE_TEXT = """\
curve: y^2 = x^6 + x + 1
chi degree: 15
p=2: chi mod p [3, 6, 6] | subset action [3, 6, 6] | ok
p=5: chi mod p [3, 3, 3, 3, 3] | subset action [3, 3, 3, 3, 3] | ok
p=7: chi mod p [5, 5, 5] | subset action [5, 5, 5] | ok
agreement: complete
"""

ORBITS = ("--j2", "15", "--theta-odd", "6", "--theta-even", "10", "--genus", "2")


def _listing(*coeffs):
    return "order: ascending\n%s\n" % " ".join(str(c) for c in coeffs)


@pytest.mark.parametrize("argv, code, out", [
    # x^6 is not a square at 2, f(0) = 3 and f(-1) = 6 are not squares:
    # the first point found is (1, 2)
    (("certify", "hyperelliptic", "--f", "2*x^6-x+3"), 0, RATIONAL_POINT_TEXT),
    (("certify", "orbits") + ORBITS, 2, NO_CLASS_TEXT),
    (("oracle", "--f", "x^6+x+1", "--primes", "3"), 0, ORACLE_TEXT),
], ids=["rational-point", "no-degree-1-class", "oracle"])
def test_text_output_bytes(capsys, argv, code, out):
    assert main(list(argv)) == code
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("argv, files, message", [
    (("certify", "orbits", "--j2", "1,x") + ORBITS[2:], {},
     "orbit lists are comma-separated integers: '1,x'"),
    (("certify", "orbits", "--j2", "0,15") + ORBITS[2:], {},
     "orbit sizes must be positive integers: '0,15'"),
    (("certify", "chi", "--file", "{chi}", "--genus", "1", "--theta-odd", "{odd}"),
     {"chi": _listing(-2, 0, 0, 1), "odd": _listing(0, 1)},
     "--theta-odd and --theta-even must be given together"),
    (("certify", "chi", "--file", "{chi}", "--genus", "1", "--theta-even", "{even}"),
     {"chi": _listing(-2, 0, 0, 1), "even": _listing(-2, 0, 0, 1)},
     "--theta-odd and --theta-even must be given together"),
    (("certify", "chi", "--file", "{chi}", "--genus", "1"),
     {"chi": "# a header and no coefficient\norder: ascending\n"},
     "no coefficients in {chi}"),
    (("certify", "chi", "--file", "{chi}", "--genus", "1"),
     {"chi": _listing(0, 0, 0)}, "zero polynomial in {chi}"),
    (("family", "scan", "--f-t", "x^6+t*x+1", "--range", "1-2"), {},
     "--range expects A..B with integers, got '1-2'"),
    # (x - 1)^2 (x + 1)
    (("certify", "chi", "--file", "{chi}", "--genus", "1"),
     {"chi": _listing(1, -1, -1, 1)},
     "chi is not squarefree (not an etale-algebra resolvent)"),
    (("certify", "chi", "--file", "{chi}", "--genus", "1",
      "--theta-odd", "{odd}", "--theta-even", "{even}"),
     {"chi": _listing(-2, 0, 0, 1), "odd": _listing(0, 1), "even": _listing(1, -1, -1, 1)},
     "theta even resolvent is not squarefree"),
    # (x^3 - 1)^2
    (("certify", "chi", "--file", "{chi}", "--genus", "2",
      "--theta-odd", "{odd}", "--theta-even", "{even}"),
     {"chi": _listing(-2, *[0] * 14, 1), "odd": _listing(1, 0, 0, -2, 0, 0, 1),
      "even": _listing(-2, *[0] * 9, 1)},
     "theta odd resolvent is not squarefree"),
], ids=["orbit-list-syntax", "orbit-size-zero", "theta-odd-alone", "theta-even-alone",
        "chi-no-coefficients", "chi-zero", "range-syntax", "chi-not-squarefree",
        "theta-even-not-squarefree", "theta-odd-not-squarefree"])
def test_input_errors(capsys, tmp_path, argv, files, message):
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / (name + ".txt")
        paths[name].write_text(text)
    assert main([a.format(**paths) for a in argv]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message.format(**paths))


def test_verify_rejects_a_malformed_hash_and_unpaired_theta_orbits(capsys, tmp_path):
    path = tmp_path / "cert.json"
    _, out = run_cli(capsys, "certify", "hyperelliptic", "--f", "x^6+x+1", "--json")
    doc = json.loads(out)
    doc["hashes"]["chi"] = doc["hashes"]["chi"][:-1] + "g"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--certificate", str(path)]) == 1
    assert capsys.readouterr() == ("FAIL: hash chi is not sha256 hex\n", "")
    _, out = run_cli(capsys, "certify", "orbits", *ORBITS, "--assert-deg1-class", "--json")
    doc = json.loads(out)
    for odd_only in ({"j2": [15], "theta_odd": [6]}, {"j2": [15], "theta_odd": [6], "theta_even": None}):
        doc["orbits"] = odd_only
        path.write_text(json.dumps(doc))
        assert main(["verify", "--certificate", str(path)]) == 1
        assert capsys.readouterr() == (
            "FAIL: odd and even theta orbits must be given together\n", ""
        )


# one good and one failing input for each command that takes --json
JSON_COMMANDS = {
    "certify hyperelliptic": (["--f=x^6+x+1"], ["--f=x^2"]),
    "certify chi": (
        ["--file", str(fixture_path("chi1.txt")), "--genus", "3", "--assert-deg1-class"],
        ["--file", str(fixture_path("chi1.txt")), "--genus", "2", "--assert-deg1-class"],
    ),
    "certify orbits": (
        ["--j2", "15", "--theta-odd", "6", "--theta-even", "10", "--genus", "2"],
        ["--j2", "1,x", "--theta-odd", "6", "--theta-even", "10", "--genus", "2"],
    ),
    "orbits hyperelliptic": (["--f=x^6+x+1", "--theta"], ["--f=x^2"]),
    "family scan": (
        ["--f-t=x^6+t*x+1", "--range=1..3"], ["--f-t=x^6+t*x+1", "--range=3..1"],
    ),
    "oracle": (["--f=x^6+x+1", "--primes", "3"], ["--f=x^6+x+1", "--primes", "0"]),
}


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_json_changes_only_the_stdout_format(capsys, command):
    good, bad = JSON_COMMANDS[command]
    for args, codes in ((good, (0, 2)), (bad, (1,))):
        argv = command.split() + args
        text_code = main(argv)
        text = capsys.readouterr()
        json_code = main(argv + ["--json"])
        out, err = capsys.readouterr()
        assert text_code == json_code and text_code in codes
        assert err == text.err
        if text_code == 1:
            assert out == text.out == ""
            assert err.startswith("error: ")
        else:
            assert out == canonical_json(json.loads(out)) + "\n"
            assert out != text.out
