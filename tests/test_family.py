import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from rankcert import factorq, family
from rankcert.certify import certificate_doc, certify_curve, verify_certificate
from rankcert.cli import main, parse_family, parse_poly
from rankcert.exactpoly import IntPoly, RatPoly, discriminant
from rankcert.factorq import is_squarefree
from rankcert.family import (
    FamilyCurve,
    ScanOptions,
    certify_fiber,
    check_good_fiber,
    exclusion_sets,
    family_discriminant_numerator,
    scan,
)
from rankcert.weierstrass import NoInjectiveLabelingError

from conftest import curve_subject

X6_T = FamilyCurve(
    (RatPoly([1]), RatPoly([0, 1]), RatPoly(), RatPoly(), RatPoly(), RatPoly(), RatPoly([1])),
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

    @pytest.mark.parametrize("f_t", ["x^6+(t+1)^30*x+1", "(t^2+1)*x^5+2/3*t^3*x^2+t+7"])
    def test_interpolation_off_the_sample_points(self, f_t):
        # the samples are t = 0, 1, -1, 2, -2, ...; the primitive numerator
        # is disc_x up to one constant factor at every other t as well
        fam = parse_family(f_t)
        disc = family_discriminant_numerator(fam).to_rat()
        ratios = {
            discriminant(fam.specialize(t0)) / disc(t0)
            for t0 in (Fraction(1000), Fraction(1, 3), Fraction(-7, 2))
        }
        assert len(ratios) == 1 and 0 not in ratios

    def test_constant_family(self):
        fam = FamilyCurve(
            tuple([RatPoly([1]), RatPoly([1])] + [RatPoly()] * 4 + [RatPoly([1])]),
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
        fam = FamilyCurve(
            (RatPoly([0, 0, 1]), RatPoly([0, -2, 1]), RatPoly([1, -2]), RatPoly([1])),
            "(x-t)^2*(x+1)",
        )
        with pytest.raises(ValueError):
            family_discriminant_numerator(fam)


class TestExclusions:
    def test_empty_for_good_family(self):
        excl = exclusion_sets(X6_T)
        assert excl.z1 == frozenset() and excl.z2 == frozenset()

    def test_lc_root_in_z2(self):
        nums = [RatPoly([1]), RatPoly([1])] + [RatPoly()] * 4 + [RatPoly([0, 1])]  # t*x^6 + x + 1
        fam = FamilyCurve(tuple(nums), "t*x^6 + x + 1")
        excl = exclusion_sets(fam)
        assert Fraction(0) in excl.z2

    def test_exclusion_vanishing_by_evaluation(self):
        nums = [RatPoly([1]), RatPoly([1])] + [RatPoly()] * 4 + [RatPoly([0, 1])]
        fam = FamilyCurve(tuple(nums), "t*x^6 + x + 1")
        disc = family_discriminant_numerator(fam)
        excl = exclusion_sets(fam)
        for a in excl.z2:
            lc = fam.numerators[-1](a)
            assert lc == 0 or disc.to_rat()(a) == 0


# (family, z1, z2, whether the discriminant numerator is squarefree),
# recorded while rational_roots still ran Yun's squarefree decomposition;
# the non-squarefree numerators take the gcd branch of rational_roots
PINNED_EXCLUSIONS = [
    ("x^6+t*x+1", (), (), True),
    ("x^6+t*x+2", (), (), True),
    ("x^5+t*x+1", (), (), True),
    ("x^5-t*x^2+t", ("0",), ("0",), False),
    ("x^6+t^2*x+1", (), (), True),
    ("x^6-t*x^2+1", (), (), False),
    ("x^7+t*x+2", (), (), True),
    ("x^3+t*x+1", (), (), True),
    ("x^3-3*x+t", ("-2", "2"), ("-2", "2"), True),
    ("x^4+t*x^2+1", ("-2", "2"), ("-2", "2"), False),
    ("x^5-5*x+t", ("-4", "4"), ("-4", "4"), True),
    ("x^6+x^3+t", ("0", "1/4"), ("0", "1/4"), False),
    ("x^6-t^2", ("0",), ("0",), False),
    ("(t^2-1)*x^6+x+1", ("-1", "1"), ("-1", "1"), False),
    ("t*x^6+x+1", ("0", "3125/46656"), ("0", "3125/46656"), False),
    ("t^2*x^5+x+1", ("0",), ("0",), False),
    ("(t-1)^2*(t+2)*x^6+x^2+1", ("-2", "1"), ("-2", "1"), False),
    ("(2*t+1)^3*x^5+t*x+1", ("-1/2",), ("-1/2",), False),
    ("(t^2+1)*x^5+2/3*t^3*x^2+t+7", ("-7",), ("-7",), False),
    ("x^5+(t^2-4)*x+t", (), (), True),
    ("x^8+t*x+1", (), (), True),
    ("x^6+(t+1)^3*x+1", (), (), True),
    ("(x^2-t)*(x^3-2)", ("0",), ("0",), False),
    ("x^5+1/2*t*x^3-t^2*x+3", (), (), True),
    ("t*x^6+x^5+1", (), ("0",), True),
    ("(t-2)*x^5+x^4+t", ("0",), ("0", "2"), False),
    ("(t^2+t)^2*x^6+x^5+x+1", (), ("-1", "0"), True),
]


@pytest.mark.parametrize("f_t,z1,z2,squarefree", PINNED_EXCLUSIONS)
def test_pinned_exclusion_sets(f_t, z1, z2, squarefree):
    fam = parse_family(f_t)
    assert is_squarefree(family_discriminant_numerator(fam)) is squarefree
    excl = exclusion_sets(fam)
    assert tuple(sorted(str(v) for v in excl.z1)) == z1
    assert tuple(sorted(str(v) for v in excl.z2)) == z2


class TestFamilyShape:
    @pytest.mark.parametrize("f_t,degree", [("x^2+t", 2), ("t*x+1", 1)])
    def test_x_degree_below_three_rejected_up_front(self, capsys, f_t, degree):
        # the message of build_curve, before any exclusion set or fiber
        code = main(["family", "scan", "--f-t", f_t, "--range=0..1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: need deg f >= 3 (genus >= 1); got degree %d\n" % degree

    @pytest.mark.parametrize("f_t", ["x^6+t^31*x+1", "x^6+t^16*t^15*x+1", "x^6+(t+1)^4000*x+1"])
    def test_t_degree_above_cap_rejected_before_expanding(self, capsys, f_t):
        start = time.perf_counter()
        code = main(["family", "scan", "--f-t", f_t, "--range=0..0"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: t-degree ")
        assert "exceeds the family cap of 30" in captured.err
        assert elapsed < 1

    def test_caps_hold_for_families_built_directly(self):
        # no discriminant sample is taken past either cap
        fam = FamilyCurve((RatPoly([1]), RatPoly([0] * 31 + [1]), RatPoly(), RatPoly([1])))
        with pytest.raises(ValueError, match="t-degree 31"):
            exclusion_sets(fam)
        with pytest.raises(ValueError, match="need deg f >= 3"):
            scan(FamilyCurve((RatPoly([0, 1]), RatPoly([1]))), 0, 1)

    def test_zero_leading_coefficient_rejected(self):
        # by the constructor, and by _replace, which builds a new record
        with pytest.raises(ValueError, match="zero generic leading coefficient"):
            FamilyCurve((RatPoly([1]), RatPoly()))
        with pytest.raises(ValueError, match="zero generic leading coefficient"):
            X6_T._replace(numerators=X6_T.numerators[:-1] + (RatPoly(),))
        assert X6_T._replace(description="") == FamilyCurve(X6_T.numerators)

    def test_fiber_check_computes_exclusions_once(self, monkeypatch, capsys):
        calls = []
        original = family.family_discriminant_numerator

        def counting(fam):
            calls.append(fam)
            return original(fam)

        monkeypatch.setattr(family, "family_discriminant_numerator", counting)
        code = main(["family", "scan", "--f-t", "x^6+t*x+1", "--range=1..1", "--fiber-check", "1"])
        assert code == 0
        assert "fiber check t=1: transitive (orbits 15)" in capsys.readouterr().out
        assert len(calls) == 1


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
        fam = FamilyCurve(tuple(nums), "t*x^6 + x + 1")
        with pytest.raises(ValueError):
            check_good_fiber(fam, Fraction(0))
        # at t = 1 only the leading coefficient t - 1 vanishes
        fam = parse_family("(t-1)*x^6+x^5+x+1")
        with pytest.raises(ValueError, match=r"^t=1 is excluded \(InZ2\)$"):
            check_good_fiber(fam, Fraction(1))


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
        fam = FamilyCurve(tuple(nums), "t*x^6 + x + 1")
        report = scan(fam, 0, 0)
        assert report.certified == ()
        # t = 0 kills both the leading coefficient and the discriminant
        # numerator, so the z1 (discriminant) exclusion wins the tie
        assert [(a, kind) for a, kind, _ in report.skipped] == [(Fraction(0), "InZ1")]
        excl = exclusion_sets(fam)
        assert Fraction(0) in excl.z1 and Fraction(0) in excl.z2

    def test_constant_family_certifies_uniformly(self):
        fam = FamilyCurve(
            tuple([RatPoly([1]), RatPoly([1])] + [RatPoly()] * 4 + [RatPoly([1])]),
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

    def test_z2_fiber_is_skipped(self, capsys):
        argv = ["family", "scan", "--f-t", "(t-1)*x^6+x^5+x+1", "--range=0..3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "family: y^2 = (t - 1)*x^6 + x^5 + x + 1\n"
            "range: 0..3\n"
            "z1: 2\n"
            "z2: 1, 2\n"
            "certified 1 of 4 fibers: 3\n"
            "skipped t=0: Inconclusive (NeedsThetaData)\n"
            "skipped t=1: InZ2\n"
            "skipped t=2: InZ1\n"
        )
        assert main(argv + ["--json"]) == 0
        out = capsys.readouterr().out
        assert [(e["t"], e["kind"]) for e in json.loads(out)["skipped"]] == [
            ("0", "Inconclusive"), ("1", "InZ2"), ("2", "InZ1"),
        ]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "ebc0fb2a1044578dbff3d8ef1095ecbe458f53844ac68c60ddf748cd581d69e2"
        )

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


def _seeded_fibers(seed=20, per_family=13):
    """(f_t, t, f, full_theta) for distinct fibers of x^d + t*x + c, d = 5
    to 8 (odd and even models of genus 2 and 3), each with both full_theta
    values."""
    rng = random.Random(seed)
    cases = []
    for d in (5, 6, 7, 8):
        fibers = {}
        while len(fibers) < per_family:
            f_t = "x^%d+t*x%+d" % (d, rng.choice([c for c in range(-9, 10) if c]))
            t = rng.randint(-6, 6)
            f = parse_family(f_t).specialize(Fraction(t))
            if discriminant(f) != 0:
                fibers[f_t, t] = str(f)
        cases += [(*fiber, f, full) for fiber, f in fibers.items() for full in (False, True)]
    return cases


@pytest.mark.parametrize(
    "f_t,t,f,full_theta",
    [
        ("x^6+t*x+1", 1, "x^6+x+1", False),  # irreducible chi: transitivity
        ("x^6+t*x+1", 0, "x^6+1", True),  # reducible chi, full criterion: direct
    ] + _seeded_fibers(),
)
def test_fiber_and_curve_pipelines_agree(f_t, t, f, full_theta):
    fiber = certify_fiber(parse_family(f_t), Fraction(t), ScanOptions(full_theta=full_theta))
    f = parse_poly(f)
    curve_cert = certify_curve(f, curve_subject(f), full_theta=full_theta)
    assert fiber.inputs_digest != curve_cert.inputs_digest
    blank = {"subject": (), "inputs_digest": ""}
    if full_theta != fiber.report.transitive:
        assert fiber.path == ("direct" if full_theta else "transitivity")
        assert fiber._replace(**blank) == curve_cert._replace(**blank)
        return
    # a transitive fiber under the full criterion, or a reducible one
    # without it, stays on the transitivity path with the two-torsion data
    assert fiber.path == "transitivity"
    assert fiber.chi_irreducible == fiber.report.transitive
    two_torsion = certify_curve(f, curve_subject(f))
    same = ("evidence", "report", "hashes", "labeling")
    assert [getattr(fiber, k) for k in same] == [getattr(two_torsion, k) for k in same]


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


def test_high_t_degree_scan_is_fast():
    # 301 discriminant samples; cubic Lagrange interpolation in Fraction
    # arithmetic ran past 60 s here
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["family", "scan", "--f-t", "x^6+(t+1)^30*x+1", "--range=0..0"]
    code = "import sys; from rankcert.cli import main; sys.exit(main(%r))" % (argv,)
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert run.returncode == 0, run.stderr
    assert b"certified 1 of 1 fibers: 0" in run.stdout
    assert elapsed < 20


# ---------------------------------------------------------------------------
# the scan on several CPUs: forked workers, one report

# over -6..6: t = 0 is in z1, t = 3 is inconclusive, the rest certify
X6_TT = parse_family("x^6+t*x+t")


def _use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch):
    forks = []
    original = os.fork

    def counting():
        forks.append(1)
        return original()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _fail_at(monkeypatch, failures):
    """Make `certify_fiber` raise failures[t] at the fibers t it names."""
    original = family.certify_fiber

    def certify(fam, a, options=ScanOptions()):
        if a in failures:
            raise failures[a]
        return original(fam, a, options)

    monkeypatch.setattr(family, "certify_fiber", certify)


def _fibers_by_pid(log):
    """{pid: [t, ...]} from a log of "pid t" lines, less a last line that is
    still being written."""
    shares = {}
    for line in log.read_text().split("\n")[:-1]:
        pid, a = line.split()
        shares.setdefault(int(pid), []).append(int(a))
    return shares


def _running(pid):
    """Is process ``pid`` alive and not a zombie?"""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except OSError:
        return False


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelScan:
    def test_report_does_not_depend_on_the_cpu_count(self, monkeypatch):
        _fail_at(monkeypatch, {Fraction(-2): NoInjectiveLabelingError("collide")})
        forks = _count_forks(monkeypatch)
        reports = []
        for n in (1, 2, 3, 7):
            _use_cpus(monkeypatch, n)
            reports.append(scan(X6_TT, -6, 6, ScanOptions(full_theta=True)))
        assert len(forks) == 0 + 1 + 2 + 6
        assert all(report == reports[0] for report in reports)
        assert len(reports[0].certified) == 10
        assert [(a, kind) for a, kind, _ in reports[0].skipped] == [
            (Fraction(-2), "Error"), (Fraction(0), "InZ1"), (Fraction(3), "Inconclusive"),
        ]
        _assert_no_child_left()

    def test_no_worker_outlives_a_failing_parent_chunk(self, monkeypatch):
        _use_cpus(monkeypatch, 3)
        _fail_at(monkeypatch, {Fraction(-5): RuntimeError("parent chunk failed")})
        forks = _count_forks(monkeypatch)
        with pytest.raises(RuntimeError, match="parent chunk failed"):
            scan(X6_TT, -6, 6)
        assert len(forks) == 2
        _assert_no_child_left()

    def test_worker_exception_is_raised_as_the_serial_scan_raises_it(self, monkeypatch, capsys):
        # at 3 CPUs the 12 fibers (t = 0 is excluded) are 12 blocks of one,
        # and this process's share is t = -6, -3, 1 and 4; it stops at
        # t = 1, as the serial loop does, before t = 4 fails
        _fail_at(monkeypatch, {
            Fraction(1): RuntimeError("injected at t=1"),
            Fraction(4): ArithmeticError("injected at t=4"),
        })
        argv = ["family", "scan", "--f-t=x^6+t*x+t", "--range=-6..6"]
        for n in (1, 3):
            _use_cpus(monkeypatch, n)
            with pytest.raises(RuntimeError) as info:
                scan(X6_TT, -6, 6)
            assert type(info.value) is RuntimeError
            assert str(info.value) == "injected at t=1"
            assert main(argv) == 1
            assert capsys.readouterr() == ("", "error: injected at t=1\n")
            _assert_no_child_left()

    def test_failed_fork_certifies_the_chunk_in_process(self, monkeypatch):
        _use_cpus(monkeypatch, 1)
        expected = scan(X6_TT, -6, 6)

        def refuse():
            raise OSError("fork refused")

        _use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refuse)
        assert scan(X6_TT, -6, 6) == expected

    def test_refused_forks_keep_the_earliest_failure(self, monkeypatch):
        # the workers' shares come back to this process, t = -5 among them,
        # and it must still reach t = -5 before t = -3 of its own share
        _fail_at(monkeypatch, {
            Fraction(-5): RuntimeError("injected at t=-5"),
            Fraction(-3): ArithmeticError("injected at t=-3"),
        })

        def refuse():
            raise OSError("fork refused")

        _use_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refuse)
        with pytest.raises(RuntimeError, match="injected at t=-5"):
            scan(X6_TT, -6, 6)

    def test_a_platform_without_fork_scans_in_one_process(self, monkeypatch, capsys):
        argv = ["family", "scan", "--f-t=x^6+t*x+t", "--range=-6..6"]
        _use_cpus(monkeypatch, 1)
        expected = scan(X6_TT, -6, 6)
        assert main(argv) == 0
        serial = capsys.readouterr()
        _use_cpus(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        assert scan(X6_TT, -6, 6) == expected
        assert main(argv) == 0
        assert capsys.readouterr() == serial

    def test_one_fiber_and_threaded_scans_do_not_fork(self, monkeypatch):
        _use_cpus(monkeypatch, 3)
        forks = _count_forks(monkeypatch)
        assert len(scan(X6_TT, 1, 1).certified) == 1
        # t = 0 is excluded, so one fiber is left to certify
        assert len(scan(X6_TT, 0, 1).certified) == 1
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert len(scan(X6_TT, 1, 4).certified) == 3
        finally:
            stop.set()
            thread.join()
        assert forks == []

    def test_genus_one_scan_prints_the_same_at_any_cpu_count(self, monkeypatch, capsys):
        argv = ["family", "scan", "--f-t=x^4+t*x+1", "--range=1..6"]
        forks = _count_forks(monkeypatch)
        outputs = []
        for n in (1, 3):
            _use_cpus(monkeypatch, n)
            code = main(argv)
            outputs.append((code, capsys.readouterr()))
        assert len(forks) == 2
        assert outputs[0] == outputs[1]
        code, (out, err) = outputs[0]
        assert err == "warning: genus-1 model accepted, but the rank criterion needs genus > 1\n"
        assert out.startswith("family: y^2 = x^4 + t*x + 1\n")

    def test_fewer_fibers_than_blocks(self, monkeypatch):
        # up to four blocks per process: 3 or 5 fibers on 2 or 3 CPUs are
        # blocks of one fiber each
        forks = _count_forks(monkeypatch)
        for lo, hi in ((1, 3), (-2, 3)):
            _use_cpus(monkeypatch, 1)
            expected = scan(X6_TT, lo, hi)
            for n in (2, 3):
                _use_cpus(monkeypatch, n)
                assert scan(X6_TT, lo, hi) == expected
        assert len(forks) == 1 + 2 + 1 + 2
        _assert_no_child_left()

    def test_a_late_failure_reached_first_loses_to_an_earlier_one(self, monkeypatch, tmp_path):
        # at 2 CPUs the first block, t = -6, is always this process's and
        # the late block with t = 5 the worker's; t = -6 fails only once
        # t = 5 has failed in the worker, and the serial loop raises at
        # t = -6, so the forked scan must too
        log = tmp_path / "failures"
        log.write_text("")
        original = family.certify_fiber

        def certify(fam, a, options=ScanOptions()):
            if a == 5:
                with open(log, "a") as out:
                    out.write("5 ")
                raise ArithmeticError("injected at t=5")
            if a == -6:
                deadline = time.monotonic() + 60
                while "5" not in log.read_text() and time.monotonic() < deadline:
                    time.sleep(0.01)
                with open(log, "a") as out:
                    out.write("-6 ")
                raise RuntimeError("injected at t=-6")
            return original(fam, a, options)

        monkeypatch.setattr(family, "certify_fiber", certify)
        _use_cpus(monkeypatch, 2)
        fork = os.fork
        # whichever side of the fork pauses, it starts its share late and
        # the shares stay the same
        for pausing_side in ("parent", "worker"):
            def forking():
                pid = fork()
                if (pid == 0) == (pausing_side == "worker"):
                    time.sleep(0.2)
                return pid

            monkeypatch.setattr(os, "fork", forking)
            log.write_text("")
            with pytest.raises(RuntimeError) as info:
                scan(X6_TT, -6, 6)
            assert str(info.value) == "injected at t=-6"
            assert log.read_text() == "5 -6 "
            _assert_no_child_left()

    def test_each_process_certifies_a_fixed_share(self, monkeypatch, tmp_path):
        # at 3 CPUs the 12 fibers are 12 blocks of one, and process r takes
        # blocks r, r + 3, r + 6 and r + 9, on every run
        log = tmp_path / "fibers"
        original = family.certify_fiber

        def certify(fam, a, options=ScanOptions()):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {a}\n")
            return original(fam, a, options)

        monkeypatch.setattr(family, "certify_fiber", certify)
        _use_cpus(monkeypatch, 3)
        splits = []
        for _ in range(2):
            log.write_text("")
            scan(X6_TT, -6, 6)
            shares = _fibers_by_pid(log)
            assert shares.pop(os.getpid()) == [-6, -3, 1, 4]
            splits.append(sorted(shares.values()))
        assert splits[0] == splits[1] == [[-5, -2, 2, 5], [-4, -1, 3, 6]]
        _assert_no_child_left()

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_a_killed_scan_leaves_no_worker_running(self, tmp_path):
        # a worker checks between blocks that its parent is alive: once the
        # command is killed, each worker ends the fiber it is on and exits,
        # where its share would last 0.8 s more
        log = tmp_path / "fibers"
        log.write_text("")
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import os, time\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "from rankcert import family\n"
            "from rankcert.cli import parse_family\n"
            "original = family.certify_fiber\n"
            "def certify(fam, a, options=family.ScanOptions()):\n"
            f"    with open({str(log)!r}, 'a') as out:\n"
            "        out.write(f'{os.getpid()} {a}\\n')\n"
            "    time.sleep(0.2)\n"
            "    return original(fam, a, options)\n"
            "family.certify_fiber = certify\n"
            "family.scan(parse_family('x^6+t*x+t'), -6, 6)\n"
        )
        command = subprocess.Popen(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while len(_fibers_by_pid(log).keys() - {command.pid}) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            command.kill()
            command.wait()
        started = _fibers_by_pid(log)
        workers = started.keys() - {command.pid}
        assert len(workers) == 2
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
        # a worker may have passed its check just before the kill
        ended = _fibers_by_pid(log)
        assert all(len(ended[pid]) <= len(started[pid]) + 1 for pid in workers)

    def test_forked_scans_leave_no_resource_open(self):
        # a pipe or file left to the garbage collector, in this process or a
        # worker, prints a ResourceWarning in dev mode; a certified scan and
        # one whose worker raises must print nothing else
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "from rankcert import family\n"
            "from rankcert.cli import main\n"
            "assert main(['family', 'scan', '--f-t=x^6+t*x+t', '--range=-6..6']) == 0\n"
            "original = family.certify_fiber\n"
            "def certify(fam, a, options=family.ScanOptions()):\n"
            "    if a == 4:\n"
            "        raise RuntimeError('injected at t=4')\n"
            "    return original(fam, a, options)\n"
            "family.certify_fiber = certify\n"
            "sys.exit(main(['family', 'scan', '--f-t=x^6+t*x+t', '--range=-6..6']))\n"
        )
        run = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 1
        assert run.stderr == "error: injected at t=4\n"
