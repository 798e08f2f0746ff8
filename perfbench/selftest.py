"""Tests of the benchmark itself (not of rankcert).

    python3 perfbench/selftest.py

Run from the root of a rankcert checkout.  The last test runs every
workload once (about two minutes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_max_s": "s",
    "fibers_per_s": "1/s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "certify.point_search.self_s": "s",
    "certify.point_search.calls": "count",
    "certify.point_search.found_ratio": "ratio",
    "certroots.isolate.self_s": "s",
    "certroots.isolate.calls": "count",
    "certroots.isolate.max_bits": "bits",
    "weierstrass.label.self_s": "s",
    "weierstrass.label.attempts": "1/call",
    "weierstrass.label.max_c": "count",
    "weierstrass.ball_product.self_s": "s",
    "weierstrass.ball_product.calls": "count",
    "weierstrass.ball_product.snap_failures": "count",
    "factorq.sqf_check.self_s": "s",
    "factorq.sqf_check.inconclusive": "count",
    "factorq.coprime_check.self_s": "s",
    "factorq.coprime_check.inconclusive": "count",
    "exactpoly.int_gcd.self_s": "s",
    "exactpoly.int_gcd.calls": "count",
    "factorq.ddf.self_s": "s",
    "factorq.ddf.calls": "count",
    "factorq.edf.self_s": "s",
    "factorq.edf.factors": "count",
    "factorq.hensel.self_s": "s",
    "factorq.hensel.max_exponent": "count",
    "factorq.recombine.self_s": "s",
    "factorq.recombine.max_modular_factors": "count",
    "factorq.irreducible.calls": "count",
    "factorq.irreducible.fast_path_ratio": "ratio",
    "factorq.factor_over_q.self_s": "s",
    "family.exclusions.self_s": "s",
    "family.fiber.p50_ms": "ms",
    "family.fiber.p95_ms": "ms",
    "cli.other.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _spec():
    return run.load_spec(ROOT)


class GeneratorTests(unittest.TestCase):
    def test_deterministic_for_a_seed(self):
        for name in workloads.WORKLOADS:
            for seed in (0, 1, 987654321):
                self.assertEqual(
                    workloads.commands(name, seed), workloads.commands(name, seed)
                )

    def test_seed_changes_the_inputs(self):
        for name in workloads.WORKLOADS:
            keys = {tuple(c.key for c in workloads.commands(name, s)) for s in range(8)}
            self.assertGreater(len(keys), 1, name)

    def test_curves_are_nonsingular_of_genus_2_to_4(self):
        for name in workloads.WORKLOADS:
            for seed in range(6):
                for cmd in workloads.commands(name, seed):
                    self.assertIn(cmd.genus, (2, 3, 4))
                    if cmd.kind == "hyperelliptic":
                        coeffs = [0] * 11
                        for (i, _j), c in cmd.terms:
                            coeffs[i] = c
                        self.assertTrue(workloads.is_squarefree(coeffs), cmd.key)

    def test_singular_or_out_of_range_curves_are_rejected(self):
        with self.assertRaises(ValueError):
            workloads.hyperelliptic([0, 0, 1, 0, 0, 1])  # x^5 + x^2: double root 0
        with self.assertRaises(ValueError):
            workloads.hyperelliptic([1, 1, 0, 1])  # genus 1
        with self.assertRaises(ValueError):
            workloads.hyperelliptic([1, 1] + [0] * 9 + [1])  # genus 5

    def test_generated_polynomials_parse_back(self):
        from rankcert.cli import parse_family, parse_poly

        for name in workloads.WORKLOADS:
            for cmd in workloads.commands(name, 3):
                text = cmd.argv[2].split("=", 1)[1] if cmd.kind != "chi" else None
                if cmd.kind == "hyperelliptic":
                    f = parse_poly(text)
                    for (i, _j), c in cmd.terms:
                        self.assertEqual(f.coefficient(i), c)
                elif cmd.kind == "scan":
                    self.assertEqual(parse_family(text).genus, cmd.genus)


class MetricTests(unittest.TestCase):
    def test_every_metric_appears_with_its_unit(self):
        spec = _spec()
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for name, unit in PER_LAYER.items():
            self.assertEqual(declared.get(name), unit, name)
        for name, unit in END_TO_END.items():
            if name == "failed_frac":
                # zero at a healthy commit, so it is reported through the
                # result's attempted/failed counts and the printed row
                self.assertIn(name, run.ROW_COLUMNS)
            else:
                self.assertEqual(declared.get(name), unit, name)
        self.assertEqual(set(declared), set(PER_LAYER) | set(END_TO_END) - {"failed_frac"})

    def test_traced_metrics_are_the_declared_ones(self):
        keys = set(tracer.layer_metrics([])) | {"trace.overhead_frac"}
        self.assertEqual(keys, {m["name"] for m in _spec()["per_layer"]})

    def test_self_time_subtracts_direct_children(self):
        spans = [
            ["cli", -1, 0.0, 10.0, None],
            ["factorq.factor_over_q", 0, 1.0, 4.0, None],
            ["factorq.recombine", 1, 2.0, 3.0, None],
            ["factorq.irreducible", 0, 5.0, 6.0, None],
            ["family.fiber", 0, 6.0, 6.5, None],
        ]
        m = tracer.layer_metrics([spans])
        self.assertAlmostEqual(m["cli.other.self_s"], 10.0 - 3.0 - 1.0 - 0.5)
        self.assertAlmostEqual(m["factorq.factor_over_q.self_s"], 2.0)
        self.assertAlmostEqual(m["factorq.recombine.self_s"], 1.0)
        self.assertEqual(m["factorq.irreducible.fast_path_ratio"], 1.0)
        self.assertAlmostEqual(m["family.fiber.p95_ms"], 500.0)


class TracerTests(unittest.TestCase):
    def test_wrappers_are_installed_everywhere_and_restored(self):
        import rankcert.cli  # noqa: F401  (binds every module)
        from rankcert import factorq, theta, weierstrass

        before = (weierstrass.isolate_roots, theta.isolate_roots, factorq.gf_ddf)
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(weierstrass.isolate_roots, before[0])
            self.assertIs(weierstrass.isolate_roots, theta.isolate_roots)
            self.assertIsNot(factorq.gf_ddf, before[2])
        finally:
            t.restore()
        self.assertEqual((weierstrass.isolate_roots, theta.isolate_roots, factorq.gf_ddf), before)

    def test_recursive_hensel_calls_are_one_span(self):
        import rankcert.cli  # noqa: F401
        from rankcert.exactpoly import RatPoly
        from rankcert.factorq import factor_over_q

        t = tracer.Tracer()
        t.install()
        try:
            # x^6 - 1 has four factors over Q: the lift recurses
            import rankcert.factorq as fq

            fq.factor_over_q(RatPoly([-1, 0, 0, 0, 0, 0, 1]))
        finally:
            t.restore()
        names = [s[0] for s in t.spans]
        self.assertEqual(names.count("factorq.hensel"), 1)
        self.assertIs(fq.factor_over_q, factor_over_q)

    def test_traced_stdout_is_byte_identical(self):
        self.addCleanup(shutil.rmtree, ROOT / run.OUT_DIR, True)
        runner = run.Runner(ROOT)
        argv = ["certify", "hyperelliptic", "--f=x^6+x+1", "--json"]
        with tempfile.TemporaryDirectory() as tmp:
            plain = runner.execute(argv)
            traced = runner.execute(argv, Path(tmp) / "spans.json")
            with open(Path(tmp) / "spans.json", encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
        self.assertEqual(plain[:2], traced[:2])
        self.assertEqual(spans[0][0], tracer.ROOT_SPAN)


class RunnerTests(unittest.TestCase):
    def setUp(self):
        self.addCleanup(shutil.rmtree, ROOT / run.OUT_DIR, True)

    def test_slicing_keeps_the_output_and_exit_code(self):
        argv = ["certify", "hyperelliptic", "--f=x^7+x+1", "--json"]
        whole = run.Runner(ROOT, slice_s=None).execute(argv)
        sliced = run.Runner(ROOT, slice_s=0.05).execute(argv)
        self.assertEqual(whole[:2], sliced[:2])
        self.assertEqual(whole[0], 2)

    def test_times_are_scaled_by_the_calibration_loop(self):
        runner = run.Runner(ROOT, slice_s=None)
        runner.calibrations = [2 * run.REFERENCE_CALIBRATION_S]
        run_calibration = run.calibration_s
        run.calibration_s = lambda: 2 * run.REFERENCE_CALIBRATION_S
        try:
            self.assertEqual(runner.speed_scale(), 0.5)
        finally:
            run.calibration_s = run_calibration

    def test_a_command_past_its_timeout_is_killed(self):
        for slice_s in (None, 0.05):
            runner = run.Runner(ROOT, slice_s=slice_s)
            runner.deadline = time.monotonic() + 0.3
            t0 = time.monotonic()
            code, out, _ = runner.execute(["certify", "hyperelliptic", "--f=x^9+x+1", "--json"])
            self.assertIsNone(code)
            self.assertEqual(out, b"")
            self.assertLess(time.monotonic() - t0, 2.0)


class CommandTests(unittest.TestCase):
    def test_bare_directory_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "g2-cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")

    def test_one_command_prints_a_row_per_workload(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"], proc.stderr)
        header = lines[-len(workloads.WORKLOADS) - 2].split()
        for name in END_TO_END:
            self.assertIn(name, header)
        rows = [line.split() for line in lines[-len(workloads.WORKLOADS) - 1:-1]]
        self.assertEqual(sorted(r[0] for r in rows), sorted(workloads.WORKLOADS))
        for r in rows:
            self.assertEqual(len(r), len(header))
        for name in workloads.WORKLOADS:
            for m in _spec()["end_to_end"]:
                self.assertGreater(result["metrics"]["%s.%s" % (name, m["name"])]["value"], 0)


if __name__ == "__main__":
    unittest.main()
