"""The rankcert benchmark: seeded workloads of CLI commands in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a rankcert source checkout: the program is
imported from ``./src`` and nothing is installed.  NAME is one of the
workloads in ``workloads.py``, or ``all`` for one row per workload.  The
workload's commands run one at a time, each as ``python3 -m rankcert.cli
... --json`` in a fresh process.  The whole list runs at least twice, and
again while another pass fits in S seconds; each command counts with the
median of its passes.  Every time is scaled to a reference host speed
(see ``calibration_s``).
Every output is checked (see ``check``); a command that exits 1, times
out or fails a check counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` each pass is run untraced and then
through ``tracer.py``, and the last line reports the per-layer metrics.
Human-readable rows come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"
SETUP_RUNS = 6  # start-up samples per pass
MIN_PASSES = 2
# A command slower than this is killed and counted as failed; the run
# stops starting commands after RUN_BUDGET_S so that it always ends in
# well under three minutes.
CMD_TIMEOUT_S = 60.0
RUN_BUDGET_S = 140.0
# The calibration loop takes this long at the reference speed: about the
# median speed of the host the benchmark was defined on (see README.md).
CALIBRATION_LOOPS = 100_000
REFERENCE_CALIBRATION_S = 0.037
# A timed command is paused this often to time the loop again.
SLICE_S = 0.5
OUT_DIR = ".perfbench_out"  # stdout and span files, removed when a run ends


def calibration_s() -> float:
    """Wall seconds of a fixed pure-Python loop in this process.

    The host's speed swings by up to 1.7x over seconds to minutes, and a
    command's CPU time swings with it.  Timing this loop next to the
    command tracks the swing: a command's wall time times
    REFERENCE_CALIBRATION_S over the loop's time is the time the command
    would take at the reference speed.  The program never runs this loop,
    so a change to the program moves only the command's time.

    A quarter of the loop is small-int bytecode, the rest squares 200-bit
    integers.
    Short, start-up-bound commands followed the first kind more closely,
    and long commands, mostly exact arithmetic, the second.  The loop keeps
    no data, so this process stays small (see ``Runner``).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    x, m = (1 << 200) + 12345, (1 << 199) - 1
    for i in range(CALIBRATION_LOOPS * 3 // 5):
        x = (x * x + i) % m
    return time.perf_counter() - t0


class Runner:
    """Starts rankcert processes from ./src, one at a time.

    A child's max-RSS can include this process's peak RSS (it is counted
    before the child's exec), so the timed passes only store the outputs;
    parsing and checking them, and importing rankcert for that, wait until
    ``check_outputs``.

    With ``slice_s`` set, a command is stopped (SIGSTOP) every ``slice_s``
    seconds while the loop is timed, and continued; each slice is scaled by
    the loop's times at its two ends, so that a long command follows the
    host's speed through its run.  Traced runs are not sliced: the pauses
    would count in their spans.
    """

    def __init__(self, root: Path, slice_s=SLICE_S):
        self.root = root
        self.slice_s = slice_s
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.outputs = []  # (Command or None for --version, exit code, stdout)
        self._first_stdout = {}  # one copy of each command's repeated stdout
        self.failed = 0
        self.problems = []
        self.bytes_changed = set()
        self.out_dir = root / OUT_DIR
        self.calibrations = [calibration_s()]

    def warm_up(self):
        """Compile rankcert's bytecode and load the interpreter's files, so
        that the first timed command of a fresh checkout pays for neither."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(self.root / "src" / "rankcert")],
            cwd=self.root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for _ in range(2):
            self.execute(["--version"])

    def speed_scale(self) -> float:
        """REFERENCE_CALIBRATION_S over the mean of the loop's time before
        and after the slice that just ended."""
        self.calibrations.append(calibration_s())
        return 2 * REFERENCE_CALIBRATION_S / sum(self.calibrations[-2:])

    def execute(self, argv, spans_file=None):
        """(exit code or None on timeout, stdout bytes, wall seconds scaled
        to the reference speed)."""
        timeout = min(CMD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return None, b"", 0.0
        if spans_file is None:
            cmd = [sys.executable, "-m", "rankcert.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_file), *argv]
        self.out_dir.mkdir(exist_ok=True)
        give_up = time.monotonic() + timeout
        scaled = 0.0
        with tempfile.TemporaryFile(dir=self.out_dir) as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, env=self.env, cwd=self.root, stdout=out, stderr=subprocess.DEVNULL
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    wait = max(0.0, give_up - time.monotonic())
                    if self.slice_s is not None:
                        wait = min(wait, self.slice_s)
                    if select.select([pidfd], [], [], wait)[0]:
                        proc.wait()
                    elif self.slice_s is not None:
                        os.kill(proc.pid, signal.SIGSTOP)
                        _, status = os.waitpid(proc.pid, os.WUNTRACED)
                        if not os.WIFSTOPPED(status):  # it ended first
                            proc.returncode = os.waitstatus_to_exitcode(status)
                    scaled += (time.perf_counter() - t0) * self.speed_scale()
                    if proc.returncode is not None:
                        break
                    if time.monotonic() >= give_up:
                        return None, b"", scaled
                    if self.slice_s is not None:
                        os.kill(proc.pid, signal.SIGCONT)
                    t0 = time.perf_counter()
            finally:
                os.close(pidfd)
                if proc.returncode is None:
                    proc.kill()  # ends a stopped process too
                    proc.wait()
            out.seek(0)
            return proc.returncode, out.read(), scaled

    def setup_sample(self) -> float:
        code, out, dt = self.execute(["--version"])
        self.outputs.append((None, code, out))
        return dt

    def run_command(self, cmd, spans_file=None) -> float:
        code, out, dt = self.execute(cmd.argv + ("--json",), spans_file)
        first = self._first_stdout.setdefault(cmd.key, out)
        self.outputs.append((cmd, code, first if out == first else out))
        return dt

    def run_pass(self, cmds, traced=False, setup_times=None):
        """Per-command wall seconds, and the span lists when traced.

        With ``setup_times``, SETUP_RUNS start-up samples are taken spread
        evenly between the commands and appended to it.
        """
        times, spans = [], []
        for i, cmd in enumerate(cmds):
            if setup_times is not None:
                due = (i + 1) * SETUP_RUNS // len(cmds) - i * SETUP_RUNS // len(cmds)
                setup_times.extend(self.setup_sample() for _ in range(due))
            spans_file = self.out_dir / ("spans-%d.json" % i) if traced else None
            times.append(self.run_command(cmd, spans_file))
            if traced:
                try:
                    with open(spans_file, encoding="utf-8") as fh:
                        spans.append(json.load(fh)["spans"])
                    spans_file.unlink()
                except (OSError, ValueError):
                    self.fail(cmd.key, ["no spans written"])
        return times, spans

    def fail(self, what, problems):
        if problems:
            self.failed += 1
            self.problems.extend("%s: %s" % (what, p) for p in problems)

    def check_outputs(self, expected: dict) -> list:
        """Check every stored output; returns the parsed documents."""
        from rankcert.certify import verify_certificate

        first, docs = {}, []
        for cmd, code, out in self.outputs:
            if cmd is None:
                ok = code == 0 and out.startswith(b"rankcert ")
                self.fail("rankcert --version", [] if ok else ["exit %s" % code])
                continue
            try:
                problems, doc = check(cmd, code, out, verify_certificate)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                problems, doc = ["malformed document (%s: %s)" % (type(exc).__name__, exc)], None
            if not problems and first.setdefault(cmd.key, out) != out:
                problems = ["stdout differs between runs of the same command"]
            rec = expected.get(cmd.key)
            if not problems and rec is not None:
                if hashlib.sha256(out).hexdigest() != rec["sha256"]:
                    self.bytes_changed.add(cmd.key)
                if summarize(cmd, doc) != rec["summary"]:
                    problems = ["verdict, reasons or orbits differ from the recorded ones"]
            self.fail(cmd.key, problems)
            docs.append(doc)
        return docs


# ---------------------------------------------------------------------------
# output checks

def _certificate_problems(doc, cmd, t, verify_certificate):
    ok, problems = verify_certificate(doc)
    problems = list(problems)
    if doc.get("genus") != cmd.genus:
        problems.append("genus %r, expected %d" % (doc.get("genus"), cmd.genus))
    j2 = (doc.get("orbits") or {}).get("j2")
    if not j2 or sum(j2) != (1 << (2 * cmd.genus)) - 1:
        problems.append("two-torsion orbits %r do not sum to 2^(2g)-1" % (j2,))
    ev = doc.get("evidence") or {}
    if ev.get("kind") == "rational-point":
        x, y = Fraction(ev["x"]), Fraction(ev["y"])
        if y * y != workloads.eval_terms(cmd.terms, x, t):
            problems.append("rational point (%s, %s) is not on the curve" % (x, y))
    return problems


def check(cmd, code, out, verify_certificate):
    """Problems with one command's exit code and --json document, and the
    parsed document."""
    if code is None:
        return ["timed out"], None
    if code not in (0, 2):
        return ["exit code %d" % code], None
    doc = json.loads(out)
    if cmd.kind != "scan":
        problems = _certificate_problems(doc, cmd, 0, verify_certificate)
        if (code == 0) != (doc.get("verdict") == "RankAtLeastOne"):
            problems.append("exit code %d does not match the verdict" % code)
        return problems, doc
    problems = []
    counts = doc["counts"]
    if counts["scanned"] != cmd.curves or counts["certified"] + counts["skipped"] != cmd.curves:
        problems.append("scan counts %r do not cover %d fibers" % (counts, cmd.curves))
    for entry in doc["certified"]:
        t = Fraction(entry["t"])
        problems += [
            "t=%s: %s" % (t, p)
            for p in _certificate_problems(entry["certificate"], cmd, t, verify_certificate)
        ]
        if entry["certificate"].get("verdict") != "RankAtLeastOne":
            problems.append("t=%s listed as certified without the verdict" % t)
    if (code == 0) != bool(doc["certified"]):
        problems.append("exit code %d does not match the certified count" % code)
    return problems, doc


def summarize(cmd, doc):
    """The decisions of a document, compared against the recorded ones."""
    if cmd.kind == "scan":
        return {
            "certified": [[e["t"], e["certificate"]["orbits"]] for e in doc["certified"]],
            "skipped": [[e["t"], e["kind"], e["details"]] for e in doc["skipped"]],
        }
    return {
        "verdict": doc["verdict"],
        "reasons": [r["kind"] for r in doc["reasons"]],
        "orbits": doc["orbits"],
    }


# ---------------------------------------------------------------------------
# metrics

def _passes_fit(start, passes, seconds, runner):
    elapsed = time.monotonic() - start
    per_pass = elapsed / passes
    return elapsed + per_pass <= seconds and time.monotonic() + per_pass < runner.deadline


def end_to_end(runner, cmds, seconds):
    """Each command's time is the median of its passes."""
    runner.warm_up()
    setup, passes = [], []
    start = time.monotonic()
    while True:
        times, _ = runner.run_pass(cmds, setup_times=setup)
        passes.append(times)
        if len(passes) >= MIN_PASSES and not _passes_fit(start, len(passes), seconds, runner):
            break
    mid = [statistics.median(col) for col in zip(*passes)]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(mid),
        "cmd_p50_s": statistics.median(mid),
        "cmd_max_s": max(mid),
        "fibers_per_s": sum(c.curves for c in cmds) / sum(mid),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def per_layer(runner, cmds, seconds):
    runner.warm_up()
    results = []
    start = time.monotonic()
    while True:
        plain, _ = runner.run_pass(cmds)
        traced, spans = runner.run_pass(cmds, traced=True)
        layers = tracer.layer_metrics(spans)
        layers["trace.overhead_frac"] = (sum(traced) - sum(plain)) / sum(plain)
        results.append(layers)
        if not _passes_fit(start, len(results), seconds, runner):
            break
    return {k: statistics.median(r[k] for r in results) for k in results[0]}


# ---------------------------------------------------------------------------
# reporting

def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


ROW_COLUMNS = (
    "wall_s", "cmd_p50_s", "cmd_max_s", "fibers_per_s", "failed_frac",
    "peak_rss_mb", "setup_s",
)


def row_header() -> str:
    return "%-12s %5s " % ("workload", "n") + " ".join(
        "%12s" % c for c in ROW_COLUMNS + ("bytes_changed",)
    )


def row(name, n, metrics, failed_frac, bytes_changed) -> str:
    values = dict(metrics, failed_frac=failed_frac)
    return "%-12s %5d " % (name, n) + " ".join(
        "%12.4f" % values[c] for c in ROW_COLUMNS
    ) + " %12d" % bytes_changed


def environment() -> str:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return "env: python %s, nproc %d, mpmath %s, numpy %s" % (
        platform.python_version(), len(os.sched_getaffinity(0)), version("mpmath"), version("numpy")
    )


def speed_line(runner) -> str:
    c = runner.calibrations
    return "speed: calibration loop median %.4f s, range %.4f-%.4f s over %d samples (reference %.4f s)" % (
        statistics.median(c), min(c), max(c), len(c), REFERENCE_CALIBRATION_S
    )


def result_line(spec_metrics, metrics, attempted, failed):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec_metrics
        },
    })


def record(root):
    """Write expected.json from the current program's outputs."""
    runner = Runner(root, slice_s=None)
    runner.deadline = float("inf")
    cmds = workloads.recorded_commands()
    for cmd in cmds:
        runner.run_command(cmd)
    docs = runner.check_outputs({})
    if runner.failed:
        sys.stderr.write("\n".join(runner.problems) + "\n")
        return 1
    out = {
        cmd.key: {"sha256": hashlib.sha256(stdout).hexdigest(), "summary": summarize(cmd, doc)}
        for (cmd, _code, stdout), doc in zip(runner.outputs, docs)
    }
    with open(EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(args) -> int:
    """Each workload in its own run.py process, so that none inherits the
    RSS of another's children; one row each."""
    # a workload prints its env and speed lines, then the row header and
    # its row, or its per-layer lines
    head, speeds, body, metrics, attempted, failed = [], [], [], {}, 0, 0
    for name in sorted(workloads.WORKLOADS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        speeds.append("%s %s" % (name, lines[1]))
        if args.trace:
            head, body = lines[:1], body + lines[2:-1]
        else:
            head, body = [lines[0], lines[2]], body + lines[3:-1]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({"%s.%s" % (name, k): v for k, v in result["metrics"].items()})
    print("\n".join(head[:1] + speeds + head[1:] + body))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_workload(root, args) -> int:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        expected = json.load(fh)
    spec = load_spec(root)
    cmds = workloads.commands(args.workload, args.seed)
    runner = Runner(root, slice_s=None if args.trace else SLICE_S)
    if args.trace:
        metrics, spec_metrics = per_layer(runner, cmds, args.seconds), spec["per_layer"]
    else:
        metrics, spec_metrics = end_to_end(runner, cmds, args.seconds), spec["end_to_end"]
    runner.check_outputs(expected)
    sys.stderr.write("".join("%s: %s\n" % (args.workload, p) for p in runner.problems))
    attempted = len(runner.outputs)
    lines = [environment(), speed_line(runner)]
    if args.trace:
        lines += ["%-12s %-40s %14.6g %s" % (args.workload, m["name"], metrics[m["name"]], m["unit"])
                  for m in spec_metrics]
    else:
        lines += [row_header(), row(args.workload, len(cmds), metrics,
                                    runner.failed / attempted, len(runner.bytes_changed))]
    print("\n".join(lines))
    print(result_line(spec_metrics, metrics, attempted, runner.failed))
    return 0



def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from the current program")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rankcert" / "cli.py").is_file():
        sys.stderr.write("perfbench: no src/rankcert here; run from a checkout's root\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    # a terminated run still kills and waits for the command it is running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.record:
            return record(root)
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        return run_workload(root, args)
    finally:
        shutil.rmtree(root / OUT_DIR, ignore_errors=True)

if __name__ == "__main__":
    sys.exit(main())
