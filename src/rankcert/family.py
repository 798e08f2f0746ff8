"""One-parameter hyperelliptic families y^2 = f_t(x) and their fiber scans.

A family is a polynomial in x whose coefficients are polynomials in t.
Finitely many parameter values are excluded: z1 collects the rational
roots of the discriminant, z2 those of the discriminant and of the
leading coefficient (degenerate or bad-reduction fibers).  Away from them each
integer fiber is certified independently by the curve pipeline,
`certify.certify_curve`, with the fiber's subject, the family and t, from
which it computes the inputs digest: build the curve, find a degree-1
class, read the two-torsion orbits, and decide.  A transitive action
concludes through the transitivity shortcut, also under the full
criterion; a reducible chi is reported as NeedsThetaData on that path, or,
with the full criterion, decided on the direct path from the theta orbits.
No generic resolvent over Q(t) is ever formed; per-fiber recomputation is
both simpler and strictly verified.  A scan spreads its fibers over forked
processes in shares fixed before the fork, so each process certifies the
same fibers on every run at the same CPU count.

The discriminant of f_t in x is computed exactly by evaluation and
interpolation in Newton form: disc_x specializes correctly wherever the
leading coefficient survives, and, being homogeneous of degree 2d - 2 in
the coefficients, it has t-degree at most (2d - 2) * max coefficient
degree.  That coefficient degree is capped at `grammar.MAX_T_DEGREE`.
"""

from __future__ import annotations

import os
import signal
import threading
from fractions import Fraction
from typing import NamedTuple

from .certify import DEFAULT_HEIGHT_BOUND, Certificate, OrbitReport, certify_curve
from .certroots import PrecisionExhausted
from .exactpoly import IntPoly, RatPoly, discriminant
from .factorq import rational_roots
from .grammar import FamilyCurve, check_t_degree_cap
from .weierstrass import NoInjectiveLabelingError, build_curve, check_curve_degree, two_torsion_data

__all__ = [
    "FamilyCurve",
    "ExclusionSet",
    "ScanOptions",
    "ScanReport",
    "exclusion_sets",
    "check_good_fiber",
    "scan",
]

SKIP_IN_Z1 = "InZ1"
SKIP_IN_Z2 = "InZ2"
SKIP_INCONCLUSIVE = "Inconclusive"
SKIP_ERROR = "Error"


class ExclusionSet(NamedTuple):
    """Parameter values where the fiber pipeline is undefined or degenerate."""

    z1: frozenset
    z2: frozenset

    def excluded(self, a: Fraction):
        a = Fraction(a)
        if a in self.z1:
            return SKIP_IN_Z1
        if a in self.z2:
            return SKIP_IN_Z2
        return None


class ScanOptions(NamedTuple):
    full_theta: bool = False
    height_bound: int = DEFAULT_HEIGHT_BOUND
    assert_deg1: bool = False


class ScanReport(NamedTuple):
    family: str
    exclusions: ExclusionSet
    certified: tuple  # (Fraction, Certificate)
    skipped: tuple  # (Fraction, kind, details tuple)


# ---------------------------------------------------------------------------
# exact discriminant of the family in x

def _interpolate(xs, ys) -> RatPoly:
    """The polynomial of degree < len(xs) through (xs[i], ys[i]): divided
    differences, then the Newton form expanded by Horner steps."""
    coeffs = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - k])
    poly = [coeffs[-1]]
    for x0, c in zip(xs[-2::-1], coeffs[-2::-1]):
        # poly * (t - x0) + c
        poly = [c - x0 * poly[0]] + [a - x0 * b for a, b in zip(poly, poly[1:])] + [poly[-1]]
    return RatPoly(poly)


def _sample_values():
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def family_discriminant_numerator(fam: FamilyCurve) -> IntPoly:
    """disc_x(f_t) as a polynomial in t, scaled to a primitive integer one.

    Raises before any sample on an x-degree outside the curve range or a
    t-degree above the family cap, and when the discriminant vanishes
    identically (generically singular family).
    """
    d = fam.deg_x
    check_curve_degree(d)
    m = max(c.degree for c in fam.numerators)
    check_t_degree_cap(m)
    npoints = (2 * d - 2) * m + 1
    xs, ys = [], []
    for t0 in _sample_values():
        if fam.numerators[-1](t0) == 0:
            continue
        xs.append(t0)
        ys.append(discriminant(RatPoly([c(t0) for c in fam.numerators])))
        if len(xs) == npoints:
            break
    disc = _interpolate(xs, ys)
    if disc.is_zero:
        raise ValueError("family is generically singular (disc_x vanishes)")
    return disc.to_int()[1]


def exclusion_sets(fam: FamilyCurve) -> ExclusionSet:
    """z1: discriminant vanishing; z2: bad fibers (disc or lc).

    Every member provably annihilates its defining polynomial: the sets are
    the exact rational root sets, read off the linear factors of the
    squarefree parts (`factorq.rational_roots`).
    """
    disc_num = family_discriminant_numerator(fam)
    disc_roots = set(rational_roots(disc_num.to_rat()))
    z2 = set(disc_roots)
    lc_num = fam.numerators[-1]
    if lc_num.degree >= 1:
        z2 |= set(rational_roots(lc_num))
    return ExclusionSet(frozenset(disc_roots), frozenset(z2))


# ---------------------------------------------------------------------------
# fibers

def certify_fiber(
    fam: FamilyCurve,
    a: Fraction,
    options: ScanOptions = ScanOptions(),
) -> Certificate:
    """`certify.certify_curve` on the fiber at t = a (caller screens
    exclusions), whose subject names the family and t."""
    a = Fraction(a)
    subject = (("kind", "family-fiber"), ("family", fam.description), ("t", str(a)))
    return certify_curve(
        fam.specialize(a),
        subject,
        full_theta=options.full_theta,
        height_bound=options.height_bound,
        assert_deg1=options.assert_deg1,
    )


def check_good_fiber(
    fam: FamilyCurve, b: Fraction, exclusions: ExclusionSet | None = None
) -> tuple[bool, OrbitReport]:
    """Is the Galois action on the fiber's nonzero two-torsion transitive?

    b must avoid the exclusion sets, computed here unless the caller
    passes them.  Returns the flag together with the fiber's two-torsion
    orbit report.
    """
    b = Fraction(b)
    excl = exclusion_sets(fam) if exclusions is None else exclusions
    kind = excl.excluded(b)
    if kind is not None:
        raise ValueError(f"t={b} is excluded ({kind})")
    curve = build_curve(fam.specialize(b))
    j2, _hashes, _labeling = two_torsion_data(curve)
    report = OrbitReport(genus=curve.genus, j2_orbits=j2)
    return report.transitive, report


def _certify_fibers(fam: FamilyCurve, ts, options: ScanOptions) -> list:
    """The outcome of each fiber t in ``ts``, in order: its certificate when
    it certifies, else its skip record (t, kind, details)."""
    out = []
    for a in ts:
        try:
            cert = certify_fiber(fam, a, options)
        except (ValueError, ZeroDivisionError, NoInjectiveLabelingError, PrecisionExhausted) as exc:
            out.append((a, SKIP_ERROR, (str(exc),)))
            continue
        out.append(cert if cert.certified else (a, SKIP_INCONCLUSIVE, cert.reason_kinds()))
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _thread_count() -> int:
    """This process's threads, as the kernel counts them where it can (so
    native threads count too), else as the threading module does."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _take_blocks(fam: FamilyCurve, share, options: ScanOptions, parent=None):
    """Certify the blocks of ``share``, (block index, fibers) pairs, in
    order.  Returns ({block index: outcomes}, None), or (outcomes,
    (block index, exception)) when a block raised; no later block of the
    share is then taken.  A worker passes the pid of its ``parent`` and
    exits between blocks once that process is gone."""
    done = {}
    for i, ts in share:
        if parent is not None and os.getppid() != parent:  # the parent was killed
            os._exit(1)
        try:
            done[i] = _certify_fibers(fam, ts, options)
        except BaseException as exc:
            return done, (i, exc)
    return done, None


def _fork_worker(fam: FamilyCurve, share, options: ScanOptions):
    """A worker process that runs `_take_blocks` and writes its pickled
    result to a pipe.  Returns (pid, the pipe's read end as a binary file),
    or None when the fork fails."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    # the worker: it ends with os._exit on every path, so it never flushes
    # the parent's buffers nor returns into the caller
    try:
        import pickle

        os.close(r)
        result = _take_blocks(fam, share, options, os.getppid())
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(result))
    finally:
        os._exit(0)


def _certify_blocks(fam: FamilyCurve, ts, k: int, options: ScanOptions) -> list:
    """The outcomes of the fibers ``ts``, in order, certified by this
    process and up to k - 1 forked workers.

    ``ts`` is cut into n = min(len(ts), 4k) contiguous blocks, and process
    r certifies blocks r, r + k, r + 2k, ... in order: r = 0 is this
    process, which also takes the share of a worker whose fork fails.
    Every block before the earliest failing one belongs to a process that
    got past it, so the exception of that block is raised, as the serial
    loop would raise it.  No worker outlives the call."""
    if k == 1:
        return _certify_fibers(fam, ts, options)
    import pickle  # only a scan that forks pays for it

    n = min(len(ts), 4 * k)
    bounds = [len(ts) * i // n for i in range(n + 1)]
    blocks = list(enumerate(ts[i:j] for i, j in zip(bounds, bounds[1:])))
    own = blocks[::k]
    workers = []
    try:
        for r in range(1, k):
            worker = _fork_worker(fam, blocks[r::k], options)
            if worker is None:
                own += blocks[r::k]
            else:
                workers.append(worker)
        own.sort()  # in index order, so that a failure stops no earlier block
        done, failure = _take_blocks(fam, own, options)
        if failure is not None and not isinstance(failure[1], Exception):
            raise failure[1]  # an interrupt of this process
        while workers:
            pid, pipe = workers[-1]
            data = pipe.read()
            pipe.close()
            workers.pop()
            os.waitpid(pid, 0)
            try:
                part, worker_failure = pickle.loads(data)
            except Exception:
                raise RuntimeError("a scan worker ended without a result") from None
            done.update(part)
            if worker_failure is not None and (failure is None or worker_failure[0] < failure[0]):
                failure = worker_failure
    finally:
        for pid, pipe in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    if failure is not None:
        raise failure[1]
    return [outcome for i in range(n) for outcome in done[i]]


def scan(
    fam: FamilyCurve,
    lo: int,
    hi: int,
    options: ScanOptions = ScanOptions(),
    exclusions: ExclusionSet | None = None,
) -> ScanReport:
    """Certify every integer fiber in [lo, hi] outside the exclusion sets,
    computed here unless the caller passes them.

    Per-fiber failures are recorded as skips, never raised; the report
    lists every scanned value exactly once, ordered by parameter value.

    The fibers to certify are certified by k processes, k the number of
    CPUs this process may run on, capped by the number of fibers: this one
    and k - 1 forked workers.  They are cut into small contiguous blocks,
    about four per process (fibers t and t + p in one block share their
    Frobenius cycle types), and each process's share of them is fixed
    before the fork: every k-th block, so that the shares interleave along
    the range and do not change from run to run.  With k = 1, with more
    than one thread, or on a platform without ``os.fork``, nothing is
    forked: a process that runs other threads, as one does after ``import
    numpy`` starts its BLAS threads, scans serially.  The report does not
    depend on k.  An exception that is not a per-fiber failure is
    raised as the serial loop would raise it: that of the earliest failing
    fiber, with its type and message.
    """
    excl = exclusion_sets(fam) if exclusions is None else exclusions
    ts = [a for a in map(Fraction, range(lo, hi + 1)) if excl.excluded(a) is None]
    k = max(1, min(_usable_cpus(), len(ts)))
    if k > 1 and (not hasattr(os, "fork") or _thread_count() > 1):
        k = 1
    outcomes = iter(_certify_blocks(fam, ts, k, options))
    certified = []
    skipped = []
    for n in range(lo, hi + 1):
        a = Fraction(n)
        kind = excl.excluded(a)
        if kind is not None:
            skipped.append((a, kind, ()))
            continue
        outcome = next(outcomes)
        if isinstance(outcome, Certificate):
            certified.append((a, outcome))
        else:
            skipped.append(outcome)
    return ScanReport(
        family=fam.description,
        exclusions=excl,
        certified=tuple(certified),
        skipped=tuple(skipped),
    )
