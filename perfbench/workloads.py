"""Seeded command lists of the benchmark's workloads.

Every workload is a list of ``rankcert`` commands drawn from a
``random.Random(seed)``; the program only ever sees the generated
arguments.  Curves are checked here, with this file's own exact
arithmetic, to be nonsingular and of genus 2 to 4 before anything runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0
CHI_FIXTURE = "src/rankcert/fixtures/chi1.txt"


@dataclass(frozen=True)
class Command:
    """One rankcert invocation and what its output is checked against.

    ``terms`` maps (x-degree, t-degree) to an integer coefficient; for a
    hyperelliptic command it is f(x), for a family scan f_t(x).  ``curves``
    is the number of curves the command certifies: 1, or the fibers of a
    scan.
    """

    argv: tuple
    kind: str  # "hyperelliptic", "chi" or "scan"
    genus: int
    curves: int = 1
    terms: tuple = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# exact polynomials in x (ascending integer or Fraction coefficients)

def _strip(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _add(f, g):
    n = max(len(f), len(g))
    return _strip((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n))


def _rem(f, g):
    f = [Fraction(c) for c in f]
    while len(f) >= len(g):
        q = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] -= q * c
        f = _strip(f)
    return f


def is_squarefree(f) -> bool:
    """gcd(f, f') over Q is constant: the curve y^2 = f(x) is nonsingular."""
    a, b = _strip(f), _strip(i * c for i, c in enumerate(f) if i)
    while b:
        a, b = b, _rem(a, b)
    return len(a) == 1


def eval_terms(terms, x: Fraction, t: Fraction = Fraction(0)) -> Fraction:
    return sum(Fraction(c) * x ** i * t ** j for (i, j), c in terms)


def _fiber(terms, t: int):
    out = {}
    for (i, j), c in terms:
        out[i] = out.get(i, 0) + c * t ** j
    return [out.get(i, 0) for i in range(max(out) + 1)]


def _monomial(c: int, i: int, j: int) -> str:
    factors = (["t" if j == 1 else "t^%d" % j] if j else []) + (
        ["x" if i == 1 else "x^%d" % i] if i else []
    )
    if not factors:
        return str(abs(c))
    if abs(c) != 1:
        factors.insert(0, str(abs(c)))
    return "*".join(factors)


def format_terms(terms) -> str:
    """The polynomial in rankcert's grammar, highest x-degree first."""
    out = ""
    for (i, j), c in sorted(terms, key=lambda ij_c: (-ij_c[0][0], -ij_c[0][1])):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if out else "")
        out += sign + _monomial(c, i, j)
    return out


def _terms(coeffs) -> tuple:
    return tuple(((i, 0), c) for i, c in enumerate(coeffs) if c)


def _genus(degree: int) -> int:
    return (degree - 1) // 2


def _complex_roots(coeffs):
    """Approximate roots of a squarefree polynomial (Durand-Kerner).

    Floating point is enough here: the roots only feed a screening test,
    and this process must stay small (see run.Runner).
    """
    n = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    radius = 1 + max(abs(c) for c in monic[:-1])
    z = [radius * complex(0.4, 0.9) ** k for k in range(n)]
    for _ in range(500):
        step = 0.0
        for i in range(n):
            num = 0j
            for c in reversed(monic):
                num = num * z[i] + c
            den = 1 + 0j
            for j in range(n):
                if j != i:
                    den *= z[i] - z[j]
            delta = num / den if den else 1e-3j
            z[i] -= delta
            step = max(step, abs(delta))
        if step < 1e-15 * radius:
            break
    return z


def _labels_collide(coeffs) -> bool:
    """Two classes that rankcert's labels can never tell apart.

    The label of a class is built from u_c(a) = a + c*a^2 summed over its
    roots, so two classes whose roots have the same first and second power
    sums (for even degree: up to the complement) get equal labels for every
    c, and rankcert exits 1 with "no injective labeling".  The check covers
    the two-torsion classes (even size) and the theta classes (size of the
    parity of g + 1), each set being labelled together.
    """
    roots = _complex_roots(coeffs)
    n = len(roots)
    full = (1 << n) - 1
    total = (sum(roots), sum(r * r for r in roots))
    for parity in (0, (n - 1) // 2 + 1):
        sums = []
        for m in range(1, full):
            if bin(m).count("1") % 2 != parity % 2 or (n % 2 == 0 and m > full ^ m):
                continue
            rs = [roots[i] for i in range(n) if m >> i & 1]
            sums.append((sum(rs), sum(r * r for r in rs)))
        for i, a in enumerate(sums):
            for b in sums[i + 1:]:
                others = (b, (total[0] - b[0], total[1] - b[1])) if n % 2 == 0 else (b,)
                tol = 1e-7 * (1 + abs(a[0]) + abs(a[1]))
                if any(abs(a[0] - o[0]) + abs(a[1] - o[1]) < tol for o in others):
                    return True
    return False


def _checked(coeffs):
    """Coefficients of a nonsingular genus 2..4 model rankcert can label,
    or None."""
    coeffs = _strip(coeffs)
    if not 5 <= len(coeffs) - 1 <= 10 or not is_squarefree(coeffs):
        return None
    if _labels_collide(coeffs):
        return None
    return coeffs


def hyperelliptic(coeffs, *flags) -> Command:
    coeffs = _checked(coeffs)
    if coeffs is None:
        raise ValueError("not a nonsingular genus 2-4 model")
    terms = _terms(coeffs)
    return Command(
        ("certify", "hyperelliptic", "--f=" + format_terms(terms)) + tuple(flags),
        "hyperelliptic",
        _genus(len(coeffs) - 1),
        terms=terms,
    )


def family_scan(terms, lo: int, hi: int, *flags) -> Command:
    terms = tuple(sorted(terms))
    degree = max(i for (i, _j), _c in terms)
    if not 5 <= degree <= 10:
        raise ValueError("family outside genus 2-4")
    fibers = [_strip(_fiber(terms, t)) for t in range(lo, hi + 1)]
    # rankcert skips singular fibers, but one unlabellable fiber ends the scan
    good = [f for f in fibers if len(f) == degree + 1 and is_squarefree(f)]
    if not good or any(_labels_collide(f) for f in good):
        raise ValueError("family has no usable fiber, or one rankcert cannot label")
    return Command(
        ("family", "scan", "--f-t=" + format_terms(terms), "--range=%d..%d" % (lo, hi))
        + tuple(flags),
        "scan",
        _genus(degree),
        curves=hi - lo + 1,
        terms=terms,
    )


def chi_fixture() -> Command:
    return Command(
        ("certify", "chi", "--file", CHI_FIXTURE, "--genus", "3", "--assert-deg1-class"),
        "chi",
        3,
    )


# ---------------------------------------------------------------------------
# generators

def _draw(rng, make):
    """Call make(rng) until it yields a nonsingular genus 2-4 model."""
    while True:
        coeffs = _checked(make(rng))
        if coeffs is not None:
            return coeffs


def _draw_scan(rng, draw, *flags):
    """A scan of x^d + t*x + c over lo..hi, (d, c, lo, hi) = draw(), whose
    fibers rankcert can all label."""
    while True:
        d, c, lo, hi = draw()
        try:
            return family_scan((((d, 0), 1), ((1, 1), 1), ((0, 0), c)), lo, hi, *flags)
        except ValueError:
            continue


def _small(rng, n, bound=6):
    return [rng.randint(-bound, bound) for _ in range(n)]


def _quintic(rng):
    return _small(rng, 5) + [rng.choice((-3, -2, -1, 1, 2, 3))]


def _square_lc_sextic(rng):
    return _small(rng, 6) + [rng.choice((1, 4, 9))]


def _sextic_with_point(rng):
    # y0^2 = f(x0) at a small integer x0, with a non-square leading coefficient
    lc = rng.choice((-3, -1, 2, 3, 5, 6, 7))
    upper = _small(rng, 5)
    x0, y0 = rng.randint(-3, 3), rng.randint(0, 6)
    rest = sum(c * x0 ** (k + 1) for k, c in enumerate(upper + [lc]))
    return [y0 * y0 - rest] + upper + [lc]


def _with_rational_root(rng):
    # (x - r) * g: a rational Weierstrass point, so chi is reducible
    r = rng.randint(-3, 3)
    g = _small(rng, rng.choice((4, 5)), 4) + [1]
    return _mul([-r, 1], g)


def _pointless_sextic(rng):
    # -(cubic^2 + linear^2 + k) is negative on R: no rational point, so the
    # point search runs to its height bound
    cubic = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)] + [1]
    linear = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2)]
    k = rng.randint(1, 3)
    return [-c for c in _add(_add(_mul(cubic, cubic), _mul(linear, linear)), [k])]


POINTLESS_HEIGHT = 200


def g2_cli(rng) -> list:
    """Twenty short genus-2 certifications; start-up and point search
    dominate.  The list is short so that a run repeats it several times."""
    cmds = []
    cmds += [hyperelliptic(_draw(rng, _quintic)) for _ in range(5)]
    cmds += [hyperelliptic(_draw(rng, _square_lc_sextic)) for _ in range(5)]
    cmds += [hyperelliptic(_draw(rng, _sextic_with_point)) for _ in range(5)]
    for k in range(3):
        flags = ("--full-criterion",) if k % 2 else ()
        cmds.append(hyperelliptic(_draw(rng, _with_rational_root), *flags))
    cmds.append(
        hyperelliptic(_draw(rng, _pointless_sextic), "--height-bound", str(POINTLESS_HEIGHT))
    )
    cmds.append(_draw_scan(rng, lambda: (6, rng.randint(1, 5), 1, 6)))
    rng.shuffle(cmds)
    return cmds


def family(rng) -> list:
    """One scan over about 100 fibers of a genus-2 family.

    A short scan lets a run repeat it about ten times, and the median of
    the repeats is the figure.  With --full-criterion the fibers whose chi
    is reducible (about one in seven) also build theta resolvents.  The
    constant is 1 or 2: with 5 the scan took about 15% less time, with 3
    about 4% more, so a free choice would let the seed set the time.
    """
    def draw():
        lo = -50 + rng.randint(-5, 5)
        return 6, rng.choice((1, 2)), lo, lo + 100

    return [_draw_scan(rng, draw, "--full-criterion")]


def g34_factor(rng) -> list:
    """Genus-3/4 curves whose resolvents (degree 63-255) need full factoring.

    All four of G3_POOL run: with two drawn from it the median command was
    the mean of the --full-criterion command (about 0.9 s) and the slower
    of three 0.55-0.61 s commands, so the seed moved it by 0.1 of itself.
    """
    cmds = [hyperelliptic(list(G4_CURVE))]
    cmds += [hyperelliptic(list(coeffs)) for coeffs in G3_POOL]
    cmds.append(hyperelliptic(list(rng.choice(G3_FULL_POOL)), "--full-criterion"))
    cmds.append(chi_fixture())
    cmds.append(_draw_scan(rng, lambda: (7, rng.randint(1, 3), 1, 2)))
    rng.shuffle(cmds)
    return cmds


# Pools of curves that cost about the same at the commit that added the
# benchmark, so that the seed changes the inputs but not the size of the
# work: generic degree-9/10 curves range from 10 s to over 70 s.  A curve
# and its mirror, the monic one of f(-x) and -f(-x), have the same Galois
# structure.  The genus-4 curve, the slowest command, is fixed: its mirror
# x^9 + x - 1 took 5% to 15% less time.
G4_CURVE = (1, 1, 0, 0, 0, 0, 0, 0, 0, 1)  # x^9 + x + 1
G3_POOL = tuple(
    tuple([1, s, 0, 0, 0, 0, 0] + [0] * e + [1]) for s in (1, -1) for e in (0, 1)
)  # x^7 + x + 1, x^7 - x + 1, x^8 + x + 1, x^8 - x + 1
G3_FULL_POOL = (  # x^8 + 3*x^3 - x + 7, x^8 - 3*x^3 + x + 7
    (7, -1, 0, 3, 0, 0, 0, 0, 1),
    (7, 1, 0, -3, 0, 0, 0, 0, 1),
)

WORKLOADS = {
    "g2-cli": g2_cli,
    "family-scan": family,
    "g34-factor": g34_factor,
}


def commands(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(seed))


def recorded_commands() -> list:
    """Commands whose decisions expected.json records: every workload at
    the default seed, and every pool member at any seed."""
    cmds = {}
    for name in WORKLOADS:
        for cmd in commands(name, DEFAULT_SEED):
            cmds[cmd.key] = cmd
    pools = [((G4_CURVE,), ()), (G3_POOL, ()), (G3_FULL_POOL, ("--full-criterion",))]
    for pool, flags in pools:
        for coeffs in pool:
            cmd = hyperelliptic(list(coeffs), *flags)
            cmds[cmd.key] = cmd
    return list(cmds.values())
