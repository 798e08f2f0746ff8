"""Positive Mordell-Weil rank certification for hyperelliptic Jacobians.

The library computes, exactly, the resolvent polynomials whose roots label
the nonzero two-torsion classes and the theta characteristics of a
hyperelliptic curve y^2 = f(x) over Q, factors them over Q, and applies
the rank criterion: a rational degree-1 divisor class together with no
rational nonzero two-torsion and no rational theta characteristic forces
Mordell-Weil rank >= 1.  A one-parameter family scanner specializes the
check along integer fibers, and externally computed resolvents or orbit
data can be certified directly.
"""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    Deg1Evidence,
    OrbitReport,
    decide,
    find_deg1_class,
    render_certificate,
    verify_certificate,
)
from .certroots import ComplexBall, RootIsolation, isolate_roots, snap_to_integer
from .exactpoly import (
    IntPoly,
    RatPoly,
    discriminant,
    make_integral_monic,
    resultant,
)
from .factorq import (
    factor_over_q,
    degree_pattern,
    is_irreducible_over_q,
    possible_degrees,
)
from .family import FamilyCurve, ScanOptions, check_good_fiber, exclusion_sets, scan
from .theta import enumerate_theta_classes, theta_data
from .weierstrass import (
    HyperellipticCurve,
    build_curve,
    class_orbits,
    enumerate_j2_classes,
    frobenius_orbit_oracle,
    two_torsion_data,
)

__all__ = [
    "__version__",
    "Certificate",
    "ComplexBall",
    "Deg1Evidence",
    "FamilyCurve",
    "HyperellipticCurve",
    "IntPoly",
    "OrbitReport",
    "RatPoly",
    "RootIsolation",
    "ScanOptions",
    "build_curve",
    "check_good_fiber",
    "class_orbits",
    "decide",
    "degree_pattern",
    "discriminant",
    "enumerate_j2_classes",
    "enumerate_theta_classes",
    "exclusion_sets",
    "factor_over_q",
    "find_deg1_class",
    "frobenius_orbit_oracle",
    "is_irreducible_over_q",
    "isolate_roots",
    "make_integral_monic",
    "possible_degrees",
    "render_certificate",
    "resultant",
    "scan",
    "snap_to_integer",
    "theta_data",
    "two_torsion_data",
    "verify_certificate",
]
