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
    poly_gcd,
    resultant,
)
from .factorq import (
    FactorizationQ,
    factor_over_q,
    degree_pattern,
    is_irreducible_over_q,
    possible_degrees,
)
from .family import FamilyCurve, ScanOptions, check_good_fiber, exclusion_sets, scan
from .theta import enumerate_theta_classes, resolvent_theta, theta_data
from .weierstrass import (
    HyperellipticCurve,
    build_curve,
    enumerate_j2_classes,
    frobenius_orbit_oracle,
    orbit_decomposition,
    resolvent_j2,
)

__all__ = [
    "__version__",
    "Certificate",
    "ComplexBall",
    "Deg1Evidence",
    "FactorizationQ",
    "FamilyCurve",
    "HyperellipticCurve",
    "IntPoly",
    "OrbitReport",
    "RatPoly",
    "RootIsolation",
    "ScanOptions",
    "build_curve",
    "check_good_fiber",
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
    "orbit_decomposition",
    "poly_gcd",
    "possible_degrees",
    "render_certificate",
    "resolvent_j2",
    "resolvent_theta",
    "resultant",
    "scan",
    "snap_to_integer",
    "theta_data",
    "verify_certificate",
]
