import random
from importlib import resources
from math import prod

import pytest

from rankcert.exactpoly import RatPoly
from rankcert.factorq import is_squarefree
from rankcert.weierstrass import stratified_parts


def random_squarefree_poly(rng: random.Random, degree: int, coeff_bound: int = 10) -> RatPoly:
    """A random squarefree polynomial of exact degree with integer coefficients."""
    while True:
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree)]
        coeffs.append(rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c]))
        f = RatPoly(coeffs)
        if is_squarefree(f.to_int()[1]):
            return f


def random_monic_squarefree(rng: random.Random, degree: int, coeff_bound: int = 10) -> RatPoly:
    while True:
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree)] + [1]
        f = RatPoly(coeffs)
        if is_squarefree(f.to_int()[1]):
            return f


def resolvents(curve, pieces):
    """The resolvent of each Galois-stable mask piece, as `class_orbits`
    returns it, and the labelling index: the products of the
    `stratified_parts` parts, with nothing factored."""
    _strata, parts, labeling = stratified_parts(curve, pieces)
    return tuple(prod(ps[1:], start=ps[0]) for ps in parts), labeling.c


def fixture_path(name: str):
    """Filesystem path of a shipped fixture (chi1.txt, quartic_orbits.json)."""
    return resources.files("rankcert.fixtures") / name


@pytest.fixture(scope="session")
def rng_factory():
    return lambda seed: random.Random(seed)
