import random

import pytest

from rankcert.exactpoly import RatPoly
from rankcert.factorq import is_squarefree


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


@pytest.fixture(scope="session")
def rng_factory():
    return lambda seed: random.Random(seed)
