"""Shared random-state generators for the test suite (seeded numpy only)."""

import numpy as np

from oracles import DensityMatrix, density_from_poincare


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_poincare(rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    """A Poincare vector (3,): uniform direction; radius 1 if pure, else
    uniform in the unit ball."""
    v = random_unit_vector(rng)
    if not pure:
        v = v * rng.uniform() ** (1.0 / 3.0)
    return v


def random_density(rng: np.random.Generator, pure: bool = False) -> DensityMatrix:
    return density_from_poincare(random_poincare(rng, pure=pure))
