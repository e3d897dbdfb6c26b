"""Shared primitives: gene vectors, the search box, RNG streams, objective metadata.

A chromosome is a plain 1-D float64 numpy array (``RealVector``); all
operators treat it as an immutable value and return fresh arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A chromosome: 1-D float64 array, one entry per gene.
RealVector = np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """Build a PCG64 stream, one per run. Identical seeds replay identical draws.
    ``numpy.random`` loads at a process's first call, not at import."""
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass(frozen=True)
class Bounds:
    """The box [lower, upper]^dimension: every gene searches the same interval."""

    lower: float
    upper: float
    dimension: int

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("bounds: lower and upper must be finite")
        if not self.lower < self.upper:
            raise ValueError("bounds: lower must lie strictly below upper")
        if self.dimension < 1:
            raise ValueError("bounds: dimension must be at least 1")

    @property
    def span(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class ObjectiveSpec:
    """One benchmark problem instance: its id, box bounds and optimum.

    ``optimum_location`` is the best known minimizer; for the noisy problem the
    registered ``optimum_value`` is the expected objective at that point.
    """

    problem_id: int
    bounds: Bounds
    optimum_location: np.ndarray
    optimum_value: float
