"""Shared primitives: gene vectors, box bounds, RNG streams, objective metadata.

A chromosome is a plain 1-D float64 numpy array (``RealVector``); all
operators treat it as an immutable value and return fresh arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A chromosome: 1-D float64 array, one entry per gene.
RealVector = np.ndarray

# Deterministic random stream. One stream per run; never shared across runs.
RngStream = np.random.Generator


def make_rng(seed: int) -> RngStream:
    """Build a PCG64 stream. Identical seeds replay identical draw sequences."""
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass(frozen=True)
class Bounds:
    """Per-gene box constraints with strictly ordered faces."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("bounds: lower and upper must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("bounds: every lower bound must lie strictly below its upper bound")

    @classmethod
    def uniform(cls, lower: float, upper: float, dimension: int) -> "Bounds":
        """Same [lower, upper] interval for every gene."""
        return cls(np.full(dimension, float(lower)), np.full(dimension, float(upper)))

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
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
