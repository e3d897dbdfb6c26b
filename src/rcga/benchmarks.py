"""The fifteen continuous benchmark problems, with registered bounds and optima.

Every evaluator is vectorized over a population matrix of shape (m, n) and
returns the m objective values; `benchmark_eval` is the single-vector wrapper.
All problems are minimization. Problem 12 is noisy and must be given the
calling run's RNG stream.

Three registered optima deviate from folklore claims that place every minimum
at the origin: direct evaluation shows Rosenbrock is minimized at the all-ones
vector, Levy-Montalvo 1 at the all-minus-ones vector, and Levy-Montalvo 2 at
the all-ones vector (the origin gives n-1, ~0.96 and n respectively). The
registry records the corrected locations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Bounds, ObjectiveSpec, RealVector, RngStream

# Problems whose formulas chain neighbouring genes (index i+1) need n >= 2.
CHAINED_PROBLEMS = frozenset({4, 5, 7, 14, 15})


def _penalty_sum(X: np.ndarray, a: float, k: float, m: float) -> np.ndarray:
    """Per row, the sum of the box penalty k*(x-a)^m beyond +a, k*(-x-a)^m beyond -a, else 0."""
    over = np.clip(X - a, 0.0, None)
    under = np.clip(-X - a, 0.0, None)
    return k * np.sum(over**m + under**m, axis=1)


def _ackley(X):
    n = X.shape[1]
    root_mean_sq = np.sqrt(np.sum(X * X, axis=1) / n)
    mean_cos = np.sum(np.cos(2.0 * np.pi * X), axis=1) / n
    return -20.0 * np.exp(-0.2 * root_mean_sq) - np.exp(mean_cos) + 20.0 + np.e


def _exponential(X):
    return -np.exp(-0.5 * np.sum(X * X, axis=1))


def _griewank(X):
    n = X.shape[1]
    i = np.arange(1, n + 1, dtype=float)
    return 1.0 + np.sum(X * X, axis=1) / 4000.0 - np.prod(np.cos(X / np.sqrt(i)), axis=1)


def _levy_montalvo_1(X):
    n = X.shape[1]
    Y = 1.0 + 0.25 * (X + 1.0)
    head = 10.0 * np.sin(np.pi * Y[:, 0]) ** 2
    mid = np.sum((Y[:, :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * Y[:, 1:]) ** 2), axis=1)
    tail = (Y[:, -1] - 1.0) ** 2
    return (np.pi / n) * (head + mid + tail)


def _levy_montalvo_2(X):
    head = 0.1 * np.sin(3.0 * np.pi * X[:, 0]) ** 2
    mid = np.sum((X[:, :-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * X[:, 1:]) ** 2), axis=1)
    tail = (X[:, -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * X[:, -1]) ** 2)
    return head + mid + tail


def _rastrigin(X):
    n = X.shape[1]
    return 10.0 * n + np.sum(X * X - 10.0 * np.cos(2.0 * np.pi * X), axis=1)


def _rosenbrock(X):
    return np.sum(100.0 * (X[:, 1:] - X[:, :-1] ** 2) ** 2 + (X[:, :-1] - 1.0) ** 2, axis=1)


def _zakharov(X):
    n = X.shape[1]
    half_i = 0.5 * np.arange(1, n + 1, dtype=float)
    s1 = np.sum(X * X, axis=1)
    s2 = X @ half_i
    return s1 + s2**2 + s2**4


def _sphere(X):
    return np.sum(X * X, axis=1)


def _hyper_ellipsoid(X):
    n = X.shape[1]
    i = np.arange(1, n + 1, dtype=float)
    return (X * X) @ i


def _schwefel_4(X):
    return np.max(np.abs(X), axis=1)


def _dejong_noise(X, rng):
    return np.sum(X**4, axis=1) + np.sum(rng.random(X.shape), axis=1)


def _cigar(X):
    return X[:, 0] ** 2 + 1e7 * np.sum(X[:, 1:] ** 2, axis=1)


def _penalized_1(X):
    return _levy_montalvo_1(X) + _penalty_sum(X, 10.0, 100.0, 4.0)


def _penalized_2(X):
    return _levy_montalvo_2(X) + _penalty_sum(X, 10.0, 100.0, 4.0)


def _zeros(n):
    return np.zeros(n)


def _ones(n):
    return np.ones(n)


def _minus_ones(n):
    return -np.ones(n)


@dataclass(frozen=True)
class BenchmarkEntry:
    problem_id: int
    name: str
    evaluator: Callable
    lower: float
    upper: float
    optimum: Callable[[int], np.ndarray]
    optimum_value: Callable[[int], float]
    noisy: bool = False
    multimodal: bool = False


_ZERO = lambda n: 0.0

REGISTRY: dict[int, BenchmarkEntry] = {
    e.problem_id: e
    for e in [
        BenchmarkEntry(1, "Ackley's Problem", _ackley, -30.0, 30.0, _zeros, _ZERO, multimodal=True),
        BenchmarkEntry(2, "Exponential Problem", _exponential, -1.0, 1.0, _zeros, lambda n: -1.0),
        BenchmarkEntry(3, "Griewank Problem", _griewank, -600.0, 600.0, _zeros, _ZERO, multimodal=True),
        BenchmarkEntry(4, "Levy and Montalvo Problem 1", _levy_montalvo_1, -10.0, 10.0, _minus_ones, _ZERO, multimodal=True),
        BenchmarkEntry(5, "Levy and Montalvo Problem 2", _levy_montalvo_2, -5.0, 5.0, _ones, _ZERO, multimodal=True),
        BenchmarkEntry(6, "Rastrigin Problem", _rastrigin, -5.12, 5.12, _zeros, _ZERO, multimodal=True),
        BenchmarkEntry(7, "Rosenbrock Problem", _rosenbrock, -30.0, 30.0, _ones, _ZERO),
        BenchmarkEntry(8, "Zakharov's Function", _zakharov, -5.12, 5.12, _zeros, _ZERO),
        BenchmarkEntry(9, "Sphere Function", _sphere, -5.12, 5.12, _zeros, _ZERO),
        BenchmarkEntry(10, "Axis Parallel Hyper Ellipsoid", _hyper_ellipsoid, -5.12, 5.12, _zeros, _ZERO),
        BenchmarkEntry(11, "Schwefel Problem 4", _schwefel_4, -100.0, 100.0, _zeros, _ZERO),
        BenchmarkEntry(12, "De-Jong's Function with Noise", _dejong_noise, -10.0, 10.0, _zeros, lambda n: 0.5 * n, noisy=True),
        BenchmarkEntry(13, "Cigar Function", _cigar, -10.0, 10.0, _zeros, _ZERO),
        BenchmarkEntry(14, "Generalized Penalized Function 1", _penalized_1, -10.0, 10.0, _minus_ones, _ZERO, multimodal=True),
        BenchmarkEntry(15, "Generalized Penalized Function 2", _penalized_2, -5.12, 5.12, _ones, _ZERO, multimodal=True),
    ]
}


def _entry(problem_id: int) -> BenchmarkEntry:
    try:
        return REGISTRY[problem_id]
    except KeyError:
        raise KeyError(f"unknown benchmark problem id {problem_id!r}; known ids are 1-15") from None


def resolve_problem_id(ident) -> int:
    """Accept a problem id or an Appendix-style name (case-insensitive)."""
    if isinstance(ident, str) and not ident.isdigit():
        wanted = ident.strip().lower()
        for entry in REGISTRY.values():
            if entry.name.lower() == wanted:
                return entry.problem_id
        raise KeyError(f"unknown benchmark name {ident!r}")
    pid = int(ident)
    _entry(pid)
    return pid


def batch_eval(problem_id: int, X: np.ndarray, rng: Optional[RngStream] = None) -> np.ndarray:
    """Evaluate a population matrix (m, n); returns m objective values."""
    entry = _entry(problem_id)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("batch_eval: expected a 2-D population matrix")
    if problem_id in CHAINED_PROBLEMS and X.shape[1] < 2:
        raise ValueError(f"problem {problem_id} chains adjacent genes and needs dimension >= 2")
    if entry.noisy:
        if rng is None:
            raise ValueError(f"problem {problem_id} is noisy and requires an RNG stream")
        return entry.evaluator(X, rng)
    return entry.evaluator(X)


def benchmark_eval(problem_id: int, x: RealVector, rng: Optional[RngStream] = None) -> float:
    """Evaluate one chromosome against the selected problem."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("benchmark_eval: expected a 1-D gene vector")
    return float(batch_eval(problem_id, x[None, :], rng=rng)[0])


def benchmark_spec(problem_id: int, dimension: int = 30) -> ObjectiveSpec:
    """Registered bounds and optimum for one problem at the requested dimension."""
    entry = _entry(problem_id)
    if dimension < 1 or (problem_id in CHAINED_PROBLEMS and dimension < 2):
        raise ValueError(f"problem {problem_id}: invalid dimension {dimension}")
    return ObjectiveSpec(
        problem_id=problem_id,
        name=entry.name,
        dimension=dimension,
        bounds=Bounds.uniform(entry.lower, entry.upper, dimension),
        optimum_location=entry.optimum(dimension),
        optimum_value=float(entry.optimum_value(dimension)),
        noisy=entry.noisy,
        multimodal=entry.multimodal,
    )
