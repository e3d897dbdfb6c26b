"""Variation and selection operators.

Crossovers come in two arities: AX, FX, BLX-alpha and PSOX emit one child per
call, SBX and Laplace emit the symmetric pair. All randomized operators draw
fresh numbers per gene from the caller-owned stream, so the scalar textbook
formulas act independently on every coordinate.

Every crossover and mutation takes one ``(n,)`` chromosome or an ``(m, n)``
matrix of them, drawing row-major, so row r of a matrix call equals the 1-D
call on row r fed that row's draws. The engine makes one call per generation.

PSOX is the PSO-flavoured crossover: instead of recombining two parents from
the current generation, it moves an individual toward another slot's personal
best and toward the global best,

    child = w * p + c1*r1*(pbest_other - p) + c2*r2*(gbest - p)

which lets offspring inherit genes from earlier generations via the memory
archive maintained by the engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Bounds, RealVector, RngStream


class CrossoverKind(str, Enum):
    AX = "AX"
    FX = "FX"
    BLX_ALPHA = "BLX_ALPHA"
    SBX = "SBX"
    LAPLACE = "LAPLACE"
    PSOX = "PSOX"


class MutationKind(str, Enum):
    NUM = "NUM"
    GM = "GM"


@dataclass(frozen=True)
class CrossoverConfig:
    """Crossover selection plus every operator's tuning knobs.

    Defaults follow the benchmark study's settings: AX/BLX alpha 0.5, SBX
    eta 2, PSOX w 0.6 and c1 = c2 = 1.5, crossover rate 0.8. The Laplace
    scale b is 0.15: zero would degenerate the operator into a parent-cloning
    no-op, and large scales (0.5+) drown convergence in heavy-tailed jumps.
    """

    kind: CrossoverKind = CrossoverKind.PSOX
    ax_alpha: float = 0.5
    blx_alpha: float = 0.5
    sbx_eta: float = 2.0
    laplace_a: float = 0.0
    laplace_b: float = 0.15
    psox_w: float = 0.6
    psox_c1: float = 1.5
    psox_c2: float = 1.5
    psox_per_gene_draws: bool = True
    crossover_rate: float = 0.8

    def __post_init__(self):
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if self.sbx_eta <= 0.0:
            raise ValueError("sbx_eta must be positive")
        if not 0.0 < self.blx_alpha < 1.0:
            raise ValueError("blx_alpha must lie in (0, 1)")
        if self.laplace_b < 0.0:
            raise ValueError("laplace_b must be non-negative")


@dataclass(frozen=True)
class MutationConfig:
    """Mutation selection and rates.

    ``per_gene_rate`` is the plain per-gene perturbation probability;
    ``individual_rate`` optionally gates whether a chromosome is mutated at
    all (1.0 = no gate). The experiment harness maps its chromosome-level
    mutation-rate knob to ``per_gene_rate = rate / dimension``.
    """

    kind: MutationKind = MutationKind.GM
    per_gene_rate: float = 0.1
    gm_sigma_fraction: float = 0.05
    num_b: float = 5.0
    individual_rate: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.per_gene_rate <= 1.0:
            raise ValueError("per_gene_rate must lie in [0, 1]")
        if not 0.0 <= self.individual_rate <= 1.0:
            raise ValueError("individual_rate must lie in [0, 1]")
        if self.gm_sigma_fraction <= 0.0:
            raise ValueError("gm_sigma_fraction must be positive")
        if self.num_b <= 0.0:
            raise ValueError("num_b must be positive")


def _check_pair(p1: np.ndarray, p2: np.ndarray, what: str) -> None:
    if p1.ndim not in (1, 2) or p2.ndim not in (1, 2) or p1.shape[-1] != p2.shape[-1]:
        raise ValueError(f"{what}: parents must be 1-D vectors or 2-D row matrices of equal dimension")


def ax_crossover(p1: RealVector, p2: RealVector, alpha: float) -> RealVector:
    """Arithmetical crossover: fixed affine blend alpha*p1 + (1-alpha)*p2."""
    _check_pair(p1, p2, "ax_crossover")
    return alpha * p1 + (1.0 - alpha) * p2


def fx_crossover(p1: RealVector, p2: RealVector, rng: RngStream) -> RealVector:
    """Flat crossover: each gene uniform on the interval spanned by the parents."""
    _check_pair(p1, p2, "fx_crossover")
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2)
    return lo + rng.random(lo.shape) * (hi - lo)


def blx_alpha_crossover(p1: RealVector, p2: RealVector, alpha: float, rng: RngStream) -> RealVector:
    """Blend crossover: uniform on the parental interval extended by alpha on each side."""
    _check_pair(p1, p2, "blx_alpha_crossover")
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2)
    spread = alpha * (hi - lo)
    return (lo - spread) + rng.random(lo.shape) * ((hi + spread) - (lo - spread))


def sbx_crossover(p1: RealVector, p2: RealVector, eta: float, rng: RngStream) -> tuple[RealVector, RealVector]:
    """Simulated binary crossover; returns the symmetric child pair.

    Per gene, u ~ U[0,1) and the spread factor is beta = (2u)^(1/(eta+1)) for
    u <= 0.5 and (1/(2(1-u)))^(1/(eta+1)) otherwise. Draws are half-open so
    the u = 1 pole of the second branch is never hit.
    """
    _check_pair(p1, p2, "sbx_crossover")
    if eta <= 0.0:
        raise ValueError("sbx_crossover: eta must be positive")
    u = rng.random(p1.shape)
    exponent = 1.0 / (eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (0.5 / (1.0 - u)) ** exponent)
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return c1, c2


def laplace_crossover(p1: RealVector, p2: RealVector, a: float, b: float, rng: RngStream) -> tuple[RealVector, RealVector]:
    """Laplace crossover: both children shifted by beta * |p1 - p2| per gene.

    beta = a - b*ln(u) for u <= 0.5, a + b*ln(u) otherwise, with u ~ U(0,1).
    """
    _check_pair(p1, p2, "laplace_crossover")
    if b < 0.0:
        raise ValueError("laplace_crossover: b must be non-negative")
    u = rng.random(p1.shape)
    while np.any(u == 0.0):  # keep ln(u) finite; zero has probability 2**-53 per draw
        u = np.where(u == 0.0, rng.random(u.shape), u)
    log_u = np.log(u)
    beta = np.where(u <= 0.5, a - b * log_u, a + b * log_u)
    gap = np.abs(p1 - p2)
    return p1 + beta * gap, p2 + beta * gap


def psox_crossover(
    p_i: RealVector,
    pbest_j: RealVector,
    gbest: RealVector,
    cfg: CrossoverConfig,
    rng: RngStream,
) -> RealVector:
    """PSO-inspired crossover pulling p_i toward another slot's best and the global best.

    The caller guarantees pbest_j belongs to a slot other than p_i's own.
    r1 and r2 are redrawn per gene unless ``cfg.psox_per_gene_draws`` is off,
    in which case a single pair per row steers that whole chromosome. ``gbest``
    may be one vector shared by every row of a matrix call.
    """
    _check_pair(p_i, pbest_j, "psox_crossover")
    _check_pair(p_i, gbest, "psox_crossover")
    shape = p_i.shape if cfg.psox_per_gene_draws else p_i.shape[:-1] + (1,)
    r1 = rng.random(shape)
    r2 = rng.random(shape)
    return cfg.psox_w * p_i + cfg.psox_c1 * r1 * (pbest_j - p_i) + cfg.psox_c2 * r2 * (gbest - p_i)


def gaussian_mutation(x: RealVector, b: Bounds, cfg: MutationConfig, rng: RngStream) -> RealVector:
    """Perturb each gene with rate ``per_gene_rate`` by N(0, sigma_fraction * range); clamp."""
    hit = rng.random(x.shape) < cfg.per_gene_rate
    noise = rng.normal(0.0, cfg.gm_sigma_fraction * b.span, x.shape)
    return np.clip(np.where(hit, x + noise, x), b.lower, b.upper)


def nonuniform_mutation(
    x: RealVector,
    b: Bounds,
    gen: int,
    max_gen: int,
    cfg: MutationConfig,
    rng: RngStream,
) -> RealVector:
    """Annealed mutation whose step shrinks to zero as gen approaches max_gen.

    A hit gene moves toward a random face by (face - x) * (1 - r^((1-gen/max_gen)^b)),
    so early generations explore the full range and late ones fine-tune.
    """
    if max_gen < 1:
        raise ValueError("nonuniform_mutation: max_gen must be at least 1")
    if not 0 <= gen <= max_gen:
        raise ValueError("nonuniform_mutation: gen must lie in [0, max_gen]")
    hit = rng.random(x.shape) < cfg.per_gene_rate
    upward = rng.random(x.shape) < 0.5
    r = rng.random(x.shape)
    step = 1.0 - r ** ((1.0 - gen / max_gen) ** cfg.num_b)
    delta = np.where(upward, (b.upper - x) * step, (b.lower - x) * step)
    return np.clip(np.where(hit, x + delta, x), b.lower, b.upper)


def tournament_index(fitness: np.ndarray, k: int, rng: RngStream, size: int | None = None):
    """Index of the fittest among k uniform-with-replacement draws; earliest draw wins ties.

    With ``size`` set, runs ``size`` tournaments from one ``(size, k)`` draw; returns their winners."""
    if fitness.size == 0:
        raise ValueError("tournament: population is empty")
    if k < 1:
        raise ValueError("tournament: k must be at least 1")
    picks = rng.integers(0, fitness.size, size=(1 if size is None else size, k))
    winners = picks[np.arange(picks.shape[0]), np.argmin(fitness[picks], axis=1)]
    return int(winners[0]) if size is None else winners
