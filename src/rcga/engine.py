"""Generational GA loop with a persistent per-slot best archive.

The archive gives PSOX its inter-generational reach: slot i's personal best
survives wholesale replacement, so a child can inherit genes from any earlier
occupant of another slot, and from the global best found so far. The archive
is maintained for every crossover kind (it also supplies the best-so-far
trace) but only PSOX reads it during variation.

Each generation is a handful of matrix operations, and its draw order is
fixed: the crossover-rate mask, every tournament, the PSOX partners or the
operator's draws, the mutation's hit mask over the whole population, the
mutation's draws for the hit genes in row-major order (GM: one normal each;
NUM: every direction, then every step), then evaluation noise. Identical
config and seed therefore replay bit-identical runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import benchmarks
from .core import ObjectiveSpec, _validate, make_rng
from .operators import (
    CrossoverConfig,
    CrossoverKind,
    MutationConfig,
    MutationKind,
    ax_crossover,
    blx_alpha_crossover,
    fx_crossover,
    gaussian_mutation,
    laplace_crossover,
    nonuniform_mutation,
    psox_crossover,
    sbx_crossover,
    tournament_index,
)


@dataclass
class SwarmMemory:
    """Per-slot personal bests plus the global best, kept across generations."""

    pbest_positions: np.ndarray  # (pop, n)
    pbest_fitness: np.ndarray  # (pop,)
    gbest_position: np.ndarray  # (n,)
    gbest_fitness: float

    @classmethod
    def from_population(cls, positions: np.ndarray, fitness: np.ndarray) -> "SwarmMemory":
        g = int(np.argmin(fitness))
        return cls(positions.copy(), fitness.copy(), positions[g].copy(), float(fitness[g]))

    def observe(self, positions: np.ndarray, fitness: np.ndarray) -> None:
        """Fold a freshly evaluated population into the archive."""
        improved = fitness < self.pbest_fitness
        self.pbest_positions[improved] = positions[improved]
        self.pbest_fitness[improved] = fitness[improved]
        g = int(np.argmin(self.pbest_fitness))
        if self.pbest_fitness[g] < self.gbest_fitness:
            self.gbest_fitness = float(self.pbest_fitness[g])
            self.gbest_position = self.pbest_positions[g].copy()


@dataclass(frozen=True)
class GaConfig:
    """One run's full parameterization. Defaults mirror the benchmark study:
    population 300, 1000 generations, tournament size 3, one elite."""

    objective: ObjectiveSpec
    population_size: int = 300
    generations: int = 1000
    crossover: CrossoverConfig = field(default_factory=CrossoverConfig)
    mutation: MutationConfig = field(default_factory=MutationConfig)
    selection_k: int = 3
    seed: int = 0
    elitism: int = 1

    def __post_init__(self):
        _validate(self, (
            ("population_size", self.population_size >= 1, "must be positive"),
            ("population_size", self.population_size >= 2 or self.crossover.kind is not CrossoverKind.PSOX,
             "must be at least 2 for PSOX (the partner slot must differ)"),
            ("generations", self.generations >= 0, "must be non-negative"),
            ("selection_k", self.selection_k >= 1, "must be at least 1"),
            ("elitism", 0 <= self.elitism <= self.population_size, "must lie in [0, population_size]"),
            ("seed", self.seed >= 0, "must be non-negative"),
        ))


@dataclass
class GaState:
    """Single-owner mutable run state; one RNG stream per state."""

    config: GaConfig
    rng: np.random.Generator
    positions: np.ndarray  # (pop, n)
    fitness: np.ndarray  # (pop,)
    memory: SwarmMemory
    generation: int = 0
    evaluations: int = 0


@dataclass
class RunTrace:
    """Best-so-far objective after each generation, plus the final best."""

    best_per_generation: np.ndarray
    final_best_position: np.ndarray
    final_best_fitness: float
    evaluations: int


def _elite_swap(parents: np.ndarray, children: np.ndarray, e: int):
    """Slots of the e best parents and of the e worst children, ties broken as a stable sort does.

    One elite, the default, needs no sort: the first minimum and the last maximum.
    """
    if e == 1:
        return int(np.argmin(parents)), children.size - 1 - int(np.argmax(children[::-1]))
    return np.argsort(parents, kind="stable")[:e], np.argsort(children, kind="stable")[children.size - e :]


def init_state(cfg: GaConfig) -> GaState:
    """Uniform-random evaluated population; archive seeded from it."""
    rng = make_rng(cfg.seed)
    bounds = cfg.objective.bounds
    positions = bounds.lower + rng.random((cfg.population_size, bounds.dimension)) * bounds.span
    fitness = benchmarks.batch_eval(cfg.objective.problem_id, positions, rng=rng)
    memory = SwarmMemory.from_population(positions, fitness)
    return GaState(
        config=cfg,
        rng=rng,
        positions=positions,
        fitness=fitness,
        memory=memory,
        generation=0,
        evaluations=cfg.population_size,
    )


def step_generation(state: GaState, psox_audit: Optional[Callable[[int, int], None]] = None) -> GaState:
    """Produce one full offspring generation and fold it into the state.

    The population stays a matrix: a crossover-rate mask, every tournament
    at once, one operator call on the crossing rows (PSOX pairs each selected
    individual with another slot's personal best and the global best), one
    clamp, mutation, evaluation. SBX and Laplace cross ``ceil(pop/2)`` pairs,
    dropping the last child for an odd population. Replacement is wholesale
    with the elite count carried over; the archive is updated last.

    ``psox_audit`` receives (parent_slot, partner_slot) for every PSOX child.
    """
    cfg = state.config
    rng = state.rng
    xo = cfg.crossover
    mcfg = cfg.mutation
    pop = cfg.population_size
    bounds = cfg.objective.bounds
    next_gen = state.generation + 1
    X = state.positions

    if xo.kind in (CrossoverKind.SBX, CrossoverKind.LAPLACE):
        pairs = (pop + 1) // 2
        cross = rng.random(pairs) < xo.crossover_rate
        picks = tournament_index(state.fitness, cfg.selection_k, rng, size=2 * pairs)
        c1, c2 = X[picks[:pairs]], X[picks[pairs:]]
        if xo.kind is CrossoverKind.SBX:
            c1[cross], c2[cross] = sbx_crossover(c1[cross], c2[cross], xo.sbx_eta, rng)
        else:
            c1[cross], c2[cross] = laplace_crossover(c1[cross], c2[cross], xo.laplace_a, xo.laplace_b, rng)
        children = np.concatenate((c1, c2))[:pop]
    else:
        cross = rng.random(pop) < xo.crossover_rate
        picks = tournament_index(state.fitness, cfg.selection_k, rng, size=pop)
        children = X[picks]
        p1 = children[cross]
        if xo.kind is CrossoverKind.PSOX:
            i = picks[cross]
            j = rng.integers(0, pop - 1, i.size)
            j += j >= i
            if psox_audit is not None:
                for slot, partner in zip(i.tolist(), j.tolist()):
                    psox_audit(slot, partner)
            children[cross] = psox_crossover(p1, state.memory.pbest_positions[j], state.memory.gbest_position, xo, rng)
        else:
            p2 = X[tournament_index(state.fitness, cfg.selection_k, rng, size=p1.shape[0])]
            if xo.kind is CrossoverKind.AX:
                children[cross] = ax_crossover(p1, p2, xo.ax_alpha)
            elif xo.kind is CrossoverKind.FX:
                children[cross] = fx_crossover(p1, p2, rng)
            else:
                children[cross] = blx_alpha_crossover(p1, p2, xo.blx_alpha, rng)

    children = np.clip(children, bounds.lower, bounds.upper)
    if mcfg.kind is MutationKind.GM:
        children = gaussian_mutation(children, bounds, mcfg, rng)
    else:
        children = nonuniform_mutation(children, bounds, next_gen, max(cfg.generations, 1), mcfg, rng)

    fitness = benchmarks.batch_eval(cfg.objective.problem_id, children, rng=rng)
    state.evaluations += pop

    if cfg.elitism > 0:
        elite, doomed = _elite_swap(state.fitness, fitness, cfg.elitism)
        children[doomed] = state.positions[elite]
        fitness[doomed] = state.fitness[elite]

    state.positions = children
    state.fitness = fitness
    state.memory.observe(children, fitness)
    state.generation = next_gen
    return state


def run_ga(
    cfg: GaConfig,
    on_generation: Optional[Callable[[GaState], None]] = None,
    psox_audit: Optional[Callable[[int, int], None]] = None,
) -> RunTrace:
    """Full run: init plus ``generations`` steps; returns the best-so-far trace."""
    state = init_state(cfg)
    best = np.empty(cfg.generations)
    for t in range(cfg.generations):
        state = step_generation(state, psox_audit=psox_audit)
        best[t] = state.memory.gbest_fitness
        if on_generation is not None:
            on_generation(state)
    return RunTrace(
        best_per_generation=best,
        final_best_position=state.memory.gbest_position.copy(),
        final_best_fitness=state.memory.gbest_fitness,
        evaluations=state.evaluations,
    )
