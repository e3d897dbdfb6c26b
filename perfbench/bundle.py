"""Synthetic ``rcga-bundle-v1`` bundles for the analysis workload.

The bundle has the grid of the paper's study: every problem x operator x
mutation cell with 30 runs per cell. Runs are 500 generations long, half the
paper's 1000, so that set-up and a few analysis passes fit in one benchmark
run; parsing cost per row does not depend on the length. Each run's
best-so-far curve falls on a log scale from a common start towards a final
error level, with per-generation jitter, and is made non-increasing. Most
(problem, mutation) blocks get a planted gap between the operators' final
levels, so Kruskal-Wallis fires and the Dunnett step runs there; the others
get none. Everything is drawn from the seed.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from rcga.benchmarks import benchmark_spec
from rcga.experiment import MANIFEST_NAME

PROBLEMS = tuple(range(1, 16))
OPERATORS = ("AX", "FX", "BLX_ALPHA", "SBX", "LAPLACE", "PSOX")
MUTATIONS = ("NUM", "GM")
RUNS = 30
GENERATIONS = 500
DIMENSION = 30

PLANTED_BLOCK_SHARE = 0.8  # share of (problem, mutation) blocks whose operators differ
PLANTED_GAP = 0.6  # log10 units between neighbouring operators' final levels
RUN_SPREAD = 0.5  # log10 standard deviation of a run's final level
HEADER = "run,generation,best_so_far"


def trace_filename(problem: int, operator: str, mutation: str) -> str:
    return f"trace_p{problem:02d}_{operator}_{mutation}.csv"


def _curves(rng: np.random.Generator, finals_log10: np.ndarray, generations: int) -> np.ndarray:
    """Non-increasing error curves (runs, generations) ending near ``finals_log10``."""
    runs = finals_log10.size
    start = 3.0 + 0.2 * rng.standard_normal(runs)
    progress = np.sqrt(np.arange(1, generations + 1) / generations)
    log_err = start[:, None] + (finals_log10 - start)[:, None] * progress[None, :]
    log_err += 0.05 * rng.standard_normal((runs, generations))
    return np.minimum.accumulate(10.0**log_err, axis=1)


def _csv_text(values: np.ndarray) -> str:
    runs, generations = values.shape
    flat: list = [None] * (3 * values.size)
    flat[0::3] = np.repeat(np.arange(1, runs + 1), generations).tolist()
    flat[1::3] = np.tile(np.arange(1, generations + 1), runs).tolist()
    flat[2::3] = values.ravel().tolist()
    return HEADER + "\n" + ("%d,%d,%.5E\n" * values.size) % tuple(flat)


def write_bundle(out: Path, seed: int, problems=PROBLEMS, runs: int = RUNS, generations: int = GENERATIONS) -> dict:
    """Write a bundle into ``out``; returns its expected contents.

    The result maps ``"finals"`` to {trace file: final value per run, as the
    CSV holds it}, ``"planted"`` to {(problem, mutation): whether the block's
    operators differ}, ``"optima"`` to {problem: registered optimum} and
    ``"digest"`` to the SHA-256 of the trace CSVs in file order.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    digest = hashlib.sha256()
    finals: dict[str, np.ndarray] = {}
    planted: dict[tuple[int, str], bool] = {}
    optima: dict[int, float] = {}
    cells = []
    # A fixed number of planted blocks keeps the Dunnett work the same for every seed.
    n_blocks = len(problems) * len(MUTATIONS)
    chosen = rng.permutation(n_blocks) < round(PLANTED_BLOCK_SHARE * n_blocks)
    for p_index, problem in enumerate(problems):
        optima[problem] = benchmark_spec(problem, dimension=DIMENSION).optimum_value
        blocks = {}
        for m_index, mutation in enumerate(MUTATIONS):
            planted[problem, mutation] = bool(chosen[p_index * len(MUTATIONS) + m_index])
            gap = PLANTED_GAP if planted[problem, mutation] else 0.0
            blocks[mutation] = gap * rng.permutation(len(OPERATORS))
        for op_index, operator in enumerate(OPERATORS):
            for mutation in MUTATIONS:
                level = -2.0 + blocks[mutation][op_index] + RUN_SPREAD * rng.standard_normal(runs)
                values = optima[problem] + _curves(rng, level, generations)
                text = _csv_text(values)
                name = trace_filename(problem, operator, mutation)
                (out / name).write_text(text)
                digest.update(text.encode())
                finals[name] = np.array([float("%.5E" % v) for v in values[:, -1]])
                cells.append((problem, operator, mutation, name))
    manifest = {
        "format": "rcga-bundle-v1",
        "kind": "experiment",
        "name": f"synthetic-{seed}",
        "problems": list(problems),
        "operators": list(OPERATORS),
        "mutations": list(MUTATIONS),
        "mutation_rates": None,
        "dimension": DIMENSION,
        "population_size": 300,
        "generations": generations,
        "runs": runs,
        "crossover_rate": 0.8,
        "mutation_rate": 0.1,
        "master_seed": seed,
        "mc_seed": seed,
        "mc_samples": 100_000,
        "alpha": 0.05,
        "cells": [
            {
                "index": index,
                "problem": problem,
                "operator": operator,
                "mutation": mutation,
                "rate": None,
                "label": f"{operator}-{mutation}",
                "file": name,
                "status": "ok",
            }
            for index, (problem, operator, mutation, name) in enumerate(cells)
        ],
    }
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"finals": finals, "planted": planted, "optima": optima, "digest": digest.hexdigest()}
