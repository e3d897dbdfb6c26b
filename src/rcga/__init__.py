"""Real-coded GA library with pluggable crossovers and a benchmark harness."""

from .core import (
    Bounds,
    ObjectiveSpec,
    RealVector,
    RngStream,
    make_rng,
)
from .benchmarks import benchmark_eval, benchmark_spec, batch_eval
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
)
from .engine import GaConfig, GaState, RunTrace, SwarmMemory, init_state, run_ga, step_generation
from .stats import SampleGroup, StatReport, build_report, dunnett_one_sided, kruskal_wallis, rank_with_ties, summarize

__version__ = "0.1.0"
