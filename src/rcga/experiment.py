"""Experiment orchestration: config files, parallel runs, bundles, analysis.

A bundle directory holds one trace CSV per cell (problem x operator x
mutation, or problem x rate for sweeps) plus a ``manifest.json``. Per-run
seeds are ``master_seed + cell_index * runs + run_index``, so re-running a
config reproduces every trace byte for byte regardless of worker scheduling.

Config files are flat ``key = value`` text. The ``mutation_rate`` key uses
chromosome-level semantics: a rate of m perturbs an expected m genes per
child (per-gene probability m/dimension). A flat per-gene 0.1 on 30 genes
would disturb 96% of offspring, which measurably destroys the elite-lineage
convergence the operator comparisons rely on; see README.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterator, Optional, Sequence

import numpy as np

from . import benchmarks, svgplot
from .engine import GaConfig, RunTrace, run_ga
from .operators import CrossoverConfig, CrossoverKind, MutationConfig, MutationKind
from .stats import DUNNETT_MIN_SAMPLES, FLAG_NOT_RUN, DunnettNulls, SampleGroup, StatReport, build_report, summarize

MANIFEST_NAME = "manifest.json"
CURVES_NAME = "curves.npz"

SCALE_PRESETS = {
    "paper": (300, 1000, 30),  # population, generations, runs
    "desk": (100, 300, 10),
}

OPERATOR_ALIASES = {
    "AX": CrossoverKind.AX,
    "FX": CrossoverKind.FX,
    "BLX_ALPHA": CrossoverKind.BLX_ALPHA,
    "BLX-ALPHA": CrossoverKind.BLX_ALPHA,
    "BLX": CrossoverKind.BLX_ALPHA,
    "SBX": CrossoverKind.SBX,
    "LAPLACE": CrossoverKind.LAPLACE,
    "LX": CrossoverKind.LAPLACE,
    "PSOX": CrossoverKind.PSOX,
}


class ConfigError(ValueError):
    """Config problem with a ``file: field: message`` diagnostic."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description (one config file).

    ``crossover`` and ``mutation`` are templates holding the operator
    parameters; each cell sets their ``kind``, and the mutation's
    ``per_gene_rate`` becomes ``mutation_rate / dimension``.
    """

    name: str
    problems: tuple[int, ...]
    dimension: int = 30
    operators: tuple[CrossoverKind, ...] = tuple(CrossoverKind)
    mutations: tuple[MutationKind, ...] = (MutationKind.NUM, MutationKind.GM)
    population_size: int = 300
    generations: int = 1000
    runs: int = 30
    mutation_rate: float = 0.1
    mutation_rates: tuple[float, ...] = (0.1, 0.4, 0.7, 1.0)
    selection_k: int = 3
    elitism: int = 1
    seed: int = 1
    alpha: float = 0.05
    mc_samples: int = 100_000
    workers: int = 0  # 0 = logical CPU count
    output_dir: Path = Path("results")
    crossover: CrossoverConfig = field(default_factory=CrossoverConfig)
    mutation: MutationConfig = field(default_factory=MutationConfig)


def format_sci(value: float, sig: int = 6) -> str:
    """Scientific notation with ``sig`` significant digits, e.g. 1.23457E+05."""
    if not math.isfinite(value):
        return str(value).upper()
    return f"{value:.{sig - 1}E}"


# ---------------------------------------------------------------------------
# Config parsing


def _no_repeats(items: list, what: str, ident=str) -> tuple:
    """``items`` as a tuple; a repeat would make two cells write one trace file."""
    seen = set()
    for name in map(ident, items):
        if name in seen:
            raise ValueError(f"{what} {name} is listed twice")
        seen.add(name)
    return tuple(items)


def parse_problems(raw: str) -> tuple[int, ...]:
    """Accept ids, id ranges ("1-15") and registry names, comma-separated."""
    out: list[int] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split("-")
        if len(parts) == 2 and all(p.strip().isdigit() for p in parts):
            lo, hi = int(parts[0]), int(parts[1])
            if lo > hi:
                raise ValueError(f"reversed range {token}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(benchmarks.resolve_problem_id(token))
    if not out:
        raise ValueError("no problem ids given")
    for pid in out:
        if pid not in benchmarks.REGISTRY:
            raise ValueError(f"unknown problem id {pid}")
    return _no_repeats(out, "problem")


def _parse_operators(raw: str) -> tuple[CrossoverKind, ...]:
    kinds = []
    for token in raw.split(","):
        key = token.strip().upper()
        if key not in OPERATOR_ALIASES:
            raise ValueError(f"unknown operator {token.strip()!r}")
        kinds.append(OPERATOR_ALIASES[key])
    return _no_repeats(kinds, "operator", lambda kind: kind.value)


def _parse_mutations(raw: str) -> tuple[MutationKind, ...]:
    kinds = []
    for token in raw.split(","):
        key = token.strip().upper()
        try:
            kinds.append(MutationKind[key])
        except KeyError:
            raise ValueError(f"unknown mutation {token.strip()!r}") from None
    return _no_repeats(kinds, "mutation", lambda kind: kind.value)


def _parse_rates(raw: str) -> tuple[float, ...]:
    rates = [float(tok) for tok in raw.split(",") if tok.strip()]
    if not rates:
        raise ValueError("no rates given")
    for r in rates:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"rate {r} outside [0, 1]")
    return _no_repeats(rates, "rate", lambda r: f"{r:g}")  # the trace file name's format


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _config_keys() -> dict:
    """Config key -> (which config it sets, value parser), read off the dataclasses.

    The operator keys are the fields of ``CrossoverConfig`` and
    ``MutationConfig``; the harness sets ``kind`` and ``per_gene_rate`` per
    cell. Other values are parsed by the type of the field's default.
    """
    special = {
        "problems": parse_problems,
        "operators": _parse_operators,
        "mutations": _parse_mutations,
        "mutation_rates": _parse_rates,
    }
    keys = {}
    for target, cls, skip in (
        ("experiment", ExperimentConfig, {"name", "crossover", "mutation"}),
        ("crossover", CrossoverConfig, {"kind"}),
        ("mutation", MutationConfig, {"kind", "per_gene_rate"}),
    ):
        for f in fields(cls):
            if f.name not in skip:
                parse = special.get(f.name) or (_parse_bool if isinstance(f.default, bool) else type(f.default))
                keys[f.name] = (target, parse)
    return keys


_CONFIG_KEYS = _config_keys()


def parse_config(
    path: Path | str,
    overrides: Optional[dict] = None,
    defaults: Optional[dict] = None,
) -> ExperimentConfig:
    """Read a flat key=value config file into an ExperimentConfig.

    ``defaults`` fill keys the file leaves unset; ``overrides`` (e.g. from CLI
    flags) are applied after the file. A ``scale`` entry expands to its
    population/generations/runs preset before explicit keys are applied.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: config file not found")
    raw: dict[str, str] = {k.lower(): str(v) for k, v in (defaults or {}).items()}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip().lower()] = value.split("#", 1)[0].strip()
    if overrides:
        raw.update({k.lower(): str(v) for k, v in overrides.items() if v is not None})

    values: dict[str, dict] = {"experiment": {"name": raw.pop("name", path.stem)}, "crossover": {}, "mutation": {}}
    experiment = values["experiment"]

    scale = raw.pop("scale", None)
    if scale is not None:
        if scale not in SCALE_PRESETS:
            raise ConfigError(f"{path}: scale: must be one of {sorted(SCALE_PRESETS)}, got {scale!r}")
        experiment["population_size"], experiment["generations"], experiment["runs"] = SCALE_PRESETS[scale]

    def fail(key: str, message: str):
        raise ConfigError(f"{path}: {key}: {message}")

    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            fail(key, "unknown key")
        target, parse = _CONFIG_KEYS[key]
        try:
            values[target][key] = parse(value)
        except (TypeError, ValueError, KeyError) as exc:
            fail(key, str(exc.args[0]) if exc.args else str(exc))

    if "problems" not in experiment:
        fail("problems", "required key is missing")
    try:  # surface operator-parameter violations as config diagnostics
        cfg = ExperimentConfig(
            **experiment,
            crossover=CrossoverConfig(**values["crossover"]),
            mutation=MutationConfig(**values["mutation"]),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    if cfg.runs < 1:
        fail("runs", "must be >= 1")
    if cfg.population_size < 2:
        fail("population_size", "must be >= 2")
    if cfg.generations < 1:
        fail("generations", "must be >= 1")
    if cfg.dimension < 2:
        fail("dimension", "must be >= 2 (chained benchmarks need two genes)")
    if not 0.0 <= cfg.mutation_rate <= 1.0:
        fail("mutation_rate", "must lie in [0, 1]")
    if not 0.0 < cfg.alpha < 1.0:
        fail("alpha", "must lie in (0, 1)")
    if cfg.mc_samples < DUNNETT_MIN_SAMPLES:
        fail("mc_samples", "must be at least 10^4")
    if cfg.selection_k < 1:
        fail("selection_k", "must be >= 1")
    if not 0 <= cfg.elitism <= cfg.population_size:
        fail("elitism", "must lie in [0, population_size]")
    if cfg.seed < 0:
        fail("seed", "must be non-negative")
    if cfg.workers < 0:
        fail("workers", "must be >= 0")
    return cfg


# ---------------------------------------------------------------------------
# Cell construction and execution


@dataclass(frozen=True)
class Cell:
    """One (problem, operator, mutation[, rate]) combination of an experiment."""

    index: int
    problem: int
    operator: CrossoverKind
    mutation: MutationKind
    rate: Optional[float] = None  # set for sweep bundles

    @property
    def label(self) -> str:
        base = f"{self.operator.value}-{self.mutation.value}"
        if self.rate is not None:
            base += f"@{self.rate:g}"
        return base

    @property
    def filename(self) -> str:
        stem = f"trace_p{self.problem:02d}_{self.operator.value}_{self.mutation.value}"
        if self.rate is not None:
            stem += f"_rate{self.rate:g}"
        return stem + ".csv"


def ga_config_for(cfg: ExperimentConfig, cell: Cell, run_index: int) -> GaConfig:
    """Assemble the engine config for one run of one cell.

    The study-level mutation rate is chromosome-level: a rate of m gives each
    child an expected m perturbed genes (per-gene probability m/dimension).
    """
    rate = cfg.mutation_rate if cell.rate is None else cell.rate
    return GaConfig(
        objective=benchmarks.benchmark_spec(cell.problem, dimension=cfg.dimension),
        population_size=cfg.population_size,
        generations=cfg.generations,
        crossover=replace(cfg.crossover, kind=cell.operator),
        mutation=replace(cfg.mutation, kind=cell.mutation, per_gene_rate=rate / cfg.dimension),
        selection_k=cfg.selection_k,
        seed=cfg.seed + cell.index * cfg.runs + run_index,
        elitism=cfg.elitism,
    )


def resolve_workers(cfg_workers: int) -> int:
    """Worker count: ``RCGA_WORKERS`` when set, else the ``workers`` key.

    Both take an integer >= 0, and 0 means the logical CPU count.
    """
    env = os.environ.get("RCGA_WORKERS", "").strip()
    if env:
        if not env.isdecimal():
            raise ConfigError(f"RCGA_WORKERS: must be an integer >= 0, got {env!r}")
        cfg_workers = int(env)
    return cfg_workers or os.cpu_count() or 1


def _run_cells(cfg: ExperimentConfig, cells: Sequence[Cell]) -> Iterator[tuple[Cell, list[RunTrace] | str]]:
    """Execute runs x cells; yields ``(cell, list[RunTrace] | error str)`` in
    cell order, each as soon as the cell's last run is in.

    One worker runs every job on the calling thread; more submit one pool
    future per (cell, run). A failed cell keeps its first failing run's error.
    """
    jobs = [(cell, r) for cell in cells for r in range(cfg.runs)]
    workers = min(resolve_workers(cfg.workers), len(jobs))
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        configs = [ga_config_for(cfg, cell, r) for cell, r in jobs]
        calls = [pool.submit(run_ga, c).result if pool else partial(run_ga, c) for c in configs]
        traces, error = [], None
        for (cell, r), call in zip(jobs, calls):
            try:
                traces.append(call())
            except Exception as exc:  # noqa: BLE001 - cell isolation
                error = error or f"run {r + 1}: {exc}"
            if r == cfg.runs - 1:
                yield cell, error or traces
                traces, error = [], None


def _replace_atomically(path: Path, write: Callable[[IO], None], mode: str = "w") -> None:
    """Write ``path`` through a hidden temp file in its directory and
    ``os.replace``, so a reader finds the old file or the whole new one; the
    temp file is removed if writing fails."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_trace_csv(path: Path, traces: Sequence[RunTrace]) -> None:
    lines = ["run,generation,best_so_far"]
    for run_index, trace in enumerate(traces, start=1):
        for gen, value in enumerate(trace.best_per_generation, start=1):
            lines.append(f"{run_index},{gen},{format_sci(value)}")
    _replace_atomically(path, lambda fh: fh.write("\n".join(lines) + "\n"))


_TRACE_ROW = np.dtype([("run", np.int64), ("generation", np.int64), ("best_so_far", np.float64)])


def read_trace_csv(path: Path) -> dict[int, np.ndarray]:
    """Per-run best-so-far curves, keyed by run id.

    Accepts the header ``run,generation,best_so_far`` followed by rows of an
    integer run id, an integer generation and a float value (``INF``,
    ``-INF`` and ``NAN`` included); empty lines are skipped. Keys follow the
    order in which run ids first appear and each curve keeps file order.
    Raises ``ValueError`` for any other header, a row without exactly three
    fields, a non-integer id or generation, a non-numeric value, and a line
    of spaces or a ``#`` comment; the message names the first such line of
    the file, counting the header as line 1. A header-only file gives ``{}``.
    """
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "run,generation,best_so_far":
        raise ValueError(f"{path}: line 1: unexpected trace header {header!r}")
    # Given a path, not a handle, numpy reads the file in blocks in C instead
    # of iterating over it one Python string per line.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(path, dtype=_TRACE_ROW, delimiter=",", comments=None, skiprows=1, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {_find_bad_line(path) or exc}") from None
    order = np.argsort(table["run"], kind="stable")
    ids, starts = np.unique(table["run"][order], return_index=True)
    curves = np.split(table["best_so_far"][order], starts[1:])
    return {int(ids[i]): curves[i] for i in np.argsort(order[starts])}


def _find_bad_line(path: Path) -> Optional[str]:
    """``line N: why: text`` for the first body line ``np.loadtxt`` rejects, or
    None. Each line goes through ``np.loadtxt`` on its own, so the verdicts are
    the ones the whole-file read gave; only rejected files pay for this."""
    with open(path, errors="replace") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            try:
                np.loadtxt([line], dtype=_TRACE_ROW, delimiter=",", comments=None)
            except ValueError:
                text = line.rstrip("\r\n")
                n_fields = text.count(",") + 1
                why = "expected integer run and generation and a number" if n_fields == 3 else \
                    f"{n_fields} fields, expected 3"
                return f"line {lineno}: {why}: {text!r}"
    return None


def _manifest_payload(cfg: ExperimentConfig, kind: str, cells: Sequence[Cell], statuses: dict[int, str]) -> dict:
    return {
        "format": "rcga-bundle-v1",
        "kind": kind,
        "name": cfg.name,
        "problems": list(cfg.problems),
        "operators": [k.value for k in cfg.operators],
        "mutations": [m.value for m in cfg.mutations],
        "mutation_rates": list(cfg.mutation_rates) if kind == "sweep" else None,
        "dimension": cfg.dimension,
        "population_size": cfg.population_size,
        "generations": cfg.generations,
        "runs": cfg.runs,
        "crossover_rate": cfg.crossover.crossover_rate,
        "mutation_rate": cfg.mutation_rate,
        "master_seed": cfg.seed,
        "mc_seed": cfg.seed,
        "mc_samples": cfg.mc_samples,
        "alpha": cfg.alpha,
        "cells": [
            {
                "index": c.index,
                "problem": c.problem,
                "operator": c.operator.value,
                "mutation": c.mutation.value,
                "rate": c.rate,
                "label": c.label,
                "file": c.filename,
                "status": statuses[c.index],
            }
            for c in cells
        ],
    }


def _persist_bundle(cfg: ExperimentConfig, kind: str, cells: Sequence[Cell]) -> Path:
    """Write each cell's trace CSV as the cell finishes, then the manifest."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    statuses = {}
    for cell, payload in _run_cells(cfg, cells):
        if isinstance(payload, str):
            statuses[cell.index] = f"failed: {payload}"
        else:
            _write_trace_csv(out / cell.filename, payload)
            statuses[cell.index] = "ok"
    manifest = _manifest_payload(cfg, kind, cells, statuses)
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def experiment_cells(problems, operators, mutations, rates=(None,)) -> list[Cell]:
    """The grid's cells in ``itertools.product`` order, indexed from 0; a sweep passes its rates."""
    grid = itertools.product(problems, operators, mutations, rates)
    return [Cell(index, *axes) for index, axes in enumerate(grid)]


def run_experiment(config_path: Path | str, overrides: Optional[dict] = None) -> Path:
    """Execute the full grid of a config file; returns the bundle directory."""
    cfg = parse_config(config_path, overrides)
    return _persist_bundle(cfg, "experiment", experiment_cells(cfg.problems, cfg.operators, cfg.mutations))


# ---------------------------------------------------------------------------
# Analysis


def load_manifest(bundle_dir: Path | str) -> dict:
    path = Path(bundle_dir) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"{bundle_dir}: bundle manifest not found")
    return json.loads(path.read_text())


def _cell_curves(bundle_dir: Path, cell: dict) -> Optional[np.ndarray]:
    """One manifest cell's ``(runs, generations)`` best-so-far matrix in run-id
    order, or None if the cell is not ``ok``, its trace file is missing or
    empty, or its runs differ in length."""
    if cell["status"] != "ok":
        return None
    path = Path(bundle_dir) / cell["file"]
    if not path.is_file():
        return None
    runs = read_trace_csv(path)
    if not runs or len({curve.size for curve in runs.values()}) > 1:
        return None
    return np.vstack([runs[r] for r in sorted(runs)])


def final_bests(bundle_dir: Path, cell: dict) -> Optional[np.ndarray]:
    """Final best objective per run for one ok cell, or None if unusable."""
    curves = _cell_curves(bundle_dir, cell)
    return None if curves is None else curves[:, -1].copy()  # a view would keep the whole matrix alive


# The curve digest: per usable trace file, keyed by the SHA-256 of its bytes,
# the per-generation mean and std of its runs. ``analyze`` writes it while it
# holds each cell's curves; ``plot_convergence`` reuses a row only when the
# file's bytes still hash to its key, so a rewritten trace is parsed again.


def _file_sha256(path: Path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def _mean_std(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-generation mean and std (``ddof=1``; zeros for a single run)."""
    mean = curves.mean(axis=0)
    std = curves.std(axis=0, ddof=1) if curves.shape[0] > 1 else np.zeros_like(mean)
    return mean, std


def _write_curve_digest(path: Path, rows: dict[bytes, tuple[np.ndarray, np.ndarray]]) -> None:
    """Save ``sha -> (mean, std)`` as three stacked arrays; rows whose length
    differs from the first row's are left out, and plotting parses those."""
    length = next((mean.size for mean, _ in rows.values()), 0)
    rows = {sha: ms for sha, ms in rows.items() if ms[0].size == length}
    arrays = {
        "sha": np.array(list(rows), dtype="S32"),
        "mean": np.array([m for m, _ in rows.values()]).reshape(len(rows), length),
        "std": np.array([s for _, s in rows.values()]).reshape(len(rows), length),
    }
    _replace_atomically(path, lambda fh: np.savez(fh, **arrays), mode="wb")


def _load_curve_digest(path: Path) -> dict[bytes, tuple[np.ndarray, np.ndarray]]:
    """The digest at ``path`` as ``sha -> (mean, std)``; ``{}`` when it is
    missing, unreadable or mis-shaped."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            sha, mean, std = npz["sha"], npz["mean"], npz["std"]
    except Exception:  # noqa: BLE001
        # A damaged zip fails in many ways (BadZipFile, NotImplementedError,
        # RuntimeError, tokenize errors, ...); each means there is no digest.
        return {}
    shaped = mean.ndim == 2 and std.shape == mean.shape and sha.shape == mean.shape[:1]
    if not shaped or sha.dtype != "S32" or mean.dtype != np.float64 or std.dtype != np.float64:
        return {}
    # tobytes keeps trailing NUL bytes, which indexing an S32 array strips.
    keys = sha.tobytes()
    return {keys[32 * i:32 * (i + 1)]: (mean[i], std[i]) for i in range(sha.size)}


@dataclass
class ProblemAnalysis:
    problem: int
    mutation: str
    report: Optional[StatReport]
    groups: list[tuple[str, Optional[np.ndarray]]]  # (operator, finals or None)


def analyze(
    bundle_dir: Path | str,
    control_label: str = "PSOX",
    alpha: Optional[float] = None,
    sig_figs: int = 6,
) -> list[ProblemAnalysis]:
    """Build per-problem summary and post-hoc tables; writes summary.csv and dunnett.csv.

    Within each (problem, mutation) block the operators form the comparison
    groups; ``control_label`` names the control operator. Blocks lacking the
    control, with fewer than two usable groups, or with single-run cells keep
    their test columns dashed. The Dunnett null is sampled once per design
    (group sizes, control first, and ``mc_samples``) per call, seeded from
    the manifest's ``mc_seed`` and the design, so a block's results depend
    only on its own trace files, alpha and those two manifest entries. An
    alpha outside (0, 1) or a control the bundle lacks raises
    ``ConfigError`` before anything is written. Also writes the curve digest
    ``curves.npz`` for ``plot_convergence``; the tables never read it.
    """
    bundle_dir = Path(bundle_dir)
    manifest = load_manifest(bundle_dir)
    if alpha is None:
        alpha = float(manifest.get("alpha", 0.05))
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha: must lie in (0, 1), got {alpha:g}")
    control_label = control_label.upper()
    if control_label in OPERATOR_ALIASES:
        control_label = OPERATOR_ALIASES[control_label].value

    cells = manifest["cells"]
    problems = sorted({c["problem"] for c in cells})
    mutations = list(dict.fromkeys(c["mutation"] for c in cells))
    operators = list(dict.fromkeys(c["operator"] for c in cells))
    if control_label not in operators:
        raise ConfigError(f"control: {control_label} is not an operator of this bundle; it has {', '.join(operators)}")

    nulls = DunnettNulls(int(manifest["mc_seed"]))
    mc_samples = int(manifest.get("mc_samples", 100_000))
    digest: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    analyses: list[ProblemAnalysis] = []
    for problem in problems:
        for mutation in mutations:
            block = [c for c in cells if c["problem"] == problem and c["mutation"] == mutation]
            if not block:
                continue
            by_op = {}
            for c in block:
                curves = _cell_curves(bundle_dir, c)
                by_op[c["operator"]] = None if curves is None else curves[:, -1].copy()
                if curves is not None:
                    digest[_file_sha256(bundle_dir / c["file"])] = _mean_std(curves)
            groups = [(op, by_op.get(op)) for op in operators if op in by_op]
            usable = [
                SampleGroup(f"{op}-{mutation}", vals)
                for op, vals in groups
                if vals is not None and vals.size >= 2
            ]
            report = None
            control_group = f"{control_label}-{mutation}"
            if len(usable) >= 2 and any(g.label == control_group for g in usable):
                report = build_report(usable, control_group, alpha, nulls, mc_samples)
            analyses.append(ProblemAnalysis(problem, mutation, report, groups))

    _write_summary_csv(bundle_dir / "summary.csv", analyses, sig_figs)
    _write_dunnett_csv(bundle_dir / "dunnett.csv", analyses, sig_figs)
    _write_curve_digest(bundle_dir / CURVES_NAME, digest)
    return analyses


def _write_summary_csv(path: Path, analyses: Sequence[ProblemAnalysis], sig_figs: int) -> None:
    lines = ["problem,operator,mutation,mean,std,kw_flag,kw_method"]
    for a in analyses:
        kw_cols = f"{a.report.kw_flag},{a.report.kw_method}" if a.report else f"{FLAG_NOT_RUN},-"
        for op, vals in a.groups:
            if vals is None:
                mean_s = std_s = "-"
            else:
                mean_s, std_s = (format_sci(v, sig_figs) for v in summarize(vals))
            lines.append(f"{a.problem},{op},{a.mutation},{mean_s},{std_s},{kw_cols}")
    path.write_text("\n".join(lines) + "\n")


def _write_dunnett_csv(path: Path, analyses: Sequence[ProblemAnalysis], sig_figs: int) -> None:
    lines = ["problem,treatment,p_value,flag"]
    for a in analyses:
        if a.report is None:
            for op, _ in a.groups:
                label = f"{op}-{a.mutation}"
                lines.append(f"{a.problem},{label},-,-")
            continue
        for outcome in a.report.dunnett:
            p_s = "-" if outcome.p_value is None else format_sci(outcome.p_value, sig_figs)
            lines.append(f"{a.problem},{outcome.label},{p_s},{outcome.flag}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Convergence plots


def _cell_mean_std(bundle_dir: Path, cell: dict, digest: dict) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Per-generation mean and std of a usable cell, from ``digest`` when its
    trace file's hash is there, else from the parsed file; None if unusable."""
    path = bundle_dir / cell["file"]
    if digest and cell["status"] == "ok" and path.is_file():
        hit = digest.get(_file_sha256(path))
        if hit is not None:
            return hit
    curves = _cell_curves(bundle_dir, cell)
    return None if curves is None else _mean_std(curves)


def plot_convergence(
    bundle_dir: Path | str,
    problems: Optional[Sequence[int]] = None,
    output: Optional[Path | str] = None,
) -> list[Path]:
    """One SVG panel per problem: mean best-so-far vs generation, +/-1 std band.

    A cell whose trace file hashes to a row of the curve digest ``analyze``
    left is drawn from that row; any other cell's trace is parsed.
    """
    bundle_dir = Path(bundle_dir)
    manifest = load_manifest(bundle_dir)
    digest = _load_curve_digest(bundle_dir / CURVES_NAME)
    out_dir = Path(output) if output else bundle_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    available = sorted({c["problem"] for c in manifest["cells"]})
    wanted = list(problems) if problems else available

    written: list[Path] = []
    for problem in wanted:
        series = []
        for cell in manifest["cells"]:
            if cell["problem"] != problem:
                continue
            stats = _cell_mean_std(bundle_dir, cell, digest)
            if stats is None:
                continue
            mean, std = stats
            series.append(svgplot.Series(cell["label"], np.arange(1, mean.size + 1), mean, std))
        if not series:
            continue
        name = benchmarks.REGISTRY[problem].name
        svg = svgplot.render_panel(
            f"Problem {problem}: {name}", "generation", "best objective (mean of runs)", series
        )
        path = out_dir / f"convergence_p{problem:02d}.svg"
        path.write_text(svg)
        written.append(path)
    if not written:
        raise FileNotFoundError(f"{bundle_dir}: no usable traces for problems {wanted}")
    return written


# ---------------------------------------------------------------------------
# Mutation-rate sweep


SWEEP_DEFAULTS = {"problems": "4,5,7,11", "population_size": "100", "generations": "100"}


def mutation_sweep(config_path: Path | str, overrides: Optional[dict] = None) -> Path:
    """PSOX-GM runs across the configured mutation rates; emits sweep.csv and panels."""
    cfg = parse_config(config_path, overrides, defaults=SWEEP_DEFAULTS)
    cells = experiment_cells(cfg.problems, (CrossoverKind.PSOX,), (MutationKind.GM,), cfg.mutation_rates)
    out = _persist_bundle(cfg, "sweep", cells)
    manifest = load_manifest(out)

    lines = ["rate,problem,mean,std"]
    per_problem: dict[int, list[tuple[float, float, float]]] = {}
    for cell in manifest["cells"]:
        finals = final_bests(out, cell)
        if finals is None:
            lines.append(f"{format_sci(cell['rate'])},{cell['problem']},-,-")
            continue
        mean, std = summarize(finals)
        lines.append(f"{format_sci(cell['rate'])},{cell['problem']},{format_sci(mean)},{format_sci(std)}")
        per_problem.setdefault(cell["problem"], []).append((cell["rate"], mean, std))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")

    for problem, rows in per_problem.items():
        rows.sort()
        series = [svgplot.Series(
            "PSOX-GM",
            [r for r, _, _ in rows],
            [m for _, m, _ in rows],
            [s for _, _, s in rows],
        )]
        name = benchmarks.REGISTRY[problem].name
        svg = svgplot.render_panel(
            f"Problem {problem}: {name}", "mutation rate", "final best objective (mean)", series
        )
        (out / f"sweep_p{problem:02d}.svg").write_text(svg)
    return out
