"""Experiment orchestration: config files, parallel runs, bundles, analysis.

A bundle directory holds one trace CSV per cell (problem x operator x
mutation, or problem x rate for sweeps), a ``manifest.json`` and the
``curves.npz`` digest of each cell's reduction. Per-run seeds are
``master_seed + cell_index * runs + run_index``, so re-running a config
reproduces every trace byte for byte regardless of worker scheduling.

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
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import benchmarks, svgplot
from .engine import GaConfig, RunTrace, run_ga
from .operators import CrossoverConfig, CrossoverKind, MutationConfig, MutationKind
from .stats import FLAG_NOT_RUN, SampleGroup, StatReport, build_report, summarize

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
    ``per_gene_rate`` becomes ``mutation_rate / dimension``. A value out of
    its range raises ``ValueError("key: message")``.
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
    workers: int = 0  # 0 = the CPUs this process may run on
    output_dir: Path = Path("results")
    crossover: CrossoverConfig = field(default_factory=CrossoverConfig)
    mutation: MutationConfig = field(default_factory=MutationConfig)

    def __post_init__(self):
        for key, ok, message in (
            ("runs", self.runs >= 1, "must be >= 1"),
            ("population_size", self.population_size >= 2, "must be >= 2"),
            ("generations", self.generations >= 1, "must be >= 1"),
            ("dimension", self.dimension >= 2, "must be >= 2 (chained benchmarks need two genes)"),
            ("mutation_rate", 0.0 <= self.mutation_rate <= 1.0, "must lie in [0, 1]"),
            ("alpha", 0.0 < self.alpha < 1.0, "must lie in (0, 1)"),
            ("selection_k", self.selection_k >= 1, "must be >= 1"),
            ("elitism", 0 <= self.elitism <= self.population_size, "must lie in [0, population_size]"),
            ("seed", self.seed >= 0, "must be non-negative"),
            ("workers", self.workers >= 0, "must be >= 0"),
        ):
            if not ok:
                raise ValueError(f"{key}: {message}")


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


def _parse_kinds(raw: str, names: Mapping, what: str) -> tuple:
    """Comma-separated kinds looked up, upper-cased, in ``names`` (alias or member name -> kind)."""
    kinds = []
    for token in raw.split(","):
        key = token.strip().upper()
        if key not in names:
            raise ValueError(f"unknown {what} {token.strip()!r}")
        kinds.append(names[key])
    return _no_repeats(kinds, what, lambda kind: kind.value)


def _parse_rates(raw: str) -> tuple[float, ...]:
    rates = [float(tok) for tok in raw.split(",") if tok.strip()]
    if not rates:
        raise ValueError("no rates given")
    for r in rates:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"rate {r} outside [0, 1]")
    return _no_repeats(rates, "rate", lambda r: f"{r:g}")  # the trace file name's format


def _config_keys() -> dict:
    """Config key -> (which config it sets, value parser), read off the dataclasses.

    The operator keys are the fields of ``CrossoverConfig`` and
    ``MutationConfig``; the harness sets ``kind`` and ``per_gene_rate`` per
    cell. Other values are parsed by the type of the field's default.
    """
    special = {
        "problems": parse_problems,
        "operators": partial(_parse_kinds, names=OPERATOR_ALIASES, what="operator"),
        "mutations": partial(_parse_kinds, names=MutationKind.__members__, what="mutation"),
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
                parse = special.get(f.name) or type(f.default)
                keys[f.name] = (target, parse)
    return keys


_CONFIG_KEYS = _config_keys()


def parse_config(
    path: Path | str,
    overrides: Optional[dict] = None,
    defaults: Optional[dict] = None,
) -> ExperimentConfig:
    """Read a flat key=value config file into an ExperimentConfig.

    Keys are applied in the order: ``defaults``, then the population,
    generations and runs preset of a ``scale`` entry, then the file's keys,
    then ``overrides`` (e.g. from CLI flags); a later source wins. A key
    given twice in the file, in any case, is an error.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: config file not found")
    raw: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key in key_lines:
            raise ConfigError(f"{path}: {key}: given twice, on lines {key_lines[key]} and {lineno}")
        key_lines[key] = lineno
        raw[key] = value.split("#", 1)[0].strip()
    if overrides:
        raw.update({k.lower(): str(v) for k, v in overrides.items() if v is not None})
    scale = raw.pop("scale", None)
    if scale is not None and scale not in SCALE_PRESETS:
        raise ConfigError(f"{path}: scale: must be one of {sorted(SCALE_PRESETS)}, got {scale!r}")
    preset = dict(zip(("population_size", "generations", "runs"), SCALE_PRESETS[scale])) if scale else {}
    raw = {**{k.lower(): str(v) for k, v in (defaults or {}).items()}, **preset, **raw}

    values: dict[str, dict] = {"experiment": {"name": raw.pop("name", path.stem)}, "crossover": {}, "mutation": {}}
    experiment = values["experiment"]

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
    try:  # surface range violations as config diagnostics
        return ExperimentConfig(
            **experiment,
            crossover=CrossoverConfig(**values["crossover"]),
            mutation=MutationConfig(**values["mutation"]),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Cell construction and execution


def experiment_cells(problems, operators, mutations, rates=(None,)) -> list[dict]:
    """The grid's manifest cell records, without their status, in
    ``itertools.product`` order and indexed from 0; a sweep passes its rates."""
    cells = []
    for index, (problem, op, mut, rate) in enumerate(itertools.product(problems, operators, mutations, rates)):
        at, suffix = ("", "") if rate is None else (f"@{rate:g}", f"_rate{rate:g}")
        cells.append({
            "index": index, "problem": problem, "operator": op.value, "mutation": mut.value, "rate": rate,
            "label": f"{op.value}-{mut.value}{at}",
            "file": f"trace_p{problem:02d}_{op.value}_{mut.value}{suffix}.csv",
        })
    return cells


def ga_config_for(cfg: ExperimentConfig, cell: dict, run_index: int) -> GaConfig:
    """Assemble the engine config for one run of one cell record.

    The study-level mutation rate is chromosome-level: a rate of m gives each
    child an expected m perturbed genes (per-gene probability m/dimension).
    """
    rate = cfg.mutation_rate if cell["rate"] is None else cell["rate"]
    return GaConfig(
        objective=benchmarks.benchmark_spec(cell["problem"], dimension=cfg.dimension),
        population_size=cfg.population_size,
        generations=cfg.generations,
        crossover=replace(cfg.crossover, kind=CrossoverKind(cell["operator"])),
        mutation=replace(cfg.mutation, kind=MutationKind(cell["mutation"]), per_gene_rate=rate / cfg.dimension),
        selection_k=cfg.selection_k,
        seed=cfg.seed + cell["index"] * cfg.runs + run_index,
        elitism=cfg.elitism,
    )


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, so a ``taskset`` or cpuset limit is seen, else the CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _process_pool(workers: int):
    """A ``ProcessPoolExecutor`` of ``workers`` processes. Its module is
    imported here, so a process that never starts a pool never loads it."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers)


def _run_cells(cfg: ExperimentConfig, cells: Sequence[dict]) -> Iterator[tuple[dict, list[RunTrace] | str]]:
    """Execute runs x cells; yields ``(cell, list[RunTrace] | error str)`` in
    cell order, each as soon as the cell's last run is in.

    One worker runs every job on the calling thread; more submit one pool
    future per (cell, run). A failed cell keeps its first failing run's error.
    """
    jobs = [(cell, r) for cell in cells for r in range(cfg.runs)]
    workers = min(cfg.workers or _cpus(), len(jobs))
    with _process_pool(workers) if workers > 1 else nullcontext() as pool:
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


def _write_text(path: Path, text: str) -> None:
    _replace_atomically(path, lambda fh: fh.write(text))


# The curve digest: per usable trace file, keyed by the SHA-256 of its bytes,
# the whole reduction of its cell (the runs' finals and the per-generation mean
# and std). ``run`` and ``sweep`` write it, ``analyze`` rewrites it when its
# keys change, and ``analyze`` and ``plot_convergence`` take a cell from its
# row only while the file's bytes still hash to the key, so a rewritten trace
# is parsed again; a size or mtime shortcut would not see a same-size rewrite.

_Reduction = tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]  # (finals, (mean, std))


def _digest_row(sha: bytes, curves: Sequence[np.ndarray]) -> Optional[tuple[bytes, _Reduction]]:
    """``(sha, (finals, (mean, std)))`` of the runs' curves, in run order; None
    if there are none or they differ in length. The trace writer and
    ``_reduce_cell`` both reduce through here."""
    if not curves or len({curve.size for curve in curves}) > 1:
        return None
    matrix = np.vstack(curves)
    # A view of the last column would keep the whole matrix alive.
    return sha, (matrix[:, -1].copy(), summarize(matrix))


def _write_trace_csv(path: Path, traces: Sequence[RunTrace]) -> Optional[tuple[bytes, _Reduction]]:
    """Write the runs' curves; returns the cell's digest row, the one
    ``_reduce_cell`` builds from the file: the SHA-256 of the bytes written
    and the reduction of the values as the file holds them."""
    texts = [[format_sci(value) for value in trace.best_per_generation] for trace in traces]
    lines = ["run,generation,best_so_far"]
    for run_index, values in enumerate(texts, start=1):
        lines.extend(f"{run_index},{gen},{text}" for gen, text in enumerate(values, start=1))
    data = ("\n".join(lines) + "\n").encode()
    _replace_atomically(path, lambda fh: fh.write(data), mode="wb")
    curves = [np.array([float(text) for text in values]) for values in texts]  # as the file holds them
    return _digest_row(hashlib.sha256(data).digest(), curves)


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


def _manifest_payload(cfg: ExperimentConfig, kind: str, cells: Sequence[dict], statuses: dict[int, str]) -> dict:
    """The manifest of a bundle; its grid axes are those of ``cells``, in order."""
    return {
        "format": "rcga-bundle-v1",
        "kind": kind,
        "name": cfg.name,
        "problems": list(dict.fromkeys(c["problem"] for c in cells)),
        "operators": list(dict.fromkeys(c["operator"] for c in cells)),
        "mutations": list(dict.fromkeys(c["mutation"] for c in cells)),
        "mutation_rates": list(cfg.mutation_rates) if kind == "sweep" else None,
        "dimension": cfg.dimension,
        "population_size": cfg.population_size,
        "generations": cfg.generations,
        "runs": cfg.runs,
        "crossover_rate": cfg.crossover.crossover_rate,
        "mutation_rate": None if kind == "sweep" else cfg.mutation_rate,
        "master_seed": cfg.seed,
        "alpha": cfg.alpha,
        "cells": [{**c, "status": statuses[c["index"]]} for c in cells],
    }


def _persist_bundle(cfg: ExperimentConfig, kind: str, cells: Sequence[dict]) -> dict[int, tuple[bytes, _Reduction]]:
    """Write each cell's trace CSV as the cell finishes, then the manifest,
    then the curve digest; returns ``{cell index: digest row}`` for the ok cells."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    statuses, rows = {}, {}
    for cell, payload in _run_cells(cfg, cells):
        if isinstance(payload, str):
            statuses[cell["index"]] = f"failed: {payload}"
        else:
            rows[cell["index"]] = _write_trace_csv(out / cell["file"], payload)
            statuses[cell["index"]] = "ok"
    manifest = _manifest_payload(cfg, kind, cells, statuses)
    _write_text(out / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _write_curve_digest(out / CURVES_NAME, dict(rows.values()), (cfg.runs, cfg.generations))
    return rows


def run_experiment(config_path: Path | str, overrides: Optional[dict] = None) -> Path:
    """Execute the full grid of a config file; returns the bundle directory."""
    cfg = parse_config(config_path, overrides)
    _persist_bundle(cfg, "experiment", experiment_cells(cfg.problems, cfg.operators, cfg.mutations))
    return cfg.output_dir


# ---------------------------------------------------------------------------
# Analysis


def load_manifest(bundle_dir: Path | str) -> dict:
    path = Path(bundle_dir) / MANIFEST_NAME
    if not path.is_file():
        raise FileNotFoundError(f"{bundle_dir}: bundle manifest not found")
    return json.loads(path.read_text())


def _file_sha256(path: Path) -> bytes:
    # In blocks, so that no whole-file buffer is allocated per trace: a
    # re-analysis and its plot hash every trace of the bundle.
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            sha.update(block)
    return sha.digest()


def _reduce_cell(bundle_dir: Path, cell: dict, sha: bytes) -> Optional[tuple[bytes, _Reduction]]:
    """``(sha256, (finals, (mean, std)))`` of one manifest cell's trace file,
    runs in run-id order: the read side's only path from a trace file to
    numbers. None if the trace is empty or its runs differ in length; a
    ``ValueError`` if it no longer hashes to ``sha``, its hash before the
    parse, so a digest row always holds the numbers of the bytes its key
    hashes."""
    path = Path(bundle_dir) / cell["file"]
    runs = read_trace_csv(path)
    if _file_sha256(path) != sha:
        raise ValueError(f"{path}: the file changed while it was read")
    return _digest_row(sha, [runs[r] for r in sorted(runs)])


def _hash_files(paths: Sequence[Path], workers: int) -> list[bytes]:
    """``_file_sha256`` of each path, in order. The paths are split into one
    contiguous part per worker: the calling thread hashes the first and one
    thread each the others, since hashlib releases the GIL while it hashes."""
    n = min(workers, len(paths))
    if n <= 1:
        return list(map(_file_sha256, paths))
    from concurrent.futures import ThreadPoolExecutor

    parts = [paths[k * len(paths) // n:(k + 1) * len(paths) // n] for k in range(n)]
    with ThreadPoolExecutor(n - 1) as threads:
        rest = threads.map(lambda part: list(map(_file_sha256, part)), parts[1:])
        return list(map(_file_sha256, parts[0])) + [sha for part in rest for sha in part]


def _reduce_cells(
    bundle_dir: Path, cells: Sequence[dict], digest: Mapping[bytes, _Reduction]
) -> list[Optional[tuple[bytes, _Reduction]]]:
    """``_reduce_cell`` of each cell, in order; None for a cell that is not
    ``ok`` or whose trace is missing. Each usable trace is hashed on
    ``_cpus()`` threads; one that hashes to a ``digest`` row is taken from
    it, and only the others are parsed, in this process."""
    usable = [i for i, cell in enumerate(cells) if cell["status"] == "ok" and (bundle_dir / cell["file"]).is_file()]
    shas = _hash_files([bundle_dir / cells[i]["file"] for i in usable], _cpus())
    reduced: list[Optional[tuple[bytes, _Reduction]]] = [None] * len(cells)
    for i, sha in zip(usable, shas):
        reduced[i] = (sha, digest[sha]) if sha in digest else _reduce_cell(bundle_dir, cells[i], sha)
    return reduced


def final_bests(bundle_dir: Path, cell: dict) -> Optional[np.ndarray]:
    """Final best objective per run for one ok cell, or None if unusable."""
    [reduced] = _reduce_cells(Path(bundle_dir), [cell], {})
    return None if reduced is None else reduced[1][0]


def _write_curve_digest(path: Path, rows: Mapping[bytes, _Reduction], shape: tuple) -> None:
    """Save ``sha -> (finals, (mean, std))`` as four stacked arrays; rows
    whose (runs, generations) is not ``shape``, the bundle's, are left out,
    so their cells are parsed, and the digest rewritten, at each analysis."""
    rows = {sha: r for sha, r in rows.items() if (r[0].size, r[1][0].size) == shape}
    runs, length = shape if rows else (0, 0)
    arrays = {
        "sha": np.array(list(rows), dtype="S32"),
        "finals": np.array([f for f, _ in rows.values()]).reshape(len(rows), runs),
        "mean": np.array([m for _, (m, _) in rows.values()]).reshape(len(rows), length),
        "std": np.array([s for _, (_, s) in rows.values()]).reshape(len(rows), length),
    }
    _replace_atomically(path, lambda fh: np.savez(fh, **arrays), mode="wb")


def _load_curve_digest(path: Path) -> dict[bytes, _Reduction]:
    """The digest at ``path`` as ``sha -> (finals, (mean, std))``; ``{}`` when
    it is missing, unreadable, mis-shaped or of the format without finals."""
    try:  # np.load does not close a handle it opened when the zip is damaged
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            sha, finals, mean, std = npz["sha"], npz["finals"], npz["mean"], npz["std"]
    except Exception:  # noqa: BLE001
        # A damaged zip fails in many ways (BadZipFile, NotImplementedError,
        # RuntimeError, tokenize errors, ...); each means there is no digest.
        return {}
    shaped = (mean.ndim == finals.ndim == 2 and std.shape == mean.shape
              and sha.shape == mean.shape[:1] == finals.shape[:1])
    if not shaped or sha.dtype != "S32" or any(a.dtype != np.float64 for a in (finals, mean, std)):
        return {}
    # tobytes keeps trailing NUL bytes, which indexing an S32 array strips.
    keys = sha.tobytes()
    return {keys[32 * i:32 * (i + 1)]: (finals[i], (mean[i], std[i])) for i in range(sha.size)}


def operator_name(label: str) -> str:
    """The operator an ``OPERATOR_ALIASES`` label names in any case, else the label upper-cased."""
    kind = OPERATOR_ALIASES.get(label.upper())
    return kind.value if kind else label.upper()


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
    groups; ``control_label`` names the control operator. A group with a
    single run or a non-finite final is left out of its block's tests; its
    summary row still gives the mean and std, and its Dunnett row holds
    dashes. Blocks lacking a usable control or with fewer than two usable
    groups keep their test columns dashed. A block's results depend only on
    its own trace files and alpha: every p is computed, none sampled, so the
    ``mc_seed`` and ``mc_samples`` entries of older manifests are ignored.
    An alpha outside (0, 1), a control the bundle lacks or a sweep bundle
    raises ``ConfigError`` before anything is written.

    A cell whose trace file still hashes to a row of the curve digest
    ``curves.npz``, which ``run`` writes, is taken from that row. The traces
    are hashed on one thread per CPU this process may run on, and the others
    are parsed and reduced in this process. The digest is rewritten, for
    ``plot_convergence`` and the next ``analyze``, when its set of keys
    changed. The statistics and every written byte depend neither
    on the worker count nor on whether the digest was there.
    """
    bundle_dir = Path(bundle_dir)
    manifest = load_manifest(bundle_dir)
    if alpha is None:
        alpha = float(manifest.get("alpha", 0.05))
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha: must lie in (0, 1), got {alpha:g}")
    if manifest.get("kind") == "sweep":
        # Its cells differ only in rate, which the operator blocks cannot tell apart.
        raise ConfigError(f"{bundle_dir}: a sweep bundle is not analysed; its table is sweep.csv")
    control_label = operator_name(control_label)

    cells = manifest["cells"]
    problems = sorted({c["problem"] for c in cells})
    mutations = list(dict.fromkeys(c["mutation"] for c in cells))
    operators = list(dict.fromkeys(c["operator"] for c in cells))
    if control_label not in operators:
        raise ConfigError(f"control: {control_label} is not an operator of this bundle; it has {', '.join(operators)}")

    digest_path = bundle_dir / CURVES_NAME
    stored = _load_curve_digest(digest_path)
    reduced = _reduce_cells(bundle_dir, cells, stored)
    digest = dict(r for r in reduced if r is not None)
    analyses: list[ProblemAnalysis] = []
    for problem in problems:
        for mutation in mutations:
            block = [(c, r) for c, r in zip(cells, reduced) if c["problem"] == problem and c["mutation"] == mutation]
            if not block:
                continue
            by_op = {c["operator"]: None if r is None else r[1][0] for c, r in block}
            groups = [(op, by_op.get(op)) for op in operators if op in by_op]
            usable = [
                SampleGroup(f"{op}-{mutation}", vals)
                for op, vals in groups
                if vals is not None and vals.size >= 2 and np.isfinite(vals).all()
            ]
            report = None
            control_group = f"{control_label}-{mutation}"
            if len(usable) >= 2 and any(g.label == control_group for g in usable):
                report = build_report(usable, control_group, alpha)
            analyses.append(ProblemAnalysis(problem, mutation, report, groups))

    _write_summary_csv(bundle_dir / "summary.csv", analyses, sig_figs)
    _write_dunnett_csv(bundle_dir / "dunnett.csv", analyses, control_label, sig_figs)
    if digest.keys() != stored.keys():  # a row is a pure function of its key
        _write_curve_digest(digest_path, digest, (manifest.get("runs"), manifest.get("generations")))
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
    _write_text(path, "\n".join(lines) + "\n")


def _write_dunnett_csv(path: Path, analyses: Sequence[ProblemAnalysis], control_label: str, sig_figs: int) -> None:
    """One row per group of a block without a report, and per treatment of a
    reported block, in operator order; a treatment left out of the tests gets
    dashes, like every group of an untested block."""
    lines = ["problem,treatment,p_value,flag"]
    for a in analyses:
        outcomes = {o.label: o for o in a.report.dunnett} if a.report else {}
        for op, _ in a.groups:
            if a.report is not None and op == control_label:
                continue
            label = f"{op}-{a.mutation}"
            outcome = outcomes.get(label)
            p_s = "-" if outcome is None or outcome.p_value is None else format_sci(outcome.p_value, sig_figs)
            flag = FLAG_NOT_RUN if outcome is None else outcome.flag
            lines.append(f"{a.problem},{label},{p_s},{flag}")
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Convergence plots


def _write_panel(path: Path, problem: int, x_label: str, y_label: str, series) -> None:
    """Write one problem's SVG panel, titled with the problem's number and name."""
    title = f"Problem {problem}: {benchmarks.REGISTRY[problem].name}"
    _write_text(path, svgplot.render_panel(title, x_label, y_label, series))


def plot_convergence(
    bundle_dir: Path | str,
    problems: Optional[Sequence[int]] = None,
    output: Optional[Path | str] = None,
) -> list[Path]:
    """One SVG panel per problem: mean best-so-far vs generation, +/-1 std band.

    A cell whose trace file hashes to a row of the curve digest that ``run``
    or ``analyze`` left is drawn from that row; any other cell's trace is
    parsed. Both go through ``analyze``'s hashing threads and parse.
    """
    bundle_dir = Path(bundle_dir)
    manifest = load_manifest(bundle_dir)
    out_dir = Path(output) if output else bundle_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    available = sorted({c["problem"] for c in manifest["cells"]})
    wanted = list(problems) if problems else available
    cells = [c for c in manifest["cells"] if c["problem"] in wanted]
    reduced = _reduce_cells(bundle_dir, cells, _load_curve_digest(bundle_dir / CURVES_NAME))

    written: list[Path] = []
    for problem in wanted:
        series = []
        for cell, r in zip(cells, reduced):
            if cell["problem"] == problem and r is not None:
                mean, std = r[1][1]
                series.append(svgplot.Series(cell["label"], np.arange(1, mean.size + 1), mean, std))
        if not series:
            continue
        path = out_dir / f"convergence_p{problem:02d}.svg"
        _write_panel(path, problem, "generation", "best objective (mean of runs)", series)
        written.append(path)
    if not written:
        raise FileNotFoundError(f"{bundle_dir}: no usable traces for problems {wanted}")
    return written


# ---------------------------------------------------------------------------
# Mutation-rate sweep


SWEEP_DEFAULTS = {"problems": "4,5,7,11", "population_size": "100", "generations": "100"}


def mutation_sweep(config_path: Path | str, overrides: Optional[dict] = None) -> Path:
    """PSOX-GM runs across the configured mutation rates; emits sweep.csv and
    panels from the finals of the digest rows the runs' writer returns,
    reading no trace back."""
    cfg = parse_config(config_path, overrides, defaults=SWEEP_DEFAULTS)
    cells = experiment_cells(cfg.problems, (CrossoverKind.PSOX,), (MutationKind.GM,), cfg.mutation_rates)
    rows = _persist_bundle(cfg, "sweep", cells)
    out = cfg.output_dir

    lines = ["rate,problem,mean,std"]
    per_problem: dict[int, list[tuple[float, float, float]]] = {}
    for cell in cells:
        if cell["index"] not in rows:
            lines.append(f"{format_sci(cell['rate'])},{cell['problem']},-,-")
            continue
        mean, std = summarize(rows[cell["index"]][1][0])
        lines.append(f"{format_sci(cell['rate'])},{cell['problem']},{format_sci(mean)},{format_sci(std)}")
        per_problem.setdefault(cell["problem"], []).append((cell["rate"], mean, std))
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")

    for problem, rows in per_problem.items():
        rates, means, stds = zip(*sorted(rows))
        series = [svgplot.Series("PSOX-GM", rates, means, stds)]
        _write_panel(out / f"sweep_p{problem:02d}.svg", problem, "mutation rate", "final best objective (mean)", series)
    return out
