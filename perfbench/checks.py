"""Output checks. Each check counts as attempted; a false one counts as failed."""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from rcga.experiment import load_manifest, read_trace_csv

FLAGS = {"+", "~", "-"}


class Checks:
    """Tally of attempted and failed checks, keeping the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)


def check_curves(checks: Checks, runs: dict[int, np.ndarray], n_runs: int, generations: int, optimum: float, label: str):
    """Row count, monotone best-so-far, and no value below the registered optimum."""
    rows = sum(curve.size for curve in runs.values())
    checks.check(
        sorted(runs) == list(range(1, n_runs + 1)) and rows == n_runs * generations,
        f"{label}: {rows} trace rows in runs {sorted(runs)[:3]}..., expected {n_runs} x {generations}",
    )
    for run, curve in runs.items():
        checks.check(bool(np.all(np.diff(curve) <= 0.0)), f"{label} run {run}: best-so-far increases")
        checks.check(bool(np.all(curve >= optimum)), f"{label} run {run}: best-so-far below the optimum {optimum}")


def check_bundle(checks: Checks, bundle: Path, n_cells: int, optima: dict[int, float]) -> dict:
    """Manifest statuses and every trace of a bundle written by the harness; returns the manifest."""
    manifest = load_manifest(bundle)
    cells = manifest["cells"]
    checks.check(len(cells) == n_cells, f"{bundle.name}: {len(cells)} cells, expected {n_cells}")
    for cell in cells:
        if not checks.check(cell["status"] == "ok", f"{cell['file']}: status {cell['status']!r}"):
            continue
        check_curves(checks, read_trace_csv(bundle / cell["file"]), manifest["runs"],
                     manifest["generations"], optima[cell["problem"]], cell["file"])
    return manifest


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_analysis(checks: Checks, bundle: Path, plots: Path, n_problems: int, n_operators: int, n_mutations: int):
    """Row counts and flags of summary.csv and dunnett.csv, and one SVG per problem."""
    summary = _rows(bundle / "summary.csv")
    checks.check(len(summary) == n_problems * n_operators * n_mutations,
                 f"summary.csv: {len(summary)} rows, expected {n_problems * n_operators * n_mutations}")
    checks.check(all(row["kw_flag"] in FLAGS for row in summary), "summary.csv: kw_flag outside {+, ~, -}")
    dunnett = _rows(bundle / "dunnett.csv")
    blocks = n_problems * n_mutations
    # A block whose omnibus test ran lists the treatments; one without lists every operator.
    checks.check(blocks * (n_operators - 1) <= len(dunnett) <= blocks * n_operators,
                 f"dunnett.csv: {len(dunnett)} rows for {blocks} blocks of {n_operators} operators")
    checks.check(all(row["flag"] in FLAGS for row in dunnett), "dunnett.csv: flag outside {+, ~, -}")
    svgs = sorted(plots.glob("convergence_p*.svg"))
    checks.check(len(svgs) == n_problems, f"{len(svgs)} convergence SVGs, expected {n_problems}")
