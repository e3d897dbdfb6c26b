"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup`` (timed, and
repeated to take a median), and has a unit of work that the closed loop
repeats: one call into the library's public API, timed, followed by output
checks outside the timed region. Every unit of a run uses the same inputs.
``traced`` runs one untraced and one traced unit on the same inputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import bundle as synthetic
from checks import Checks, check_analysis, check_bundle, check_curves
from rcga.benchmarks import benchmark_spec
from rcga.engine import GaConfig, run_ga
from rcga.experiment import analyze, final_bests, plot_convergence, run_experiment
from rcga.operators import CrossoverConfig, CrossoverKind, MutationConfig, MutationKind
from tracing import Tracer, instrument, layer_metrics

POOL_WORKERS = min(2, os.cpu_count() or 1)
ERROR_FLOOR = 1e-300  # log10 of a zero error reads as -300
TARGET = 1e-20  # criterion 4's accuracy on Sphere


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.checks = Checks()

    def setup(self, repeat: int) -> None:
        raise NotImplementedError

    def unit(self, index: int, tracer=None, in_process: bool = False) -> dict:
        """One timed call into the library, then its output checks."""
        raise NotImplementedError

    def report(self, units: list[dict]) -> dict[str, tuple[float, str]]:
        """Printed end-to-end metrics of a closed-loop run, name -> (value, unit)."""
        raise NotImplementedError

    def children(self) -> int:
        """Offspring one unit produces."""
        return 0

    def pool_metrics(self) -> dict[str, float]:
        """Numbers only an untraced run through the process pool gives."""
        return {"experiment.pool_busy_share": 0.0, "experiment.bundle_bytes": 0}

    def check_traced(self, tracer: Tracer) -> None:
        """Checks that need the traced unit's counts."""

    def traced(self) -> tuple[dict[str, float], Tracer]:
        """Per-layer metrics and their spans: the same unit untraced, traced, then untraced again.

        The traced unit is compared with the mean of the two untraced units
        around it, so a host whose speed drifts linearly over the three
        units does not show up as tracing overhead.
        """
        metrics = self.pool_metrics()
        before = self.unit(1, in_process=True)
        tracer = Tracer()
        instrument(tracer)
        try:
            traced = self.unit(2, tracer, in_process=True)
        finally:
            tracer.restore()
        after = self.unit(3, in_process=True)
        self.check_traced(tracer)
        metrics.update(layer_metrics(tracer, self.children()))
        base = (before["wall_s"] + after["wall_s"]) / 2
        metrics["trace.overhead_share"] = traced["wall_s"] / base - 1.0
        return metrics, tracer


class DeskGrid(Workload):
    """``run_experiment`` on a desk-population grid through the process pool."""

    name = "desk_grid"
    problems = (1, 3, 5, 9, 14)
    operators = ("AX", "FX", "BLX_ALPHA", "SBX", "LAPLACE", "PSOX")
    mutations = ("NUM", "GM")
    population = 100
    generations = 20
    runs = 1

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.config = work / "desk.cfg"
        self.n_cells = len(self.problems) * len(self.operators) * len(self.mutations)
        self.optima = {p: benchmark_spec(p, dimension=30).optimum_value for p in self.problems}

    def setup(self, repeat: int) -> None:
        entries = {
            "name": "desk_grid",
            "problems": ", ".join(map(str, self.problems)),
            "dimension": 30,
            "operators": ", ".join(self.operators),
            "mutations": ", ".join(self.mutations),
            "population_size": self.population,
            "generations": self.generations,
            "runs": self.runs,
            "crossover_rate": 0.8,
            "mutation_rate": 0.1,
            "seed": self.seed,
            "workers": POOL_WORKERS,
        }
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))

    def children(self) -> int:
        return self.n_cells * self.runs * self.population * self.generations

    def unit(self, index: int, tracer=None, in_process: bool = False) -> dict:
        # Spans recorded in forked pool workers do not come back, so the
        # traced unit and its untraced baseline run the cells in-process.
        workers = 1 if in_process else POOL_WORKERS
        out = self.work / f"desk-{index}"
        overrides = {"output_dir": out, "workers": workers}
        cpu0 = _child_cpu_s()
        start = time.perf_counter()
        with _span(tracer, "experiment.run_experiment"):
            run_experiment(self.config, overrides)
        wall = time.perf_counter() - start
        busy = (_child_cpu_s() - cpu0) / (workers * wall)

        manifest = check_bundle(self.checks, out, self.n_cells, self.optima)
        errors = []
        for cell in manifest["cells"]:
            finals = final_bests(out, cell)
            if finals is not None:
                errors.extend(np.maximum(finals - self.optima[cell["problem"]], ERROR_FLOOR))
        files = [out / cell["file"] for cell in manifest["cells"]]
        result = {
            "wall_s": wall,
            "pool_busy_share": busy,
            "bundle_bytes": sum(p.stat().st_size for p in out.iterdir()),
            "error_log10": float(np.median(np.log10(errors))) if errors else float("nan"),
            "digest": _digest(files),
        }
        shutil.rmtree(out)
        return result

    def report(self, units):
        wall = statistics.median(u["wall_s"] for u in units)
        return {
            "wall_s": (wall, "s"),
            "children_per_s": (self.children() / wall, "1/s"),
            "final_error_log10_median": (units[0]["error_log10"], "log10"),
            "pool_busy_share": (statistics.median(u["pool_busy_share"] for u in units), "share"),
        }

    def pool_metrics(self):
        pool = self.unit(0)
        return {"experiment.pool_busy_share": pool["pool_busy_share"], "experiment.bundle_bytes": pool["bundle_bytes"]}

    def check_traced(self, tracer):
        evaluated = self.n_cells * self.runs * self.population * (self.generations + 1)
        counted = tracer.work.get("benchmarks.batch_eval")
        self.checks.check(counted == evaluated, f"evaluations {counted}, expected {evaluated}")


class PaperSphere(Workload):
    """In-process ``run_ga`` of the criterion-4 headline config."""

    name = "paper_sphere"
    population = 300
    generations = 1000

    def setup(self, repeat: int) -> None:
        self.config = GaConfig(
            objective=benchmark_spec(9, dimension=30),
            population_size=self.population,
            generations=self.generations,
            crossover=CrossoverConfig(kind=CrossoverKind.PSOX, crossover_rate=0.8),
            mutation=MutationConfig(kind=MutationKind.GM, per_gene_rate=0.1 / 30),
            seed=self.seed,
        )

    def children(self) -> int:
        return self.population * self.generations

    def unit(self, index: int, tracer=None, in_process: bool = False) -> dict:
        stamps: list[float] = []
        same_slot = []

        def audit(parent: int, partner: int) -> None:
            if parent == partner or not 0 <= partner < self.population:
                same_slot.append((parent, partner))

        start = time.perf_counter()
        with _span(tracer, "engine.run_ga"):
            trace = run_ga(self.config, on_generation=lambda state: stamps.append(time.perf_counter()),
                           psox_audit=audit if tracer else None)
        wall = time.perf_counter() - start

        best = trace.best_per_generation
        check_curves(self.checks, {1: best}, 1, self.generations, 0.0, "paper_sphere")
        expected = self.population * (self.generations + 1)
        self.checks.check(trace.evaluations == expected, f"evaluations {trace.evaluations}, expected {expected}")
        if tracer:
            self.checks.check(not same_slot, f"PSOX partner equals its parent: {same_slot[:3]}")
        hits = np.flatnonzero(best <= TARGET)
        return {
            "wall_s": wall,
            "time_to_target_s": stamps[hits[0]] - start if hits.size else float("nan"),
            "digest": hashlib.sha256(best.tobytes()).hexdigest(),
        }

    def report(self, units):
        wall = statistics.median(u["wall_s"] for u in units)
        return {
            "wall_s": (wall, "s"),
            "children_per_s": (self.children() / wall, "1/s"),
            "time_to_target_s": (statistics.median(u["time_to_target_s"] for u in units), "s"),
        }


class AnalyzeBundle(Workload):
    """``analyze`` then ``plot_convergence`` on a synthetic paper-shape bundle."""

    name = "analyze_bundle"

    def setup(self, repeat: int) -> None:
        if repeat:
            shutil.rmtree(self.bundle)
        self.bundle = self.work / f"bundle-{repeat}"
        self.expected = synthetic.write_bundle(self.bundle, self.seed)
        self.bundle_checked = False

    def rows(self) -> int:
        return len(self.expected["finals"]) * synthetic.RUNS * synthetic.GENERATIONS

    def unit(self, index: int, tracer=None, in_process: bool = False) -> dict:
        plots = self.work / f"plots-{index}"
        start = time.perf_counter()
        with _span(tracer, "experiment.analyze"):
            analyses = analyze(self.bundle)
        with _span(tracer, "experiment.plot_convergence"):
            plot_convergence(self.bundle, output=plots)
        wall = time.perf_counter() - start

        if not self.bundle_checked:
            n_cells = len(self.expected["finals"])
            check_bundle(self.checks, self.bundle, n_cells, self.expected["optima"])
            self.bundle_checked = True
        check_analysis(self.checks, self.bundle, plots, len(synthetic.PROBLEMS),
                       len(synthetic.OPERATORS), len(synthetic.MUTATIONS))
        finals = self.expected["finals"]
        for a in analyses:
            for operator, values in a.groups:
                name = synthetic.trace_filename(a.problem, operator, a.mutation)
                self.checks.check(values is not None and np.array_equal(values, finals[name]),
                                  f"{name}: final values read back differ from those written")
            planted = self.expected["planted"][(a.problem, a.mutation)]
            self.checks.check(not planted or (a.report is not None and a.report.kw_flag == "+"),
                              f"problem {a.problem} {a.mutation}: planted gap not detected")
        result = {
            "wall_s": wall,
            "digest": _digest([self.bundle / "summary.csv", self.bundle / "dunnett.csv"]),
        }
        shutil.rmtree(plots)
        return result

    def report(self, units):
        wall = statistics.median(u["wall_s"] for u in units)
        return {"wall_s": (wall, "s"), "rows_per_s": (self.rows() / wall, "1/s")}


WORKLOADS = {w.name: w for w in (DeskGrid, PaperSphere, AnalyzeBundle)}
