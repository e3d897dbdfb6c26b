"""The bundled config files and failure isolation in the run grid."""
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from rcga import benchmarks
from rcga.experiment import load_manifest, parse_config, read_trace_csv, run_experiment
from rcga.operators import CrossoverKind, MutationKind

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestBundledConfigs:
    def test_experiment1_matches_study_grid(self):
        cfg = parse_config(CONFIG_DIR / "experiment1.cfg")
        assert cfg.problems == tuple(range(1, 16))
        assert len(cfg.operators) == 6
        assert cfg.mutations == (MutationKind.NUM, MutationKind.GM)
        assert (cfg.population_size, cfg.generations, cfg.runs) == (300, 1000, 30)
        assert cfg.crossover.crossover_rate == 0.8 and cfg.mutation_rate == 0.1

    def test_experiment2_convergence_setup(self):
        cfg = parse_config(CONFIG_DIR / "experiment2.cfg")
        assert cfg.problems == (4, 5, 7, 11)
        assert cfg.operators == (CrossoverKind.AX, CrossoverKind.LAPLACE, CrossoverKind.PSOX)
        assert cfg.mutations == (MutationKind.GM,)
        assert (cfg.population_size, cfg.generations, cfg.runs) == (100, 500, 30)

    def test_experiment3_sweep_setup(self):
        cfg = parse_config(CONFIG_DIR / "experiment3.cfg")
        assert cfg.mutation_rates == (0.1, 0.4, 0.7, 1.0)
        assert (cfg.population_size, cfg.generations, cfg.runs) == (100, 100, 30)

    def test_smoke_config_runs_quickly(self, tmp_path):
        start = time.time()
        bundle = run_experiment(CONFIG_DIR / "smoke.cfg", {"output_dir": tmp_path / "b"})
        elapsed = time.time() - start
        manifest = load_manifest(bundle)
        assert [c["status"] for c in manifest["cells"]] == ["ok"]
        traces = read_trace_csv(bundle / manifest["cells"][0]["file"])
        assert sorted(traces) == [1, 2]
        assert elapsed < 5.0

    def test_problems_by_name(self, tmp_path):
        path = tmp_path / "n.cfg"
        path.write_text("problems = Sphere Function, ackley's problem\n")
        cfg = parse_config(path)
        assert cfg.problems == (9, 1)


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the patched objective only when forked",
)


def failure_config(tmp_path: Path, workers: int, problems: str, out: str) -> Path:
    path = tmp_path / f"{out}.cfg"
    path.write_text(
        f"problems = {problems}\noperators = PSOX\nmutations = GM\n"
        f"population_size = 10\ngenerations = 3\nruns = 2\nworkers = {workers}\n"
        f"dimension = 4\nseed = 5\noutput_dir = {tmp_path / out}\n"
    )
    return path


class TestFailureIsolation:
    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_failed_cell_does_not_poison_bundle(self, tmp_path, monkeypatch, workers):
        real = benchmarks.batch_eval

        def flaky(problem_id, X, rng=None):
            if problem_id == 6:
                raise RuntimeError("synthetic evaluation failure")
            return real(problem_id, X, rng=rng)

        monkeypatch.setattr("rcga.engine.benchmarks.batch_eval", flaky)
        bundle = run_experiment(failure_config(tmp_path, workers, "9, 6", "b"))
        manifest = load_manifest(bundle)
        by_problem = {c["problem"]: c for c in manifest["cells"]}
        assert by_problem[9]["status"] == "ok"
        assert by_problem[6]["status"] == "failed: run 1: synthetic evaluation failure"
        assert (bundle / by_problem[9]["file"]).is_file()
        assert not (bundle / by_problem[6]["file"]).exists()

    @needs_fork
    def test_crashed_worker_keeps_finished_cells(self, tmp_path, monkeypatch):
        reference = run_experiment(failure_config(tmp_path, 1, "9, 6, 1, 12", "ref"))
        real = benchmarks.batch_eval
        test_pid = os.getpid()

        def crashing(problem_id, X, rng=None):
            if problem_id == 6:
                if os.getpid() == test_pid:
                    raise AssertionError("the crash must happen in a pool worker")
                os._exit(3)
            return real(problem_id, X, rng=rng)

        monkeypatch.setattr("rcga.engine.benchmarks.batch_eval", crashing)
        bundle = run_experiment(failure_config(tmp_path, 2, "9, 6, 1, 12", "b"))
        manifest = load_manifest(bundle)
        for cell in manifest["cells"]:
            path = bundle / cell["file"]
            if cell["problem"] == 6 or cell["status"] != "ok":
                assert cell["status"].startswith("failed: run ")
                assert not path.exists()
            else:
                assert path.read_bytes() == (reference / cell["file"]).read_bytes()
