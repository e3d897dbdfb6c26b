"""The bundled config files and failure isolation in the run grid."""
import time
from pathlib import Path

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


class TestFailureIsolation:
    def test_failed_cell_does_not_poison_bundle(self, tmp_path, monkeypatch):
        real = benchmarks.batch_eval

        def flaky(problem_id, X, rng=None):
            if problem_id == 6:
                raise RuntimeError("synthetic evaluation failure")
            return real(problem_id, X, rng=rng)

        monkeypatch.setattr("rcga.engine.benchmarks.batch_eval", flaky)
        path = tmp_path / "c.cfg"
        path.write_text(
            "problems = 9, 6\noperators = PSOX\nmutations = GM\n"
            "population_size = 10\ngenerations = 3\nruns = 2\nworkers = 1\n"
            f"dimension = 4\nseed = 5\noutput_dir = {tmp_path / 'b'}\n"
        )
        bundle = run_experiment(path)
        manifest = load_manifest(bundle)
        by_problem = {c["problem"]: c for c in manifest["cells"]}
        assert by_problem[9]["status"] == "ok"
        assert by_problem[6]["status"].startswith("failed:")
        assert (bundle / by_problem[9]["file"]).is_file()
        assert not (bundle / by_problem[6]["file"]).exists()
