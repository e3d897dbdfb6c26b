import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from rcga import experiment
from rcga.cli import main
from rcga.engine import RunTrace
from rcga.experiment import (
    CURVES_NAME,
    SWEEP_DEFAULTS,
    _CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    _load_curve_digest,
    _write_curve_digest,
    _write_trace_csv,
    analyze,
    experiment_cells,
    final_bests,
    format_sci,
    ga_config_for,
    load_manifest,
    mutation_sweep,
    parse_config,
    plot_convergence,
    read_trace_csv,
    run_experiment,
)
from rcga.operators import CrossoverKind, MutationKind

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_config(path: Path, **overrides) -> Path:
    base = {
        "name": "toy",
        "problems": "9",
        "dimension": "4",
        "operators": "PSOX, AX",
        "mutations": "GM",
        "population_size": "16",
        "generations": "8",
        "runs": "3",
        "seed": "11",
        "workers": "1",
        "output_dir": str(path.parent / "bundle"),
    }
    base.update({k: str(v) for k, v in overrides.items()})
    lines = [f"{k} = {v}" for k, v in base.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def fail_problem(monkeypatch, problem: int) -> None:
    """Make every evaluation of ``problem`` raise, in this process only."""
    real = experiment.benchmarks.batch_eval

    def flaky(problem_id, X, rng=None):
        if problem_id == problem:
            raise RuntimeError("synthetic evaluation failure")
        return real(problem_id, X, rng=rng)

    monkeypatch.setattr("rcga.engine.benchmarks.batch_eval", flaky)


def manifest_sha256(bundle: Path) -> str:
    return hashlib.sha256((bundle / "manifest.json").read_bytes()).hexdigest()


# Per operator key: a valid non-default value, then a value the config must reject.
OPERATOR_VALUES = {
    "ax_alpha": (0.3, "half"),
    "blx_alpha": (0.25, 1),
    "sbx_eta": (5.0, 0),
    "laplace_a": (0.1, "none"),
    "laplace_b": (0.3, -1),
    "psox_w": (0.5, "w"),
    "psox_c1": (1.2, "c1"),
    "psox_c2": (1.7, "c2"),
    "crossover_rate": (0.7, 1.5),
    "gm_sigma_fraction": (0.1, 0),
    "num_b": (3.0, 0),
}
OPERATOR_KEYS = sorted(key for key, (target, _) in _CONFIG_KEYS.items() if target != "experiment")


# SHA-256 of each trace CSV of a problem 5 (chained) and 12 (noisy) x six operators x NUM/GM grid at
# n = 6, an odd population of 9 (SBX and LX drop a child), 5 generations, 2 runs and mutation_rate 1.0.
PINNED_TRACES = {
    "trace_p05_AX_GM.csv": "ffece0cc1ad39a7fc6f4b91521b1817eec9e09f603fa0362773694ae5af109b3",
    "trace_p05_AX_NUM.csv": "61316cd6702a7c15e8e7912195f85a9d3fa755eea49c79f4465968a37963eba0",
    "trace_p05_BLX_ALPHA_GM.csv": "e93711ff59a03c9119db7fe437ad356f9faca85efadf9b091589e4b46346d5e5",
    "trace_p05_BLX_ALPHA_NUM.csv": "eda856ea4df6db4f17ec695a24eec115ade3313ca704c154bfa6be856ee05cc8",
    "trace_p05_FX_GM.csv": "87639e80255d69fdd0ac756fd4c456d240f3d3d042237cdc85b451d1e8cfdcb9",
    "trace_p05_FX_NUM.csv": "14ae27890a4bac25f6c78372513104e3ee20faf5c0ad50b514fc3a728f50a480",
    "trace_p05_LAPLACE_GM.csv": "f9757210c213bc512eea0c6ba10ab38c151a91665213360eee4a27b8d7b2918c",
    "trace_p05_LAPLACE_NUM.csv": "0d751332166d80c1906b7f19ed02bf80dac4020febeb6736cd7ecf958f44b301",
    "trace_p05_PSOX_GM.csv": "8d892ea041e3c6a0e8915bb7e88fd3e899fea9d9bbdd382399d8c6ab8fc32c49",
    "trace_p05_PSOX_NUM.csv": "9dbf8a4aefafe8182b0d52997170b284b01ee1342a94e61d4e03e8ca255df10b",
    "trace_p05_SBX_GM.csv": "5dcd8b3ffb2a57168d03b075923ef9fa5325863cf388e65a023f0b6fc936a823",
    "trace_p05_SBX_NUM.csv": "e9eb2ff6a06b05b1548e6198e0f8580adfa613ee04ad220e5bc34daf9d60e9c9",
    "trace_p12_AX_GM.csv": "387df4cf10cd486fc521209fd163544940665fccf524b0fc9ace181475b9d9ee",
    "trace_p12_AX_NUM.csv": "39dc84c9892f2583d9374c4b8f7d308a49af134a5768485cdd9e9ffd5528e977",
    "trace_p12_BLX_ALPHA_GM.csv": "9098f022d19d77eb3bb57b7e91bf40c7bb42f8973df87822dd8fa020ad1174bb",
    "trace_p12_BLX_ALPHA_NUM.csv": "61443e64bfb5162648ba9c3bbf41c4abaacd0de6f96011db01409b28cb3e7bcb",
    "trace_p12_FX_GM.csv": "c778cb680a9ab0d77159a1501d2a17b645b0ce9ce38fe06974267ef027cd4134",
    "trace_p12_FX_NUM.csv": "1077fbaa6c69940df3a57d8977f7041ee0d87eb3369d6501772aae68c5efe6ad",
    "trace_p12_LAPLACE_GM.csv": "8e4f429b3a582c2dfc28564e2ac6c072d35bcafc21f50d9a950336d6853cf58a",
    "trace_p12_LAPLACE_NUM.csv": "38140eee085c67d4571149439c846b1697e70c7410269a698a62a578c0e7ae07",
    "trace_p12_PSOX_GM.csv": "73337ec50ffe79718bca607e635c23b5a68d4155459e8ddbcc0174039a46377e",
    "trace_p12_PSOX_NUM.csv": "b4ea605735497ad52b6d054157a7a059bc8c9d21f2274247660a703cb3accf6e",
    "trace_p12_SBX_GM.csv": "96b6c5820631f9f738602af8bbee31d20e02f7bbbfffd33ede74156be6694a9b",
    "trace_p12_SBX_NUM.csv": "5e80296ffbd5c82d3e3a7932ead037b4382a2a0b9a28bf4f55d1290280d5e5e9",
}


class TestFormat:
    def test_six_significant_digits(self):
        assert format_sci(123456.789) == "1.23457E+05"
        assert format_sci(0.0) == "0.00000E+00"
        assert format_sci(-1.5e-300) == "-1.50000E-300"

    def test_paper_style_two_digits(self):
        assert format_sci(1.7, sig=2) == "1.7E+00"
        assert format_sci(6.8e-16, sig=2) == "6.8E-16"


class TestParseConfig:
    def test_full_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "a.cfg"))
        assert cfg.name == "toy"
        assert cfg.problems == (9,)
        assert cfg.operators == (CrossoverKind.PSOX, CrossoverKind.AX)
        assert cfg.mutations == (MutationKind.GM,)
        assert cfg.population_size == 16 and cfg.runs == 3

    def test_problem_ranges_and_lists(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "a.cfg", problems="1-3, 7, 9"))
        assert cfg.problems == (1, 2, 3, 7, 9)

    def test_scale_preset_with_explicit_override(self, tmp_path):
        path = tmp_path / "a.cfg"
        write_config(path, scale="desk")
        cfg = parse_config(path)
        # Explicit keys in the file win over the preset triple.
        assert (cfg.population_size, cfg.generations, cfg.runs) == (16, 8, 3)
        stripped = "\n".join(
            line for line in path.read_text().splitlines()
            if not line.startswith(("population_size", "generations", "runs"))
        )
        path.write_text(stripped + "\n")
        cfg = parse_config(path)
        assert (cfg.population_size, cfg.generations, cfg.runs) == (100, 300, 10)

    @pytest.mark.parametrize("scale, sizes", [("paper", (300, 1000, 30)), ("desk", (100, 300, 10))])
    def test_scale_preset_wins_over_the_sweep_defaults(self, tmp_path, scale, sizes):
        path = tmp_path / "s.cfg"
        path.write_text("name = s\nproblems = 9\nmutation_rates = 0.1, 1.0\n")
        cfg = parse_config(path, {"scale": scale}, defaults=SWEEP_DEFAULTS)
        assert (cfg.population_size, cfg.generations, cfg.runs) == sizes
        assert (parse_config(path, defaults=SWEEP_DEFAULTS).generations, cfg.problems) == (100, (9,))
        # A key the file sets still wins over the preset, and an override over both.
        path.write_text(path.read_text() + "generations = 7\nruns = 4\n")
        cfg = parse_config(path, {"scale": scale}, defaults=SWEEP_DEFAULTS)
        assert (cfg.population_size, cfg.generations, cfg.runs) == (sizes[0], 7, 4)
        cfg = parse_config(path, {"scale": scale, "runs": 2}, defaults=SWEEP_DEFAULTS)
        assert (cfg.population_size, cfg.generations, cfg.runs) == (sizes[0], 7, 2)

    def test_operator_aliases(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "a.cfg", operators="LX, BLX-alpha"))
        assert cfg.operators == (CrossoverKind.LAPLACE, CrossoverKind.BLX_ALPHA)

    def test_unknown_key_diagnostic(self, tmp_path):
        # The operator-config fields the harness sets per cell are not keys either,
        # nor are the removed PSOX scalar-draw and per-individual mutation options.
        for key in ("bogus_key", "kind", "per_gene_rate", "crossover", "mutation",
                    "psox_per_gene_draws", "individual_rate"):
            path = write_config(tmp_path / "a.cfg")
            path.write_text(path.read_text() + f"{key} = 3\n")
            with pytest.raises(ConfigError, match=rf"{key}: unknown key"):
                parse_config(path)

    def test_bad_value_diagnostic_carries_field_path(self, tmp_path):
        path = write_config(tmp_path / "a.cfg", runs="0")
        with pytest.raises(ConfigError, match=r"a\.cfg: runs: must be >= 1"):
            parse_config(path)

    def test_unknown_operator_diagnostic(self, tmp_path):
        path = write_config(tmp_path / "a.cfg", operators="WAT")
        with pytest.raises(ConfigError, match=r"operators: unknown operator 'WAT'"):
            parse_config(path)

    @pytest.mark.parametrize("key, what", [("operators", "operator"), ("mutations", "mutation")])
    def test_empty_grid_list_diagnostic(self, tmp_path, key, what):
        path = write_config(tmp_path / "a.cfg", **{key: ""})
        with pytest.raises(ConfigError, match=rf"a\.cfg: {key}: unknown {what} ''"):
            parse_config(path)

    def test_reversed_problem_range_rejected(self, tmp_path):
        path = write_config(tmp_path / "a.cfg", problems="5-3, 9")
        with pytest.raises(ConfigError, match=r"a\.cfg: problems: reversed range 5-3"):
            parse_config(path)

    @pytest.mark.parametrize("key, value, message", [
        ("selection_k", 0, "must be >= 1"),
        ("elitism", -1, r"must lie in \[0, population_size\]"),
        ("elitism", 17, r"must lie in \[0, population_size\]"),  # population_size is 16
        ("population_size", 1, "must be >= 2"),
        ("generations", 0, "must be >= 1"),
        ("dimension", 1, r"must be >= 2 \(chained benchmarks need two genes\)"),
        ("mutation_rate", -0.1, r"must lie in \[0, 1\]"),
        ("mutation_rate", 1.5, r"must lie in \[0, 1\]"),
        ("alpha", 0.0, r"must lie in \(0, 1\)"),
        ("alpha", 1.0, r"must lie in \(0, 1\)"),
        ("seed", -1, "must be non-negative"),
    ], ids=[
        "selection_k_zero", "elitism_negative", "elitism_above_population", "population_size_one",
        "generations_zero", "dimension_one", "mutation_rate_negative", "mutation_rate_above_one",
        "alpha_zero", "alpha_one", "seed_negative",
    ])
    def test_selection_parameter_out_of_range_rejected(self, tmp_path, capsys, key, value, message):
        path = write_config(tmp_path / "a.cfg", **{key: value})
        with pytest.raises(ConfigError, match=rf"a\.cfg: {key}: {message}"):
            parse_config(path)
        assert main(["run", str(path)]) == 2
        assert f"a.cfg: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    def test_mc_samples_is_an_unknown_key(self, tmp_path):
        # The Dunnett p is computed, not sampled, so no key sets a sample count.
        path = write_config(tmp_path / "a.cfg", mc_samples=100_000)
        with pytest.raises(ConfigError, match=r"^.*a\.cfg: mc_samples: unknown key$"):
            parse_config(path)

    def test_direct_construction_checks_every_range(self):
        for key, bad, message in [
            ("runs", 0, "must be >= 1"),
            ("population_size", 1, "must be >= 2"),
            ("generations", 0, "must be >= 1"),
            ("dimension", 1, "must be >= 2 (chained benchmarks need two genes)"),
            ("mutation_rate", 1.5, "must lie in [0, 1]"),
            ("alpha", 1.0, "must lie in (0, 1)"),
            ("selection_k", 0, "must be >= 1"),
            ("elitism", 301, "must lie in [0, population_size]"),  # population_size is 300
            ("seed", -1, "must be non-negative"),
            ("workers", -1, "must be >= 0"),
        ]:
            with pytest.raises(ValueError) as caught:
                ExperimentConfig(name="x", problems=(9,), **{key: bad})
            assert str(caught.value) == f"{key}: {message}"

    @pytest.mark.parametrize("key, value, repeat", [
        ("problems", "1-3, 2", "problem 2"),
        ("operators", "PSOX, LX, LAPLACE", "operator LAPLACE"),
        ("mutations", "NUM, GM, gm", "mutation GM"),
        ("mutation_rates", "0.5, 0.1, 0.5000001", "rate 0.5"),  # same {rate:g}, same trace file
    ], ids=["problems", "operators", "mutations", "mutation_rates"])
    def test_repeated_grid_entry_rejected(self, tmp_path, key, value, repeat):
        path = write_config(tmp_path / "a.cfg", **{key: value})
        with pytest.raises(ConfigError, match=rf"a\.cfg: {key}: {repeat} is listed twice"):
            parse_config(path)

    @pytest.mark.parametrize("key", OPERATOR_KEYS)
    def test_operator_key_reaches_engine_config(self, tmp_path, key):
        good, bad = OPERATOR_VALUES[key]
        cfg = parse_config(write_config(tmp_path / "a.cfg", **{key: good}))
        target = _CONFIG_KEYS[key][0]
        for cell in experiment_cells(cfg.problems, cfg.operators, cfg.mutations):
            params = getattr(ga_config_for(cfg, cell, 0), target)
            assert getattr(params, key) == good != getattr(type(params)(), key)
        with pytest.raises(ConfigError, match=rf"a\.cfg: {key}"):
            parse_config(write_config(tmp_path / "a.cfg", **{key: bad}))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", OPERATOR_KEYS)
    def test_non_finite_operator_value_rejected(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path / "a.cfg", **{key: value})
        with pytest.raises(ConfigError, match=rf"a\.cfg: {key} must be finite"):
            parse_config(path)
        assert main(["run", str(path)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    def test_repeated_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path / "a.cfg")  # seed is on line 9 of 11
        path.write_text(path.read_text() + "SEED = 4\n")
        with pytest.raises(ConfigError, match=r"a\.cfg: seed: given twice, on lines 9 and 12$"):
            parse_config(path)
        assert main(["run", str(path)]) == 2
        assert "seed: given twice, on lines 9 and 12" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    def test_missing_problems_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("name = x\n")
        with pytest.raises(ConfigError, match="problems"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "none.cfg")


class TestSeedDerivation:
    def test_cell_run_seeds_are_disjoint_ladder(self):
        cfg = ExperimentConfig(name="x", problems=(9, 6), runs=5, seed=100, dimension=4)
        c0, c1 = experiment_cells((9, 6), (CrossoverKind.AX,), (MutationKind.GM,))
        assert ga_config_for(cfg, c0, 0).seed == 100
        assert ga_config_for(cfg, c0, 4).seed == 104
        assert ga_config_for(cfg, c1, 0).seed == 105

    def test_mutation_rate_maps_to_per_gene(self):
        cfg = ExperimentConfig(name="x", problems=(9,), dimension=30, mutation_rate=0.1)
        [cell] = experiment_cells((9,), (CrossoverKind.PSOX,), (MutationKind.GM,))
        ga = ga_config_for(cfg, cell, 0)
        assert ga.mutation.per_gene_rate == pytest.approx(0.1 / 30)


class TestWorkerCount:
    """The ``workers`` key sizes the run's pool; 0 takes the CPUs the process
    may run on, which ``analyze`` and ``plot`` also hash on."""

    def test_cpus_are_the_affinity_set_else_the_cpu_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert experiment._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert experiment._cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert experiment._cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiment._cpus() == 1

    @pytest.mark.parametrize("workers, cpus, pools", [("0", 1, []), ("0", 2, [2]), ("3", 1, [3])],
                             ids=["zero_on_one_cpu", "zero_on_two_cpus", "key_on_one_cpu"])
    def test_pool_size(self, tmp_path, monkeypatch, workers, cpus, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        started = []
        start_pool = experiment._process_pool
        monkeypatch.setattr(experiment, "_process_pool", lambda n: started.append(n) or start_pool(n))
        bundle = run_experiment(write_config(tmp_path / "a.cfg", workers=workers))  # 2 cells x 3 runs
        assert started == pools
        assert [c["status"] for c in load_manifest(bundle)["cells"]] == ["ok", "ok"]


class TestRunExperiment:
    def test_smoke_bundle_layout(self, tmp_path):
        bundle = run_experiment(write_config(tmp_path / "a.cfg"))
        manifest = load_manifest(bundle)
        assert manifest["kind"] == "experiment"
        assert [c["status"] for c in manifest["cells"]] == ["ok", "ok"]
        for cell in manifest["cells"]:
            runs = read_trace_csv(bundle / cell["file"])
            assert sorted(runs) == [1, 2, 3]
            assert all(curve.size == 8 for curve in runs.values())
            for curve in runs.values():
                assert np.all(np.diff(curve) <= 0.0)

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path / "a.cfg")
        bundle = run_experiment(path)
        first = {f.name: f.read_bytes() for f in sorted(bundle.glob("*.csv"))}
        bundle = run_experiment(path)
        second = {f.name: f.read_bytes() for f in sorted(bundle.glob("*.csv"))}
        assert first == second

    def test_parallel_matches_sequential(self, tmp_path):
        seq = run_experiment(write_config(tmp_path / "a.cfg", output_dir=tmp_path / "seq", workers=1))
        par = run_experiment(write_config(tmp_path / "b.cfg", output_dir=tmp_path / "par", workers=2))
        for f in sorted(seq.glob("*.csv")):
            assert f.read_bytes() == (par / f.name).read_bytes()

    def test_manifest_bytes_with_a_failed_cell_are_pinned(self, tmp_path, monkeypatch):
        fail_problem(monkeypatch, 6)
        bundle = run_experiment(write_config(tmp_path / "a.cfg", problems="9, 6"))
        failed = "failed: run 1: synthetic evaluation failure"
        assert [c["status"] for c in load_manifest(bundle)["cells"]] == ["ok", "ok", failed, failed]
        assert manifest_sha256(bundle) == "6cb62a62820d0e060fde953b6e28d8b55725d7fab2192ae214f2193ab93a3803"

    def test_trace_bytes_are_pinned(self, tmp_path):
        bundle = run_experiment(write_config(
            tmp_path / "a.cfg", problems="5, 12", operators="AX, FX, BLX_ALPHA, SBX, LAPLACE, PSOX",
            mutations="NUM, GM", dimension=6, population_size=9, generations=5, runs=2, mutation_rate=1.0))
        written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in bundle.glob("trace_*.csv")}
        assert written == PINNED_TRACES


def trace(values) -> RunTrace:
    return RunTrace(np.asarray(values, dtype=float), np.zeros(2), float(values[-1]), len(values))


class TestReadTraceCsv:
    HEADER = "run,generation,best_so_far\n"

    def read(self, tmp_path, body: str):
        path = tmp_path / "t.csv"
        path.write_text(self.HEADER + body)
        return read_trace_csv(path)

    def test_roundtrip_with_non_finite_values(self, tmp_path):
        curves = [[np.inf, 3.5, -1.25e-300], [np.nan, -np.inf, 0.0, 2.0]]
        path = tmp_path / "t.csv"
        _write_trace_csv(path, [trace(c) for c in curves])
        assert {"INF", "-INF", "NAN"} <= set(path.read_text().replace("\n", ",").split(","))
        runs = read_trace_csv(path)
        assert list(runs) == [1, 2]
        for got, want in zip(runs.values(), curves):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)

    def test_header_only_file_is_empty_without_warning(self, tmp_path, recwarn):
        assert self.read(tmp_path, "") == {}
        assert self.read(tmp_path, "\n\n") == {}
        assert len(recwarn) == 0

    def test_empty_lines_are_skipped(self, tmp_path):
        runs = self.read(tmp_path, "1,1,5\n\n1,2,4\n\n\n2,1,7\n")
        assert {r: c.tolist() for r, c in runs.items()} == {1: [5.0, 4.0], 2: [7.0]}

    def test_interleaved_runs_keep_first_appearance_and_file_order(self, tmp_path):
        runs = self.read(tmp_path, "3,1,9\n1,1,8\n3,2,7\n2,1,6\n1,2,5\n3,3,4\n")
        assert list(runs) == [3, 1, 2]
        assert {r: c.tolist() for r, c in runs.items()} == {3: [9.0, 7.0, 4.0], 1: [8.0, 5.0], 2: [6.0]}

    def test_single_row(self, tmp_path):
        assert {r: c.tolist() for r, c in self.read(tmp_path, "4,1,2.5E+00\n").items()} == {4: [2.5]}

    def test_crlf_and_missing_final_newline_read_like_lf(self, tmp_path):
        text = self.HEADER + "1,1,5.0E+00\n1,2,4.0E+00\n\n2,1,INF\n2,2,-3.5E-01\n"
        variants = {"lf": text, "crlf": text.replace("\n", "\r\n"), "no_final_newline": text.rstrip("\n")}
        read = {}
        for name, body in variants.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(body.encode())
            read[name] = {r: c.tolist() for r, c in read_trace_csv(path).items()}
        assert read["lf"] == {1: [5.0, 4.0], 2: [np.inf, -0.35]}
        assert read["crlf"] == read["lf"] and read["no_final_newline"] == read["lf"]

    # The message names the rejected line of the file: header = line 1, blank lines counted.
    @pytest.mark.parametrize("text, line", [
        ("run,gen,best_so_far\n1,1,2\n", 1),
        ("1,1\n", 2),
        ("1,1,2\n1,2\n", 3),
        ("1,1,2,3\n", 2),
        ("1,1,2\n1,2,3,4\n", 3),
        ("1.5,1,2\n", 2),
        ("one,1,2\n", 2),
        ("1,1,two\n", 2),
        ("1,1,2\n   \n", 3),
        ("# note\n1,1,2\n", 2),
        ("1,1,2\n1,2.5,1\n", 3),
        ("\n\n\nx,4,1.0\n", 5),
        ("1,1,2\n\n1,1,two\n", 4),
        ("1,1,2\r\n\r\n1,2\r\n", 4),
    ], ids=["header", "two_fields", "short_row", "four_fields", "long_row", "fractional_run",
            "word_run", "word_value", "spaces_line", "comment", "fractional_generation",
            "word_run_after_blank_lines", "word_value_after_blank_line", "short_row_crlf"])
    def test_malformed_input_rejected(self, tmp_path, text, line):
        path = tmp_path / "t.csv"
        path.write_text(text if text.startswith("run,") else self.HEADER + text)
        with pytest.raises(ValueError, match=rf"t\.csv: line {line}: "):
            read_trace_csv(path)


class HalfWriter:
    """A file opened for writing that writes half of what it is given, then
    fails like a full disk."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def half_writing_open(path, mode="r", **kwargs):
    """``open``, except that a file opened for writing is a ``HalfWriter``."""
    return HalfWriter(path, mode) if "w" in mode else open(path, mode, **kwargs)


class TestWriteTraceCsv:
    def test_returned_finals_are_the_parsed_ones(self, tmp_path):
        path = tmp_path / "trace_p01_AX_GM.csv"
        ends = [1.234565e-7, 5e-324, -2.5e-310, 123456.75, -0.0, np.inf, -np.inf, np.nan, 1.7976931348623157e308]
        _, (finals, _) = _write_trace_csv(path, [trace([3.0, end]) for end in ends])
        parsed = np.array([curve[-1] for curve in read_trace_csv(path).values()])
        assert finals.dtype == np.float64 and finals.tobytes() == parsed.tobytes()

    def test_row_is_the_one_the_reader_builds(self, tmp_path):
        path = tmp_path / "trace_p01_AX_GM.csv"
        curves = [[np.inf, 3.5, 1.25e-300], [np.nan, -np.inf, 2.0], [7.0, np.inf, -0.0]]
        sha, (finals, (mean, std)) = _write_trace_csv(path, [trace(c) for c in curves])
        assert sha == experiment._file_sha256(path)
        read_sha, (read_finals, (read_mean, read_std)) = experiment._reduce_cell(tmp_path, {"file": path.name}, sha)
        assert read_sha == sha
        for got, want in ((finals, read_finals), (mean, read_mean), (std, read_std)):
            assert got.dtype == want.dtype == np.float64 and np.array_equal(got, want, equal_nan=True)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "open", half_writing_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            _write_trace_csv(tmp_path / "trace_p01_AX_GM.csv", [trace([3.0, 2.0, 1.0])])
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trace_p01_AX_GM.csv"
        _write_trace_csv(path, [trace([3.0, 2.0])])
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("boom")

        monkeypatch.setattr(experiment.os, "replace", failing_replace)
        with pytest.raises(OSError, match="boom"):
            _write_trace_csv(path, [trace([9.0, 8.0])])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


def write_bundle(bundle: Path, finals: dict, failed=()) -> Path:
    """A hand-built one-generation bundle: ``finals`` maps (problem, operator) to
    the runs' values; cells named in ``failed`` get a failed status."""
    bundle.mkdir()
    cells = []
    for index, ((problem, operator), values) in enumerate(finals.items()):
        name = f"trace_p{problem:02d}_{operator}_GM.csv"
        rows = ["run,generation,best_so_far"] + [f"{r},1,{format_sci(v)}" for r, v in enumerate(values, start=1)]
        (bundle / name).write_text("\n".join(rows) + "\n")
        status = "failed: run 1: boom" if (problem, operator) in failed else "ok"
        cells.append({"index": index, "problem": problem, "operator": operator, "mutation": "GM",
                      "rate": None, "label": f"{operator}-GM", "file": name, "status": status})
    manifest = {"format": "rcga-bundle-v1", "kind": "experiment", "alpha": 0.05,
                "runs": max(map(len, finals.values())), "generations": 1,
                "mc_seed": 3, "mc_samples": 10000, "cells": cells}
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    return bundle


def planted_finals(problems, runs=5) -> dict:
    """PSOX below AX below FX in every block: Kruskal-Wallis fires, and the
    AX-versus-PSOX Dunnett p lies strictly between 0 and 1."""
    rng = np.random.default_rng(17)
    return {(p, op): level + rng.random(runs) for p in problems for op, level in
            (("PSOX", 0.0), ("AX", 0.3), ("FX", 1.0))}


class TestAnalyze:
    def test_summary_and_dunnett_shapes(self, tmp_path):
        bundle = run_experiment(write_config(tmp_path / "a.cfg", runs=4))
        analyze(bundle)
        summary = (bundle / "summary.csv").read_text().splitlines()
        assert summary[0] == "problem,operator,mutation,mean,std,kw_flag,kw_method"
        assert len(summary) == 3  # header + 2 operators
        dunnett = (bundle / "dunnett.csv").read_text().splitlines()
        assert dunnett[0] == "problem,treatment,p_value,flag"
        assert len(dunnett) == 2
        assert dunnett[1].startswith("9,AX-GM,")

    def test_identical_cells_dash_the_tests(self, tmp_path):
        # Hand-built bundle whose two operators produced identical finals.
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        rows = ["run,generation,best_so_far"] + [f"{r},1,5.00000E+00" for r in (1, 2, 3)]
        (bundle / "trace_p09_PSOX_GM.csv").write_text("\n".join(rows) + "\n")
        (bundle / "trace_p09_AX_GM.csv").write_text("\n".join(rows) + "\n")
        manifest = {
            "format": "rcga-bundle-v1", "kind": "experiment", "alpha": 0.05,
            "mc_seed": 3, "mc_samples": 10000,
            "cells": [
                {"index": 0, "problem": 9, "operator": "PSOX", "mutation": "GM",
                 "rate": None, "label": "PSOX-GM", "file": "trace_p09_PSOX_GM.csv", "status": "ok"},
                {"index": 1, "problem": 9, "operator": "AX", "mutation": "GM",
                 "rate": None, "label": "AX-GM", "file": "trace_p09_AX_GM.csv", "status": "ok"},
            ],
        }
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        analyses = analyze(bundle)
        assert analyses[0].report.kw_flag == "~"
        dunnett = (bundle / "dunnett.csv").read_text().splitlines()
        assert dunnett[1] == "9,AX-GM,-,-"

    def test_treatment_left_out_of_the_tests_gets_a_dashed_row(self, tmp_path):
        finals = planted_finals((1, 2))
        finals[1, "AX"] = finals[1, "AX"][:1]  # a single run
        bundle = write_bundle(tmp_path / "b", finals, failed={(2, "AX")})
        analyses = analyze(bundle)
        assert [a.report.kw_flag for a in analyses] == ["+", "+"]
        rows = [row.split(",") for row in (bundle / "dunnett.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["1", "AX-GM"], ["1", "FX-GM"], ["2", "AX-GM"], ["2", "FX-GM"]]
        assert rows[0][2:] == rows[2][2:] == ["-", "-"]
        assert rows[1][3] == rows[3][3] == "+" and "-" not in (rows[1][2], rows[3][2])

    def test_single_cell_bundle_dashes_kw(self, tmp_path):
        bundle = run_experiment(write_config(tmp_path / "a.cfg", operators="PSOX"))
        analyses = analyze(bundle)
        assert analyses[0].report is None
        summary = (bundle / "summary.csv").read_text().splitlines()
        assert summary[1].endswith(",-")
        assert (bundle / "dunnett.csv").read_text().splitlines()[1:] == ["9,PSOX-GM,-,-"]

    def test_missing_cell_marked_incomplete(self, tmp_path):
        bundle = run_experiment(write_config(tmp_path / "a.cfg", runs=4))
        manifest = load_manifest(bundle)
        victim = manifest["cells"][0]["file"]
        (bundle / victim).unlink()
        analyze(bundle)
        summary = (bundle / "summary.csv").read_text().splitlines()
        incomplete = [line for line in summary[1:] if ",-,-," in line]
        assert len(incomplete) == 1

    def test_analyze_is_pure_given_bundle_and_seed(self, tmp_path):
        bundle = run_experiment(write_config(tmp_path / "a.cfg", runs=4))
        analyze(bundle)
        first = (bundle / "summary.csv").read_bytes() + (bundle / "dunnett.csv").read_bytes()
        analyze(bundle)
        second = (bundle / "summary.csv").read_bytes() + (bundle / "dunnett.csv").read_bytes()
        assert first == second

    def test_old_manifest_sampling_entries_are_ignored(self, tmp_path):
        # Bundles written before the Dunnett p was computed carry mc_seed and
        # mc_samples; their tables equal those of the same bundle without them.
        tables = []
        for name, entries in (("old", {"mc_seed": 3, "mc_samples": 10000}), ("new", {})):
            bundle = write_bundle(tmp_path / name, planted_finals((1, 2, 3, 4)), failed={(4, "FX")})
            manifest = {key: value for key, value in load_manifest(bundle).items() if not key.startswith("mc_")}
            (bundle / "manifest.json").write_text(json.dumps({**manifest, **entries}))
            analyses = analyze(bundle)
            assert all(a.report.kw_flag == "+" for a in analyses)
            tables.append([(bundle / f).read_bytes() for f in ("summary.csv", "dunnett.csv", CURVES_NAME)])
        assert tables[0] == tables[1]

    def test_chi_square_tables_are_pinned(self, tmp_path):
        # Three groups of 10 runs take the chi-square tail. Problem 1 is pure
        # noise (flagged at p = 0.015) and problem 2 is not flagged, so a tail
        # that moves a flag or a Dunnett p changes these digests: summary.csv's
        # taken when scipy computed the tail, dunnett.csv's since its p-values
        # come from quadrature.
        rng = np.random.default_rng(29)
        finals = {(p, op): 0.1 * (p - 1) * level + rng.random(10) for p in (1, 2, 3, 4)
                  for op, level in (("PSOX", 0.0), ("AX", 1.0), ("FX", 2.0))}
        bundle = write_bundle(tmp_path / "b", finals)
        analyses = analyze(bundle)
        assert [(a.report.kw_method, a.report.kw_flag) for a in analyses] == [
            ("chi2", "+"), ("chi2", "~"), ("chi2", "+"), ("chi2", "+")]
        digests = [hashlib.sha256((bundle / name).read_bytes()).hexdigest() for name in ("summary.csv", "dunnett.csv")]
        assert digests == ["95cc6556736394cbba8aa3d9a889dc2df92a30cfe343ee10ac439b284670247a",
                           "e49d9fb211b558db9cda73d5a9259877bcd2b340c269b1ec24ab32c9ed8e27fc"]

    def test_block_p_values_do_not_depend_on_other_blocks(self, tmp_path):
        finals = planted_finals((1, 2, 3))
        full = write_bundle(tmp_path / "full", finals)
        part = write_bundle(tmp_path / "part", {key: v for key, v in finals.items() if key[0] != 1})
        analyze(full)
        analyze(part)

        def rows(bundle):
            return [row for row in (bundle / "dunnett.csv").read_text().splitlines()[1:] if row[0] != "1"]

        assert rows(part) == rows(full)
        assert all(0.0 < float(row.split(",")[2]) < 1.0 for row in rows(full) if row.split(",")[1] == "AX-GM")

    def test_csvs_end_with_trailing_newline(self, tmp_path):
        bundle = run_experiment(write_config(tmp_path / "a.cfg", runs=4))
        analyze(bundle)
        for csv in bundle.glob("*.csv"):
            assert csv.read_text().endswith("\n")

    def test_failed_table_write_keeps_the_old_table(self, tmp_path, monkeypatch):
        bundle = run_experiment(write_config(tmp_path / "a.cfg", runs=4))
        analyze(bundle)
        before = sorted(bundle.iterdir())
        summary = (bundle / "summary.csv").read_bytes()
        monkeypatch.setattr(experiment, "open", half_writing_open, raising=False)
        with pytest.raises(OSError, match="No space left"):
            analyze(bundle, sig_figs=2)  # other bytes than the table on disk
        assert (bundle / "summary.csv").read_bytes() == summary
        assert sorted(bundle.iterdir()) == before  # no temp file left

    def test_sweep_bundle_is_rejected(self, tmp_path, capsys):
        bundle = mutation_sweep(write_config(tmp_path / "s.cfg", mutation_rates="0.1, 0.9",
                                             output_dir=tmp_path / "sweep"))
        before = sorted(bundle.iterdir())
        with pytest.raises(ConfigError, match="sweep bundle .* sweep.csv"):
            analyze(bundle)
        assert main(["analyze", str(bundle)]) == 2
        assert "sweep.csv" in capsys.readouterr().err
        assert sorted(bundle.iterdir()) == before

    def test_runs_of_unequal_length_make_a_cell_unusable(self, tmp_path):
        (tmp_path / "t.csv").write_text("run,generation,best_so_far\n1,1,2.0\n1,2,1.0\n2,1,3.0\n")
        assert final_bests(tmp_path, {"status": "ok", "file": "t.csv"}) is None

    def test_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            analyze(tmp_path)


class TestPlot:
    def test_panel_structure(self, tmp_path):
        bundle = run_experiment(write_config(tmp_path / "a.cfg"))
        [panel] = plot_convergence(bundle, problems=[9])
        root = ET.fromstring(panel.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        polygons = root.findall(f"{ns}polygon")
        assert len(polylines) == 2  # one mean curve per operator
        assert len(polygons) == 2  # one band per operator

    def test_empty_selection_raises(self, tmp_path):
        bundle = run_experiment(write_config(tmp_path / "a.cfg"))
        with pytest.raises(FileNotFoundError):
            plot_convergence(bundle, problems=[3])


class TestCurveDigest:
    """``run`` and ``analyze`` leave ``curves.npz``; ``analyze`` and
    ``plot_convergence`` reuse rows whose trace bytes still hash to their key
    and parse every other trace."""

    @staticmethod
    def bundle(tmp_path) -> Path:
        return run_experiment(write_config(tmp_path / "a.cfg", problems="9, 1", runs=4))

    @classmethod
    def cold_bundle(cls, tmp_path) -> Path:
        """A bundle without its digest, so that each trace is parsed."""
        bundle = cls.bundle(tmp_path)
        (bundle / CURVES_NAME).unlink()
        return bundle

    @staticmethod
    def svgs(bundle: Path, out: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in plot_convergence(bundle, output=out)}

    @staticmethod
    def tables(bundle: Path) -> list[bytes]:
        return [(bundle / name).read_bytes() for name in ("summary.csv", "dunnett.csv")]

    @staticmethod
    def flip_exponent_signs(bundle: Path, index: int = 0) -> None:
        """Rewrite one cell's trace, the first by default, at the same size with other values."""
        path = bundle / load_manifest(bundle)["cells"][index]["file"]
        old = path.read_bytes()
        header, body = old.split(b"\n", 1)
        path.write_bytes(header + b"\n" + body.translate(bytes.maketrans(b"+-", b"-+")))
        assert path.stat().st_size == len(old) and path.read_bytes() != old

    @staticmethod
    def count_parses(monkeypatch) -> list:
        """The paths ``read_trace_csv`` is called with, in this process only."""
        parsed = []
        real = experiment.read_trace_csv
        monkeypatch.setattr(experiment, "read_trace_csv", lambda path: parsed.append(path) or real(path))
        return parsed

    @staticmethod
    def count_hashes(monkeypatch) -> list:
        """The file names ``_file_sha256`` is called with, in this process only."""
        hashed = []
        real = experiment._file_sha256
        monkeypatch.setattr(experiment, "_file_sha256", lambda path: hashed.append(Path(path).name) or real(path))
        monkeypatch.setattr(experiment, "_cpus", lambda: 1)
        return hashed

    def test_plot_from_digest_is_byte_identical(self, tmp_path):
        bundle = self.bundle(tmp_path)
        analyze(bundle)
        assert (bundle / CURVES_NAME).is_file()
        from_digest = self.svgs(bundle, tmp_path / "a")
        (bundle / CURVES_NAME).unlink()
        assert self.svgs(bundle, tmp_path / "b") == from_digest

    def test_same_size_rewrite_is_drawn_from_the_new_bytes(self, tmp_path):
        bundle = self.bundle(tmp_path)
        analyze(bundle)
        before = self.svgs(bundle, tmp_path / "before")
        self.flip_exponent_signs(bundle)
        after = self.svgs(bundle, tmp_path / "after")
        (bundle / CURVES_NAME).unlink()
        assert after == self.svgs(bundle, tmp_path / "parsed")
        assert after != before

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "misshaped"])
    def test_damaged_digest_is_ignored(self, tmp_path, damage):
        bundle = self.bundle(tmp_path)
        analyze(bundle)
        digest = bundle / CURVES_NAME
        if damage == "truncated":
            digest.write_bytes(digest.read_bytes()[: digest.stat().st_size // 2])
        elif damage == "garbage":
            digest.write_bytes(b"not a zip file\n" * 50)
        elif damage == "empty":
            digest.write_bytes(b"")
        else:  # one array with fewer rows than the others: sha, then finals
            with np.load(digest) as npz:
                arrays = dict(npz)
            for name in ("sha", "finals"):
                np.savez(digest, **{**arrays, name: arrays[name][:1]})
                assert _load_curve_digest(digest) == {}
        assert _load_curve_digest(digest) == {}
        drawn = self.svgs(bundle, tmp_path / "a")
        digest.unlink()
        assert drawn == self.svgs(bundle, tmp_path / "b")

    def test_truncated_digest_leaves_no_open_file(self, tmp_path):
        bundle = self.bundle(tmp_path)
        analyze(bundle)
        digest = bundle / CURVES_NAME
        digest.write_bytes(digest.read_bytes()[: digest.stat().st_size // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _load_curve_digest(digest) == {}
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_trace_lost_after_analyze_is_dropped_despite_its_digest_row(self, tmp_path):
        bundle = self.bundle(tmp_path)
        analyze(bundle)
        lost, *kept = [c for c in load_manifest(bundle)["cells"] if c["problem"] == 9]
        trace = bundle / lost["file"]
        assert experiment._file_sha256(trace) in _load_curve_digest(bundle / CURVES_NAME)
        trace.unlink()
        drawn = self.svgs(bundle, tmp_path / "a")
        assert sorted(drawn) == ["convergence_p01.svg", "convergence_p09.svg"]
        svg = drawn["convergence_p09.svg"].decode()
        assert lost["label"] not in svg and kept and all(c["label"] in svg for c in kept)

    def test_run_leaves_the_digest_a_cold_analyze_writes(self, tmp_path):
        bundle = self.bundle(tmp_path)
        written = (bundle / CURVES_NAME).read_bytes()
        assert len(_load_curve_digest(bundle / CURVES_NAME)) == 4
        (bundle / CURVES_NAME).unlink()
        analyze(bundle)
        assert (bundle / CURVES_NAME).read_bytes() == written

    def test_run_then_analyze_and_plot_parse_no_trace(self, tmp_path, monkeypatch):
        bundle = self.bundle(tmp_path)
        parsed = self.count_parses(monkeypatch)
        analyze(bundle)
        plot_convergence(bundle)
        assert parsed == []
        self.flip_exponent_signs(bundle)
        analyze(bundle)
        plot_convergence(bundle)
        assert parsed == [bundle / load_manifest(bundle)["cells"][0]["file"]]

    def test_trace_of_another_run_count_keeps_the_other_rows(self, tmp_path, monkeypatch):
        bundle = self.bundle(tmp_path)
        edited = bundle / load_manifest(bundle)["cells"][0]["file"]
        lines = edited.read_text().splitlines()
        edited.write_text("\n".join(line for line in lines if not line.startswith("3,")) + "\n")
        analyze(bundle)
        parsed = self.count_parses(monkeypatch)
        analyze(bundle)
        assert parsed == [edited]
        assert len(_load_curve_digest(bundle / CURVES_NAME)) == 3

    def test_plot_of_an_unanalysed_bundle_writes_no_digest(self, tmp_path):
        bundle = self.cold_bundle(tmp_path)
        assert len(plot_convergence(bundle)) == 2
        assert not (bundle / CURVES_NAME).exists()

    def test_analyze_then_plot_parse_each_trace_once(self, tmp_path, monkeypatch):
        bundle = self.cold_bundle(tmp_path)
        parsed = []
        real = experiment.read_trace_csv

        def counting(path):
            parsed.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(experiment, "read_trace_csv", counting)
        analyze(bundle)
        plot_convergence(bundle)
        files = [c["file"] for c in load_manifest(bundle)["cells"]]
        assert sorted(parsed) == sorted(files) and len(files) == 4

    def test_a_parsed_trace_is_hashed_before_and_after_its_parse_only(self, tmp_path, monkeypatch):
        bundle = self.cold_bundle(tmp_path)
        files = sorted(c["file"] for c in load_manifest(bundle)["cells"])
        hashed = self.count_hashes(monkeypatch)
        analyze(bundle)  # no digest: no lookup, one hash before and one after each parse
        assert sorted(hashed) == sorted(files * 2)
        self.flip_exponent_signs(bundle)
        hashed.clear()
        analyze(bundle)  # the lookup hash of the rewritten trace is the one before its parse
        assert len(hashed) == 5 and hashed.count(load_manifest(bundle)["cells"][0]["file"]) == 2
        assert sorted(set(hashed)) == files

    def test_warm_analyze_and_plot_hash_each_trace_once(self, tmp_path, monkeypatch):
        bundle = self.bundle(tmp_path)
        analyze(bundle)
        files = sorted(c["file"] for c in load_manifest(bundle)["cells"])
        hashed = self.count_hashes(monkeypatch)
        analyze(bundle)
        assert sorted(hashed) == files
        hashed.clear()
        plot_convergence(bundle)
        assert sorted(hashed) == files

    def test_keys_with_trailing_nul_bytes_round_trip(self, tmp_path):
        rows = {bytes(31) + b"\x01": (np.array([2.0, np.inf]), (np.arange(3.0), np.ones(3))),
                b"\xff" * 30 + bytes(2): (np.array([np.nan, -0.0]), (np.zeros(3), np.zeros(3)))}
        _write_curve_digest(tmp_path / CURVES_NAME, rows, (2, 3))
        loaded = _load_curve_digest(tmp_path / CURVES_NAME)
        assert set(loaded) == set(rows)
        for sha, (finals, (mean, std)) in rows.items():
            got_finals, (got_mean, got_std) = loaded[sha]
            assert got_finals.tobytes() == finals.tobytes()
            np.testing.assert_array_equal(got_mean, mean)
            np.testing.assert_array_equal(got_std, std)
        assert [p.name for p in tmp_path.iterdir()] == [CURVES_NAME]

    def test_second_analyze_parses_no_trace(self, tmp_path, monkeypatch):
        bundle = self.cold_bundle(tmp_path)
        parsed = self.count_parses(monkeypatch)
        analyze(bundle)
        assert len(parsed) == 4
        first = self.tables(bundle)
        parsed.clear()
        analyze(bundle)
        assert parsed == [] and self.tables(bundle) == first

    def test_second_analyze_starts_no_pool(self, tmp_path, monkeypatch):
        bundle = self.bundle(tmp_path)
        manifest = load_manifest(bundle)
        for cell in manifest["cells"][:2]:  # unusable cells have no row, and parse nothing
            cell["status"] = "failed: run 1: boom"
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.setattr(experiment, "_cpus", lambda: 2)
        analyze(bundle)
        first = self.tables(bundle)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started although every cell has a digest row")

        monkeypatch.setattr(experiment, "_process_pool", no_pool)
        analyze(bundle)
        assert self.tables(bundle) == first

    def test_digest_is_rewritten_only_when_its_keys_change(self, tmp_path, monkeypatch):
        bundle = self.cold_bundle(tmp_path)
        writes = []
        real = experiment._write_curve_digest
        monkeypatch.setattr(experiment, "_write_curve_digest",
                            lambda path, rows, shape: writes.append(len(rows)) or real(path, rows, shape))
        analyze(bundle)
        analyze(bundle, alpha=0.2)
        assert writes == [4]
        path = bundle / load_manifest(bundle)["cells"][0]["file"]
        path.write_bytes(path.read_bytes() + b"\n")  # an empty line: same curves, new key
        analyze(bundle)
        assert writes == [4, 4]

    def test_same_size_rewrite_is_analysed_from_the_new_bytes(self, tmp_path):
        bundle = self.bundle(tmp_path)
        analyze(bundle)
        before = self.tables(bundle)
        self.flip_exponent_signs(bundle)
        analyze(bundle)
        after = self.tables(bundle)
        (bundle / CURVES_NAME).unlink()
        analyze(bundle)
        assert after == self.tables(bundle)
        assert after != before

    def test_digest_without_finals_is_rebuilt(self, tmp_path, monkeypatch):
        bundle = self.bundle(tmp_path)
        analyze(bundle)
        cold = self.tables(bundle)
        digest = bundle / CURVES_NAME
        with np.load(digest) as npz:
            current = dict(npz)
        np.savez(digest, sha=current["sha"], mean=current["mean"], std=current["std"])  # the format before finals
        assert _load_curve_digest(digest) == {}
        parsed = self.count_parses(monkeypatch)
        analyze(bundle)
        assert len(parsed) == 4 and self.tables(bundle) == cold
        with np.load(digest) as npz:
            rebuilt = dict(npz)
        assert rebuilt.keys() == current.keys() == {"sha", "finals", "mean", "std"}
        for key in current:
            np.testing.assert_array_equal(rebuilt[key], current[key])

    def test_trace_rewritten_while_it_is_parsed_leaves_no_stale_row(self, tmp_path, monkeypatch):
        bundle = self.cold_bundle(tmp_path)
        target = bundle / load_manifest(bundle)["cells"][0]["file"]
        parsed = self.count_parses(monkeypatch)
        counting = experiment.read_trace_csv

        def racing(path):
            runs = counting(path)
            if Path(path) == target and parsed.count(path) == 1:  # another process rewrites it once
                self.flip_exponent_signs(bundle)
            return runs

        monkeypatch.setattr(experiment, "read_trace_csv", racing)
        with pytest.raises(ValueError, match=re.escape(f"{target}: the file changed while it was read")):
            analyze(bundle)
        assert not (bundle / CURVES_NAME).exists()
        analyze(bundle)
        analyze(bundle)
        warm = self.tables(bundle)
        (bundle / CURVES_NAME).unlink()
        analyze(bundle)
        assert warm == self.tables(bundle)

    @pytest.mark.parametrize("options", [{"control_label": "AX"}, {"alpha": 0.2}, {"sig_figs": 2}])
    def test_warm_tables_equal_cold_ones(self, tmp_path, options):
        bundle = write_bundle(tmp_path / "b", planted_finals((1, 2, 3)))
        analyze(bundle)
        analyze(bundle, **options)
        warm = self.tables(bundle)
        (bundle / CURVES_NAME).unlink()
        analyze(bundle, **options)
        assert warm == self.tables(bundle)


class TestAnalyzeWorkers:
    """``analyze`` hashes the trace files on ``_cpus()`` threads and parses in
    its own process; nothing it returns or writes depends on that."""

    @staticmethod
    def bundle(tmp_path) -> Path:
        return run_experiment(write_config(tmp_path / "a.cfg", problems="9, 1", operators="PSOX, AX, FX",
                                           mutations="GM, NUM", runs=4))

    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        bundle = self.bundle(tmp_path)
        pools = []

        start_pool = experiment._process_pool

        def counting_pool(workers):
            pools.append(workers)
            return start_pool(workers)

        monkeypatch.setattr(experiment, "_process_pool", counting_pool)
        outputs = {}
        for workers in (1, 2):
            monkeypatch.setattr(experiment, "_cpus", lambda n=workers: n)
            copy = shutil.copytree(bundle, tmp_path / f"workers-{workers}")
            (copy / CURVES_NAME).unlink()
            plot_convergence(copy, output=copy / "cold")  # no digest: every trace parsed
            analyze(copy)
            cold = TestCurveDigest.tables(copy) + [(copy / CURVES_NAME).read_bytes()]
            analyze(copy)
            assert TestCurveDigest.tables(copy) + [(copy / CURVES_NAME).read_bytes()] == cold
            plot_convergence(copy)
            with np.load(copy / CURVES_NAME) as npz:
                arrays = dict(npz)
            files = {p.name: p.read_bytes() for p in copy.iterdir() if p.suffix in (".csv", ".svg")}
            assert {p.name: p.read_bytes() for p in (copy / "cold").iterdir()} == \
                {name: data for name, data in files.items() if name.endswith(".svg")}
            outputs[workers] = files, arrays
        assert pools == []  # the read side starts no process pool
        (files_1, arrays_1), (files_2, arrays_2) = outputs[1], outputs[2]
        assert files_1 == files_2 and {"summary.csv", "dunnett.csv", "convergence_p09.svg"} <= set(files_1)
        assert arrays_1.keys() == arrays_2.keys() == {"sha", "finals", "mean", "std"}
        for key in arrays_1:
            np.testing.assert_array_equal(arrays_1[key], arrays_2[key])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_warm_traces_are_hashed_once_and_in_cell_order(self, tmp_path, monkeypatch, workers):
        bundle = self.bundle(tmp_path)
        analyze(bundle)
        tables = TestCurveDigest.tables(bundle)
        paths = [bundle / c["file"] for c in load_manifest(bundle)["cells"]]
        hashed = []
        real = experiment._file_sha256
        monkeypatch.setattr(experiment, "_file_sha256", lambda path: hashed.append(Path(path).name) or real(path))
        assert experiment._hash_files(paths, workers) == list(map(real, paths)) and len(paths) == 12
        assert sorted(hashed) == sorted(p.name for p in paths)
        hashed.clear()
        monkeypatch.setattr(experiment, "_cpus", lambda: workers)
        analyze(bundle)
        assert sorted(hashed) == sorted(p.name for p in paths)
        assert TestCurveDigest.tables(bundle) == tables

    def test_same_size_rewrite_in_a_helper_threads_part_is_parsed_again(self, tmp_path, monkeypatch):
        bundle = self.bundle(tmp_path)
        parsed = TestCurveDigest.count_parses(monkeypatch)
        monkeypatch.setattr(experiment, "_cpus", lambda: 2)
        analyze(bundle)
        svgs = {p.name: p.read_bytes() for p in plot_convergence(bundle, output=tmp_path / "before")}
        TestCurveDigest.flip_exponent_signs(bundle, -1)  # the second half of the cells is a helper thread's
        parsed.clear()
        analyze(bundle)
        assert parsed == [bundle / load_manifest(bundle)["cells"][-1]["file"]]
        warm = TestCurveDigest.tables(bundle)
        drawn = {p.name: p.read_bytes() for p in plot_convergence(bundle, output=tmp_path / "after")}
        assert drawn != svgs
        (bundle / CURVES_NAME).unlink()
        analyze(bundle)
        assert TestCurveDigest.tables(bundle) == warm
        assert {p.name: p.read_bytes() for p in plot_convergence(bundle, output=tmp_path / "cold")} == drawn

    def test_malformed_trace_raises_one_error_at_any_worker_count(self, tmp_path, monkeypatch):
        bundle = self.bundle(tmp_path)
        digest = (bundle / CURVES_NAME).read_bytes()
        path = bundle / load_manifest(bundle)["cells"][-1]["file"]
        lines = path.read_text().splitlines()
        lines[5] = "2,1,two"
        path.write_text("\n".join(lines) + "\n")
        messages = []
        for workers in (1, 2):
            monkeypatch.setattr(experiment, "_cpus", lambda n=workers: n)
            with pytest.raises(ValueError) as info:
                analyze(bundle)
            assert type(info.value) is ValueError
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"{path}: line 6: expected integer run and generation and a number: '2,1,two'"
        assert not (bundle / "summary.csv").exists() and (bundle / CURVES_NAME).read_bytes() == digest

    def test_one_cell_bundle_starts_no_pool(self, tmp_path, monkeypatch):
        bundle = run_experiment(write_config(tmp_path / "a.cfg", operators="PSOX"))
        (bundle / CURVES_NAME).unlink()

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for one cell")

        monkeypatch.setattr(experiment, "_process_pool", no_pool)
        monkeypatch.setattr(experiment, "_cpus", lambda: 2)
        [analysis] = analyze(bundle)
        assert [op for op, values in analysis.groups if values is not None] == ["PSOX"]


class TestSweep:
    def test_sweep_rows_and_panels(self, tmp_path):
        path = write_config(
            tmp_path / "s.cfg",
            problems="9, 6",
            mutation_rates="0.1, 0.5, 1.0",
            generations="6",
            runs="3",
            output_dir=tmp_path / "sweepbundle",
        )
        bundle = mutation_sweep(path)
        rows = (bundle / "sweep.csv").read_text().splitlines()
        assert rows[0] == "rate,problem,mean,std"
        assert len(rows) == 7  # header + 3 rates x 2 problems
        assert (bundle / "sweep_p09.svg").is_file()
        assert (bundle / "sweep_p06.svg").is_file()
        assert len(_load_curve_digest(bundle / CURVES_NAME)) == 6
        manifest = load_manifest(bundle)
        assert manifest["kind"] == "sweep"
        assert all(c["operator"] == "PSOX" and c["mutation"] == "GM" for c in manifest["cells"])
        # The grid axes are those of the cells run, not the config's experiment grid.
        assert manifest["problems"] == [9, 6]
        assert manifest["operators"] == ["PSOX"]
        assert manifest["mutations"] == ["GM"]
        assert manifest["mutation_rates"] == [0.1, 0.5, 1.0]
        assert manifest["mutation_rate"] is None

    def test_manifest_bytes_are_pinned(self, tmp_path):
        cfg = write_config(tmp_path / "s.cfg", problems="9, 6", mutation_rates="0.1, 1.0", generations="4", runs="2")
        bundle = mutation_sweep(cfg)
        assert [c["file"] for c in load_manifest(bundle)["cells"]][:2] == [
            "trace_p09_PSOX_GM_rate0.1.csv", "trace_p09_PSOX_GM_rate1.csv"]
        assert manifest_sha256(bundle) == "280d1a442e96261df814f4124147c2f5a62a865982a72aa510eb7d9adc08a15e"
        sweep = hashlib.sha256((bundle / "sweep.csv").read_bytes()).hexdigest()
        assert sweep == "61321ed9ab08011bb67712a3150fb6e95d0172b67dc90a11526eff646b4a05ea"

    @pytest.mark.parametrize("workers, pools", [("1", []), ("2", [2])])
    def test_table_comes_from_the_runs_not_the_traces(self, tmp_path, monkeypatch, workers, pools):
        started = []
        start_pool = experiment._process_pool
        monkeypatch.setattr(experiment, "_process_pool", lambda n: started.append(n) or start_pool(n))

        def never(*args):
            raise AssertionError("the sweep read a trace back")

        monkeypatch.setattr(experiment, "read_trace_csv", never)
        monkeypatch.setattr(experiment, "_file_sha256", never)
        cfg = write_config(tmp_path / "s.cfg", problems="9, 6", mutation_rates="0.1, 1.0", generations="4",
                           runs="2", workers=workers)
        bundle = mutation_sweep(cfg)
        assert started == pools  # the runs' pool only
        assert manifest_sha256(bundle) == "280d1a442e96261df814f4124147c2f5a62a865982a72aa510eb7d9adc08a15e"
        sweep = hashlib.sha256((bundle / "sweep.csv").read_bytes()).hexdigest()
        assert sweep == "61321ed9ab08011bb67712a3150fb6e95d0172b67dc90a11526eff646b4a05ea"

    def test_sweep_defaults_applied(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(
            "name = s\nruns = 2\ngenerations = 4\npopulation_size = 12\nworkers = 1\n"
            f"output_dir = {tmp_path / 'b'}\nseed = 3\n"
        )
        bundle = mutation_sweep(path)
        manifest = load_manifest(bundle)
        assert sorted({c["problem"] for c in manifest["cells"]}) == [4, 5, 7, 11]


class TestCli:
    def test_run_analyze_plot_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.cfg", runs=4)
        assert main(["run", str(cfg)]) == 0
        bundle = tmp_path / "bundle"
        assert main(["analyze", str(bundle), "--control", "PSOX"]) == 0
        assert main(["plot", str(bundle), "--problems", "9"]) == 0
        out = capsys.readouterr().out
        assert "summary.csv" in out and "convergence_p09.svg" in out

    def test_sweep_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.cfg", problems="9, 6", mutation_rates="0.1, 1.0", generations="4", runs="2")
        assert main(["sweep", str(cfg)]) == 0
        bundle = tmp_path / "bundle"
        assert f"sweep written to {bundle}" in capsys.readouterr().out
        assert len((bundle / "sweep.csv").read_text().splitlines()) == 5  # header + 2 rates x 2 problems

    def test_sweep_command_with_a_failed_problem(self, tmp_path, monkeypatch):
        fail_problem(monkeypatch, 6)
        cfg = write_config(tmp_path / "s.cfg", problems="9, 6", mutation_rates="0.1, 1.0", generations="4", runs="2")
        assert main(["sweep", str(cfg)]) == 0
        bundle = tmp_path / "bundle"
        rows = (bundle / "sweep.csv").read_text().splitlines()[1:]
        assert [r for r in rows if r.split(",")[1] == "6"] == ["1.00000E-01,6,-,-", "1.00000E+00,6,-,-"]
        assert all(not r.endswith(",-,-") for r in rows if r.split(",")[1] == "9")
        assert (bundle / "sweep_p09.svg").is_file()
        assert not (bundle / "sweep_p06.svg").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "a.cfg", runs="0")
        assert main(["run", str(path)]) == 2
        assert "runs" in capsys.readouterr().err

    def test_missing_bundle_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 1
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workers, message",
        [
            (-3, "a.cfg: workers: must be >= 0"),
            ("two", "a.cfg: workers: invalid literal for int() with base 10: 'two'"),
        ],
        ids=["key_negative", "key_word"],
    )
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, workers, message):
        assert main(["run", str(write_config(tmp_path / "a.cfg", workers=workers))]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    def test_lost_trace_file_is_skipped_by_analyze_and_plot(self, tmp_path, capsys):
        assert main(["run", str(write_config(tmp_path / "a.cfg", runs=4))]) == 0
        bundle = tmp_path / "bundle"
        lost, kept = load_manifest(bundle)["cells"]
        (bundle / lost["file"]).unlink()
        assert main(["analyze", str(bundle)]) == 0
        assert main(["plot", str(bundle)]) == 0
        rows = (bundle / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] == "-" for row in rows] == [True, False]
        svg = (bundle / "convergence_p09.svg").read_text()
        assert kept["label"] in svg and lost["label"] not in svg

    def test_inf_final_is_left_out_of_the_tests_and_the_plot(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", problems="9, 10", operators="PSOX, AX, FX", runs=4)
        assert main(["run", str(cfg)]) == 0
        bundle = tmp_path / "bundle"
        assert main(["analyze", str(bundle)]) == 0
        tables = {name: (bundle / name).read_text().splitlines() for name in ("summary.csv", "dunnett.csv")}
        trace = bundle / "trace_p09_AX_GM.csv"
        lines = trace.read_text().splitlines()
        last = max(i for i, line in enumerate(lines) if line.startswith("1,"))
        lines[last] = lines[last].rsplit(",", 1)[0] + ",INF"
        trace.write_text("\n".join(lines) + "\n")

        assert main(["analyze", str(bundle)]) == 0
        assert main(["plot", str(bundle)]) == 0
        summary = (bundle / "summary.csv").read_text().splitlines()
        assert summary[2].startswith("9,AX,GM,INF,NAN,")
        for old, new in zip(tables["summary.csv"], summary):
            if not new.startswith("9,AX,"):
                assert new.split(",")[:5] == old.split(",")[:5]
            if not new.startswith("9,"):
                assert new == old
        dunnett = (bundle / "dunnett.csv").read_text().splitlines()
        block = [row for row in dunnett if row.startswith("9,")]
        assert [row.split(",")[1] for row in block] == ["AX-GM", "FX-GM"]
        assert block[0] == "9,AX-GM,-,-"
        assert [row for row in dunnett if row.startswith("10,")] == \
            [row for row in tables["dunnett.csv"] if row.startswith("10,")]
        svg = (bundle / "convergence_p09.svg").read_text()
        assert "nan" not in svg and "inf" not in svg

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "{bundle}", "--alpha", "7"], "alpha: must lie in (0, 1), got 7"),
        (["analyze", "{bundle}", "--control", "FOO"], "control: FOO is not an operator of this bundle; it has PSOX, AX"),
    ], ids=["alpha", "control"])
    def test_bad_analyze_flag_exits_2_without_tables(self, tmp_path, capsys, argv, message):
        assert main(["run", str(write_config(tmp_path / "a.cfg", runs=4))]) == 0
        bundle = tmp_path / "bundle"
        assert main([arg.format(bundle=bundle) for arg in argv]) == 2
        assert message in capsys.readouterr().err
        assert not (bundle / "summary.csv").exists() and not (bundle / "dunnett.csv").exists()

    @pytest.mark.parametrize("operators, control, name", [("PSOX, AX", "ax", "AX"), ("PSOX, LX", "lx", "LAPLACE")],
                             ids=["ax", "lx"])
    def test_analyze_prints_the_control_it_tested_against(self, tmp_path, capsys, operators, control, name):
        assert main(["run", str(write_config(tmp_path / "a.cfg", operators=operators, runs=4))]) == 0
        assert main(["analyze", str(tmp_path / "bundle"), "--control", control]) == 0
        assert f"larger than {name}'s (control" in capsys.readouterr().out

    def test_bad_plot_problems_is_a_usage_error(self, tmp_path, capsys):
        assert main(["run", str(write_config(tmp_path / "a.cfg"))]) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["plot", str(tmp_path / "bundle"), "--problems", "9,x"])
        assert exit_info.value.code == 2
        assert "argument --problems: invalid" in capsys.readouterr().err
        assert not list((tmp_path / "bundle").glob("*.svg"))

    @pytest.mark.parametrize("value, drawn", [("1-3", [1, 2, 3]), ("Sphere Function", [9])], ids=["range", "name"])
    def test_plot_problems_take_ranges_and_names(self, tmp_path, capsys, value, drawn):
        assert main(["run", str(write_config(tmp_path / "a.cfg", problems="1-3, 9", operators="PSOX", runs=2))]) == 0
        bundle = tmp_path / "bundle"
        assert main(["plot", str(bundle), "--problems", value]) == 0
        assert sorted(p.name for p in bundle.glob("*.svg")) == [f"convergence_p{pid:02d}.svg" for pid in drawn]

    def test_unknown_plot_problem_is_a_usage_error(self, tmp_path, capsys):
        assert main(["run", str(write_config(tmp_path / "a.cfg"))]) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["plot", str(tmp_path / "bundle"), "--problems", "99"])
        assert exit_info.value.code == 2
        assert "argument --problems: invalid value '99': unknown benchmark problem id 99" in capsys.readouterr().err
        assert not list((tmp_path / "bundle").glob("*.svg"))

    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe_exits_without_traceback(self, flags):
        # Buffered, the write fails in the final flush; unbuffered, in the first print.
        # -E ignores a PYTHONUNBUFFERED the caller set; run from the source
        # directory, -m imports this checkout's package.
        with subprocess.Popen([sys.executable, "-E", *flags, "-m", "rcga", "list-benchmarks"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=SRC) as proc:
            proc.stdout.close()  # the reader is gone before the first line is written
            err = proc.stderr.read().decode()
        assert proc.returncode == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err and "Exception ignored" not in err

    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "Ackley's Problem" in out
        assert "Generalized Penalized Function 2" in out
        assert "noisy" in out

    def test_scale_override(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", generations=4, population_size=12, runs=2)
        assert main(["run", str(cfg), "--output-dir", str(tmp_path / "o1")]) == 0
        manifest = load_manifest(tmp_path / "o1")
        assert manifest["generations"] == 4

    def test_paper_format_flag(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", runs=4)
        main(["run", str(cfg)])
        assert main(["analyze", str(tmp_path / "bundle"), "--paper-format"]) == 0
        summary = (tmp_path / "bundle" / "summary.csv").read_text().splitlines()
        value = summary[1].split(",")[3]
        mantissa = value.split("E")[0]
        assert len(mantissa.lstrip("-")) == 3  # d.d
