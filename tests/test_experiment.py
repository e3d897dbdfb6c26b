import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from rcga import experiment
from rcga.cli import main
from rcga.engine import RunTrace
from rcga.experiment import (
    CURVES_NAME,
    Cell,
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
    resolve_workers,
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
        "mc_samples": "10000",
        "output_dir": str(path.parent / "bundle"),
    }
    base.update({k: str(v) for k, v in overrides.items()})
    lines = [f"{k} = {v}" for k, v in base.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


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
    ], ids=["selection_k_zero", "elitism_negative", "elitism_above_population"])
    def test_selection_parameter_out_of_range_rejected(self, tmp_path, capsys, key, value, message):
        path = write_config(tmp_path / "a.cfg", **{key: value})
        with pytest.raises(ConfigError, match=rf"a\.cfg: {key}: {message}"):
            parse_config(path)
        assert main(["run", str(path)]) == 2
        assert f"a.cfg: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    def test_mc_samples_below_dunnett_floor_rejected(self, tmp_path):
        assert parse_config(write_config(tmp_path / "a.cfg", mc_samples=10_000)).mc_samples == 10_000
        path = write_config(tmp_path / "a.cfg", mc_samples=9_999)
        with pytest.raises(ConfigError, match=r"a\.cfg: mc_samples: must be at least 10\^4"):
            parse_config(path)

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
        c0 = Cell(index=0, problem=9, operator=CrossoverKind.AX, mutation=MutationKind.GM)
        c1 = Cell(index=1, problem=6, operator=CrossoverKind.AX, mutation=MutationKind.GM)
        assert ga_config_for(cfg, c0, 0).seed == 100
        assert ga_config_for(cfg, c0, 4).seed == 104
        assert ga_config_for(cfg, c1, 0).seed == 105

    def test_mutation_rate_maps_to_per_gene(self):
        cfg = ExperimentConfig(name="x", problems=(9,), dimension=30, mutation_rate=0.1)
        cell = Cell(index=0, problem=9, operator=CrossoverKind.PSOX, mutation=MutationKind.GM)
        ga = ga_config_for(cfg, cell, 0)
        assert ga.mutation.per_gene_rate == pytest.approx(0.1 / 30)


class TestResolveWorkers:
    def test_key_and_environment_values(self, monkeypatch):
        monkeypatch.delenv("RCGA_WORKERS", raising=False)
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == (os.cpu_count() or 1)
        monkeypatch.setenv("RCGA_WORKERS", "2")
        assert resolve_workers(3) == 2
        monkeypatch.setenv("RCGA_WORKERS", "0")
        assert resolve_workers(3) == (os.cpu_count() or 1)


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


class TestWriteTraceCsv:
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        real_open = open

        class HalfWriter:
            """Writes half of what it is given, then fails like a full disk."""

            def __init__(self, path, mode):
                self.fh = real_open(path, mode)

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(experiment, "open", HalfWriter, raising=False)
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

    def test_single_cell_bundle_dashes_kw(self, tmp_path):
        bundle = run_experiment(write_config(tmp_path / "a.cfg", operators="PSOX"))
        analyses = analyze(bundle)
        assert analyses[0].report is None
        summary = (bundle / "summary.csv").read_text().splitlines()
        assert summary[1].endswith(",-")

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

    def test_one_null_is_sampled_per_design(self, tmp_path, monkeypatch):
        from rcga import stats

        sampled = []
        real = stats._sorted_max_null

        def counting(sizes, mc_samples, rng):
            sampled.append((tuple(sizes), mc_samples))
            return real(sizes, mc_samples, rng)

        monkeypatch.setattr(stats, "_sorted_max_null", counting)
        # Problem 4 loses its FX cell, so its block has a second design.
        bundle = write_bundle(tmp_path / "b", planted_finals((1, 2, 3, 4)), failed={(4, "FX")})
        analyses = analyze(bundle)
        assert all(a.report.kw_flag == "+" for a in analyses)
        assert sorted(sampled) == [((5.0, 5.0), 10000), ((5.0, 5.0, 5.0), 10000)]

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
    """``analyze`` leaves ``curves.npz``; ``plot_convergence`` reuses rows whose
    trace bytes still hash to their key and parses every other trace."""

    @staticmethod
    def bundle(tmp_path) -> Path:
        return run_experiment(write_config(tmp_path / "a.cfg", problems="9, 1", runs=4))

    @staticmethod
    def svgs(bundle: Path, out: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in plot_convergence(bundle, output=out)}

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
        path = bundle / load_manifest(bundle)["cells"][0]["file"]
        old = path.read_bytes()
        header, body = old.split(b"\n", 1)
        path.write_bytes(header + b"\n" + body.translate(bytes.maketrans(b"+-", b"-+")))  # flip exponent signs
        assert path.stat().st_size == len(old) and path.read_bytes() != old
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
        else:
            with np.load(digest) as npz:
                arrays = dict(npz)
            np.savez(digest, sha=arrays["sha"][:1], mean=arrays["mean"], std=arrays["std"])
        assert _load_curve_digest(digest) == {}
        drawn = self.svgs(bundle, tmp_path / "a")
        digest.unlink()
        assert drawn == self.svgs(bundle, tmp_path / "b")

    def test_plot_of_an_unanalysed_bundle_writes_no_digest(self, tmp_path):
        bundle = self.bundle(tmp_path)
        assert len(plot_convergence(bundle)) == 2
        assert not (bundle / CURVES_NAME).exists()

    def test_analyze_then_plot_parse_each_trace_once(self, tmp_path, monkeypatch):
        bundle = self.bundle(tmp_path)
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

    def test_keys_with_trailing_nul_bytes_round_trip(self, tmp_path):
        rows = {bytes(31) + b"\x01": (np.arange(3.0), np.ones(3)), b"\xff" * 30 + bytes(2): (np.zeros(3), np.zeros(3))}
        _write_curve_digest(tmp_path / CURVES_NAME, rows)
        loaded = _load_curve_digest(tmp_path / CURVES_NAME)
        assert set(loaded) == set(rows)
        for sha, (mean, std) in rows.items():
            np.testing.assert_array_equal(loaded[sha][0], mean)
            np.testing.assert_array_equal(loaded[sha][1], std)
        assert [p.name for p in tmp_path.iterdir()] == [CURVES_NAME]


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
        manifest = load_manifest(bundle)
        assert manifest["kind"] == "sweep"
        assert all(c["operator"] == "PSOX" and c["mutation"] == "GM" for c in manifest["cells"])

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

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "a.cfg", runs="0")
        assert main(["run", str(path)]) == 2
        assert "runs" in capsys.readouterr().err

    def test_missing_bundle_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 1
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workers, env, message",
        [
            (-3, "", "a.cfg: workers: must be >= 0"),
            (1, "abc", "RCGA_WORKERS: must be an integer >= 0, got 'abc'"),
            (1, "-1", "RCGA_WORKERS: must be an integer >= 0, got '-1'"),
        ],
        ids=["key_negative", "env_word", "env_negative"],
    )
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, monkeypatch, workers, env, message):
        monkeypatch.setenv("RCGA_WORKERS", env)
        assert main(["run", str(write_config(tmp_path / "a.cfg", workers=workers))]) == 2
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "bundle").glob("*"))

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

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe_exits_without_traceback(self, unbuffered):
        # Buffered, the write fails in the final flush; unbuffered, in the first print.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
               "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen([sys.executable, "-m", "rcga", "list-benchmarks"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # the reader is gone before the first line is written
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
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
