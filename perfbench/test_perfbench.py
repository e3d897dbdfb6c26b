"""Tests of the benchmark's own parts: ``python3 -m pytest perfbench`` from the repo root."""
import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bundle  # noqa: E402
from checks import Checks, check_bundle, check_curves  # noqa: E402
from rcga.experiment import load_manifest, read_trace_csv  # noqa: E402
from tracing import Tracer  # noqa: E402


def _add_span(tracer, name, parent, start, end):
    tracer.name_id.append(tracer._id(name))
    tracer.parent.append(parent)
    tracer.start.append(start)
    tracer.end.append(end)
    return len(tracer.start) - 1


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    root = _add_span(t, "engine.step", -1, 0.0, 10.0)
    a = _add_span(t, "operators.a", root, 1.0, 4.0)
    _add_span(t, "benchmarks.leaf", a, 2.0, 3.0)
    _add_span(t, "operators.b", root, 5.0, 6.0)
    _add_span(t, "engine.step", -1, 20.0, 21.0)
    s = t.summary()
    assert s["engine.step"] == {"calls": 2, "total_s": 11.0, "self_s": 7.0}
    assert s["operators.a"]["self_s"] == 2.0
    assert s["operators.b"]["self_s"] == 1.0
    assert s["benchmarks.leaf"]["self_s"] == 1.0
    assert t.nested_total("operators.a", "engine.step") == 3.0
    assert t.nested_total("benchmarks.leaf", "engine.step") == 0.0


def test_wrap_records_nesting_and_restore_puts_originals_back():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    originals = (ns.inner, ns.outer)
    t = Tracer()
    t.wrap(ns, "inner", "layer.inner", count=lambda result: result)
    t.wrap(ns, "outer", "layer.outer")
    assert ns.outer(1) == 4
    t.restore()
    assert (ns.inner, ns.outer) == originals
    assert list(t.parent) == [-1, 0]
    assert t.names[t.name_id[1]] == "layer.inner"
    assert t.work == {"layer.inner": 2}
    s = t.summary()
    assert s["layer.outer"]["self_s"] + s["layer.inner"]["total_s"] == s["layer.outer"]["total_s"]


def _small_bundle(path, seed):
    return bundle.write_bundle(path, seed, problems=(2, 9), runs=3, generations=7)


def test_synthetic_bundle_is_deterministic_and_reads_back(tmp_path):
    first = _small_bundle(tmp_path / "a", 5)
    again = _small_bundle(tmp_path / "b", 5)
    other = _small_bundle(tmp_path / "c", 6)
    assert first["digest"] == again["digest"] != other["digest"]
    for name, finals in first["finals"].items():
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    manifest = load_manifest(tmp_path / "a")
    assert manifest["format"] == "rcga-bundle-v1"
    assert len(manifest["cells"]) == 2 * len(bundle.OPERATORS) * len(bundle.MUTATIONS)
    for cell in manifest["cells"]:
        runs = read_trace_csv(tmp_path / "a" / cell["file"])
        assert sorted(runs) == [1, 2, 3]
        assert all(curve.size == 7 for curve in runs.values())
        assert np.array_equal([runs[r][-1] for r in (1, 2, 3)], first["finals"][cell["file"]])

    checks = Checks()
    check_bundle(checks, tmp_path / "a", len(manifest["cells"]), first["optima"])
    assert checks.attempted > 0 and checks.failed == 0, checks.failures


def test_checks_reject_a_non_monotone_trace(tmp_path):
    checks = Checks()
    check_curves(checks, {1: np.array([3.0, 2.0, 2.0])}, 1, 3, 0.0, "good")
    assert checks.failed == 0
    check_curves(checks, {1: np.array([3.0, 2.0, 2.5])}, 1, 3, 0.0, "bad")
    assert checks.failed == 1 and "increases" in checks.failures[0]

    expected = _small_bundle(tmp_path, 1)
    victim = next(iter(expected["finals"]))
    lines = (tmp_path / victim).read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",9.99999E+99"
    (tmp_path / victim).write_text("\n".join(lines) + "\n")
    checks = Checks()
    check_bundle(checks, tmp_path, len(expected["finals"]), expected["optima"])
    assert checks.failed == 1 and victim in checks.failures[0]


def test_checks_reject_short_traces_and_values_below_the_optimum():
    checks = Checks()
    check_curves(checks, {1: np.array([2.0, 1.0])}, 1, 3, 0.0, "short")
    check_curves(checks, {1: np.array([2.0, 1.0, -1.0])}, 1, 3, 0.0, "below")
    assert checks.failed == 2
