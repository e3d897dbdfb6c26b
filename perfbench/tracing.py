"""In-memory span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``Tracer.wrap`` replaces a
library function at the name its callers look up with a wrapper that records
one span per call, and ``Tracer.restore`` puts every original back. A span is
(name, parent span, start, end); spans live in compact arrays so that a
paper-scale run (about a million spans) stays small, and ``save`` writes them
out once the run is over.

A span's self time is its duration minus the durations of its direct
children. Every wrapped call runs on the driving thread and nests strictly,
so children never overlap each other.
"""
from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("engine", "operators", "benchmarks", "experiment", "stats", "svgplot")

CROSSOVERS = {
    "ax_crossover": "AX",
    "fx_crossover": "FX",
    "blx_alpha_crossover": "BLX_ALPHA",
    "sbx_crossover": "SBX",
    "laplace_crossover": "LAPLACE",
    "psox_crossover": "PSOX",
}
MUTATIONS = {"gaussian_mutation": "GM", "nonuniform_mutation": "NUM"}


class Tracer:
    """Records nested spans; span names start with the layer they belong to."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, int] = {}  # span name -> summed work count
        self._open = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._open[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._open.append(i)
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``count`` maps the call's result to a work count summed under ``name``.
        """
        original = vars(owner)[attr]
        nid = self._id(name)
        name_ids, parent, start, end, open_ = self.name_id, self.parent, self.start, self.end, self._open
        work, clock = self.work, time.perf_counter

        # The body of span(), inlined: this runs once per offspring in the engine.
        def traced(*args, **kwargs):
            i = len(start)
            name_ids.append(nid)
            parent.append(open_[-1])
            start.append(clock())
            end.append(0.0)
            open_.append(i)
            try:
                result = original(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if count is not None:
                work[name] = work.get(name, 0) + count(result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        name_id, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def nested_total(self, child_name: str, parent_name: str) -> float:
        """Seconds spent in ``child_name`` spans opened directly inside ``parent_name`` spans."""
        if child_name not in self._ids or parent_name not in self._ids:
            return 0.0
        name_id, parent, start, end = self._arrays()
        mask = name_id == self._ids[child_name]
        parents = parent[mask]
        inside = (parents >= 0) & (name_id[np.maximum(parents, 0)] == self._ids[parent_name])
        return float((end[mask] - start[mask])[inside].sum())

    def save(self, path: Path) -> None:
        name_id, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from rcga import benchmarks, engine, experiment, stats, svgplot

    tracer.wrap(engine, "init_state", "engine.init_state")
    tracer.wrap(engine, "step_generation", "engine.step_generation")
    tracer.wrap(engine.SwarmMemory, "observe", "engine.observe")
    tracer.wrap(engine, "tournament_index", "operators.select")
    for attr, kind in CROSSOVERS.items():
        tracer.wrap(engine, attr, f"operators.crossover.{kind}")
    for attr, kind in MUTATIONS.items():
        tracer.wrap(engine, attr, f"operators.mutate.{kind}")
    tracer.wrap(benchmarks, "batch_eval", "benchmarks.batch_eval", count=len)
    tracer.wrap(experiment, "read_trace_csv", "experiment.read_trace_csv",
                count=lambda runs: sum(curve.size for curve in runs.values()))
    tracer.wrap(experiment, "build_report", "stats.build_report")
    tracer.wrap(stats, "kruskal_wallis", "stats.kruskal_wallis")
    tracer.wrap(stats, "dunnett_one_sided", "stats.dunnett_one_sided")
    tracer.wrap(svgplot, "render_panel", "svgplot.render_panel")


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def layer_metrics(tracer: Tracer, children: int) -> dict[str, float]:
    """Per-layer numbers of one traced unit; ``children`` is the offspring it produced.

    Layers a workload does not exercise report 0.
    """
    s = tracer.summary()

    def get(name, key="total_s"):
        return s.get(name, {}).get(key, 0)

    def matching(prefix, key="total_s"):
        return sum(v[key] for k, v in s.items() if k.startswith(prefix))

    step = get("engine.step_generation")
    evaluated = tracer.work.get("benchmarks.batch_eval", 0)
    m = {
        "engine.step_us_per_child": 1e6 * _per(step, children),
        "engine.self_us_per_child": 1e6 * _per(get("engine.step_generation", "self_s"), children),
        "engine.archive_us_per_gen": 1e6 * _per(get("engine.observe"), get("engine.observe", "calls")),
        "engine.init_ms": 1e3 * _per(get("engine.init_state"), get("engine.init_state", "calls")),
        "engine.children": children,
        "operators.select_us_per_child": 1e6 * _per(get("operators.select"), children),
        "operators.crossover_us_per_child": 1e6 * _per(matching("operators.crossover."), children),
        "operators.mutate_us_per_child": 1e6 * _per(matching("operators.mutate."), children),
        "operators.select_calls": get("operators.select", "calls"),
        "operators.crossover_calls": matching("operators.crossover.", "calls"),
        "operators.mutate_calls": matching("operators.mutate.", "calls"),
        "benchmarks.eval_us_per_child": 1e6 * _per(get("benchmarks.batch_eval"), evaluated),
        "benchmarks.eval_calls": get("benchmarks.batch_eval", "calls"),
        "benchmarks.eval_share": _per(tracer.nested_total("benchmarks.batch_eval", "engine.step_generation"), step),
        "experiment.parse_s": get("experiment.read_trace_csv"),
        "experiment.rows_parsed": tracer.work.get("experiment.read_trace_csv", 0),
        "stats.kw_ms": 1e3 * get("stats.kruskal_wallis"),
        "stats.dunnett_ms": 1e3 * get("stats.dunnett_one_sided"),
        "stats.dunnett_calls": get("stats.dunnett_one_sided", "calls"),
        "svgplot.render_ms": 1e3 * get("svgplot.render_panel"),
    }
    for kind in CROSSOVERS.values():
        name = f"operators.crossover.{kind}"
        m[f"operators.crossover_{kind.lower()}_us_per_call"] = 1e6 * _per(get(name), get(name, "calls"))
    for kind in MUTATIONS.values():
        name = f"operators.mutate.{kind}"
        m[f"operators.mutate_{kind.lower()}_us_per_call"] = 1e6 * _per(get(name), get(name, "calls"))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = matching(f"{layer}.", "self_s")
    return m
