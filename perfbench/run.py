"""Benchmark entry point for rcga: one workload per invocation.

    python3 perfbench/run.py --workload desk_grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The workload's inputs are made from ``--seed``. With ``--trace 0``
the closed loop repeats the workload's unit of work for up to ``--seconds``
(at least once) and reports the end-to-end metrics; with ``--trace 1`` it runs
one unit untraced, traced and untraced again and reports the per-layer
metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Scratch files go to a ``.bench_work-*`` directory that is
removed at the end; traced spans are saved to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORTS = "import rcga, rcga.experiment, rcga.stats, rcga.svgplot"
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _provenance(load_avg) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "load_avg_at_start": [round(v, 2) for v in load_avg],
    }


def _setup_s(workload) -> float:
    """Median of repeated set-ups: a fresh interpreter's imports plus the workload's inputs."""
    times = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], check=True)
        workload.setup(repeat)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rcga" / "__init__.py").is_file():
        print(f"perfbench: no rcga sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    load_avg = os.getloadavg()
    # Pin BLAS threads before numpy loads; the config, not the caller's
    # environment, decides the pool size.
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    os.environ.pop("RCGA_WORKERS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            workload.setup(0)
            layers, tracer = workload.traced()
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.save(out / f"spans-{args.workload}-{args.seed}.npz")
        else:
            setup_s = _setup_s(workload)
            units = []
            deadline = time.perf_counter() + args.seconds
            # Start a unit only if one as long as the last would end by the
            # deadline, so a run measures at most --seconds (or one unit).
            while True:
                start = time.perf_counter()
                units.append(workload.unit(len(units)))
                now = time.perf_counter()
                if now + (now - start) > deadline:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = workload.checks
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(_provenance(load_avg)))
    if args.trace:
        declared_metrics = declared["per_layer"]
        shown = {m["name"]: (layers[m["name"]], m["unit"]) for m in declared_metrics}
    else:
        declared_metrics = declared["end_to_end"]
        shown = workload.report(units)
        shown["setup_s"] = (setup_s, "s")
        shown["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        shown["failed_share"] = (checks.failed / max(checks.attempted, 1), "share")
        print(f"units {len(units)}; wall_s per unit " + " ".join(f"{u['wall_s']:.4f}" for u in units))
        same = len({u["digest"] for u in units}) == 1
        print(f"digest {units[0]['digest']} ({'same in every unit' if same else 'differs between units'})")
    for name, (value, unit) in shown.items():
        print(f"  {name:<42} {value:.6g} {unit}")
    metrics = {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]} for m in declared_metrics}
    for failure in checks.failures:
        print(f"check failed: {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
