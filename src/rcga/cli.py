"""Command-line harness.

Subcommands:
    run <config> [--scale paper|desk]      execute an experiment grid
    analyze <bundle> [--control PSOX] [--alpha 0.05] [--paper-format]
    plot <bundle> [--problems 4,5,7,11] [--output DIR]
    sweep <config> [--scale paper|desk]    mutation-rate sweep (PSOX-GM)
    list-benchmarks                        registry overview

``run`` and ``sweep`` read a config and their flags the same way. They
write each cell's trace CSV as soon as the cell's runs finish, then the
bundle manifest, then the ``curves.npz`` digest of each trace's reduction,
computed from the values as written. The config's ``workers`` key sets
their worker count, an integer >= 0, where 0 means one per CPU the process
may run on. ``analyze`` and ``plot`` hash the trace
files against the digest on one thread per such CPU; they parse, in one
process, only the files no digest row matches, and their outputs depend
on neither count. ``sweep`` reads nothing back: its table
comes from the digest rows of its runs.
``analyze`` refuses a sweep bundle, whose table is ``sweep.csv``.
Exit status is 0 on success, 2 on bad configs/usage, 1 on runtime failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import benchmarks
from .experiment import (
    SCALE_PRESETS,
    ConfigError,
    analyze,
    format_sci,
    mutation_sweep,
    operator_name,
    parse_problems,
    plot_convergence,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rcga", description="Real-coded GA benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_command(sub, "run", "execute all runs of an experiment config", run_experiment, "bundle")

    p_an = sub.add_parser("analyze", help="summaries plus Kruskal-Wallis and Dunnett tables")
    p_an.add_argument("bundle", type=Path)
    p_an.add_argument("--control", default="PSOX", help="control operator for the post-hoc test")
    p_an.add_argument("--alpha", type=float, default=None, help="significance level (default: manifest)")
    p_an.add_argument("--paper-format", action="store_true", help="2 significant digits in the CSVs")
    p_an.set_defaults(handler=_cmd_analyze)

    p_plot = sub.add_parser("plot", help="convergence panels (SVG) from a bundle")
    p_plot.add_argument("bundle", type=Path)
    p_plot.add_argument(
        "--problems", type=_problem_ids, help="problem ids, ranges and names, comma-separated (default: all in bundle)"
    )
    p_plot.add_argument("--output", type=Path, help="directory for the SVG files")
    p_plot.set_defaults(handler=_cmd_plot)

    _add_config_command(sub, "sweep", "mutation-rate sweep with the PSOX-GM configuration", mutation_sweep, "sweep")

    p_list = sub.add_parser("list-benchmarks", help="show the benchmark registry")
    p_list.set_defaults(handler=_cmd_list_benchmarks)
    return parser


def _add_config_command(sub, name: str, help_text: str, execute, written: str) -> None:
    """A subcommand that reads a config as ``run`` does and passes it to ``execute``."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("config", type=Path)
    parser.add_argument("--scale", choices=list(SCALE_PRESETS),
                        help="set the config's scale key; its explicit population_size/generations/runs keys still win")
    parser.add_argument("--output-dir", type=Path, help="override the bundle directory")
    parser.set_defaults(handler=_cmd_config, execute=execute, written=written)


def _cmd_config(args) -> int:
    """Run ``args.execute`` on the config with the flags as overrides; ``parse_config`` skips the unset (None) ones."""
    bundle = args.execute(args.config, {"scale": args.scale, "output_dir": args.output_dir})
    print(f"{args.written} written to {bundle}")
    return 0


def _cmd_analyze(args) -> int:
    sig = 2 if args.paper_format else 6
    analyses = analyze(args.bundle, control_label=args.control, alpha=args.alpha, sig_figs=sig)
    print(f"wrote {args.bundle}/summary.csv and {args.bundle}/dunnett.csv")
    print(
        "dunnett orientation: one-sided, '+' = treatment objective significantly "
        f"larger than {operator_name(args.control)}'s (control better under minimization)"
    )
    for a in analyses:
        if a.report is None:
            print(f"problem {a.problem} [{a.mutation}]: tests skipped (insufficient groups or runs)")
            continue
        print(
            f"problem {a.problem} [{a.mutation}]: KW H={a.report.kw_h:.4f} "
            f"p={a.report.kw_p:.4f} ({a.report.kw_method}) {a.report.kw_flag}"
        )
    return 0


def _problem_ids(raw: str) -> tuple[int, ...]:
    """``--problems`` as the config's ``problems`` key reads it; a bad value is a usage error."""
    try:
        return parse_problems(raw)
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"invalid value {raw!r}: {exc.args[0]}") from None


def _cmd_plot(args) -> int:
    written = plot_convergence(args.bundle, problems=args.problems, output=args.output)
    for path in written:
        print(path)
    return 0


def _cmd_list_benchmarks(args) -> int:
    print(f"{'id':>3}  {'name':<34} {'bounds':<20} {'f* (n=30)':<14} {'landscape'}")
    for pid in sorted(benchmarks.REGISTRY):
        e = benchmarks.REGISTRY[pid]
        spec = benchmarks.benchmark_spec(pid)
        tags = "multimodal" if e.multimodal else "unimodal"
        if e.noisy:
            tags += ", noisy"
        bounds = f"[{e.lower:g}, {e.upper:g}]"
        fstar = format_sci(spec.optimum_value, 3)
        if e.noisy:
            fstar += " (exp.)"
        print(f"{pid:>3}  {e.name:<34} {bounds:<20} {fstar:<14} {tags}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a reader that closed early fails here, not in the flush at interpreter exit
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # send what is still buffered to devnull, so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
