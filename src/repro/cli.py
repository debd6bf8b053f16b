"""Command-line interface: ``fvsst`` (or ``python -m repro``).

Subcommands:

* ``fvsst list`` — show the available experiments.
* ``fvsst run <experiment> [--fast] [--seed N] [--precision P]`` — run one
  experiment (or ``all``) and print its paper-style tables/series.
* ``fvsst table1`` etc. — shorthand for ``run``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis.report import ExperimentResult
from .errors import ConfigError, ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvsst",
        description="Reproduction harness for 'Scheduling Processor Voltage "
                    "and Frequency in Server and Cluster Systems' (2005).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    show_p = sub.add_parser("show",
                            help="re-render a saved JSON result artifact")
    show_p.add_argument("path", help="path written by 'run --output'")
    show_p.add_argument("--precision", type=int, default=3)
    show_p.add_argument("--chart", action="store_true")

    digest_p = sub.add_parser("digest",
                              help="run everything and write a markdown "
                                   "digest")
    digest_p.add_argument("--output", metavar="FILE", default="digest.md")
    digest_p.add_argument("--full", action="store_true")
    digest_p.add_argument("--fast", action="store_true",
                          help="shrunken durations (the default; opposite "
                               "of --full)")
    digest_p.add_argument("--seed", type=int, default=2005)
    digest_p.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="fan experiments across N worker processes "
                               "(output is byte-identical to --jobs 1)")
    digest_p.add_argument("--cache", metavar="DIR", default=None,
                          help="content-addressed result cache directory; "
                               "unchanged experiments are recalled instead "
                               "of re-run")

    val_p = sub.add_parser("validate",
                           help="run the paper-vs-measured validation suite")
    val_p.add_argument("--full", action="store_true",
                       help="full-size experiment runs (slower)")
    val_p.add_argument("--seed", type=int, default=2005)

    run_p = sub.add_parser("run", help="run an experiment and print results")
    run_p.add_argument("experiment",
                       help="experiment id (e.g. table3, fig8) or 'all'")
    run_p.add_argument("--fast", action="store_true",
                       help="shrunken durations (same shapes)")
    run_p.add_argument("--seed", type=int, default=2005,
                       help="root random seed (default 2005)")
    run_p.add_argument("--precision", type=int, default=3,
                       help="decimal places in printed tables")
    run_p.add_argument("--chart", action="store_true",
                       help="render series results as ASCII line charts")
    run_p.add_argument("--output", metavar="DIR", default=None,
                       help="also write JSON + CSV artifacts into DIR")
    run_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for experiments that fan "
                            "out sweep points (deterministic: same "
                            "results at any N)")
    run_p.add_argument("--telemetry", metavar="DIR", default=None,
                       help="enable telemetry collection and write the "
                            "JSONL event/span stream, a Prometheus text "
                            "snapshot, and a summary table into DIR")
    from .cluster.faults import FAULT_SCENARIOS
    # argparse treats '%' in help strings as a format spec; descriptions
    # mention loss percentages, so escape them.
    scenarios = "; ".join(f"{name}: {desc}"
                          for name, desc in FAULT_SCENARIOS.items()
                          ).replace("%", "%%")
    run_p.add_argument("--faults", metavar="SCENARIO", default=None,
                       help="inject a named fault scenario into the "
                            "cluster control plane (only cluster "
                            f"experiments support it) — {scenarios}")
    run_p.add_argument("--shards", type=int, default=None, metavar="N",
                       help="run cluster experiments through the "
                            "hierarchical control plane with N nodes per "
                            "shard (only cluster experiments support it)")
    run_p.add_argument("--slo-p99-ms", type=float, default=None,
                       metavar="MS", dest="slo_p99_ms",
                       help="p99 latency target for SLO-aware serving "
                            "experiments, in milliseconds (only serving "
                            "experiments support it)")
    return parser


def _run_one(experiment_id: str, *, seed: int, fast: bool,
             precision: int, chart: bool = False,
             output: str | None = None,
             faults: str | None = None,
             shards: int | None = None,
             slo_p99_ms: float | None = None) -> ExperimentResult:
    from .experiments import run_experiment

    kwargs = {}
    if faults is not None:
        kwargs["faults"] = faults
    if shards is not None:
        kwargs["shards"] = shards
    if slo_p99_ms is not None:
        kwargs["slo_p99_ms"] = slo_p99_ms
    try:
        # Deterministic experiments ignore the seed; passing it is harmless.
        result = run_experiment(experiment_id, seed=seed, fast=fast, **kwargs)
    except TypeError:
        if not kwargs:
            raise
        flags = " / ".join(f"--{name.replace('_', '-')}" for name in kwargs)
        raise ConfigError(
            f"experiment {experiment_id!r} does not support {flags}"
        ) from None
    print(result.render(precision=precision))
    if chart and result.series:
        from .analysis.charts import line_chart
        for series in result.series:
            numeric_x = [float(v) for v in series.x]
            print()
            print(line_chart(numeric_x, dict(series.series),
                             title=series.title or series.x_label))
    if output is not None:
        from pathlib import Path
        from .analysis.export import export_csv, save_result
        directory = Path(output)
        save_result(result, directory / f"{experiment_id}.json")
        export_csv(result, directory)
        print(f"artifacts written to {directory}/")
    print()
    return result


def _run_with_telemetry(ids: Sequence[str], args) -> int:
    """Run experiments with a live telemetry backend exporting into a dir.

    Writes ``telemetry.jsonl`` (streamed events/spans plus a final metrics
    snapshot), ``metrics.prom`` (Prometheus text format), and prints the
    summary tables.
    """
    from pathlib import Path
    from .errors import ConfigError
    from .telemetry import (JsonlSink, Telemetry, prometheus_text,
                            telemetry_report, use_telemetry)

    directory = Path(args.telemetry)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"--telemetry {directory}: not a usable directory ({exc})"
        ) from exc
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        with JsonlSink(directory / "telemetry.jsonl", telemetry) as sink:
            for eid in ids:
                _run_one(eid, seed=args.seed, fast=args.fast,
                         precision=args.precision, chart=args.chart,
                         output=args.output,
                         faults=getattr(args, "faults", None),
                         shards=getattr(args, "shards", None),
                         slo_p99_ms=getattr(args, "slo_p99_ms", None))
            sink.write_snapshot()
        (directory / "metrics.prom").write_text(
            prometheus_text(telemetry.metrics), encoding="utf-8")
    print(telemetry_report(telemetry))
    print(f"\ntelemetry written to {directory}/ "
          f"(telemetry.jsonl, metrics.prom)")
    return 0


def _check_precision(precision: int) -> None:
    """Reject a ``--precision`` the table renderer cannot format."""
    if precision < 0:
        raise ConfigError("--precision must be non-negative")


def _run_command(args) -> int:
    """``fvsst run``: validate the flags, then run the selected
    experiments."""
    from .experiments import REGISTRY

    _check_precision(args.precision)
    ids = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    if args.jobs != 1:
        if args.telemetry is not None:
            # Pool workers run with NullTelemetry, so a pooled run would
            # record nothing.  Instrumentation wins.
            print("note: --telemetry forces --jobs 1", file=sys.stderr)
        else:
            from .exec import configure
            configure(args.jobs)
    if args.faults is not None:
        from .cluster.faults import FAULT_SCENARIOS, scenario_catalog
        if args.faults not in FAULT_SCENARIOS:
            raise ConfigError(
                f"unknown fault scenario {args.faults!r}; "
                f"available:\n{scenario_catalog()}"
            )
    if args.shards is not None and args.shards < 1:
        raise ConfigError("--shards must be at least 1")
    if args.slo_p99_ms is not None and args.slo_p99_ms <= 0:
        raise ConfigError("--slo-p99-ms must be positive")
    if args.telemetry is not None:
        return _run_with_telemetry(ids, args)
    for eid in ids:
        _run_one(eid, seed=args.seed, fast=args.fast,
                 precision=args.precision, chart=args.chart,
                 output=args.output, faults=args.faults,
                 shards=args.shards, slo_p99_ms=args.slo_p99_ms)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    from .experiments import REGISTRY

    try:
        if args.command == "list":
            for eid in sorted(REGISTRY):
                print(eid)
            return 0
        if args.command == "show":
            from .analysis.export import load_result
            _check_precision(args.precision)
            result = load_result(args.path)
            print(result.render(precision=args.precision))
            if args.chart and result.series:
                from .analysis.charts import line_chart
                for series in result.series:
                    print()
                    print(line_chart([float(v) for v in series.x],
                                     dict(series.series),
                                     title=series.title or series.x_label))
            return 0
        if args.command == "digest":
            from .digest import write_digest
            if args.full and args.fast:
                raise ConfigError("--full and --fast are mutually exclusive")
            path = write_digest(args.output, fast=not args.full,
                                seed=args.seed, jobs=args.jobs,
                                cache_dir=args.cache)
            print(f"digest written to {path}")
            return 0
        if args.command == "validate":
            from .validation import run_validation
            report = run_validation(fast=not args.full, seed=args.seed)
            print(report.render())
            return 0 if report.passed else 1
        if args.command == "run":
            from .exec import configure, configured_jobs
            jobs = configured_jobs()
            try:
                return _run_command(args)
            finally:
                # --jobs sets a process-wide count; later calls in the
                # same process must not inherit this run's fan-out.
                configure(jobs)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
