"""End-to-end simulator benchmark: host time of four whole workloads.

Run from the repository root::

    python benchmarks/e2e/run.py                       # all four, seed 2005
    python benchmarks/e2e/run.py --seed 7 --trace      # per-layer breakdown
    python benchmarks/e2e/run.py --workload serve-flash --seed 3 \\
        --seconds 30 --trace 0

Every run of a workload happens in its own fresh single-threaded process,
one after another.  ``--seconds`` repeats runs while the next one should
end within that time (at least ``MIN_RUNS``) and reports medians; a
traced invocation alternates untraced and traced runs, so the tracing
overhead is measured on the same machine state.  Every time is CPU time
of the run's process scaled to a reference core speed, which the run
measures alongside (:mod:`e2e_clock`).  Each invocation ends
with one JSON line: ``correct``, ``attempted`` and ``failed`` count the
output checks, and ``metrics`` holds the end-to-end metrics (untraced)
or the per-layer ones (traced), each as ``{"value", "unit"}``.

The simulated outputs of every run are hashed into a fingerprint that
must equal the golden value in ``golden.json`` for the golden seed, must
not differ between runs or between traced and untraced runs, and must
satisfy the invariants of :func:`e2e_workloads.checks` on every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
GOLDEN = HERE / "golden.json"
BENCHMARK_JSON = REPO / "BENCHMARK.json"

DEFAULT_SEED = 2005
#: Runs per measured invocation when ``--seconds`` is given.
MIN_RUNS = 3
#: Stop starting runs once this much of the per-invocation limit is used.
WALL_CAP_S = 120.0
#: Per-run timeout for the worker process.
RUN_TIMEOUT_S = 150.0

#: Worker environment: single-threaded numeric libraries, stable hashing.
_WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_once(name: str, seed: int, *, trace: bool = False,
             cpu0: float | None = None, horizon_scale: float = 1.0) -> dict:
    """One run of workload ``name``: build, warm up, time the segments,
    extract and check.  ``cpu0`` is the process CPU time at which set-up
    began: 0 in a fresh worker process, whose clock starts at its exec.

    Times are CPU seconds scaled to the reference core (see
    :mod:`e2e_clock`): one reference quantum runs after every segment,
    outside the timed region."""
    from e2e_clock import Reference, clock
    if cpu0 is None:
        cpu0 = clock()
    from e2e_trace import SpanStack, layer_metrics, tallies, traced
    from e2e_workloads import (SEGMENTS, WORKLOADS, checks, extract,
                               fingerprint, sim_summary)

    workload = WORKLOADS[name]
    horizon = workload.horizon_s * horizon_scale
    seg = horizon / SEGMENTS
    sc = workload.build(seed, horizon + seg)
    spans = SpanStack() if trace else None
    with traced(sc, spans) if trace else nullcontext():
        sc.sim.run_for(seg)
        setup_s = clock() - cpu0
        reference = Reference()
        instr0 = sum(c.counters.instructions
                     for m in sc.cluster.machines for c in m.cores)
        before = tallies(sc)
        segments = []
        if spans is not None:
            spans.reset()
        for _ in range(SEGMENTS):
            s0 = clock()
            if spans is None:
                sc.sim.run_for(seg)
            else:
                spans.call("driver", sc.sim.run_for, seg)
            segments.append(clock() - s0)
            reference.tick()
        x0 = clock()
        results = extract(sc)
        extract_s = clock() - x0
    speed = reference.speed()
    out = {
        "timing": {
            "segments_s": [s * speed for s in segments],
            "extract_s": extract_s * speed,
            "instructions": sum(results["instructions"]) - instr0,
            "setup_s": setup_s * speed,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "speed": speed,
        },
        "fingerprint": fingerprint(results),
        "checks": checks(sc, results),
        "sim": sim_summary(results),
    }
    if spans is not None:
        out["layers"] = layer_metrics(spans, sc, sum(segments) + extract_s,
                                      before, tallies(sc), speed)
    return out


def _per_segment(runs: list[dict]) -> list[float]:
    """Each timed segment's cost, sorted: the median over runs of its time.

    The simulation is deterministic, so segment ``i`` does the same work
    in every run, and the median keeps a slow spell of the host during
    one run from moving the result."""
    return sorted(statistics.median(seg) for seg in
                  zip(*(r["timing"]["segments_s"] for r in runs)))


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of repeated runs of one workload and seed.

    ``cpu_s`` sums the per-segment costs and the median extraction time.
    Set-up time and memory are medians over runs.
    """
    timings = [r["timing"] for r in runs]
    cpu_s = sum(_per_segment(runs)) + statistics.median(
        t["extract_s"] for t in timings)
    return {
        "cpu_s": cpu_s,
        "sim_mips": timings[0]["instructions"] / cpu_s / 1e6,
        "setup_s": statistics.median(t["setup_s"] for t in timings),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in timings),
    }


def segment_percentiles(runs: list[dict]) -> dict[str, float]:
    """Median and p90 of the per-segment costs (p90 is the highest
    percentile with ten segments beyond it)."""
    per_segment = _per_segment(runs)
    return {"driver.segment_ms_p50": statistics.median(per_segment) * 1e3,
            "driver.segment_ms_p90": per_segment[-11] * 1e3}


# -- the parent: one process per run ------------------------------------------


def _fail(message: str) -> None:
    """Abort without a result (exit 2; exit 1 means checks failed)."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _spawn(name: str, seed: int, trace: bool) -> dict:
    env = dict(os.environ, **_WORKER_ENV)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", name,
         "--seed", str(seed), "--trace", str(int(trace))],
        cwd=REPO, env=env, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        _fail(f"{name} run (seed {seed}) exited with code "
              f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json metric list."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_outcomes(name: str, seed: int, runs: list[dict],
                   golden: dict) -> list[tuple[str, bool]]:
    """Every output check over a set of runs of one workload and seed:
    each run's invariants, one fingerprint across all runs (traced or
    not), and the golden fingerprint for the golden seed."""
    outcomes: list[tuple[str, bool]] = []
    for r in runs:
        outcomes.extend(r["checks"].items())
    prints = {r["fingerprint"] for r in runs}
    outcomes.append(("fingerprint_repeats", len(prints) == 1))
    expected = golden.get("fingerprints", {}).get(name)
    if seed == golden.get("seed") and expected is not None:
        outcomes.append(("fingerprint_golden", prints == {expected}))
    return outcomes


def measure(name: str, seed: int, seconds: float, trace: bool,
            golden: dict) -> dict:
    """Repeat runs of ``name`` for ``seconds`` and summarise them."""
    min_runs = MIN_RUNS if seconds > 0 else 1
    plain: list[dict] = []
    traced_runs: list[dict] = []
    start = time.monotonic()
    while True:
        plain.append(_spawn(name, seed, False))
        if trace:
            traced_runs.append(_spawn(name, seed, True))
        # Start another run only if it should end within the time given.
        next_end = (time.monotonic() - start) * (len(plain) + 1) / len(plain)
        if (len(plain) >= min_runs and next_end > seconds) \
                or next_end > WALL_CAP_S:
            break

    runs = plain + traced_runs
    outcomes = check_outcomes(name, seed, runs, golden)

    if trace:
        # median_low keeps counts whole: it is always one run's value.
        values = {m: statistics.median_low(r["layers"][m]
                                           for r in traced_runs)
                  for m in traced_runs[0]["layers"]}
        values.update(segment_percentiles(traced_runs))
        values["trace.overhead_frac"] = (
            end_to_end(traced_runs)["cpu_s"]
            / end_to_end(plain)["cpu_s"] - 1.0)
    else:
        values = end_to_end(plain)
    failed = [k for k, ok in outcomes if not ok]
    return {
        "runs": len(runs),
        "speed": statistics.median(r["timing"]["speed"] for r in runs),
        "values": values,
        "sim": plain[0]["sim"],
        "fingerprint": plain[0]["fingerprint"],
        "attempted": len(outcomes),
        "failed": failed,
    }


def _report(name: str, summary: dict, units: dict[str, str]) -> dict:
    """Print one workload's metrics for readers; return its JSON result."""
    print(f"== {name}: {summary['runs']} run(s), "
          f"fingerprint {summary['fingerprint'][:16]}, "
          f"host at {summary['speed']:.2f}x the reference core")
    for metric, value in summary["values"].items():
        print(f"  {metric:<26} {value:>14.6g} {units.get(metric, '')}")
    for metric, value in summary["sim"].items():
        print(f"  {metric:<26} {value:>14.6g}   (simulated; not compared)")
    for check in summary["failed"]:
        print(f"  FAILED check: {check}")
    missing = set(units) - set(summary["values"])
    if missing:
        _fail(f"metrics missing from the run: {sorted(missing)}")
    return {
        "correct": not summary["failed"],
        "attempted": summary["attempted"],
        "failed": len(summary["failed"]),
        "metrics": {m: {"value": summary["values"][m], "unit": units[m]}
                    for m in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat runs for this long and report "
                             "medians (default: one run)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from traced runs")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the seed's fingerprints as golden")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        _fail(f"simulator sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.worker:
        print(json.dumps(run_once(args.worker, args.seed,
                                  trace=bool(args.trace), cpu0=0.0)))
        return 0

    from e2e_workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        _fail(f"unknown workload {unknown[0]!r}; available: "
              f"{', '.join(WORKLOADS)}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if args.write_golden:
        prints = golden.get("fingerprints", {}) \
            if golden.get("seed") == args.seed else {}
        prints.update({n: _spawn(n, args.seed, False)["fingerprint"]
                       for n in names})
        golden = {"seed": args.seed, "fingerprints": prints}
        GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
        print(f"wrote {GOLDEN.relative_to(REPO)} for seed {args.seed}")
        return 0

    units = _units("per_layer" if args.trace else "end_to_end")
    all_ok = True
    for name in names:
        result = _report(name, measure(name, args.seed, args.seconds,
                                       bool(args.trace), golden), units)
        all_ok &= result["correct"]
        print(json.dumps(result))
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
