"""Compare a fresh pytest-benchmark JSON run against a committed baseline.

Usage::

    python benchmarks/compare_baseline.py BASELINE.json CURRENT.json \
        [--max-ratio 3.0]

Exits non-zero when any benchmark present in both files regressed by more
than its threshold on mean time: ``--max-ratio`` by default, or the
per-bench entry in :data:`MAX_RATIO_FOR`.  Benchmarks missing from either
side are reported but never fail the check (machines differ; new benches
have no history yet).  ``make bench-save`` / ``make bench-compare`` wrap
this, and CI's bench-smoke job runs it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Per-bench thresholds that replace ``--max-ratio``.  Microsecond- and
#: low-millisecond-scale benches (residency, power series) and the
#: numpy-heavy fleet and hierarchy rounds swing with the runner's cache and
#: scheduler noise, so they get 5x headroom.  The 16-node banked advance is
#: long and stable, so it is held tighter than the default to pin the fleet
#: path's win.
MAX_RATIO_FOR = {
    "test_bench_frequency_residency": 5.0,
    "test_bench_power_series": 5.0,
    "test_bench_hier_round_1024_nodes": 5.0,
    "test_bench_advance_1024_nodes_10s": 5.0,
    "test_bench_advance_16_nodes_100s": 2.0,
    "test_bench_serving_advance": 5.0,
    "test_bench_agent_sample_tick": 5.0,
}


def _means(path: Path) -> dict[str, float]:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read benchmark JSON {path}: {exc}")
    return {b["name"]: float(b["stats"]["mean"])
            for b in data.get("benchmarks", [])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help="fail when current mean exceeds baseline mean "
                             "by more than this factor (default 3.0) for "
                             "benches without a MAX_RATIO_FOR entry")
    args = parser.parse_args(argv)

    baseline = _means(args.baseline)
    current = _means(args.current)
    failures = []
    width = max((len(n) for n in current), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  ratio")
    for name in sorted(current):
        mean = current[name]
        base = baseline.get(name)
        if base is None:
            print(f"{name:<{width}}  {'(new)':>12}  {mean:>12.3e}      -")
            continue
        ratio = mean / base if base > 0 else float("inf")
        limit = MAX_RATIO_FOR.get(name, args.max_ratio)
        flag = ""
        if ratio > limit:
            failures.append((name, ratio))
            flag = f"  REGRESSION (>{limit:g}x)"
        print(f"{name:<{width}}  {base:>12.3e}  {mean:>12.3e}  "
              f"{ratio:5.2f}{flag}")
    for name in sorted(set(baseline) - set(current)):
        print(f"{name:<{width}}  {baseline[name]:>12.3e}  {'(absent)':>12}"
              f"      -")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond their "
              f"threshold vs the baseline mean.")
        return 1
    print("\nno regressions beyond the threshold.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
