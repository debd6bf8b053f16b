"""Benchmark configuration.

Every paper artifact has one bench that regenerates it (fast mode) through
``pytest-benchmark``, so ``pytest benchmarks/ --benchmark-only`` both times
the harness and re-checks the headline shapes.  Micro-benches cover the hot
paths (scheduler pass, simulator advance, predictor).
"""

import sys
from pathlib import Path

# Make `benchmarks.*` helpers importable when pytest rootdir differs.
sys.path.insert(0, str(Path(__file__).resolve().parent))


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Keep per-bench summary stats only: the per-round samples bloat the
    committed baseline, and ``compare_baseline.py`` reads only the mean."""
    for bench in output_json.get("benchmarks", []):
        bench.get("stats", {}).pop("data", None)
