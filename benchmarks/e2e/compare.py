"""Compare two sets of end-to-end results by the benchmark's gain rule.

Collect pairs (alternating which side runs first), then report::

    python benchmarks/e2e/compare.py run PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --out /tmp/cmp [--workload NAME ...] [--pairs 10] [--seed 2005] \\
        [--seconds 15] [--trace]
    python benchmarks/e2e/compare.py report /tmp/cmp/base /tmp/cmp/new

A result set is a directory of ``<workload>-<pair>.json`` files, each the
last line ``run.py --workload <workload>`` printed.  For every workload
and metric the report gives each side's median and quartiles, the share
of pairs the change won (ties count for neither side), and a verdict:

* ``gain``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile spread;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* ``unresolved``: either side's quartile spread (as a share of its
  median) exceeds the bound, and not every change run beats every parent
  run;
* ``within bound`` otherwise (``-`` for per-layer metrics, which have no
  bound: their medians and wins are shown for the trace argument only).

Exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
#: metric -> (better, bound or None)
RULES = {m["name"]: (m["better"], m.get("bound"))
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """``workload -> pair index -> result`` from one result directory."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        workload, _, pair = path.stem.rpartition("-")
        if not workload or not pair.isdigit():
            continue
        result = json.loads(path.read_text().strip().splitlines()[-1])
        out.setdefault(workload, {})[int(pair)] = result
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: str, base: list[float], new: list[float]) -> dict:
    """Apply the rule to one metric's paired values (same order)."""
    better, bound = RULES.get(metric, ("lower", None))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    bq1, bmed, bq3 = _quartiles(base)
    nq1, nmed, nq3 = _quartiles(new)
    worse = -sign * (nmed - bmed)
    row = {"base": (bq1, bmed, bq3), "new": (nq1, nmed, nq3),
           "won": wins / len(base)}
    if bound is None:
        row["verdict"] = "-"
        return row
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if row["won"] >= 0.9 and -worse > bq3 - bq1:
        row["verdict"] = "gain"
    elif worse > bound * abs(bmed):
        row["verdict"] = "regression"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "within bound"
    return row


def report(base_dir: Path, new_dir: Path) -> int:
    base, new = load(base_dir), load(new_dir)
    regressed = False
    for workload in sorted(set(base) & set(new)):
        pairs = sorted(set(base[workload]) & set(new[workload]))
        if not pairs:
            continue
        b_runs = [base[workload][k] for k in pairs]
        n_runs = [new[workload][k] for k in pairs]
        failed = sum(r["failed"] for r in n_runs)
        print(f"== {workload}: {len(pairs)} pairs; failed checks "
              f"parent {sum(r['failed'] for r in b_runs)}, "
              f"change {failed}")
        if len(pairs) < 10:
            print("  (fewer than 10 pairs: no gain may be claimed)")
        print(f"  {'metric':<24} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'won':>5}  verdict")
        for metric in b_runs[0]["metrics"]:
            if metric not in n_runs[0]["metrics"]:
                continue
            row = verdict(metric,
                          [r["metrics"][metric]["value"] for r in b_runs],
                          [r["metrics"][metric]["value"] for r in n_runs])
            if len(pairs) < 10 and row["verdict"] == "gain":
                row["verdict"] = "within bound"
            regressed |= row["verdict"] == "regression"
            fmt = "{:9.4g}/{:9.4g}/{:9.4g}"
            print(f"  {metric:<24} {fmt.format(*row['base']):>30} "
                  f"{fmt.format(*row['new']):>30} {row['won']:5.0%}  "
                  f"{row['verdict']}")
        regressed |= failed > 0
    return 1 if regressed else 0


def collect(args: argparse.Namespace) -> int:
    """Run alternating pairs of the two checkouts, then report."""
    sides = {"base": Path(args.base).resolve(),
             "new": Path(args.new).resolve()}
    for side, root in sides.items():
        (args.out / side).mkdir(parents=True, exist_ok=True)
        if not (root / "benchmarks/e2e/run.py").is_file():
            raise SystemExit(f"error: no benchmark under {root}")
    for workload in args.workload or WORKLOADS:
        for k in range(args.pairs):
            order = ["base", "new"] if k % 2 == 0 else ["new", "base"]
            for side in order:
                proc = subprocess.run(
                    [sys.executable, "benchmarks/e2e/run.py",
                     "--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(int(args.trace))],
                    cwd=sides[side], capture_output=True, text=True)
                # Exit 1 still carries a result (its checks failed).
                if proc.returncode not in (0, 1):
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"error: {side} run of {workload} "
                                     f"failed")
                (args.out / side / f"{workload}-{k}.json").write_text(
                    proc.stdout.strip().splitlines()[-1] + "\n")
    return report(args.out / "base", args.out / "new")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    rep = sub.add_parser("report", help="compare two result directories")
    rep.add_argument("base", type=Path)
    rep.add_argument("new", type=Path)
    run = sub.add_parser("run", help="collect alternating pairs, then report")
    run.add_argument("base", help="checkout of the parent commit")
    run.add_argument("new", help="checkout of the change")
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--workload", action="append", choices=WORKLOADS)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=2005)
    run.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    run.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.cmd == "report":
        return report(args.base, args.new)
    return collect(args)


if __name__ == "__main__":
    raise SystemExit(main())
