"""Self-checks of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Each
workload runs in-process: at a quarter of its horizon for the tracing and
check-sensitivity tests (a twentieth would end before cap-closed's first
global pass), and at its full horizon for the golden and held-out seeds.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from e2e_workloads import (SEGMENTS, WORKLOADS, checks,  # noqa: E402
                           extract, fingerprint)

_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
e2e_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_run)

NAMES = list(WORKLOADS)
SHORT = 0.25
HELD_OUT_SEED = 7
GOLDEN = json.loads((HERE / "golden.json").read_text())
#: Per-layer self times; with trace.unattributed_s they make up the
#: traced CPU time.
SELF_TIMES = ("driver.self_s", "fleet.columns_s", "machine.delegate_s",
              "traffic.arrival_s", "traffic.harvest_s", "agent.sample_s",
              "coord.collect_s", "coord.predict_s", "coord.schedule_s",
              "coord.record_s", "coord.dispatch_s", "net.delivery_s",
              "hier.rebalance_s", "hier.summary_s", "hier.lease_s",
              "log.query_s")


@pytest.mark.parametrize("name", NAMES)
def test_tracing_does_not_perturb_outputs(name):
    plain = e2e_run.run_once(name, 2005, horizon_scale=SHORT)
    traced = e2e_run.run_once(name, 2005, trace=True, horizon_scale=SHORT)
    assert traced["fingerprint"] == plain["fingerprint"]
    assert all(plain["checks"].values()) and all(traced["checks"].values())

    layers = traced["layers"]
    cpu = layers["trace.cpu_s"]
    total = sum(layers[m] for m in SELF_TIMES) + layers["trace.unattributed_s"]
    assert total == pytest.approx(cpu, rel=0.01)
    # Nothing is counted twice: the remainder is not negative.
    assert layers["trace.unattributed_s"] >= -0.01 * cpu
    assert layers["driver.events"] > 0 and layers["fleet.spans"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_statistic_fails_a_check(name):
    workload = WORKLOADS[name]
    horizon = workload.horizon_s * SHORT
    sc = workload.build(2005, horizon * (1 + 1 / SEGMENTS))
    sc.sim.run_for(horizon * (1 + 1 / SEGMENTS))
    results = extract(sc)
    good = {"fingerprint": fingerprint(results), "checks": checks(sc, results)}
    golden = {"seed": 2005, "fingerprints": {name: good["fingerprint"]}}
    assert all(ok for _, ok in e2e_run.check_outcomes(name, 2005, [good],
                                                      golden))

    # One cycle counter off by its last bit.
    results["cycles"][0] = math.nextafter(results["cycles"][0], math.inf)
    bad = {"fingerprint": fingerprint(results), "checks": checks(sc, results)}
    outcomes = e2e_run.check_outcomes(name, 2005, [bad], golden)
    assert sum(not ok for _, ok in outcomes) > 0
    outcomes = e2e_run.check_outcomes(name, 2005, [good, bad], {})
    assert sum(not ok for _, ok in outcomes) > 0

    if "issued" in results:
        results["issued"] += 1
        assert not checks(sc, results)["requests_conserved"]


@pytest.mark.parametrize("name", NAMES)
def test_golden_seed_is_bit_exact(name):
    run = e2e_run.run_once(name, GOLDEN["seed"])
    outcomes = e2e_run.check_outcomes(name, GOLDEN["seed"], [run], GOLDEN)
    assert ("fingerprint_golden", True) in outcomes
    assert all(ok for _, ok in outcomes)


@pytest.mark.parametrize("name", NAMES)
def test_held_out_seed_passes_invariants(name):
    run = e2e_run.run_once(name, HELD_OUT_SEED)
    assert run["checks"] and all(run["checks"].values()), run["checks"]
