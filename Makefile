# Canonical developer commands for the fvsst reproduction.

.PHONY: install test bench bench-save bench-sim bench-fleet bench-hier \
	bench-compare chaos-hier experiments validate examples digest-check all

BENCH_BASELINE := benchmarks/BENCH_hotpaths.json
BENCH_CURRENT  := .bench_current.json

install:
	pip install -e '.[dev]' --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Simulation-layer benches only: the fleet advance's hot paths (one-lane
# spans, cluster-scale machine spans, counter sampling).
bench-sim:
	pytest benchmarks/test_bench_hotpaths.py --benchmark-only \
		-k "advance or counter"

# The fleet-wide columnar kernel's hot path only: 1024 bankless machines
# through the event loop, every span one numpy pass over all lanes.
bench-fleet:
	pytest benchmarks/test_bench_hotpaths.py --benchmark-only \
		-k advance_1024_nodes

# The hierarchical control plane's hot path only: one full fleet round
# (256 shard passes + water-fill) over 1024 nodes.
bench-hier:
	pytest benchmarks/test_bench_hotpaths.py --benchmark-only -k hier

# Datacenter-scale chaos smoke: 1024 nodes / 256 shards through the
# partition/crash/chaos fleet fault scenarios, three seeds.  Costs a few
# minutes per seed; CI runs one seed per matrix entry (-k seed2005 etc.).
chaos-hier:
	pytest benchmarks/test_chaos_hier.py

# Refresh the committed hot-path baseline (do this on the reference
# machine after an intentional perf change, and commit the JSON).
bench-save:
	pytest benchmarks/test_bench_hotpaths.py --benchmark-only \
		--benchmark-json=$(BENCH_BASELINE)

# Re-run the hot-path benches and fail on >3x mean regression vs the
# committed baseline (per-bench thresholds live in compare_baseline.py;
# same check CI's bench-smoke job runs).
bench-compare:
	pytest benchmarks/test_bench_hotpaths.py --benchmark-only \
		--benchmark-json=$(BENCH_CURRENT)
	python benchmarks/compare_baseline.py $(BENCH_BASELINE) \
		$(BENCH_CURRENT) --max-ratio 3.0

experiments:
	fvsst run all

validate:
	fvsst validate

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

# The serial `fvsst digest --fast` must hash to its committed value (the
# first two steps of CI's digest-invariance job).
digest-check:
	PYTHONPATH=src python -m repro.cli digest --fast --output digest-check/serial.md
	sha256sum -c tests/golden/digest-fast.sha256

all: test bench validate
