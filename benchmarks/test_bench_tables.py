"""Benches regenerating the paper's three tables."""

from repro.experiments import run_experiment


class TestBenchTable1:
    def test_bench_table1(self, benchmark):
        result = benchmark(lambda: run_experiment("table1"))
        table = result.tables[0]
        assert table.column("Power (W)")[0] == 9.0
        assert table.column("Power (W)")[-1] == 140.0


class TestBenchTable2:
    def test_bench_table2(self, benchmark):
        benchmark.group = "table2"
        result = benchmark.pedantic(
            lambda: run_experiment("table2", fast=True),
            rounds=1, iterations=1,
        )
        starred = result.tables[0].column("CPU3*")
        assert all(v < 0.05 for v in starred)


class TestBenchTable3:
    def test_bench_table3(self, benchmark):
        benchmark.group = "table3"
        result = benchmark.pedantic(
            lambda: run_experiment("table3", fast=True),
            rounds=1, iterations=1,
        )
        rows = {row[0]: dict(zip(result.tables[0].headers[1:], row[1:]))
                for row in result.tables[0].rows}
        assert rows["Perf @ 35W"]["mcf"] > rows["Perf @ 35W"]["gzip"]
        assert rows["Energy @ 140W"]["mcf"] < 0.65
