"""Telemetry primitives: metrics, tracing, events, exporters.

Covers the satellite checklist explicitly: histogram bucket edges,
counter overflow behavior, concurrent (threaded) use of a shared
registry, and the JSONL exporter round-trip (JSONL → parse → same
metrics).
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    EVENT_BUDGET_BREACH,
    EVENT_FREQUENCY_CHANGE,
    EventBus,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    Tracer,
    events_table,
    get_telemetry,
    prometheus_text,
    read_jsonl,
    registry_from_snapshot,
    set_telemetry,
    summary_table,
    telemetry_report,
    telemetry_snapshot,
    use_telemetry,
    write_metrics_jsonl,
)
from repro.workloads.serving import REQUEST_LATENCY_BUCKETS_S


class TestCounter:
    def test_inc_and_value(self):
        c = MetricsRegistry().counter("requests_total")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("requests_total")
        with pytest.raises(TelemetryError, match="negative"):
            c.inc(-1)

    def test_no_overflow_past_2_64(self):
        """Counters never wrap: arbitrary-precision past any machine word."""
        c = MetricsRegistry().counter("big_total")
        c.inc(2**63 - 1)
        c.inc(2**63 - 1)
        c.inc(12)
        assert c.value == 2**64 + 10
        c.inc(2**100)
        assert c.value == 2**100 + 2**64 + 10  # exact, not saturated

    def test_float_increments(self):
        c = MetricsRegistry().counter("seconds_total")
        c.inc(0.25)
        c.inc(0.5)
        assert c.value == pytest.approx(0.75)


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("power_watts")
        g.set(100.0)
        g.inc(5.0)
        g.dec(2.5)
        assert g.value == pytest.approx(102.5)


class TestHistogram:
    def test_bucket_edges_are_le(self):
        """A value exactly on an upper bound lands in that bucket."""
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)   # == first edge -> bucket 0
        h.observe(1.5)   # bucket 1
        h.observe(2.0)   # == second edge -> bucket 1
        h.observe(5.0)   # == third edge -> bucket 2
        h.observe(5.0001)  # +Inf bucket
        assert h.counts == (1, 2, 1, 1)
        assert h.cumulative_counts() == (1, 3, 4, 5)
        assert h.count == 5
        assert h.sum == pytest.approx(1.0 + 1.5 + 2.0 + 5.0 + 5.0001)

    def test_below_first_edge(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0,))
        h.observe(0.0)
        h.observe(-3.0)
        assert h.counts == (2, 0)

    def test_mean(self):
        h = MetricsRegistry().histogram("lat", buckets=(10.0,))
        assert h.mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == pytest.approx(3.0)

    def test_invalid_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError, match="at least one"):
            registry.histogram("a", buckets=())
        with pytest.raises(TelemetryError, match="increasing"):
            registry.histogram("b", buckets=(2.0, 1.0))
        with pytest.raises(TelemetryError, match="increasing"):
            registry.histogram("c", buckets=(1.0, 1.0))
        with pytest.raises(TelemetryError, match="finite"):
            registry.histogram("d", buckets=(1.0, float("inf")))

    def test_bad_buckets_rejected(self):
        """The constructor itself validates, not just the registry."""
        with pytest.raises(TelemetryError):
            Histogram("lat", buckets=())
        with pytest.raises(TelemetryError):
            Histogram("lat", buckets=(0.1, 0.1))
        with pytest.raises(TelemetryError):
            Histogram("lat", buckets=(0.1, math.inf))

    @staticmethod
    def _latency(values=()) -> Histogram:
        h = Histogram("request_latency_seconds",
                      buckets=REQUEST_LATENCY_BUCKETS_S)
        h.observe_many(values)
        return h

    def test_percentile_matches_exact_to_bucket_resolution(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(0.05, size=5000)
        h = self._latency(values)
        for pct in (50.0, 90.0, 99.0):
            exact = float(np.percentile(values, pct))
            approx = h.percentile(pct)
            # The estimate lands inside the bucket that holds the exact
            # value (uppers are the le-bounds).
            i = np.searchsorted(np.array(h.uppers), exact, side="left")
            lower = 0.0 if i == 0 else h.uppers[i - 1]
            upper = h.uppers[i] if i < len(h.uppers) else h.max
            assert lower <= approx <= upper + 1e-12

    def test_observe_many_matches_scalar_observe(self):
        values = [0.0, 0.0004, 0.001, 0.02, 4.0, 60.0]
        a, b = self._latency(), self._latency(values)
        for v in values:
            a.observe(v)
        assert a.counts == b.counts
        assert a.sum == pytest.approx(b.sum)
        assert a.max == b.max == 60.0

    def test_merge_equals_union(self):
        rng = np.random.default_rng(7)
        xs, ys = rng.exponential(0.01, 300), rng.exponential(0.3, 300)
        a, b = self._latency(xs), self._latency(ys)
        union = self._latency(np.concatenate([xs, ys]))
        merged = Histogram.merged([a, b])
        assert merged.counts == union.counts
        assert merged.count == union.count
        assert merged.sum == pytest.approx(union.sum)
        assert merged.max == union.max
        assert merged.percentile(99.0) == pytest.approx(
            union.percentile(99.0))
        # merged() leaves its operands untouched.
        assert a.count == 300 and b.count == 300

    def test_merge_rejects_mismatched_buckets(self):
        with pytest.raises(TelemetryError, match="different buckets"):
            Histogram("a", buckets=(0.1, 1.0)).merge(
                Histogram("b", buckets=(0.2, 1.0)))
        with pytest.raises(TelemetryError, match="no histograms"):
            Histogram.merged([])

    def test_overflow_reports_max(self):
        h = Histogram("lat", buckets=(0.001, 0.01))
        h.observe_many([5.0, 7.0, 9.0])
        assert h.percentile(99.0) == 9.0
        assert h.max == 9.0

    def test_fraction_below_interpolates(self):
        h = Histogram("lat", buckets=(0.01, 0.02))
        h.observe_many([0.005] * 50 + [0.015] * 50)
        assert h.fraction_below(0.02) == pytest.approx(1.0)
        assert h.fraction_below(0.015) == pytest.approx(0.75)
        # 0.008 interpolates 80% of the way through the first bucket.
        assert h.fraction_below(0.008) == pytest.approx(0.4)
        with pytest.raises(TelemetryError, match="finite"):
            h.fraction_below(-1.0)

    def test_empty_histogram_raises(self):
        h = self._latency()
        with pytest.raises(TelemetryError, match="no observations"):
            h.percentile(99.0)
        with pytest.raises(TelemetryError, match="no observations"):
            h.fraction_below(0.1)
        h.observe(0.1)
        with pytest.raises(TelemetryError, match="percentile"):
            h.percentile(0.0)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.gauge("x")

    def test_kind_conflict_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("x", labels={"node": "0"})
        with pytest.raises(TelemetryError, match="already registered"):
            registry.gauge("x", labels={"node": "1"})

    def test_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        registry.histogram("h", buckets=(1.0, 2.0))  # same -> fine
        with pytest.raises(TelemetryError, match="different buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_name(self):
        with pytest.raises(TelemetryError, match="invalid metric name"):
            MetricsRegistry().counter("bad name!")

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        a = registry.counter("x", labels={"node": "0"})
        b = registry.counter("x", labels={"node": "1"})
        assert a is not b
        a.inc(1)
        b.inc(2)
        snap = registry.snapshot()
        values = {tuple(s["labels"].items()): s["value"]
                  for s in snap["x"]["series"]}
        assert values == {(("node", "0"),): 1, (("node", "1"),): 2}

    def test_get_without_create(self):
        registry = MetricsRegistry()
        assert registry.get("nope") is None
        c = registry.counter("yes")
        assert registry.get("yes") is c

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert len(registry) == 0


class TestConcurrency:
    def test_threaded_counters_and_histograms_are_exact(self):
        """Per-processor daemon threads would hammer one registry at once."""
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        hist = registry.histogram("lat", buckets=(0.5, 1.5))
        n_threads, n_iters = 8, 2500

        def worker(tid: int) -> None:
            for i in range(n_iters):
                counter.inc()
                hist.observe((tid + i) % 2)  # alternates 0 and 1

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * n_iters
        assert hist.count == n_threads * n_iters
        assert sum(hist.counts) == n_threads * n_iters

    def test_threaded_tracer_keeps_per_thread_nesting(self):
        tracer = Tracer()
        errors: list[str] = []

        def worker() -> None:
            for _ in range(200):
                with tracer.span("outer") as outer:
                    with tracer.span("inner") as inner:
                        if inner.parent_id != outer.span_id:
                            errors.append("broken nesting")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert tracer.finished_total == 4 * 200 * 2


class TestTracer:
    def test_nesting_and_durations(self):
        tracer = Tracer()
        with tracer.span("outer", sim_time_s=1.0, node=0) as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.wall_duration_s >= inner.wall_duration_s >= 0.0
        assert outer.sim_time_s == 1.0
        assert outer.attrs["node"] == 0

    def test_sim_duration_and_attrs(self):
        tracer = Tracer()
        with tracer.span("pass") as span:
            span.sim_duration_s = 0.004
            span.set_attr("bytes", 128)
        done = tracer.finished_named("pass")[0]
        assert done.sim_duration_s == pytest.approx(0.004)
        assert done.attrs["bytes"] == 128

    def test_on_finish_hook_and_ring(self):
        tracer = Tracer(max_finished=2)
        seen = []
        tracer.on_finish(lambda s: seen.append(s.name))
        for i in range(3):
            with tracer.span(f"s{i}"):
                pass
        assert seen == ["s0", "s1", "s2"]
        assert [s.name for s in tracer.finished] == ["s1", "s2"]  # evicted
        assert tracer.finished_total == 3


class TestEventBus:
    def test_publish_subscribe_by_kind(self):
        bus = EventBus()
        got = []
        bus.subscribe(EVENT_BUDGET_BREACH, got.append)
        bus.publish(EVENT_BUDGET_BREACH, sim_time_s=1.0, excess_w=10.0)
        bus.publish(EVENT_FREQUENCY_CHANGE, sim_time_s=1.0)
        assert len(got) == 1
        assert got[0].kind == EVENT_BUDGET_BREACH
        assert got[0].attrs["excess_w"] == 10.0

    def test_wildcard_subscription(self):
        bus = EventBus()
        got = []
        bus.subscribe("*", got.append)
        bus.publish("a")
        bus.publish("b")
        assert [e.kind for e in got] == ["a", "b"]

    def test_counts_survive_ring_eviction(self):
        bus = EventBus(max_history=2)
        for _ in range(5):
            bus.publish("x")
        assert bus.count("x") == 5
        assert len(bus.events_of("x")) == 2


class TestBackend:
    def test_null_is_disabled_and_inert(self):
        null = NullTelemetry()
        assert not null.enabled
        assert null.emit("anything") is None
        assert null.snapshot()["enabled"] is False

    def test_default_is_null(self):
        assert isinstance(get_telemetry(), Telemetry)
        assert not get_telemetry().enabled

    def test_set_and_restore(self):
        tel = Telemetry()
        previous = set_telemetry(tel)
        try:
            assert get_telemetry() is tel
            assert telemetry_snapshot()["enabled"] is True
        finally:
            set_telemetry(previous)

    def test_use_telemetry_scopes(self):
        before = get_telemetry()
        with use_telemetry(Telemetry()) as tel:
            assert get_telemetry() is tel
        assert get_telemetry() is before

    def test_snapshot_shape(self):
        tel = Telemetry()
        tel.metrics.counter("x").inc(3)
        tel.emit("boom", sim_time_s=2.0)
        with tel.tracer.span("s"):
            pass
        snap = tel.snapshot()
        assert snap["metrics"]["x"]["series"][0]["value"] == 3
        assert snap["event_counts"] == {"boom": 1}
        assert snap["spans_finished"] == 1

    def test_reset(self):
        tel = Telemetry()
        tel.metrics.counter("x").inc()
        tel.emit("e")
        with tel.tracer.span("s"):
            pass
        tel.reset()
        snap = tel.snapshot()
        assert snap["metrics"] == {}
        assert snap["event_counts"] == {}
        assert snap["spans_finished"] == 0


class TestPrometheusExport:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("ops_total", "operations", labels={"node": "0"}).inc(7)
        registry.gauge("power_watts", "planned power").set(123.5)
        h = registry.histogram("lat_seconds", "latency", buckets=(0.001, 0.01))
        h.observe(0.0005)
        h.observe(0.5)
        return registry

    def test_text_format(self):
        text = prometheus_text(self._registry())
        lines = text.splitlines()
        assert "# TYPE ops_total counter" in lines
        assert '# HELP ops_total operations' in lines
        assert 'ops_total{node="0"} 7' in lines
        assert "# TYPE power_watts gauge" in lines
        assert "power_watts 123.5" in lines
        assert 'lat_seconds_bucket{le="0.001"} 1' in lines
        assert 'lat_seconds_bucket{le="0.01"} 1' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "lat_seconds_count 2" in lines
        assert any(line.startswith("lat_seconds_sum") for line in lines)
        assert text.endswith("\n")

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("x", labels={"q": 'a"b\\c'}).inc()
        text = prometheus_text(registry)
        assert r'x{q="a\"b\\c"} 1' in text

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestJsonlRoundTrip:
    def test_metrics_round_trip(self, tmp_path):
        """JSONL -> parse -> same metrics (the satellite requirement)."""
        registry = MetricsRegistry()
        registry.counter("ops_total", "ops", labels={"node": "1"}).inc(9)
        registry.gauge("power_watts").set(42.0)
        h = registry.histogram("lat", buckets=(0.5, 1.0))
        h.observe(0.25)
        h.observe(0.75)
        h.observe(2.0)

        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(registry, path)
        records = read_jsonl(path)
        assert len(records) == 1 and records[0]["type"] == "metrics"

        rebuilt = registry_from_snapshot(records[0]["snapshot"])
        assert rebuilt.snapshot() == registry.snapshot()
        # The snapshot has no maximum: the rebuilt histogram bounds it by
        # its highest non-empty bucket (+Inf here), so interpolated
        # percentiles below that bucket are unchanged.
        lat = rebuilt.get("lat")
        assert lat.max == math.inf
        assert lat.percentile(50.0) == h.percentile(50.0)

    def test_sink_streams_events_and_spans(self, tmp_path):
        tel = Telemetry()
        path = tmp_path / "stream.jsonl"
        with JsonlSink(path, tel) as sink:
            tel.emit("boom", sim_time_s=1.5, why="test")
            with tel.tracer.span("op", sim_time_s=1.5):
                pass
            sink.write_snapshot()
        records = read_jsonl(path)
        types = [r["type"] for r in records]
        assert types == ["event", "span", "metrics"]
        assert records[0]["kind"] == "boom"
        assert records[0]["attrs"] == {"why": "test"}
        assert records[1]["name"] == "op"
        assert records[1]["wall_duration_s"] >= 0.0

    def test_sink_after_close_drops_silently(self, tmp_path):
        tel = Telemetry()
        sink = JsonlSink(tmp_path / "s.jsonl", tel)
        sink.close()
        tel.emit("late")  # must not raise
        assert read_jsonl(tmp_path / "s.jsonl") == []

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(TelemetryError, match="invalid JSONL"):
            read_jsonl(path)

    def test_registry_from_snapshot_rejects_unknown_kind(self):
        with pytest.raises(TelemetryError, match="unknown kind"):
            registry_from_snapshot(
                {"x": {"type": "mystery", "series": [{"value": 1}]}})

    @pytest.mark.parametrize("counts, count", [
        ([5, -3, 1], 3),      # a negative bucket, even with a matching total
        ([5, -3, 1], 10),
        ([5, 3, 1], 10),      # counts that do not add up to count
    ])
    def test_registry_from_snapshot_rejects_bad_histogram_counts(
            self, counts, count):
        snapshot = {"lat": {"type": "histogram", "help": "", "series": [{
            "labels": {}, "buckets": [0.5, 1.0], "counts": counts,
            "sum": 1.0, "count": count}]}}
        with pytest.raises(TelemetryError, match="non-negative"):
            registry_from_snapshot(snapshot)


class TestSummaryTables:
    def test_summary_table_renders_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("ops_total").inc(3)
        registry.gauge("power_watts").set(10.0)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = summary_table(registry)
        assert "ops_total" in text
        assert "power_watts" in text
        assert "lat" in text
        assert "counter" in text and "gauge" in text and "histogram" in text

    def test_events_table_and_report(self):
        tel = Telemetry()
        tel.metrics.counter("x").inc()
        tel.emit("boom")
        tel.emit("boom")
        assert "boom" in events_table(tel)
        report = telemetry_report(tel)
        assert "x" in report and "boom" in report
        assert "spans finished: 0" in report
