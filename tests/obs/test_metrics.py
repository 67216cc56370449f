"""Tests for the bounded-memory metrics registry."""

import json

import pytest

from repro.errors import ValidationError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    bind_children,
    percentile,
)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_is_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.inc(-2)
        assert g.value == 3.0

    def test_histogram_exact_aggregates(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6.0
        assert h.max == 3.0

    def test_histogram_window_bounds_memory(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", window=4)
        for v in range(100):
            h.observe(float(v))
        # Exact aggregates cover the lifetime; the window keeps the tail.
        assert h.count == 100
        assert h.max == 99.0
        assert h.window_values() == [96.0, 97.0, 98.0, 99.0]
        assert h.percentile(0.5) == 97.0

    def test_histogram_rejects_empty_window(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.histogram("bad", window=0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().counter("")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValidationError):
            reg.gauge("x")
        with pytest.raises(ValidationError):
            reg.histogram("x")


class TestPercentile:
    def test_nearest_rank(self):
        ranked = [1.0, 2.0, 3.0, 4.0]
        assert percentile(ranked, 0.5) == 2.0
        assert percentile(ranked, 0.99) == 4.0
        assert percentile(ranked, 1.0) == 4.0

    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_matches_scheduler_recipe(self):
        # The scheduler's latency percentiles predate the registry; the
        # re-backing must not move them: nearest rank = ceil(q * n).
        ranked = [float(v) for v in range(1, 101)]
        assert percentile(ranked, 0.5) == 50.0
        assert percentile(ranked, 0.99) == 99.0

    def test_quantiles_single_sort(self):
        h = Histogram(__import__("threading").Lock())
        for v in (5.0, 1.0, 3.0):
            h.observe(v)
        assert h.quantiles((0.5, 0.99)) == {0.5: 3.0, 0.99: 5.0}


class TestLabels:
    def test_labeled_children_are_distinct(self):
        reg = MetricsRegistry()
        a = reg.counter("ops", {"op": "add"})
        b = reg.counter("ops", {"op": "mul"})
        assert a is not b
        a.inc(3)
        assert reg.counter_value("ops", {"op": "add"}) == 3.0
        assert reg.counter_value("ops", {"op": "mul"}) == 0.0

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"b": "2", "a": "1"})
        b = reg.counter("x", {"a": "1", "b": "2"})
        assert a is b

    def test_labeled_values_readback(self):
        reg = MetricsRegistry()
        reg.counter("per_tenant", {"tenant": "b"}).inc(2)
        reg.counter("per_tenant", {"tenant": "a"}).inc(5)
        assert reg.labeled_values("per_tenant") == {"a": 5.0, "b": 2.0}
        assert list(reg.labeled_values("per_tenant")) == ["a", "b"]

    def test_counter_value_absent_is_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0.0

    def test_family_lists_children(self):
        reg = MetricsRegistry()
        reg.counter("x")
        reg.counter("x", {"k": "v"})
        assert set(reg.family("x")) == {(), ("k=v",)}
        assert reg.names() == ["x"]


class TestSnapshot:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("submitted").inc(7)
        reg.counter("ops", {"op": "add"}).inc(3)
        reg.gauge("inflight").set(2)
        h = reg.histogram("latency_ms")
        for v in (1.5, 2.5, 10.0):
            h.observe(v)
        return reg

    def test_snapshot_shape(self):
        snap = self._populated().snapshot()
        assert snap["counters"] == {"submitted": 7.0, 'ops{op="add"}': 3.0}
        assert snap["gauges"] == {"inflight": 2.0}
        hist = snap["histograms"]["latency_ms"]
        assert hist["count"] == 3
        assert hist["sum"] == 14.0
        assert hist["max"] == 10.0
        assert hist["p50"] == 2.5
        assert hist["p99"] == 10.0

    def test_snapshot_is_json_able_and_deterministic(self):
        a = json.dumps(self._populated().snapshot(), sort_keys=True)
        b = json.dumps(self._populated().snapshot(), sort_keys=True)
        assert a == b

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta").inc()
        reg.counter("alpha").inc()
        assert list(reg.snapshot()["counters"]) == ["alpha", "zeta"]


class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("submitted").inc(7)
        reg.gauge("inflight").set(2)
        text = reg.render_prometheus()
        assert "# TYPE submitted counter" in text
        assert "submitted 7" in text
        assert "# TYPE inflight gauge" in text
        assert "inflight 2" in text
        assert text.endswith("\n")

    def test_labeled_counter_line(self):
        reg = MetricsRegistry()
        reg.counter("ops", {"op": "add"}).inc(3)
        assert 'ops{op="add"} 3' in reg.render_prometheus()

    def test_histogram_exports_as_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in (1.0, 2.0):
            h.observe(v)
        text = reg.render_prometheus()
        assert "# TYPE latency summary" in text
        assert 'latency{quantile="0.5"} 1' in text
        assert 'latency{quantile="0.99"} 2' in text
        assert "latency_sum 3" in text
        assert "latency_count 2" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestBatchGranularity:
    """One update per batch must leave the registry bit-for-bit where
    one update per ticket left it."""

    #: Sums of these depend on the order of addition in the last digit.
    VALUES = [0.1, 0.7, 1e-9, 3.3, 2.2, 1e7, 0.30000000000000004, 5.5]

    @pytest.mark.parametrize("window", [3, 5, 8, 64])
    @pytest.mark.parametrize("block", [0, 1, 3, 8])
    def test_observe_many_is_n_observes(self, window, block):
        import threading

        one, many = (Histogram(threading.Lock(), window) for _ in range(2))
        values = self.VALUES
        for start in (0, 2):  # the second round straddles the window
            for v in values[start:start + 2]:
                one.observe(v)
                many.observe(v)
        for v in values[:block]:
            one.observe(v)
        many.observe_many(values[:block])
        assert many.count == one.count
        assert many.sum == one.sum  # ==, not approx
        assert many.max == one.max
        assert many.window_values() == one.window_values()
        assert many.quantiles((0.5, 0.99)) == one.quantiles((0.5, 0.99))

    def test_observe_many_takes_any_sequence(self):
        h = MetricsRegistry().histogram("h")
        h.observe_many((2.0, 1.0))
        h.observe_many([])
        assert (h.count, h.sum, h.max) == (2, 3.0, 2.0)

    def test_bound_children_are_the_registry_children(self):
        reg = MetricsRegistry()
        ops = bind_children(reg.counter, "ops", "phase", "op")
        assert reg.names() == []  # nothing exists until it is counted
        ops("levels", "add").inc(2)
        assert ops("levels", "add") is reg.counter(
            "ops", {"op": "add", "phase": "levels"}
        )
        assert reg.snapshot()["counters"] == {
            'ops{op="add",phase="levels"}': 2.0
        }

    def test_mixed_tenant_batch_books_as_per_ticket_booking_did(self):
        """Two tenants, two queues, four deadline misses: the snapshot
        and the raw histogram state pinned from the per-ticket booking
        of the parent commit (37e7453)."""
        from concurrent.futures import Future

        from repro.serve.scheduler import SchedulerCore

        class Payload:
            def __init__(self):
                self.future = Future()

        core = SchedulerCore(workers=2)
        core.add_queue("m", capacity=5)
        core.add_queue("n", capacity=2)
        for queue, tenant, at, deadline in (
            ("m", "acme", 0.000, 0.010),
            ("m", "zeta", 0.001, None),
            ("m", "acme", 0.0025, 0.004),
            ("n", "zeta", 0.003, 0.0125),
            ("m", "zeta", 0.0035, 0.0121),
            ("m", "acme", 0.0041, None),
            ("n", "acme", 0.0057, 0.0123),
        ):
            core.submit(queue, Payload(), at, tenant=tenant,
                        deadline=deadline)
        first = core.assign(0.006)
        second = core.assign(0.006)
        core.complete(first, 0.0122)
        core.complete(second, 0.0124)
        core.stats()
        snapshot = core.metrics.snapshot()
        assert snapshot["counters"] == {
            "sched_batches": 2.0,
            "sched_cancelled": 0.0,
            "sched_completed": 7.0,
            "sched_dead_lettered": 0.0,
            "sched_deadline_misses": 4.0,
            "sched_failed": 0.0,
            'sched_queue_completed{queue="m"}': 5.0,
            'sched_queue_completed{queue="n"}': 2.0,
            "sched_rejected": 0.0,
            "sched_retries": 0.0,
            "sched_submitted": 7.0,
            'sched_tenant_completed{tenant="acme"}': 4.0,
            'sched_tenant_completed{tenant="zeta"}': 3.0,
            'sched_tenant_submitted{tenant="acme"}': 4.0,
            'sched_tenant_submitted{tenant="zeta"}': 3.0,
        }
        assert snapshot["histograms"] == {
            "sched_latency_ms": {
                "count": 7, "max": 12.2, "p50": 9.4, "p99": 12.2,
                "sum": 66.0,
            },
            'sched_tenant_latency_ms{tenant="acme"}': {
                "count": 4, "max": 12.2, "p50": 8.1, "p99": 12.2,
                "sum": 36.7,
            },
            'sched_tenant_latency_ms{tenant="zeta"}': {
                "count": 3, "max": 11.2, "p50": 9.4, "p99": 11.2,
                "sum": 29.3,
            },
        }
        assert snapshot["gauges"]['sched_estimated_batch_ms{queue="m"}'] == 6.2
        raw = {
            key: (h.sum, h.window_values())
            for key, h in (
                ("all", core.metrics.histogram(
                    "sched_latency_ms", window=65536)),
                ("acme", core.metrics.histogram(
                    "sched_tenant_latency_ms", {"tenant": "acme"})),
                ("zeta", core.metrics.histogram(
                    "sched_tenant_latency_ms", {"tenant": "zeta"})),
            )
        }
        assert raw == {
            "all": (66.0, [
                12.200000000000001, 11.200000000000001, 9.7,
                8.700000000000001, 8.1, 9.399999999999999,
                6.699999999999999,
            ]),
            "acme": (36.7, [
                12.200000000000001, 9.7, 8.1, 6.699999999999999,
            ]),
            "zeta": (29.3, [
                11.200000000000001, 8.700000000000001, 9.399999999999999,
            ]),
        }
