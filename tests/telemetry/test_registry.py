"""MetricsRegistry: counters, gauges, histogram bucketing, memoization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.telemetry import NULL_METRIC, Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.schema import batch_edges, occupancy_edges, read_width_edges


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert c.snapshot() == {"kind": "counter", "value": 6}


class TestGauge:
    def test_set_tracks_max(self):
        g = Gauge("x")
        g.set(3.0)
        g.set(7.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.max_value == 7.0
        assert g.snapshot() == {"kind": "gauge", "value": 2.0, "max": 7.0}


class TestHistogram:
    def test_le_edge_semantics(self):
        """Bucket i counts e_{i-1} < v <= e_i; the last bucket is overflow."""
        h = Histogram("x", (1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 100.0):
            h.observe(v)
        # (-inf,1]: 0.5, 1.0 | (1,2]: 1.5, 2.0 | (2,4]: 3.0, 4.0 | >4: 4.5, 100
        assert h.counts == [2, 2, 2, 2]
        assert h.n == 8
        assert h.mean == pytest.approx(sum((0.5, 1, 1.5, 2, 3, 4, 4.5, 100)) / 8)

    def test_exact_edge_lands_in_lower_bucket(self):
        h = Histogram("x", (1.0, 2.0))
        h.observe(1.0)
        assert h.counts == [1, 0, 0]

    def test_edges_must_be_strictly_increasing(self):
        with pytest.raises(ConfigError):
            Histogram("x", (1.0, 1.0, 2.0))
        with pytest.raises(ConfigError):
            Histogram("x", (2.0, 1.0))
        with pytest.raises(ConfigError):
            Histogram("x", ())

    def test_empty_mean(self):
        assert Histogram("x", (1.0,)).mean == 0.0

    def test_snapshot_roundtrip_shape(self):
        h = Histogram("x", (1.0, 2.0))
        h.observe(1.5)
        snap = h.snapshot()
        assert snap["kind"] == "histogram"
        assert snap["edges"] == [1.0, 2.0]
        assert snap["counts"] == [0, 1, 0]
        assert snap["n"] == 1

    def test_observe_many_equals_repeated_observe(self):
        """Values below, at and above every edge, fractional and integer."""
        edges = (1.0, 2.0, 4.0, 16.0)
        values = [0, 0.5] + [
            v for e in edges for v in (e - 0.25, e, e + 0.25)
        ] + [17, 100, 3, 1]
        one, many = Histogram("x", edges), Histogram("x", edges)
        for v in values:
            one.observe(v)
        many.observe_many(values[:5])
        many.observe_many(np.asarray(values[5:]))
        many.observe_many([])
        assert many.counts == one.counts
        assert many.total == one.total  # bit-equal: summed in order
        assert many.n == one.n == len(values)
        assert many.snapshot() == one.snapshot()


class TestRegistry:
    def test_memoizes_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h", (1.0,)) is reg.histogram("h", (1.0,))
        assert len(reg) == 3
        assert "a" in reg and "missing" not in reg

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ConfigError):
            reg.gauge("a")
        with pytest.raises(ConfigError):
            reg.histogram("a", (1.0,))

    def test_histogram_edge_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ConfigError):
            reg.histogram("h", (1.0, 3.0))

    def test_snapshot_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        assert list(reg.snapshot()) == ["a", "z"]

    def test_get_missing_returns_none(self):
        assert MetricsRegistry().get("nope") is None


class TestNullMetric:
    def test_all_mutators_are_noops(self):
        NULL_METRIC.inc()
        NULL_METRIC.inc(10)
        NULL_METRIC.set(3.0)
        NULL_METRIC.observe(1.0)
        NULL_METRIC.observe_many([1.0, 2.0])
        assert not hasattr(NULL_METRIC, "__dict__")  # __slots__ = ()


class TestSchemaEdges:
    def test_read_width_edges_one_per_disk(self):
        assert read_width_edges(4) == (1.0, 2.0, 3.0, 4.0)

    def test_occupancy_edges_bounded_by_d(self):
        assert occupancy_edges(3) == (1.0, 2.0, 3.0)

    def test_batch_edges_strictly_increasing(self):
        """b//2 colliding with a fixed edge must not produce duplicates."""
        for b in (1, 2, 8, 32, 64, 1000):
            edges = batch_edges(b)
            assert list(edges) == sorted(set(edges)), b
            Histogram("x", edges)  # must not raise
