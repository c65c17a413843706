"""Tests for the metric registry primitives."""

import pytest

from repro.errors import MetricError
from repro.obs import Counter, Gauge, Histogram, MetricRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("hits")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_decrease(self):
        with pytest.raises(MetricError):
            Counter("hits").inc(-1)


class TestGauge:
    def test_set_and_read(self):
        g = Gauge("depth")
        g.set(7)
        assert g.value == 7

    def test_callback_gauge_reads_live(self):
        state = {"v": 1}
        g = Gauge("depth", fn=lambda: state["v"])
        assert g.value == 1
        state["v"] = 42
        assert g.value == 42

    def test_callback_gauge_rejects_set(self):
        g = Gauge("depth", fn=lambda: 0)
        with pytest.raises(MetricError):
            g.set(3)


class TestHistogram:
    def test_percentiles(self):
        h = Histogram("lat")
        for v in range(1, 101):  # 1..100
            h.observe(v)
        assert h.count == 100
        assert h.percentile(50) == 50
        assert h.percentile(90) == 90
        assert h.percentile(99) == 99
        assert h.percentile(100) == 100
        assert h.mean == pytest.approx(50.5)

    def test_percentile_out_of_range(self):
        h = Histogram("lat")
        h.observe(1)
        with pytest.raises(MetricError):
            h.percentile(101)

    def test_empty_percentile_raises(self):
        with pytest.raises(MetricError):
            Histogram("lat").percentile(50)

    def test_summary_value(self):
        h = Histogram("lat")
        for v in (1, 2, 3, 4):
            h.observe(v)
        summary = h.value
        assert summary["count"] == 4
        assert summary["max"] == 4
        assert summary["p50"] == 2


class TestRegistry:
    def test_hierarchical_collect(self):
        reg = MetricRegistry()
        reg.counter("gpu0.l1.hits").inc(3)
        reg.gauge("gpu0.l1.misses", fn=lambda: 9)
        reg.counter("hmc3.vault2.served").inc(1)
        tree = reg.collect()
        assert tree["gpu0"]["l1"]["hits"] == 3
        assert tree["gpu0"]["l1"]["misses"] == 9
        assert tree["hmc3"]["vault2"]["served"] == 1

    def test_exact_name_collision(self):
        reg = MetricRegistry()
        reg.counter("gpu0.l1.hits")
        with pytest.raises(MetricError):
            reg.counter("gpu0.l1.hits")
        with pytest.raises(MetricError):
            reg.gauge("gpu0.l1.hits")

    def test_leaf_vs_subtree_collision(self):
        reg = MetricRegistry()
        reg.counter("gpu0.l1")
        # "gpu0.l1" is a metric; it cannot also be an interior node.
        with pytest.raises(MetricError):
            reg.counter("gpu0.l1.hits")

    def test_subtree_vs_leaf_collision(self):
        reg = MetricRegistry()
        reg.counter("gpu0.l1.hits")
        with pytest.raises(MetricError):
            reg.counter("gpu0.l1")

    def test_empty_name_rejected(self):
        with pytest.raises(MetricError):
            MetricRegistry().counter("")

    @pytest.mark.parametrize("name", ["a..b", "c.", ".d", ".", "e..", "..f"])
    def test_empty_segment_rejected(self, name):
        reg = MetricRegistry()
        with pytest.raises(MetricError, match="empty segment"):
            reg.counter(name)
        # A rejected name leaves nothing behind in the tree.
        assert len(reg) == 0
        assert reg.collect() == {}

    def test_names_prefix_filter(self):
        reg = MetricRegistry()
        reg.counter("gpu0.reads")
        reg.counter("gpu1.reads")
        reg.counter("gpu10.reads")
        assert reg.names("gpu1") == ["gpu1.reads"]  # not gpu10
        assert len(reg.names()) == 3

    def test_as_flat_and_get(self):
        reg = MetricRegistry()
        reg.counter("a.b").inc(2)
        assert reg.as_flat() == {"a.b": 2}
        assert reg.get("a.b").value == 2
        assert "a.b" in reg
        with pytest.raises(MetricError):
            reg.get("nope")
