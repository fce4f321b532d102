"""Edge cases of MetricsRegistry snapshot/merge and the bounded series.

The campaign runner relies on snapshots being a faithful wire format (ship a
worker's metrics to the parent, merge, fingerprint); these tests pin the
algebra down: disjoint series, empty registries, merge associativity, and
percentile fields surviving a ``from_snapshot`` round trip.
"""

import math

import pytest

from repro.sim.metrics import RESERVOIR_SIZE, Histogram, MetricsRegistry, SampleSeries


def _filled(name_values):
    reg = MetricsRegistry()
    for name, values in name_values.items():
        for v in values:
            reg.record(name, v)
    return reg


# ------------------------------------------------------------- sample series


def test_series_is_bounded_with_exact_running_stats():
    s = SampleSeries()
    n = RESERVOIR_SIZE * 4
    for i in range(n):
        s.add(float(i))
    assert len(s.values) == RESERVOIR_SIZE          # bounded memory
    assert s.count == n                             # ...but exact aggregates
    assert s.total == pytest.approx(n * (n - 1) / 2)
    assert s.mean == pytest.approx((n - 1) / 2)
    assert s.minimum == 0.0
    assert s.maximum == float(n - 1)
    # Exact population stddev of 0..n-1.
    expected = math.sqrt((n * n - 1) / 12.0)
    assert s.stddev == pytest.approx(expected, rel=1e-9)


def test_series_percentiles_exact_below_capacity():
    s = SampleSeries()
    for v in range(1, 101):
        s.add(float(v))
    assert s.percentile(50) == 50.0
    assert s.percentile(95) == 95.0
    assert s.percentile(99) == 99.0
    summary = s.summary()
    for key in ("p50", "p95", "p99"):
        assert key in summary


def test_series_percentiles_approximate_above_capacity():
    s = SampleSeries()
    for v in range(10 * RESERVOIR_SIZE):
        s.add(float(v))
    top = 10 * RESERVOIR_SIZE - 1
    # Uniform reservoir sampling: nearest-rank p50 should land mid-range.
    assert s.percentile(50) == pytest.approx(top / 2, rel=0.15)
    assert s.percentile(99) > s.percentile(50) > s.percentile(5)


def test_series_geometric_mean_exact_despite_bounded_reservoir():
    s = SampleSeries()
    for v in (1.0, 2.0, 3.0):
        s.add(v)
    assert s.geometric_mean() == pytest.approx((1 * 2 * 3) ** (1 / 3))
    big = SampleSeries(reservoir_size=4)
    for v in range(1, 1001):
        big.add(float(v))
    expected = math.exp(sum(math.log(v) for v in range(1, 1001)) / 1000)
    assert big.geometric_mean() == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------- merge algebra


def test_merge_disjoint_series_is_union():
    a = _filled({"x": [1.0, 2.0]})
    b = _filled({"y": [10.0]})
    a.merge(b)
    assert sorted(a.series_names()) == ["x", "y"]
    assert a.series("x").count == 2
    assert a.series("y").count == 1
    assert b.series_names() == ["y"]                # merge does not mutate source


def test_merge_empty_registries():
    a = MetricsRegistry()
    a.merge(MetricsRegistry())
    assert a.series_names() == []
    assert a.counters() == {}

    b = _filled({"x": [1.0]})
    b.increment("c")
    b.merge(MetricsRegistry())                      # empty right identity
    assert b.series("x").count == 1 and b.counter("c") == 1

    c = MetricsRegistry()
    c.merge(b)                                      # empty left identity
    assert c.series("x").count == 1 and c.counter("c") == 1


def _assert_registries_equal(a: MetricsRegistry, b: MetricsRegistry):
    assert a.counters() == b.counters()
    assert sorted(a.series_names()) == sorted(b.series_names())
    for name in a.series_names():
        sa, sb = a.series(name), b.series(name)
        assert sa.count == sb.count
        assert sa.total == pytest.approx(sb.total)
        assert sa.mean == pytest.approx(sb.mean)
        assert sa.stddev == pytest.approx(sb.stddev, abs=1e-12)
        assert sa.minimum == sb.minimum and sa.maximum == sb.maximum


def test_merge_is_associative():
    def make():
        return (
            _filled({"x": [1.0, 5.0], "y": [2.0]}),
            _filled({"x": [3.0], "z": [7.0, 8.0]}),
            _filled({"x": [4.0, 9.0], "y": [6.0]}),
        )

    a1, b1, c1 = make()
    a1.merge(b1)
    a1.merge(c1)                                    # (a + b) + c

    a2, b2, c2 = make()
    b2.merge(c2)
    a2.merge(b2)                                    # a + (b + c)

    _assert_registries_equal(a1, a2)


def test_merge_snapshot_matches_direct_merge():
    a, b = _filled({"x": [1.0, 2.0]}), _filled({"x": [3.0, 4.0], "y": [5.0]})
    b.increment("wasm.cache.hit", 2)
    direct = _filled({"x": [1.0, 2.0]})
    direct.merge(b)
    a.merge_snapshot(b.snapshot())
    _assert_registries_equal(a, direct)


def test_percentiles_survive_from_snapshot_round_trip():
    reg = MetricsRegistry()
    for v in range(1, 101):
        reg.record("lat", float(v))
    restored = MetricsRegistry.from_snapshot(reg.snapshot())
    original = reg.series("lat").summary()
    after = restored.series("lat").summary()
    for key in ("count", "total", "mean", "min", "max", "stddev", "p50", "p95", "p99"):
        assert after[key] == pytest.approx(original[key]), key


def test_merge_snapshot_accepts_legacy_value_lists():
    reg = MetricsRegistry()
    # Pre-reservoir snapshots shipped each series as a bare list of values.
    reg.merge_snapshot({"counters": {"c": 3}, "series": {"x": [1.0, 2.0, 3.0]}})
    assert reg.counter("c") == 3
    s = reg.series("x")
    assert s.count == 3
    assert s.mean == pytest.approx(2.0)
    assert s.percentile(50) == 2.0


def test_empty_series_summary_and_percentile():
    s = SampleSeries()
    assert s.percentile(50) == 0.0
    summary = s.summary()
    assert summary["count"] == 0 and summary["p99"] == 0.0


# ------------------------------------------------------------------ histograms


def test_histogram_observe_merge_snapshot():
    reg = MetricsRegistry()
    reg.observe("wasm.handlers", "_h_bin", 5)
    reg.observe("wasm.handlers", "_h_const", 2)
    other = MetricsRegistry()
    other.observe("wasm.handlers", "_h_bin", 1)
    other.observe("wasm.handlers", "_h_pad", 4)
    reg.merge(other)
    h = reg.histogram("wasm.handlers")
    assert h.counts() == {"_h_bin": 6, "_h_pad": 4, "_h_const": 2}
    assert h.total == 12

    restored = MetricsRegistry.from_snapshot(reg.snapshot())
    assert restored.histogram("wasm.handlers").counts() == h.counts()
    assert restored.histogram_names() == ["wasm.handlers"]


def test_snapshot_without_histograms_section_still_merges():
    reg = MetricsRegistry()
    reg.merge_snapshot({"counters": {}, "series": {}})
    assert reg.histogram_names() == []


def test_histogram_counts_sorted_by_frequency():
    h = Histogram()
    h.observe("rare")
    h.observe("common", 10)
    h.observe("mid", 5)
    assert list(h.counts()) == ["common", "mid", "rare"]


# ------------------------------------------------------------- cache counters


def test_cache_summary_distinguishes_tiers():
    reg = MetricsRegistry()
    reg.record_cache_event(None)
    reg.record_cache_event("memory")
    reg.record_cache_event("memory")
    reg.record_cache_event("fs")
    summary = reg.cache_summary()
    assert summary["hits"] == 3 and summary["misses"] == 1
    assert summary["hits_memory"] == 2
    assert summary["hits_fs"] == 1
    assert summary["hit_rate"] == pytest.approx(0.75)
