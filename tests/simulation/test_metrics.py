"""Tests for the StatisticServer."""

import pytest

from repro.simulation.metrics import StatisticServer


class TestWindows:
    def test_window_index(self):
        stats = StatisticServer(window_s=10.0)
        assert stats.window_index(0.0) == 0
        assert stats.window_index(9.999) == 0
        assert stats.window_index(10.0) == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            StatisticServer(window_s=0.0)

    def test_sink_recording_buckets_by_window(self):
        stats = StatisticServer(window_s=10.0)
        stats.record_sink("t", "sink", 5.0, 100)
        stats.record_sink("t", "sink", 15.0, 200)
        series = stats.throughput_series("t", 30.0)
        assert series == [(0.0, 100), (10.0, 200), (20.0, 0)]

    def test_component_series_separate(self):
        stats = StatisticServer(window_s=10.0)
        stats.record_sink("t", "a", 1.0, 10)
        stats.record_sink("t", "b", 1.0, 20)
        assert stats.component_series("t", "a", 10.0) == [(0.0, 10)]
        assert stats.component_series("t", "b", 10.0) == [(0.0, 20)]

    def test_sink_total(self):
        stats = StatisticServer()
        stats.record_sink("t", "s", 0.0, 5)
        stats.record_sink("t", "s", 50.0, 7)
        assert stats.sink_total("t") == 12
        assert stats.sink_total("other") == 0


class TestCounters:
    def test_emitted_failed_processed(self):
        stats = StatisticServer()
        stats.record_emitted("t", 100)
        stats.record_failed("t", 30)
        stats.record_processed("t", "bolt", 70)
        assert stats.emitted_total("t") == 100
        assert stats.failed_total("t") == 30
        assert stats.processed_total("t", "bolt") == 70

    def test_busy_accumulates(self):
        stats = StatisticServer()
        stats.record_busy("n1", 0.5)
        stats.record_busy("n1", 0.25)
        assert stats.busy_core_seconds("n1") == 0.75
        assert stats.busy_core_seconds("ghost") == 0.0

    def test_nic_bytes(self):
        stats = StatisticServer()
        stats.record_nic("n1", 1000)
        stats.record_nic("n1", 500)
        assert stats.nic_bytes("n1") == 1500

    def test_per_batch_counters_are_the_recorders_dicts(self):
        recorded, direct = StatisticServer(), StatisticServer()
        recorded.record_busy("n1", 0.1)
        recorded.record_busy("n1", 0.2)
        recorded.record_processed("t", "bolt", 70)
        recorded.record_nic("n1", 1000)
        busy, processed, nic = direct.per_batch_counters()
        busy["n1"] += 0.1
        busy["n1"] += 0.2
        processed[("t", "bolt")] += 70
        nic["n1"] += 1000
        assert direct.busy_core_seconds("n1") == recorded.busy_core_seconds("n1")
        assert direct.processed_snapshot() == recorded.processed_snapshot()
        assert direct.nic_bytes("n1") == recorded.nic_bytes("n1") == 1000
        assert direct.busy_snapshot() == recorded.busy_snapshot()

    def test_ack_latencies_copied(self):
        stats = StatisticServer()
        stats.record_ack("t", 0.01)
        samples = stats.ack_latencies("t")
        samples.append(99.0)
        assert stats.ack_latencies("t") == [0.01]

    def test_crashes_by_component(self):
        stats = StatisticServer()
        stats.record_crash("t", "bolt-a")
        stats.record_crash("t", "bolt-a")
        stats.record_crash("t", "bolt-b")
        stats.record_crash("other", "x")
        assert stats.crash_total("t") == 3
        assert stats.crashes_by_component("t") == {"bolt-a": 2, "bolt-b": 1}

    def test_topologies_seen(self):
        stats = StatisticServer()
        stats.record_emitted("b", 1)
        stats.record_sink("a", "s", 0.0, 1)
        assert stats.topologies_seen() == ["a", "b"]
