"""Tests for the StatisticServer recorder.

Every derived view is pinned through SimulationReport in
``test_report.py``; this file covers what the recorder itself does.
"""

import pytest

from repro.simulation.metrics import StatisticServer


class TestWindows:
    def test_window_index(self):
        stats = StatisticServer(window_s=10.0)
        for time in (0.0, 9.999, 10.0):
            stats.record_sink("t", "sink", time, 1)
        assert stats.sink_windows == {("t", 0): 2, ("t", 1): 1}

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            StatisticServer(window_s=0.0)

    def test_sink_recording_buckets_by_window(self):
        stats = StatisticServer(window_s=10.0)
        stats.record_sink("t", "sink", 5.0, 100)
        stats.record_sink("t", "sink", 15.0, 200)
        stats.record_offered("t", 25.0, 30)
        stats.record_acked_tuples("t", 25.0, 40)
        stats.record_shed("t", "sink", "queue", 35.0, 50)
        assert stats.sink_windows == {("t", 0): 100, ("t", 1): 200}
        assert stats.offered_windows == {("t", 2): 30}
        assert stats.acked_windows == {("t", 2): 40}
        assert stats.shed_windows == {("t", 3): 50}

    def test_sink_total(self):
        stats = StatisticServer()
        stats.record_sink("t", "s", 0.0, 5)
        stats.record_sink("t", "s", 50.0, 7)
        assert stats.sink_totals == {"t": 12}


class TestCounters:
    def test_per_batch_counters_are_the_recorders_dicts(self):
        stats = StatisticServer()
        busy, processed, nic = stats.per_batch_counters()
        assert busy is stats.busy
        assert processed is stats.processed
        assert nic is stats.nic_bytes
        busy["n1"] += 0.5
        busy["n1"] += 0.25
        processed[("t", "bolt")] += 70
        nic["n1"] += 1000
        assert stats.per_batch_counters() == (
            {"n1": 0.75}, {("t", "bolt"): 70}, {"n1": 1000}
        )

    def test_ack_latencies_copied(self):
        stats = StatisticServer()
        stats.record_ack("t", 0.01)
        samples = stats.ack_latencies("t")
        samples.append(99.0)
        assert stats.ack_latencies("t") == [0.01]
        assert stats.ack_latencies("ghost") == []
        assert "ghost" not in stats.ack_samples

    def test_crashes_by_component(self):
        stats = StatisticServer()
        stats.record_crash("t", "bolt-a")
        stats.record_crash("t", "bolt-a")
        stats.record_crash("t", "bolt-b")
        stats.record_crash("other", "x")
        assert stats.crashes == {
            ("t", "bolt-a"): 2, ("t", "bolt-b"): 1, ("other", "x"): 1
        }
