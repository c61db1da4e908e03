"""Tests for SimulationReport derived views."""

import dataclasses

import pytest

from repro.simulation.config import SimulationConfig
from repro.simulation.flowcontrol import FlowControlConfig
from repro.simulation.metrics import StatisticServer
from repro.simulation.report import LatencyStats, SimulationReport
from repro.traffic.arrivals import PoissonArrivals


def make_report(duration=60.0, warmup=10.0):
    config = SimulationConfig(duration_s=duration, warmup_s=warmup)
    stats = StatisticServer(config.window_s)
    return (
        SimulationReport(
            config=config,
            stats=stats,
            duration_s=duration,
            topology_ids=["t"],
            nodes_used={"t": ("n1", "n2")},
            node_cores={"n1": 1, "n2": 2},
        ),
        stats,
    )


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_percentiles(self):
        samples = [float(i) for i in range(1, 101)]
        stats = LatencyStats.from_samples(samples)
        assert stats.count == 100
        assert stats.p50 == 50.0
        assert stats.p99 == 99.0
        assert stats.mean == pytest.approx(50.5)

    def test_single_sample(self):
        stats = LatencyStats.from_samples([0.5])
        assert stats.p50 == stats.p99 == stats.mean == 0.5


class TestThroughputViews:
    def test_average_excludes_warmup(self):
        report, stats = make_report()
        stats.record_sink("t", "s", 5.0, 999999)  # warmup window
        stats.record_sink("t", "s", 15.0, 100)
        stats.record_sink("t", "s", 25.0, 200)
        stats.record_sink("t", "s", 35.0, 300)
        stats.record_sink("t", "s", 45.0, 400)
        stats.record_sink("t", "s", 55.0, 500)
        assert report.average_throughput_per_window("t") == pytest.approx(300.0)

    def test_average_tps(self):
        report, stats = make_report()
        stats.record_sink("t", "s", 15.0, 1000)
        avg_window = report.average_throughput_per_window("t")
        assert report.average_throughput_tps("t") == pytest.approx(
            avg_window / 10.0
        )

    def test_empty_topology_zero(self):
        report, _ = make_report()
        assert report.average_throughput_per_window("ghost") == 0.0


class TestCpuViews:
    def test_cpu_utilisation_accounts_cores(self):
        report, stats = make_report(duration=10.0, warmup=1.0)
        busy, _processed, _nic = stats.per_batch_counters()
        busy["n1"] += 5.0
        busy["n2"] += 5.0
        assert report.cpu_utilisation("n1") == pytest.approx(0.5)
        assert report.cpu_utilisation("n2") == pytest.approx(0.25)  # 2 cores

    def test_mean_cpu_utilisation_over_used_nodes(self):
        report, stats = make_report(duration=10.0, warmup=1.0)
        busy, _processed, _nic = stats.per_batch_counters()
        busy["n1"] += 10.0
        busy["n2"] += 0.0
        assert report.mean_cpu_utilisation() == pytest.approx(0.5)

    def test_mean_cpu_utilisation_explicit_nodes(self):
        report, stats = make_report(duration=10.0, warmup=1.0)
        busy, _processed, _nic = stats.per_batch_counters()
        busy["n1"] += 10.0
        assert report.mean_cpu_utilisation(["n1"]) == pytest.approx(1.0)

    def test_empty_node_list(self):
        report, _ = make_report()
        assert report.mean_cpu_utilisation([]) == 0.0


class TestSummary:
    def test_summary_contains_headline_numbers(self):
        report, stats = make_report()
        stats.record_sink("t", "s", 15.0, 100)
        stats.record_emitted("t", 120)
        summary = report.summary()
        assert "t" in summary
        assert summary["t"]["emitted"] == 120.0
        assert summary["t"]["nodes_used"] == 2.0
        assert "worker_crashes" in summary["t"]


def recorded_report():
    """A report over one of every recording, made through the recorder
    API only: ``t`` sees every layer, ``u`` a few counters, ``idle``
    nothing at all."""
    config = SimulationConfig(
        duration_s=60.0,
        warmup_s=10.0,
        at_least_once=True,
        arrival_process=PoissonArrivals(100.0),
        flow=FlowControlConfig(),
    )
    stats = StatisticServer(config.window_s)
    for time, tuples in ((5.0, 50), (15.0, 100), (25.0, 200), (55.0, 300)):
        stats.record_sink("t", "sink", time, tuples)
    stats.record_sink("u", "sink", 35.0, 40)
    stats.record_emitted("t", 1000)
    stats.record_emitted("u", 100)
    stats.record_failed("t", 30)
    for component in ("a", "a", "b"):
        stats.record_crash("t", component)
    stats.record_crash("u", "c")
    stats.record_replayed("t", 150)
    stats.record_exhausted("t", 20)
    stats.record_lost("t", 7)
    stats.record_duplicate("t", 50)
    stats.record_acked_tuples("t", 15.0, 80)
    stats.record_acked_tuples("t", 45.0, 120)
    for time, tuples in ((5.0, 60), (15.0, 300), (25.0, 180)):
        stats.record_offered("t", time, tuples)
    stats.record_offered("u", 15.0, 50)
    stats.record_arrival_dropped("t", 9)
    for latency in (0.01, 0.02, 0.03):
        stats.record_e2e_latency("t", latency)
    stats.record_e2e_latency("u", 0.04)
    for latency in (0.5, 0.25, 0.75):
        stats.record_ack("t", latency)
    stats.record_shed("t", "a", "ingress", 15.0, 5)
    stats.record_shed("t", "b", "queue", 25.0, 10)
    stats.record_credit_stall("t", "a", "b")
    stats.record_credit_stall("t", "a", "b")
    stats.record_credit_stall("t", "b", "c")
    stats.record_spout_throttle("t", 1.5)
    stats.record_spout_throttle("t", 0.25)
    busy, _processed, _nic = stats.per_batch_counters()
    busy["n1"] += 6.0
    busy["n2"] += 30.0
    report = SimulationReport(
        config=config,
        stats=stats,
        duration_s=60.0,
        topology_ids=["t", "u", "idle"],
        nodes_used={"t": ("n1", "n2"), "u": ("n2",)},
        node_cores={"n1": 1, "n2": 2},
    )
    return report, stats


def _plain(value):
    """Dataclasses as dicts and floats rounded to 12 places, so a pin
    row compares by ``repr`` (key order and int-vs-float included)."""
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(item) for item in value)
    if isinstance(value, float):
        return round(value, 12)
    return value


_ZERO_LAYER_KEYS = {
    "effective_tuples_per_window": 0.0, "replayed": 0.0, "exhausted": 0.0,
    "lost": 0.0, "duplicated": 0.0, "replay_amplification": 1.0,
    "duplicate_rate": 0.0,
}

#: (reader, args, expected) for every public SimulationReport reader.
READER_PINS = [
    ("throughput_series", ("t",),
     [(0.0, 50), (10.0, 100), (20.0, 200), (30.0, 0), (40.0, 0), (50.0, 300)]),
    ("average_throughput_per_window", ("t",), 120.0),
    ("average_throughput_per_window", ("u",), 8.0),
    ("average_throughput_tps", ("t",), 12.0),
    ("emitted", ("t",), 1000),
    ("sunk", ("t",), 650),
    ("failed", ("t",), 30),
    ("crashes", ("t",), 3),
    ("crashes", ("u",), 1),
    ("replayed", ("t",), 150),
    ("exhausted", ("t",), 20),
    ("lost", ("t",), 7),
    ("duplicated", ("t",), 50),
    ("replay_amplification", ("t",), 1.15),
    ("replay_amplification", ("idle",), 1.0),
    ("duplicate_rate", ("t",), 0.05),
    ("duplicate_rate", ("idle",), 0.0),
    ("effective_throughput_series", ("t",),
     [(0.0, 0), (10.0, 80), (20.0, 0), (30.0, 0), (40.0, 120), (50.0, 0)]),
    ("effective_throughput_per_window", ("t",), 40.0),
    ("offered", ("t",), 540),
    ("arrivals_dropped", ("t",), 9),
    ("offered_series", ("t",),
     [(0.0, 60), (10.0, 300), (20.0, 180), (30.0, 0), (40.0, 0), (50.0, 0)]),
    ("offered_per_window", ("t",), 96.0),
    ("achieved_ratio", ("t",), 1.25),
    ("achieved_ratio", ("idle",), 0.0),
    ("e2e_latency", ("t",),
     {"count": 3, "mean": 0.02, "p50": 0.02, "p99": 0.0298, "p999": 0.02998}),
    ("e2e_latency", ("idle",),
     {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0}),
    ("shed", ("t",), 15),
    ("shed_by_stage", ("t",), {"ingress": 5, "queue": 10}),
    ("shed_by_stage", ("u",), {}),
    ("shed_rate", ("t",), 0.027777777778),
    ("shed_series", ("t",),
     [(0.0, 0), (10.0, 5), (20.0, 10), (30.0, 0), (40.0, 0), (50.0, 0)]),
    ("spout_throttled_s", ("t",), 1.75),
    ("credit_stalls", ("t",), {("a", "b"): 2, ("b", "c"): 1}),
    ("credit_stall_total", ("t",), 3),
    ("tenant_e2e_latency", (["t", "u"],),
     {"count": 4, "mean": 0.025, "p50": 0.025, "p99": 0.0397,
      "p999": 0.03997}),
    ("tenant_e2e_latency", (["idle"],),
     {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "p999": 0.0}),
    ("tenant_summary", ({"t": "gold", "u": "gold", "v": "free"},),
     {"free": {"topologies": 0.0, "offered_tuples_per_window": 0,
               "achieved_tuples_per_window": 0, "achieved_ratio": 0.0,
               "e2e_p50_ms": 0.0, "e2e_p99_ms": 0.0},
      "gold": {"topologies": 2.0, "offered_tuples_per_window": 106.0,
               "achieved_tuples_per_window": 128.0, "achieved_ratio": 1.2075,
               "e2e_p50_ms": 25.0, "e2e_p99_ms": 39.7}}),
    ("cpu_utilisation", ("n1",), 0.1),
    ("cpu_utilisation", ("n2",), 0.25),
    ("mean_cpu_utilisation", (), 0.175),
    ("mean_cpu_utilisation", (["n1"],), 0.1),
    ("topology_cpu_utilisation", ("u",), 0.25),
    ("ack_latency", ("t",), {"count": 3, "mean": 0.5, "p50": 0.5, "p99": 0.75}),
    ("ack_latency", ("u",), {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0}),
    ("is_empty", ("t",), False),
    ("is_empty", ("idle",), True),
    ("summary", (), {
        "t": {
            "avg_tuples_per_window": 120.0, "avg_tuples_per_s": 12.0,
            "emitted": 1000.0, "sunk": 650.0, "failed": 30.0,
            "nodes_used": 2.0, "mean_cpu_utilisation": 0.175,
            "ack_p50_ms": 500.0, "worker_crashes": 3.0,
            "effective_tuples_per_window": 40.0, "replayed": 150.0,
            "exhausted": 20.0, "lost": 7.0, "duplicated": 50.0,
            "replay_amplification": 1.15, "duplicate_rate": 0.05,
            "offered": 540.0, "offered_tuples_per_window": 96.0,
            "achieved_ratio": 1.25, "arrivals_dropped": 9.0,
            "e2e_p50_ms": 20.0, "e2e_p99_ms": 29.8, "e2e_p999_ms": 29.98,
            "shed": 15.0, "shed_rate": 0.0278, "spout_throttled_s": 1.75,
            "credit_stalls": 3.0,
        },
        "u": {
            "avg_tuples_per_window": 8.0, "avg_tuples_per_s": 0.8,
            "emitted": 100.0, "sunk": 40.0, "failed": 0.0,
            "nodes_used": 1.0, "mean_cpu_utilisation": 0.25,
            "ack_p50_ms": 0.0, "worker_crashes": 1.0,
            **_ZERO_LAYER_KEYS,
            "offered": 50.0, "offered_tuples_per_window": 10.0,
            "achieved_ratio": 0.8, "arrivals_dropped": 0.0,
            "e2e_p50_ms": 40.0, "e2e_p99_ms": 40.0, "e2e_p999_ms": 40.0,
            "shed": 0.0, "shed_rate": 0.0, "spout_throttled_s": 0.0,
            "credit_stalls": 0.0,
        },
        "idle": {
            "avg_tuples_per_window": 0.0, "avg_tuples_per_s": 0.0,
            "emitted": 0.0, "sunk": 0.0, "failed": 0.0,
            "nodes_used": 0.0, "mean_cpu_utilisation": 0.0,
            "ack_p50_ms": 0.0, "worker_crashes": 0.0,
            **_ZERO_LAYER_KEYS,
            "offered": 0.0, "offered_tuples_per_window": 0.0,
            "achieved_ratio": 0.0, "arrivals_dropped": 0.0,
            "e2e_p50_ms": 0.0, "e2e_p99_ms": 0.0, "e2e_p999_ms": 0.0,
            "shed": 0.0, "shed_rate": 0.0, "spout_throttled_s": 0.0,
            "credit_stalls": 0.0, "empty": 1.0,
        },
    }),
]


class TestReaderPin:
    """Every public reader over values recorded through the recorder
    API, pinned by ``repr``."""

    @pytest.mark.parametrize(
        "reader,args,expected",
        READER_PINS,
        ids=[f"{reader}{args}" for reader, args, _ in READER_PINS],
    )
    def test_reader(self, reader, args, expected):
        report, _ = recorded_report()
        assert repr(_plain(getattr(report, reader)(*args))) == repr(expected)

    def test_reads_insert_no_keys(self):
        # The elastic controller snapshots the live counter dicts, so a
        # read that inserted a default would change what it sees.
        report, stats = recorded_report()

        def keys():
            return {
                name: sorted(map(repr, value))
                for name, value in vars(stats).items()
                if isinstance(value, dict)
            }

        before = keys()
        for reader, args, _ in READER_PINS:
            getattr(report, reader)(*args)
            getattr(report, reader)(*(_ghost(arg) for arg in args))
        assert keys() == before

    def test_every_public_reader_is_pinned(self):
        readers = {
            name
            for name, value in vars(SimulationReport).items()
            if callable(value) and not name.startswith("_")
        }
        assert readers == {reader for reader, _, _ in READER_PINS}


def _ghost(arg):
    """``arg`` with every topology or node name swapped for one that
    recorded nothing."""
    if isinstance(arg, str):
        return "ghost"
    if isinstance(arg, dict):
        return {"ghost": "nobody"}
    return ["ghost"]
