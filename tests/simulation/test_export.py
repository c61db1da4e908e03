"""Tests for result export (JSON summaries)."""

import json

import pytest

from repro.cluster import emulab_testbed
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun, report_as_dict
from tests.conftest import make_linear


@pytest.fixture(scope="module")
def report():
    topology = make_linear(parallelism=2, stages=2)
    cluster = emulab_testbed()
    assignment = RStormScheduler().schedule([topology], cluster)["chain"]
    run = SimulationRun(
        cluster,
        [(topology, assignment)],
        SimulationConfig(duration_s=30.0, warmup_s=10.0),
    )
    return run.run()


class TestJson:
    def test_round_trips_through_json(self, report):
        payload = json.loads(json.dumps(report_as_dict(report)))
        assert payload["topologies"]["chain"]["emitted"] > 0
        assert payload["duration_s"] == 30.0

    def test_headline_numbers_match_report(self, report):
        payload = report_as_dict(report)
        topo = payload["topologies"]["chain"]
        assert topo["sunk"] == report.sunk("chain")
        assert topo["avg_tuples_per_window"] == (
            report.average_throughput_per_window("chain")
        )
        assert set(topo["nodes_used"]) == set(report.nodes_used["chain"])

    def test_node_section(self, report):
        payload = report_as_dict(report)
        for node_id in report.nodes_used["chain"]:
            assert node_id in payload["nodes"]
            assert 0.0 <= payload["nodes"][node_id]["cpu_utilisation"] <= 1.0

