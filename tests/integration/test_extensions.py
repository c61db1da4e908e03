"""Integration tests for the beyond-the-paper extensions working together."""

import pytest

from repro.analysis import FlowModel
from repro.cluster import emulab_testbed
from repro.experiments import REGISTRY, scalability
from repro.scheduler import RStormScheduler, render_assignments
from repro.simulation import (
    SimulationConfig,
    SimulationRun,
    Tracer,
    report_as_dict,
)
from repro.workloads import pageload_topology, processing_topology
from repro.workloads.yahoo import yahoo_simulation_config


class TestScalabilityExperiment:
    def test_smoke(self):
        result = scalability.run()
        assert len(result.rows) == len(scalability.SCALES)
        # The latency bounds (under 1 s per row, sub-quadratic growth)
        # are wall clock: scripts/ci_smoke.sh's scheduling scenario
        # checks them.
        for row in result.rows:
            assert row["rstorm_mean_netdist"] < row["default_mean_netdist"]

    def test_registered(self):
        assert "scalability" in REGISTRY


class TestFlowModelOnProductionWorkloads:
    def test_flow_predicts_yahoo_pageload_within_factor(self):
        topology = pageload_topology()
        cluster = emulab_testbed()
        assignment = RStormScheduler().schedule([topology], cluster)[
            "pageload"
        ]
        config = yahoo_simulation_config(40.0)
        flow = FlowModel(cluster, config).solve([(topology, assignment)])
        des = SimulationRun(cluster, [(topology, assignment)], config).run()
        predicted = flow.throughput_per_window("pageload")
        measured = des.average_throughput_per_window("pageload")
        assert predicted == pytest.approx(measured, rel=0.35)

    def test_flow_flags_thrash_for_default_multi_tenant(self):
        """The analytical model also predicts default Storm's Processing
        collapse on the shared 24-node cluster (fig13's mechanism)."""
        from repro.scheduler import DefaultScheduler

        predictions = {}
        for scheduler in (RStormScheduler(), DefaultScheduler()):
            processing = processing_topology()
            pageload = pageload_topology()
            cluster = emulab_testbed(nodes_per_rack=12)
            assignments = scheduler.schedule([processing, pageload], cluster)
            flow = FlowModel(cluster, yahoo_simulation_config(40.0)).solve(
                [
                    (processing, assignments["processing"]),
                    (pageload, assignments["pageload"]),
                ]
            )
            predictions[scheduler.name] = flow.topology_throughput_tps[
                "processing"
            ]
        # default's thrashed joiners gut Processing vs the R-Storm placement
        assert predictions["default"] < 0.25 * predictions["r-storm"]


class TestTracedManagedRun:
    def test_tracer_and_exports_on_a_yahoo_run(self, tmp_path):
        topology = pageload_topology()
        cluster = emulab_testbed()
        assignment = RStormScheduler().schedule([topology], cluster)[
            "pageload"
        ]
        run = SimulationRun(
            cluster,
            [(topology, assignment)],
            SimulationConfig(duration_s=30.0, warmup_s=10.0),
        )
        tracer = Tracer(capacity=10_000)
        run.observer = tracer
        report = run.run()
        assert tracer.counts_by_kind().get("ack", 0) > 0
        payload = report_as_dict(report)
        assert payload["topologies"]["pageload"]["sunk"] > 0
        text = render_assignments(cluster, [(topology, assignment)])
        assert "event-deserializer" in text

