"""Tests for the analytical flow model."""

import pytest

from repro.analysis.flow import Bottleneck, FlowModel
from repro.cluster import ResourceVector, emulab_testbed, single_rack_cluster
from repro.errors import SimulationError
from repro.scheduler.assignment import Assignment
from repro.scheduler.default import DefaultScheduler
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun
from repro.topology.builder import TopologyBuilder
from repro.topology.component import ExecutionProfile
from repro.workloads.micro import NETWORK_BOUND_UPLINK_MBPS, micro_topology


def chain(spout_rate=None, cpu_ms=1.0, stages=2, parallelism=1, tuple_bytes=64):
    builder = TopologyBuilder("chain")
    prof = ExecutionProfile(
        cpu_ms_per_tuple=cpu_ms, tuple_bytes=tuple_bytes, max_rate_tps=spout_rate
    )
    builder.set_spout("stage-0", parallelism, profile=prof)
    bolt_prof = ExecutionProfile(cpu_ms_per_tuple=cpu_ms, tuple_bytes=tuple_bytes)
    for i in range(1, stages):
        bolt = builder.set_bolt(f"stage-{i}", parallelism, profile=bolt_prof)
        bolt.shuffle_grouping(f"stage-{i - 1}")
    return builder.build()


def one_node_cluster(cpu=100.0):
    return single_rack_cluster(
        1,
        capacity=ResourceVector.of(memory_mb=8192, cpu=cpu, bandwidth_mbps=100),
    )


def place_all_on(cluster, topology, slot_index=0):
    slot = cluster.nodes[0].slots[slot_index]
    return Assignment(topology.topology_id, {t: slot for t in topology.tasks})


class TestAnalyticCases:
    def test_rate_capped_spout_passes_through(self):
        """Spout capped at 100 t/s, plenty of CPU: sinks see 100 t/s."""
        topology = chain(spout_rate=100.0, cpu_ms=0.1)
        cluster = one_node_cluster(cpu=400.0)
        assignment = place_all_on(cluster, topology)
        result = FlowModel(cluster).solve([(topology, assignment)])
        assert result.topology_throughput_tps["chain"] == pytest.approx(
            100.0, rel=1e-6
        )
        assert result.scales["chain"] == pytest.approx(1.0)

    def test_cpu_bound_chain_scales_to_capacity(self):
        """2 tasks x 1 ms/tuple on one 1-core node: total CPU supports
        500 t/s end-to-end."""
        topology = chain(cpu_ms=1.0, stages=2)
        cluster = one_node_cluster(cpu=100.0)
        assignment = place_all_on(cluster, topology)
        result = FlowModel(cluster).solve([(topology, assignment)])
        assert result.topology_throughput_tps["chain"] == pytest.approx(
            500.0, rel=0.01
        )
        # the spout's 1000 t/s thread ceiling puts 2 cores on 1
        node_id = cluster.nodes[0].node_id
        bottleneck = result.bottlenecks["chain"]
        assert bottleneck == Bottleneck("cpu", node_id, 2.0)
        assert bottleneck.description == f"CPU on {node_id}"
        assert result.node_cpu_utilisation[
            cluster.nodes[0].node_id
        ] == pytest.approx(1.0, rel=0.01)

    def test_single_thread_ceiling(self):
        """One 1 ms/tuple bolt on a 4-core node still caps at 1000 t/s."""
        builder = TopologyBuilder("chain")
        builder.set_spout(
            "stage-0", 1, profile=ExecutionProfile(cpu_ms_per_tuple=0.1)
        )
        bolt = builder.set_bolt(
            "stage-1", 1, profile=ExecutionProfile(cpu_ms_per_tuple=1.0)
        )
        bolt.shuffle_grouping("stage-0")
        topology = builder.build()
        cluster = one_node_cluster(cpu=400.0)
        assignment = place_all_on(cluster, topology)
        result = FlowModel(cluster).solve([(topology, assignment)])
        assert result.topology_throughput_tps["chain"] == pytest.approx(
            1000.0, rel=0.01
        )
        # the spout offers 10k t/s, ten times the bolt's one thread
        [task] = [t for t in topology.tasks if t.component == "stage-1"]
        bottleneck = result.bottlenecks["chain"]
        assert bottleneck == Bottleneck("task", task, 10.0)
        assert bottleneck.description == (
            "single-thread ceiling of chain/stage-1[0]"
        )

    def test_nic_bound_remote_edge(self):
        """A 1000-byte stream across a 100 Mbps link caps at 12.5k t/s."""
        topology = chain(cpu_ms=0.001, stages=2, tuple_bytes=1000)
        cluster = single_rack_cluster(
            2,
            capacity=ResourceVector.of(
                memory_mb=8192, cpu=400, bandwidth_mbps=100
            ),
        )
        tasks = topology.tasks
        assignment = Assignment(
            "chain",
            {
                tasks[0]: cluster.nodes[0].slots[0],
                tasks[1]: cluster.nodes[1].slots[0],
            },
        )
        model = FlowModel(cluster)
        result = model.solve([(topology, assignment)])
        expected = 100e6 / 8.0 / 1000.0  # bytes/s over bytes/tuple
        assert result.topology_throughput_tps["chain"] == pytest.approx(
            expected, rel=0.01
        )
        # the spout's 1M t/s of 1000 B is 80x the link's 12.5 MB/s
        node_id = cluster.nodes[0].node_id
        bottleneck = result.bottlenecks["chain"]
        assert bottleneck == Bottleneck("tx", node_id, 80.0)
        assert bottleneck.description == f"NIC tx on {node_id}"

    def test_thrash_collapses_throughput(self):
        topology = chain(cpu_ms=1.0, stages=2)
        for comp in topology.components.values():
            comp.set_memory_load(1500.0)
        cluster = single_rack_cluster(
            1,
            capacity=ResourceVector.of(
                memory_mb=2048, cpu=100, bandwidth_mbps=100
            ),
        )
        assignment = place_all_on(cluster, topology)
        result = FlowModel(cluster).solve([(topology, assignment)])
        # thrash factor 25 divides the 500 t/s CPU-bound rate
        assert result.topology_throughput_tps["chain"] == pytest.approx(
            20.0, rel=0.05
        )

    def test_incomplete_assignment_rejected(self):
        topology = chain()
        cluster = one_node_cluster()
        with pytest.raises(SimulationError):
            FlowModel(cluster).solve([(topology, Assignment("chain", {}))])


class TestMultiTenancy:
    def test_shared_node_splits_capacity(self):
        t1 = chain(cpu_ms=1.0, stages=1)
        t2 = TopologyBuilder("other")
        t2.set_spout(
            "stage-0", 1, profile=ExecutionProfile(cpu_ms_per_tuple=1.0)
        )
        t2 = t2.build()
        cluster = one_node_cluster(cpu=100.0)
        a1 = place_all_on(cluster, t1)
        a2 = Assignment("other", {t2.tasks[0]: cluster.nodes[0].slots[1]})
        result = FlowModel(cluster).solve([(t1, a1), (t2, a2)])
        total = (
            result.topology_throughput_tps["chain"]
            + result.topology_throughput_tps["other"]
        )
        assert total == pytest.approx(1000.0, rel=0.02)


class TestAgreementWithSimulator:
    @pytest.mark.parametrize("kind", ["linear", "diamond"])
    def test_flow_model_tracks_des_on_compute_bound(self, kind):
        topology = micro_topology(kind, "compute")
        cluster = emulab_testbed()
        assignment = RStormScheduler().schedule([topology], cluster)[
            topology.topology_id
        ]
        flow = FlowModel(cluster).solve([(topology, assignment)])
        des = SimulationRun(
            cluster,
            [(topology, assignment)],
            SimulationConfig(duration_s=40.0, warmup_s=10.0),
        ).run()
        predicted = flow.throughput_per_window(topology.topology_id)
        measured = des.average_throughput_per_window(topology.topology_id)
        assert predicted == pytest.approx(measured, rel=0.25)

    def test_flow_model_predicts_rstorm_beats_default_network_bound(self):
        topology_id = "linear-network"
        predictions = {}
        for scheduler in (RStormScheduler(), DefaultScheduler()):
            topology = micro_topology("linear", "network")
            cluster = emulab_testbed()
            assignment = scheduler.schedule([topology], cluster)[topology_id]
            flow = FlowModel(
                cluster, interrack_uplink_mbps=NETWORK_BOUND_UPLINK_MBPS
            ).solve([(topology, assignment)])
            predictions[scheduler.name] = flow.topology_throughput_tps[
                topology_id
            ]
        assert predictions["r-storm"] > predictions["default"]
