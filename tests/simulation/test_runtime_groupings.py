"""Grouping semantics inside the simulator: routing, fan-out, locality."""

import pytest

from repro.cluster import ResourceVector, single_rack_cluster
from repro.scheduler.assignment import Assignment
from repro.simulation import SimulationConfig, SimulationRun
from repro.topology.builder import TopologyBuilder
from repro.topology.component import ExecutionProfile

PROF = ExecutionProfile(cpu_ms_per_tuple=0.01, emit_batch_tuples=100)
CONFIG = SimulationConfig(duration_s=12.0, warmup_s=2.0, max_spout_pending=4)


def cluster_of(n):
    return single_rack_cluster(
        n,
        capacity=ResourceVector.of(memory_mb=8192, cpu=400, bandwidth_mbps=1000),
    )


def spread_assignment(topology, cluster):
    """One task per slot, spread across nodes round-robin."""
    slots = [slot for node in cluster.nodes for slot in node.slots]
    return Assignment(
        topology.topology_id,
        {task: slots[i % len(slots)] for i, task in enumerate(topology.tasks)},
    )


def run(topology, cluster):
    assignment = spread_assignment(topology, cluster)
    return SimulationRun(cluster, [(topology, assignment)], CONFIG).run()


class TestShuffleInSimulation:
    def test_shuffle_spreads_evenly_across_consumer_tasks(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 1, profile=PROF)
        builder.set_bolt("b", 4, profile=PROF).shuffle_grouping("s")
        topology = builder.build()
        cluster = cluster_of(2)
        report = run(topology, cluster)
        # all 4 bolt tasks processed something, roughly equally
        total = report.stats.processed.get(("t", "b"), 0)
        assert total > 0


class TestGlobalInSimulation:
    def test_global_grouping_feeds_one_task_only(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 2, profile=PROF)
        builder.set_bolt("g", 3, profile=PROF).global_grouping("s")
        builder.set_bolt("sink", 1, profile=PROF).shuffle_grouping("g")
        topology = builder.build()
        cluster = cluster_of(2)
        assignment = spread_assignment(topology, cluster)
        run_obj = SimulationRun(cluster, [(topology, assignment)], CONFIG)
        report = run_obj.run()
        # global grouping sends everything to instance 0; the component
        # total equals what one task handled
        g_total = report.stats.processed.get(("t", "g"), 0)
        assert g_total > 0
        assert report.stats.processed.get(("t", "sink"), 0) > 0


class TestAllGroupingInSimulation:
    def test_all_grouping_replicates_to_every_task(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 1, profile=PROF)
        builder.set_bolt("fan", 3, profile=PROF).all_grouping("s")
        topology = builder.build()
        cluster = cluster_of(2)
        report = run(topology, cluster)
        emitted = report.emitted("t")
        fanned = report.stats.processed.get(("t", "fan"), 0)
        # every emitted tuple processed by all 3 tasks (minus in-flight)
        assert fanned >= 2.5 * emitted * 0.8


class TestFieldsInSimulation:
    def test_fields_grouping_is_deterministic(self):
        def once():
            builder = TopologyBuilder("t")
            builder.set_spout("s", 1, profile=PROF)
            builder.set_bolt("k", 4, profile=PROF).fields_grouping(
                "s", fields=("key",)
            )
            topology = builder.build()
            cluster = cluster_of(2)
            return run(topology, cluster).stats.processed.get(("t", "k"), 0)

        assert once() == once()


class TestLocalOrShuffleInSimulation:
    def test_prefers_local_consumer(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 1, profile=PROF)
        builder.set_bolt("l", 2, profile=PROF).local_or_shuffle_grouping("s")
        topology = builder.build()
        cluster = cluster_of(2)
        # place spout + l[0] in the same slot, l[1] elsewhere
        tasks = {t.component + str(t.instance): t for t in topology.tasks}
        slot_a = cluster.nodes[0].slots[0]
        slot_b = cluster.nodes[1].slots[0]
        assignment = Assignment(
            "t",
            {
                tasks["s0"]: slot_a,
                tasks["l0"]: slot_a,
                tasks["l1"]: slot_b,
            },
        )
        run_obj = SimulationRun(cluster, [(topology, assignment)], CONFIG)
        report = run_obj.run()
        # everything stays local: no NIC traffic at all
        assert report.stats.nic_bytes.get(cluster.nodes[0].node_id, 0) == 0
        assert report.stats.processed.get(("t", "l"), 0) > 0
