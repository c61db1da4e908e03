"""Tests for topology validation, task expansion, and adjacency."""

import pytest

from repro.errors import TopologyValidationError
from repro.topology.builder import TopologyBuilder
from repro.topology.topology import Topology


def diamond():
    builder = TopologyBuilder("diamond")
    builder.set_spout("spout", 2)
    builder.set_bolt("left", 2).shuffle_grouping("spout")
    builder.set_bolt("right", 2).shuffle_grouping("spout")
    sink = builder.set_bolt("sink", 2)
    sink.shuffle_grouping("left").shuffle_grouping("right")
    return builder.build()


class TestValidation:
    def test_empty_topology_rejected(self):
        with pytest.raises(TopologyValidationError):
            Topology("t", {})

    def test_topology_without_spout_rejected(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 1)
        bolt_only = {"b": builder.set_bolt("b", 1).shuffle_grouping("s").component}
        with pytest.raises(TopologyValidationError):
            Topology("t", bolt_only)

    def test_bolt_without_input_rejected(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 1)
        builder.set_bolt("floating", 1)  # no grouping call
        with pytest.raises(TopologyValidationError):
            builder.build()

    def test_unknown_source_rejected(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 1)
        builder.set_bolt("b", 1).shuffle_grouping("ghost")
        with pytest.raises(TopologyValidationError):
            builder.build()

    def test_unreachable_island_rejected(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 1)
        builder.set_bolt("b", 1).shuffle_grouping("s")
        # an island: two bolts feeding each other, unreachable from s
        builder.set_bolt("x", 1).shuffle_grouping("y")
        builder.set_bolt("y", 1).shuffle_grouping("x")
        with pytest.raises(TopologyValidationError):
            builder.build()

    def test_cycles_reachable_from_spout_allowed(self):
        # R-Storm supports cyclic topologies (paper, related work section).
        builder = TopologyBuilder("cyclic")
        builder.set_spout("s", 1)
        builder.set_bolt("a", 1).shuffle_grouping("s").shuffle_grouping("b")
        builder.set_bolt("b", 1).shuffle_grouping("a")
        topology = builder.build()
        assert set(topology.components) == {"s", "a", "b"}


class TestTaskExpansion:
    def test_task_counts_match_parallelism(self):
        topology = diamond()
        assert topology.num_tasks == 8
        assert len(topology.tasks_of("spout")) == 2

    def test_task_ids_globally_unique_and_start_at_one(self):
        topology = diamond()
        ids = sorted(t.task_id for t in topology.tasks)
        assert ids == list(range(1, 9))

    def test_task_instances_within_component(self):
        topology = diamond()
        instances = [t.instance for t in topology.tasks_of("sink")]
        assert instances == [0, 1]

    def test_tasks_are_ordered(self):
        topology = diamond()
        assert list(topology.tasks) == sorted(topology.tasks)


class TestAdjacency:
    def test_downstream(self):
        topology = diamond()
        assert topology.downstream_of("spout") == ("left", "right")
        assert topology.downstream_of("sink") == ()

    def test_upstream(self):
        topology = diamond()
        assert topology.upstream_of("sink") == ("left", "right")
        assert topology.upstream_of("spout") == ()

    def test_neighbours_are_undirected(self):
        topology = diamond()
        assert topology.neighbours_of("left") == ("sink", "spout")

    def test_sinks(self):
        topology = diamond()
        assert [c.name for c in topology.sinks] == ["sink"]

    def test_edges(self):
        edges = {(s, t) for s, t, _ in diamond().edges()}
        assert edges == {
            ("spout", "left"),
            ("spout", "right"),
            ("left", "sink"),
            ("right", "sink"),
        }

    def test_unknown_component_rejected(self):
        with pytest.raises(TopologyValidationError):
            diamond().downstream_of("ghost")


class TestResources:
    def test_task_demand_comes_from_component(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 2).set_memory_load(512.0).set_cpu_load(30.0)
        topology = builder.build()
        task = topology.tasks[0]
        demand = topology.task_demand(task)
        assert demand.memory_mb == 512.0
        assert demand.cpu == 30.0

    def test_total_demand_sums_tasks(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 3).set_memory_load(100.0).set_cpu_load(10.0)
        topology = builder.build()
        assert topology.total_demand().memory_mb == 300.0
        assert topology.total_demand().cpu == 30.0

    def test_spout_is_sink_when_no_bolts(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", 1)
        topology = builder.build()
        assert [c.name for c in topology.sinks] == ["s"]
