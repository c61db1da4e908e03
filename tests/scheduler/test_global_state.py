"""Tests for GlobalState — scheduling-time bookkeeping."""

import pytest

from repro.cluster import single_rack_cluster
from repro.cluster.resources import ResourceVector
from repro.errors import InsufficientResourcesError, SchedulingError
from repro.scheduler.assignment import Assignment
from repro.scheduler.global_state import GlobalState
from repro.topology.builder import TopologyBuilder
from repro.topology.task import task_label


@pytest.fixture
def cluster():
    return single_rack_cluster(
        3,
        capacity=ResourceVector.of(memory_mb=1024, cpu=100, bandwidth_mbps=100),
    )


@pytest.fixture
def topology():
    builder = TopologyBuilder("t")
    builder.set_spout("s", 2).set_memory_load(256.0).set_cpu_load(25.0)
    builder.set_bolt("b", 2).shuffle_grouping("s").set_memory_load(
        256.0
    ).set_cpu_load(25.0)
    return builder.build()


class TestPlacement:
    def test_place_reserves_resources(self, cluster, topology):
        state = GlobalState(cluster)
        node = cluster.nodes[0]
        task = topology.tasks[0]
        state.place(task, node.slots[0], topology.task_demand(task))
        assert node.available.memory_mb == 768
        assert state.is_placed(task)
        assert state.node_of(task) == node.node_id

    def test_double_place_rejected(self, cluster, topology):
        state = GlobalState(cluster)
        task = topology.tasks[0]
        state.place(task, cluster.nodes[0].slots[0])
        with pytest.raises(SchedulingError):
            state.place(task, cluster.nodes[1].slots[0])

    def test_place_respects_hard_constraints(self, cluster, topology):
        state = GlobalState(cluster)
        task = topology.tasks[0]
        with pytest.raises(InsufficientResourcesError):
            state.place(
                task,
                cluster.nodes[0].slots[0],
                ResourceVector.of(memory_mb=9999),
            )
        assert not state.is_placed(task)


class TestSlotSelection:
    def test_reuses_topologys_slot_on_node(self, cluster, topology):
        state = GlobalState(cluster)
        node = cluster.nodes[0]
        first = state.slot_for_topology_on_node("t", node)
        state.place(topology.tasks[0], first)
        assert state.slot_for_topology_on_node("t", node) == first

    def test_prefers_free_slot_for_new_topology(self, cluster, topology):
        state = GlobalState(cluster)
        node = cluster.nodes[0]
        slot_t = state.slot_for_topology_on_node("t", node)
        state.place(topology.tasks[0], slot_t)
        slot_other = state.slot_for_topology_on_node("other", node)
        assert slot_other != slot_t

    def test_shares_least_loaded_when_all_taken(self, cluster):
        state = GlobalState(cluster)
        node = cluster.nodes[0]
        # occupy every slot with a distinct topology
        builders = []
        for i, slot in enumerate(node.slots):
            builder = TopologyBuilder(f"t{i}")
            builder.set_spout("s", 1)
            topo = builder.build()
            state.place(topo.tasks[0], slot)
        chosen = state.slot_for_topology_on_node("newcomer", node)
        assert chosen in node.slots


class TestFromAssignments:
    def test_rebuild_reserves_existing(self, cluster, topology):
        assignment = Assignment(
            "t",
            {task: cluster.nodes[0].slots[0] for task in topology.tasks},
        )
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": assignment}
        )
        assert len(state.placed_tasks("t")) == 4
        assert cluster.nodes[0].available.memory_mb == 0

    def test_rebuild_skips_dead_nodes(self, cluster, topology):
        assignment = Assignment(
            "t",
            {task: cluster.nodes[0].slots[0] for task in topology.tasks},
        )
        cluster.fail_node(cluster.nodes[0].node_id)
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": assignment}
        )
        assert state.placed_tasks("t") == []

    def test_rebuild_is_idempotent_on_reservations(self, cluster, topology):
        assignment = Assignment(
            "t",
            {task: cluster.nodes[0].slots[0] for task in topology.tasks},
        )
        GlobalState.from_assignments(cluster, {"t": topology}, {"t": assignment})
        # second rebuild over the same cluster must not double-reserve
        GlobalState.from_assignments(cluster, {"t": topology}, {"t": assignment})
        assert cluster.nodes[0].available.memory_mb == 0

    def test_assignment_for_freezes_current_state(self, cluster, topology):
        state = GlobalState(cluster)
        for task in topology.tasks:
            state.place(task, cluster.nodes[0].slots[0])
        frozen = state.assignment_for("t")
        assert frozen.is_complete(topology)


class TestRebuildReuse:
    """``assignment_for`` hands back the assignment a topology was rebuilt
    from while every placement survived and none has changed since."""

    @pytest.fixture
    def existing(self, cluster, topology):
        state = GlobalState(cluster)
        for i, task in enumerate(topology.tasks):
            node = cluster.nodes[i % 2]
            state.place(task, node.slots[0], topology.task_demand(task))
        return state.assignment_for("t")

    def test_untouched_topology_returns_same_object(
        self, cluster, topology, existing
    ):
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": existing}
        )
        assert state.assignment_for("t") is existing

    def test_touched_topology_returns_new_equal_object(
        self, cluster, topology, existing
    ):
        lost = cluster.nodes[1]
        lost.fail()
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": existing}
        )
        assert state.assignment_for("t") is not existing
        lost.recover()
        for task in existing.tasks_on_node(lost.node_id):
            # the reservation survived the failure, so place reserves none
            state.place(task, existing.slot_of(task))
        rebuilt = state.assignment_for("t")
        assert rebuilt is not existing
        assert rebuilt == existing

    def test_dropped_placement_returns_new_object(
        self, cluster, topology, existing
    ):
        cluster.nodes[1].fail()
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": existing}
        )
        partial = state.assignment_for("t")
        assert partial is not existing
        assert partial.nodes == (cluster.nodes[0].node_id,)

    def test_rebuild_checks_every_reservation(
        self, cluster, topology, existing
    ):
        node = cluster.nodes[0]
        (label, *_) = node.reservations
        node.release(label)
        GlobalState.from_assignments(cluster, {"t": topology}, {"t": existing})
        assert node.has_reservation(label)

    def test_is_complete_while_whole_and_untouched(
        self, cluster, topology, existing
    ):
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": existing}
        )
        assert state.is_complete(topology)
        # the same id with one more task: the kept assignment lacks it
        bigger = topology.with_parallelism("b", 3)
        assert not state.is_complete(bigger)
        (extra,) = set(bigger.tasks) - set(topology.tasks)
        state.place(extra, existing.slot_of(topology.tasks[0]))
        assert not state.is_complete(topology)

    def test_partial_or_dropped_assignment_is_not_complete(
        self, cluster, topology, existing
    ):
        partial = existing.restricted_to_nodes([cluster.nodes[0].node_id])
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": partial}
        )
        assert not state.is_complete(topology)
        cluster.nodes[1].fail()
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": existing}
        )
        assert not state.is_complete(topology)
        assert not GlobalState(cluster).is_complete(topology)

    def test_node_loads_count_one_topology(self, cluster, topology, existing):
        state = GlobalState.from_assignments(
            cluster, {"t": topology}, {"t": existing}
        )
        other = TopologyBuilder("u")
        other.set_spout("s", 3)
        for task in other.build().tasks:
            state.place(task, cluster.nodes[0].slots[1])
        first, second = (node.node_id for node in cluster.nodes[:2])
        assert state.node_loads("t") == {first: 2, second: 2}
        assert state.node_loads("u") == {first: 3}
        assert state.node_loads("missing") == {}
