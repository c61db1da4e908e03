"""Tests for the Assignment value object."""

import pytest

from repro.cluster.node import WorkerSlot
from repro.errors import SchedulingError
from repro.scheduler.assignment import Assignment
from repro.topology.builder import TopologyBuilder
from repro.topology.task import Task


@pytest.fixture
def topology():
    builder = TopologyBuilder("t")
    builder.set_spout("s", 2)
    builder.set_bolt("b", 2).shuffle_grouping("s")
    return builder.build()


def slot(node, port=6700):
    return WorkerSlot(node, port)


@pytest.fixture
def assignment(topology):
    tasks = topology.tasks
    return Assignment(
        "t",
        {
            tasks[0]: slot("n1"),
            tasks[1]: slot("n1", 6701),
            tasks[2]: slot("n2"),
            tasks[3]: slot("n2"),
        },
    )


class TestQueries:
    def test_slot_and_node_of(self, topology, assignment):
        assert assignment.slot_of(topology.tasks[0]) == slot("n1")
        assert assignment.node_of(topology.tasks[2]) == "n2"

    def test_unassigned_task_raises(self, topology):
        empty = Assignment("t", {})
        with pytest.raises(SchedulingError):
            empty.slot_of(topology.tasks[0])

    def test_nodes_and_slots(self, assignment):
        assert assignment.nodes == ("n1", "n2")
        assert len(assignment.slots) == 3

    def test_tasks_on_slot_and_node(self, topology, assignment):
        assert assignment.tasks_on_slot(slot("n2")) == (
            topology.tasks[2],
            topology.tasks[3],
        )
        assert len(assignment.tasks_on_node("n1")) == 2
        assert assignment.tasks_on_node("ghost") == ()

    def test_completeness(self, topology, assignment):
        assert assignment.is_complete(topology)
        partial = Assignment("t", {topology.tasks[0]: slot("n1")})
        assert not partial.is_complete(topology)
        assert len(partial.missing_tasks(topology)) == 3

    def test_completeness_compares_task_sets(self, topology, assignment):
        # equal tasks built apart count as the topology's own
        copies = Assignment(
            "t",
            {
                Task(t.topology_id, t.component, t.instance, t.task_id): s
                for t, s in assignment.as_dict().items()
            },
        )
        assert copies.is_complete(topology)
        # as many tasks, but one of them is not the topology's
        rescaled = topology.with_parallelism("s", 3).with_parallelism("b", 1)
        assert len(rescaled.tasks) == len(topology.tasks)
        assert not assignment.is_complete(rescaled)
        stale = Assignment("t", dict.fromkeys(rescaled.tasks, slot("n1")))
        assert not stale.is_complete(topology)

    def test_len_and_eq(self, topology, assignment):
        assert len(assignment) == 4
        same = Assignment("t", assignment.as_dict())
        assert assignment == same
        assert hash(assignment) == hash(same)


class TestConstruction:
    def test_foreign_task_rejected(self):
        builder = TopologyBuilder("other")
        builder.set_spout("s", 1)
        other = builder.build()
        with pytest.raises(SchedulingError):
            Assignment("t", {other.tasks[0]: slot("n1")})


class TestSurgery:
    def test_restricted_to_nodes(self, topology, assignment):
        surviving = assignment.restricted_to_nodes(["n1"])
        assert surviving.nodes == ("n1",)
        assert len(surviving) == 2

    def test_restricted_to_every_used_node_is_self(self, assignment):
        assert assignment.restricted_to_nodes({"n1", "n2", "n9"}) is assignment
        assert assignment.restricted_to_nodes(["n2", "n1"]) is assignment

    def test_restricted_copy_keeps_sorted_tasks(self, assignment):
        surviving = assignment.restricted_to_nodes({"n2"})
        assert surviving is not assignment
        assert surviving.tasks == tuple(sorted(surviving.as_dict()))
        assert surviving.tasks == assignment.tasks_on_node("n2")

    def test_restricted_copy_keeps_indexes(self, assignment):
        surviving = assignment.restricted_to_nodes({"n1"})
        fresh = Assignment("t", surviving.as_dict())
        assert surviving.nodes == fresh.nodes == ("n1",)
        assert surviving.slots == fresh.slots
        for s in fresh.slots:
            assert surviving.tasks_on_slot(s) == fresh.tasks_on_slot(s)
        assert surviving.tasks_on_node("n1") == fresh.tasks_on_node("n1")
        assert surviving.tasks_on_node("n2") == ()

    def test_merged_with(self, topology, assignment):
        override = Assignment("t", {topology.tasks[0]: slot("n9")})
        merged = assignment.merged_with(override)
        assert merged.node_of(topology.tasks[0]) == "n9"
        assert merged.node_of(topology.tasks[3]) == "n2"

    def test_merge_different_topologies_rejected(self, assignment):
        with pytest.raises(SchedulingError):
            assignment.merged_with(Assignment("other", {}))
