"""Tests for the cluster model."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.network import DistanceLevel
from repro.cluster.node import Node
from repro.cluster.rack import Rack
from repro.cluster.resources import ResourceVector
from repro.errors import ClusterStateError


def node(node_id, rack_id):
    return Node(
        node_id,
        rack_id,
        ResourceVector.of(memory_mb=2048, cpu=100, bandwidth_mbps=100),
        num_slots=2,
    )


@pytest.fixture
def two_rack():
    return Cluster(
        [
            Rack("r1", [node("a1", "r1"), node("a2", "r1")]),
            Rack("r2", [node("b1", "r2")]),
        ]
    )


class TestMembership:
    def test_lookup(self, two_rack):
        assert two_rack.node("a1").rack_id == "r1"
        assert two_rack.rack("r2").rack_id == "r2"
        assert len(two_rack) == 3

    def test_duplicate_rack_rejected(self, two_rack):
        with pytest.raises(ClusterStateError):
            two_rack.add_rack(Rack("r1"))

    def test_duplicate_node_across_racks_rejected(self):
        cluster = Cluster([Rack("r1", [node("a1", "r1")])])
        with pytest.raises(ClusterStateError):
            cluster.add_rack(Rack("r9", [node("a1", "r9")]))

    def test_add_node_creates_rack_on_demand(self, two_rack):
        two_rack.add_node(node("c1", "r3"))
        assert two_rack.rack("r3").node("c1")

    def test_remove_node(self, two_rack):
        two_rack.remove_node("a1")
        assert not two_rack.has_node("a1")
        assert "a1" not in two_rack.rack("r1")

    def test_unknown_lookups_raise(self, two_rack):
        with pytest.raises(ClusterStateError):
            two_rack.node("ghost")
        with pytest.raises(ClusterStateError):
            two_rack.rack("ghost")


class TestSlots:
    def test_slot_node(self, two_rack):
        slot = two_rack.node("a1").slots[0]
        assert two_rack.slot_node(slot).node_id == "a1"


class TestDistance:
    def test_same_node_distance_zero(self, two_rack):
        assert two_rack.node_distance("a1", "a1") == 0.0

    def test_same_rack_smaller_than_cross_rack(self, two_rack):
        same = two_rack.node_distance("a1", "a2")
        cross = two_rack.node_distance("a1", "b1")
        assert 0 < same < cross

    def test_distance_symmetric(self, two_rack):
        assert two_rack.node_distance("a1", "b1") == two_rack.node_distance(
            "b1", "a1"
        )

    def test_slot_distance_level(self, two_rack):
        a1 = two_rack.node("a1")
        assert (
            two_rack.slot_distance_level(a1.slots[0], a1.slots[0])
            is DistanceLevel.INTRA_PROCESS
        )
        assert (
            two_rack.slot_distance_level(a1.slots[0], a1.slots[1])
            is DistanceLevel.INTER_PROCESS
        )
        b1 = two_rack.node("b1")
        assert (
            two_rack.slot_distance_level(a1.slots[0], b1.slots[0])
            is DistanceLevel.INTER_RACK
        )


class TestAggregates:
    def test_total_available_excludes_dead(self, two_rack):
        two_rack.fail_node("b1")
        assert two_rack.total_available().memory_mb == 2 * 2048

    def test_release_all(self, two_rack):
        two_rack.node("a1").reserve("t", ResourceVector.of(memory_mb=100))
        two_rack.release_all()
        assert two_rack.node("a1").available.memory_mb == 2048

    def test_failure_and_recovery(self, two_rack):
        two_rack.fail_node("a1")
        assert not two_rack.node("a1").alive
        assert len(two_rack.alive_nodes) == 2
        two_rack.recover_node("a1")
        assert two_rack.node("a1").alive
