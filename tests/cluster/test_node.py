"""Tests for nodes, worker slots, and resource accounting."""

import pytest

from repro.cluster.node import DEFAULT_SLOT_BASE_PORT, Node, WorkerSlot
from repro.cluster.resources import ResourceVector
from repro.errors import ClusterStateError, InsufficientResourcesError


def make_node(memory=2048.0, cpu=100.0, bw=100.0, slots=4):
    return Node(
        "n1",
        "rack-a",
        ResourceVector.of(memory_mb=memory, cpu=cpu, bandwidth_mbps=bw),
        num_slots=slots,
    )


class TestWorkerSlot:
    def test_slots_are_ordered_value_objects(self):
        a = WorkerSlot("n1", 6700)
        b = WorkerSlot("n1", 6701)
        assert a < b
        assert a == WorkerSlot("n1", 6700)

    def test_str(self):
        assert str(WorkerSlot("n1", 6700)) == "n1:6700"


class TestNodeConstruction:
    def test_slots_use_storm_port_convention(self):
        node = make_node(slots=3)
        assert [s.port for s in node.slots] == [
            DEFAULT_SLOT_BASE_PORT,
            DEFAULT_SLOT_BASE_PORT + 1,
            DEFAULT_SLOT_BASE_PORT + 2,
        ]

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            make_node(slots=0)

    def test_slot_lookup(self):
        node = make_node()
        assert node.slot(6701).port == 6701
        with pytest.raises(ClusterStateError):
            node.slot(9999)

    def test_initially_everything_available(self):
        node = make_node()
        assert node.available == node.capacity
        assert node.used == ResourceVector.of()

    @pytest.mark.parametrize(
        "cpu, cores", [(30, 1), (100, 1), (150, 2), (250, 2), (400, 4)]
    )
    def test_cores_round_cpu_points_half_to_even(self, cpu, cores):
        assert make_node(cpu=cpu).cores == cores


class TestReservations:
    def test_reserve_draws_down_availability(self):
        node = make_node()
        node.reserve("t1", ResourceVector.of(memory_mb=512, cpu=25))
        assert node.available.memory_mb == 1536
        assert node.available.cpu == 75

    def test_release_returns_resources(self):
        node = make_node()
        demand = ResourceVector.of(memory_mb=512, cpu=25)
        node.reserve("t1", demand)
        released = node.release("t1")
        assert released == demand
        assert node.available == node.capacity

    def test_release_all(self):
        node = make_node()
        node.reserve("t1", ResourceVector.of(memory_mb=100))
        node.reserve("t2", ResourceVector.of(memory_mb=100))
        node.release_all()
        assert node.available == node.capacity
        assert node.reservations == {}

    def test_hard_constraint_violation_raises(self):
        node = make_node(memory=1000)
        with pytest.raises(InsufficientResourcesError) as excinfo:
            node.reserve("t1", ResourceVector.of(memory_mb=1001))
        assert excinfo.value.resource == "memory_mb"
        assert excinfo.value.node_id == "n1"

    def test_failed_reserve_leaves_state_unchanged(self):
        node = make_node(memory=1000)
        with pytest.raises(InsufficientResourcesError):
            node.reserve("t1", ResourceVector.of(memory_mb=2000))
        assert node.available == node.capacity
        assert node.reservations == {}

    def test_soft_constraints_may_overcommit(self):
        node = make_node(cpu=100)
        node.reserve("t1", ResourceVector.of(memory_mb=1, cpu=80))
        node.reserve("t2", ResourceVector.of(memory_mb=1, cpu=80))
        assert node.available.cpu == -60  # over-committed, by design

    def test_duplicate_label_rejected(self):
        node = make_node()
        node.reserve("t1", ResourceVector.of(memory_mb=1))
        with pytest.raises(ClusterStateError):
            node.reserve("t1", ResourceVector.of(memory_mb=1))

    def test_release_unknown_label_rejected(self):
        with pytest.raises(ClusterStateError):
            make_node().release("nope")

    def test_reserve_on_dead_node_rejected(self):
        node = make_node()
        node.fail()
        with pytest.raises(InsufficientResourcesError):
            node.reserve("t1", ResourceVector.of(memory_mb=1))


class TestAdmission:
    def test_can_host_checks_hard_dimensions_only(self):
        node = make_node(memory=1000, cpu=10)
        assert node.can_host(ResourceVector.of(memory_mb=1000, cpu=500))
        assert not node.can_host(ResourceVector.of(memory_mb=1001))

    def test_dead_node_hosts_nothing(self):
        node = make_node()
        node.fail()
        assert not node.can_host(ResourceVector.of())
        node.recover()
        assert node.can_host(ResourceVector.of())


class TestScoring:
    def test_availability_score_full_node(self):
        node = make_node()
        assert node.availability_score() == pytest.approx(3.0)

    def test_availability_score_decreases_with_use(self):
        node = make_node()
        before = node.availability_score()
        node.reserve("t1", ResourceVector.of(memory_mb=1024, cpu=50))
        assert node.availability_score() < before

    def test_utilisation(self):
        node = make_node(memory=1000)
        node.reserve("t1", ResourceVector.of(memory_mb=250))
        assert node.utilisation("memory_mb") == pytest.approx(0.25)

    def test_utilisation_can_exceed_one_for_soft(self):
        node = make_node(cpu=100)
        node.reserve("t1", ResourceVector.of(cpu=150))
        assert node.utilisation("cpu") == pytest.approx(1.5)
