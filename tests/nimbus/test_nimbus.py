"""Tests for the Nimbus master daemon."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ResourceVector, emulab_testbed, uniform_cluster
from repro.errors import MembershipError, SchedulingError
from repro.nimbus.nimbus import Nimbus
from repro.nimbus.supervisor import Supervisor
from repro.scheduler.rstorm import RStormScheduler
from repro.topology.task import task_label
from tests.conftest import make_linear, placed_labels, stray_reservations


@pytest.fixture
def managed():
    """Cluster + nimbus + one supervisor per node, all registered."""
    cluster = emulab_testbed()
    nimbus = Nimbus(cluster, scheduler=RStormScheduler())
    supervisors = {}
    for node in cluster.nodes:
        supervisor = Supervisor(node)
        nimbus.register_supervisor(supervisor)
        supervisors[node.node_id] = supervisor
    return cluster, nimbus, supervisors


class TestTopologyLifecycle:
    def test_submit_and_schedule(self, managed):
        _, nimbus, _ = managed
        topology = make_linear()
        nimbus.submit_topology(topology)
        round_info = nimbus.schedule_round()
        assert nimbus.assignments["chain"].is_complete(topology)
        assert round_info.newly_scheduled["chain"] == topology.num_tasks

    def test_duplicate_submission_rejected(self, managed):
        _, nimbus, _ = managed
        nimbus.submit_topology(make_linear())
        with pytest.raises(SchedulingError):
            nimbus.submit_topology(make_linear())

    def test_kill_releases_reservations(self, managed):
        cluster, nimbus, _ = managed
        nimbus.submit_topology(make_linear())
        nimbus.schedule_round()
        assert any(node.reservations for node in cluster.nodes)
        nimbus.kill_topology("chain")
        assert all(not node.reservations for node in cluster.nodes)
        assert "chain" not in nimbus.assignments

    def test_kill_spares_topology_whose_id_extends_the_killed_id(self):
        """Killing ``a`` must not release ``a:b``'s reservations, although
        every ``a:b`` label starts with ``a:``."""
        cluster = emulab_testbed()
        nimbus = Nimbus(cluster, scheduler=RStormScheduler())
        nimbus.submit_topology(make_linear("a", stages=2))
        nimbus.submit_topology(make_linear("a:b", stages=2))
        nimbus.schedule_round()

        def labels():
            return sorted(
                label for node in cluster.nodes for label in node.reservations
            )

        assert len(labels()) == 8
        nimbus.kill_topology("a")
        assert labels() == sorted(
            task_label(task) for task in nimbus.topology("a:b").tasks
        )
        assert nimbus.assignments["a:b"].nodes

    def test_kill_unknown_rejected(self, managed):
        _, nimbus, _ = managed
        with pytest.raises(SchedulingError):
            nimbus.kill_topology("ghost")

    def test_submission_order_preserved(self, managed):
        _, nimbus, _ = managed
        nimbus.submit_topology(make_linear("a"))
        nimbus.submit_topology(make_linear("b"))
        assert [t.topology_id for t in nimbus.topologies] == ["a", "b"]

    def test_scheduling_is_idempotent(self, managed):
        _, nimbus, _ = managed
        nimbus.submit_topology(make_linear())
        nimbus.schedule_round()
        first = nimbus.assignments["chain"]
        nimbus.schedule_round()
        assert nimbus.assignments["chain"] == first


class TestMembership:
    def test_reconcile_marks_unregistered_nodes_dead(self, managed):
        cluster, nimbus, supervisors = managed
        supervisors["node-0-0"].crash()
        changed = nimbus.reconcile_membership()
        assert "node-0-0" in changed or not cluster.node("node-0-0").alive
        assert not cluster.node("node-0-0").alive

    def test_reconcile_revives_reregistered_nodes(self, managed):
        cluster, nimbus, supervisors = managed
        supervisors["node-0-0"].crash()
        nimbus.reconcile_membership()
        cluster.node("node-0-0").recover()  # machine rebooted...
        supervisors["node-0-0"].start()  # ...and the supervisor rejoined
        nimbus.reconcile_membership()
        assert cluster.node("node-0-0").alive

    def test_reconcile_walks_cluster_nodes_in_order(self, managed):
        cluster, nimbus, supervisors = managed
        victims = [node.node_id for node in cluster.nodes][1:4]
        for node_id in reversed(victims):
            supervisors[node_id].crash()
            cluster.node(node_id).recover()  # the machine is up, unregistered
        assert nimbus.reconcile_membership() == victims

    def test_empty_registry_means_unmanaged(self):
        cluster = emulab_testbed()
        nimbus = Nimbus(cluster, scheduler=RStormScheduler())
        assert nimbus.reconcile_membership() == []
        assert all(node.alive for node in cluster.nodes)

    def test_all_expired_means_unmanaged(self, managed):
        cluster, nimbus, supervisors = managed
        for supervisor in supervisors.values():
            supervisor.stop()
        assert nimbus.registered_supervisors() == []
        assert nimbus.reconcile_membership() == []
        assert all(node.alive for node in cluster.nodes)

    def test_registered_supervisors_sorted(self):
        cluster = emulab_testbed()
        nimbus = Nimbus(cluster, scheduler=RStormScheduler())
        for node in reversed(cluster.nodes):
            nimbus.register_supervisor(Supervisor(node))
        ids = sorted(node.node_id for node in cluster.nodes)
        assert nimbus.registered_supervisors() == ids

    def test_register_supervisor_adds_unknown_node(self):
        from repro.cluster.node import Node
        from repro.cluster.resources import ResourceVector

        cluster = emulab_testbed()
        nimbus = Nimbus(cluster, scheduler=RStormScheduler())
        extra = Node(
            "extra-1",
            "rack-0",
            ResourceVector.of(memory_mb=2048, cpu=100, bandwidth_mbps=100),
        )
        nimbus.register_supervisor(Supervisor(extra))
        assert cluster.has_node("extra-1")
        assert "extra-1" in nimbus.registered_supervisors()

    def test_second_supervisor_for_registered_node_rejected(self, managed):
        cluster, nimbus, supervisors = managed
        rival = Supervisor(cluster.node("node-0-0"))
        with pytest.raises(MembershipError):
            nimbus.register_supervisor(rival)
        assert not rival.registered
        assert supervisors["node-0-0"].registered

    def test_second_supervisor_for_expired_node_replaces_it(self, managed):
        cluster, nimbus, supervisors = managed
        supervisors["node-0-0"].crash()
        nimbus.reconcile_membership()
        cluster.node("node-0-0").recover()
        nimbus.register_supervisor(Supervisor(cluster.node("node-0-0")))
        nimbus.reconcile_membership()
        assert cluster.node("node-0-0").alive
        assert "node-0-0" in nimbus.registered_supervisors()

    def test_registering_a_registered_supervisor_again_rejected(self, managed):
        _, nimbus, supervisors = managed
        with pytest.raises(MembershipError):
            nimbus.register_supervisor(supervisors["node-0-0"])


class TestFailureRecovery:
    def test_round_after_failure_replaces_orphans(self, managed):
        cluster, nimbus, supervisors = managed
        topology = make_linear(parallelism=4, stages=3)
        nimbus.submit_topology(topology)
        nimbus.schedule_round()
        victim = nimbus.assignments["chain"].nodes[0]
        supervisors[victim].crash()
        nimbus.schedule_round()
        assignment = nimbus.assignments["chain"]
        assert assignment.is_complete(topology)
        assert victim not in assignment.nodes

    def test_dead_node_reservations_released(self, managed):
        cluster, nimbus, supervisors = managed
        topology = make_linear(parallelism=4, stages=3)
        nimbus.submit_topology(topology)
        nimbus.schedule_round()
        victim = nimbus.assignments["chain"].nodes[0]
        supervisors[victim].crash()
        nimbus.schedule_round()
        assert cluster.node(victim).reservations == {}



class TestFailedRoundReservations:
    """A round that raises adopts nothing, so it must leave nothing
    reserved that the kept assignments do not place: topology ``a``
    re-places a task from a dead node, then ``b`` cannot fit."""

    @staticmethod
    def _failed_round():
        cluster = uniform_cluster(
            nodes_per_rack=2,
            racks=2,
            capacity=ResourceVector.of(
                memory_mb=1024.0, cpu=100.0, bandwidth_mbps=100.0
            ),
        )
        nimbus = Nimbus(cluster, scheduler=RStormScheduler())
        nimbus.submit_topology(
            make_linear("a", parallelism=2, stages=2, memory_mb=64.0, cpu=30.0)
        )
        nimbus.submit_topology(
            make_linear("b", parallelism=2, stages=2, memory_mb=512.0, cpu=10.0)
        )
        nimbus.schedule_round()
        # a spans both rack-0 nodes; b fills rack 1's memory
        assert nimbus.assignments["a"].nodes == ("node-0-0", "node-0-1")
        assert nimbus.assignments["b"].nodes == ("node-1-0", "node-1-1")
        cluster.node("node-0-1").fail()
        cluster.node("node-1-0").fail()
        with pytest.raises(SchedulingError):
            nimbus.schedule_round()
        return nimbus

    def test_nodes_hold_exactly_the_kept_placements(self):
        nimbus = self._failed_round()
        held = {
            node.node_id: set(node.reservations)
            for node in nimbus.cluster.nodes
            if node.alive
        }
        assert held == placed_labels(nimbus)

    def test_recovery_round_replaces_without_cluster_state_error(self):
        nimbus = self._failed_round()
        nimbus.cluster.node("node-1-0").recover()
        nimbus.schedule_round()
        for topology in nimbus.topologies:
            assignment = nimbus.assignments[topology.topology_id]
            assert assignment.is_complete(topology)
            assert "node-0-1" not in assignment.nodes
        assert not stray_reservations(nimbus)


#: Builds a node holding four tasks whose CPU demands sum differently in
#: different orders, fails it, and prints its reconciled availability.
_RECONCILE_SCRIPT = """
from repro.cluster import ResourceVector, single_rack_cluster
from repro.nimbus.nimbus import Nimbus
from repro.scheduler.rstorm import RStormScheduler
from repro.topology import TopologyBuilder

cluster = single_rack_cluster(
    2, capacity=ResourceVector.of(memory_mb=4096.0, cpu=400.0,
                                  bandwidth_mbps=100.0)
)
builder = TopologyBuilder("sums")
prev = None
for i, cpu in enumerate([51.4, 2.2, 42.8, 51.4]):
    name = f"c{i}"
    if prev is None:
        declarer = builder.set_spout(name, 1)
    else:
        declarer = builder.set_bolt(name, 1).shuffle_grouping(prev)
    declarer.set_memory_load(64.0).set_cpu_load(cpu)
    prev = name
nimbus = Nimbus(cluster, scheduler=RStormScheduler())
nimbus.submit_topology(builder.build())
nimbus.schedule_round()
(node_id,) = nimbus.assignments["sums"].nodes
node = cluster.node(node_id)
node.fail()
nimbus.schedule_round()
print(node_id, [value.hex() for value in node.available.values])
"""


class TestReservationRelease:
    def test_reconciled_availability_ignores_hash_seed(self):
        """A dead node's reservations come back in task order, so its
        availability is the same float under any ``PYTHONHASHSEED``."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", _RECONCILE_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].split()[0].startswith("node-")
