"""Tests for supervisors."""

import pytest

from repro.cluster.node import Node
from repro.cluster.resources import ResourceVector
from repro.errors import MembershipError
from repro.nimbus.supervisor import Supervisor


@pytest.fixture
def node():
    return Node(
        "n1",
        "rack-a",
        ResourceVector.of(memory_mb=2048, cpu=100, bandwidth_mbps=100),
        num_slots=2,
    )


class TestLifecycle:
    def test_start_registers(self, node):
        supervisor = Supervisor(node)
        assert not supervisor.registered
        supervisor.start(now=5.0)
        assert supervisor.registered
        assert supervisor.supervisor_id == "n1"
        assert supervisor.last_heartbeat == 5.0

    def test_double_start_rejected(self, node):
        supervisor = Supervisor(node)
        supervisor.start()
        with pytest.raises(MembershipError):
            supervisor.start()

    def test_stop_unregisters(self, node):
        supervisor = Supervisor(node)
        supervisor.start()
        supervisor.stop()
        assert not supervisor.registered

    def test_crash_fails_node_and_unregisters(self, node):
        supervisor = Supervisor(node)
        supervisor.start()
        supervisor.crash()
        assert not node.alive
        assert not supervisor.registered

    def test_restart_after_stop(self, node):
        supervisor = Supervisor(node)
        supervisor.start()
        supervisor.stop()
        supervisor.start(now=9.0)
        assert supervisor.registered


class TestHeartbeat:
    def test_heartbeat_records_time(self, node):
        supervisor = Supervisor(node)
        supervisor.start()
        supervisor.heartbeat(now=42.0)
        assert supervisor.last_heartbeat == 42.0

    def test_heartbeat_without_registration_rejected(self, node):
        with pytest.raises(MembershipError):
            Supervisor(node).heartbeat(now=1.0)
