"""Tests for the heartbeat failure detector."""

import pytest

from repro.cluster import emulab_testbed
from repro.errors import MembershipError
from repro.nimbus import (
    HeartbeatFailureDetector,
    Nimbus,
    Supervisor,
)
from repro.scheduler.rstorm import RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun
from tests.conftest import make_linear


@pytest.fixture
def setup():
    cluster = emulab_testbed()
    nimbus = Nimbus(cluster, scheduler=RStormScheduler())
    supervisors = {}
    for node in cluster.nodes:
        supervisor = Supervisor(node)
        nimbus.register_supervisor(supervisor)
        supervisors[node.node_id] = supervisor
    topology = make_linear(parallelism=2, stages=2)
    nimbus.submit_topology(topology)
    nimbus.schedule_round()
    run = SimulationRun(
        cluster,
        [(topology, nimbus.assignments["chain"])],
        SimulationConfig(duration_s=120.0, warmup_s=10.0),
    )
    return cluster, nimbus, supervisors, topology, run


class TestValidation:
    def test_timeout_must_exceed_interval(self):
        with pytest.raises(ValueError, match="timeout_s must exceed"):
            HeartbeatFailureDetector([], heartbeat_interval_s=5.0, timeout_s=5.0)

    def test_timeout_below_interval_rejected(self):
        with pytest.raises(ValueError, match="timeout_s must exceed"):
            HeartbeatFailureDetector(
                [], heartbeat_interval_s=5.0, timeout_s=4.999
            )

    def test_timeout_just_above_interval_accepted(self):
        detector = HeartbeatFailureDetector(
            [], heartbeat_interval_s=5.0, timeout_s=5.001
        )
        assert detector.timeout_s == 5.001
        assert detector.heartbeat_interval_s == 5.0

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            HeartbeatFailureDetector([], heartbeat_interval_s=0.0, timeout_s=5.0)

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            HeartbeatFailureDetector(
                [], heartbeat_interval_s=-1.0, timeout_s=5.0
            )

    def test_interval_validated_before_timeout_comparison(self):
        # A negative interval must be rejected as such even when the
        # timeout would also fail the exceeds-interval check.
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            HeartbeatFailureDetector(
                [], heartbeat_interval_s=-2.0, timeout_s=-3.0
            )

    def test_unknown_node_rejected(self, setup):
        _, _, supervisors, _, _ = setup
        detector = HeartbeatFailureDetector(
            supervisors.values(), heartbeat_interval_s=3.0, timeout_s=10.0
        )
        with pytest.raises(MembershipError):
            detector.silence("ghost")
        with pytest.raises(MembershipError):
            detector.revive("ghost")


class TestDetection:
    def test_silent_supervisor_expires_after_timeout(self, setup):
        cluster, nimbus, supervisors, topology, run = setup
        detector = HeartbeatFailureDetector(
            supervisors.values(), heartbeat_interval_s=3.0, timeout_s=10.0
        )
        detector.attach(run)
        victim = nimbus.assignments["chain"].nodes[0]
        run.on_time(30.0, lambda: detector.silence(victim))
        run.run(until=60.0)
        assert detector.expirations
        expiry_time, expired_node = detector.expirations[0]
        assert expired_node == victim
        # timeout counts from the *last heartbeat* (27 s), so detection
        # lands between last-heartbeat+timeout and +one check interval
        assert 37.0 <= expiry_time <= 46.0
        assert not supervisors[victim].registered

    def test_healthy_supervisors_never_expire(self, setup):
        _, _, supervisors, _, run = setup
        detector = HeartbeatFailureDetector(
            supervisors.values(), heartbeat_interval_s=3.0, timeout_s=10.0
        )
        detector.attach(run)
        run.run(until=60.0)
        assert detector.expirations == []

    def test_end_to_end_failover_with_nimbus(self, setup):
        cluster, nimbus, supervisors, topology, run = setup
        detector = HeartbeatFailureDetector(
            supervisors.values(), heartbeat_interval_s=3.0, timeout_s=10.0
        )
        detector.attach(run)
        nimbus.attach(run)  # 10 s scheduling ticks
        victim = nimbus.assignments["chain"].nodes[0]
        run.on_time(33.0, lambda: detector.silence(victim))
        report = run.run()
        final = nimbus.assignments["chain"]
        assert victim not in final.nodes
        assert final.is_complete(topology)
        series = dict(report.throughput_series("chain"))
        assert series[100.0] > 0  # recovered

    def test_revive_rejoins_membership(self, setup):
        cluster, nimbus, supervisors, topology, run = setup
        detector = HeartbeatFailureDetector(
            supervisors.values(), heartbeat_interval_s=3.0, timeout_s=10.0
        )
        detector.attach(run)
        victim = nimbus.assignments["chain"].nodes[0]
        run.on_time(20.0, lambda: detector.silence(victim))
        run.on_time(60.0, lambda: detector.revive(victim, now=60.0))
        run.run(until=90.0)
        assert not detector.is_silenced(victim)
        assert supervisors[victim].registered
        assert cluster.node(victim).alive
