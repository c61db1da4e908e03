"""Unit tests for the multi-tenant admission layer.

The byte-identity of a Nimbus with no controller wired is covered by
``tests/scheduler/test_differential.py::TestTenancyDisabledDifferential``;
here a controller is wired against small clusters sized so that
admission, deferral, credit accrual and priority preemption each have
exactly one correct outcome.
"""

import pytest

from repro.cluster.builders import uniform_cluster
from repro.cluster.resources import ResourceSchema
from repro.errors import SchedulingError
from repro.nimbus.config import StormConfig
from repro.nimbus.nimbus import Nimbus
from repro.nimbus.tenancy import SLO, TenancyController, Tenant
from repro.scheduler.rstorm import RStormScheduler
from repro.workloads.micro import linear_topology


def one_node_cluster():
    """One node that fits exactly one 4-task linear compute topology
    (4 x 25 cpu points = the node's 100)."""
    schema = ResourceSchema.storm_default()
    return uniform_cluster(
        nodes_per_rack=1,
        racks=1,
        capacity=schema.vector(memory_mb=2048.0, cpu=100.0),
    )


def topo(name):
    return linear_topology("compute", parallelism=1, name=name)


def make_nimbus(overrides=None, cluster=None):
    nimbus = Nimbus(
        cluster or one_node_cluster(),
        scheduler=RStormScheduler(),
        config=StormConfig(overrides),
    )
    return nimbus, TenancyController(nimbus)


class TestSLO:
    def test_unconstrained_always_attained(self):
        assert SLO().attained(None, None)
        assert SLO().attained(1e9, 0.0)

    def test_latency_clause(self):
        slo = SLO(p99_ms=100.0)
        assert slo.attained(99.0, None)
        assert not slo.attained(101.0, None)
        assert not slo.attained(None, 1.0)  # no measurement = miss

    def test_throughput_clause(self):
        slo = SLO(min_ratio=0.9)
        assert slo.attained(None, 0.95)
        assert not slo.attained(0.0, 0.89)
        assert not slo.attained(0.0, None)

    def test_both_clauses_must_hold(self):
        slo = SLO(p99_ms=100.0, min_ratio=0.9)
        assert slo.attained(50.0, 0.95)
        assert not slo.attained(50.0, 0.5)
        assert not slo.attained(500.0, 0.95)


class TestRegistry:
    def test_duplicate_tenant_rejected(self):
        nimbus, controller = make_nimbus()
        controller.register_tenant(Tenant("acme"))
        with pytest.raises(SchedulingError):
            controller.register_tenant(Tenant("acme"))

    def test_bad_weight_rejected(self):
        nimbus, controller = make_nimbus()
        with pytest.raises(SchedulingError):
            controller.register_tenant(Tenant("acme", weight=0.0))
        assert "acme" not in controller.tenants

    def test_submit_unknown_tenant_rejected(self):
        nimbus, controller = make_nimbus()
        with pytest.raises(SchedulingError):
            controller.submit(nimbus, topo("t0"), "ghost")

    def test_duplicate_topology_rejected(self):
        nimbus, controller = make_nimbus()
        controller.register_tenant(Tenant("acme"))
        controller.submit(nimbus, topo("t0"), "acme")
        with pytest.raises(SchedulingError):
            controller.submit(nimbus, topo("t0"), "acme")

    def test_owner_tracking(self):
        nimbus, controller = make_nimbus()
        controller.register_tenant(Tenant("acme"))
        controller.submit(nimbus, topo("t0"), "acme")
        assert controller.tenant_of("t0") == "acme"
        assert controller.tenant_of("nope") is None
        assert controller.owners() == {"t0": "acme"}


class TestAdmission:
    def test_fit_admits_and_schedules(self):
        nimbus, controller = make_nimbus()
        controller.register_tenant(Tenant("acme"))
        controller.submit(nimbus, topo("t0"), "acme")
        assert controller.pending_ids == ["t0"]
        assert nimbus.topologies == []

        nimbus.schedule_round(now=0.0)
        assert controller.pending_ids == []
        assert "t0" in nimbus.assignments
        assert len(controller.round_records) == 1
        record = controller.round_records[0]
        assert record.admitted == ("t0",)
        assert record.deferred == ()
        assert record.evicted == ()
        assert 0.0 < record.jain <= 1.0

    def test_no_pending_means_no_record(self):
        nimbus, controller = make_nimbus()
        controller.register_tenant(Tenant("acme"))
        controller.submit(nimbus, topo("t0"), "acme")
        nimbus.schedule_round(now=0.0)
        nimbus.schedule_round(now=10.0)  # nothing pending: no-op
        assert len(controller.round_records) == 1

    def test_overflow_defers_and_accrues_credits(self):
        nimbus, controller = make_nimbus()
        controller.register_tenant(Tenant("acme", weight=2.0))
        controller.register_tenant(Tenant("burst", weight=1.0))
        controller.submit(nimbus, topo("a0"), "acme")
        controller.submit(nimbus, topo("b0"), "burst")

        nimbus.schedule_round(now=0.0)
        # Tie on share=0; tenant id breaks it: acme admits, burst waits
        # and accrues accrual x weight = 1.0 credits.
        assert "a0" in nimbus.assignments
        assert controller.pending_ids == ["b0"]
        assert controller.credits["burst"] == pytest.approx(1.0)
        assert controller.credits["acme"] == 0.0

        nimbus.schedule_round(now=10.0)  # still full: credits grow
        assert controller.credits["burst"] == pytest.approx(2.0)

    def test_credits_spent_on_admission(self):
        nimbus, controller = make_nimbus()
        controller.register_tenant(Tenant("acme"))
        controller.register_tenant(Tenant("burst"))
        controller.submit(nimbus, topo("a0"), "acme")
        controller.submit(nimbus, topo("b0"), "burst")
        nimbus.schedule_round(now=0.0)
        assert controller.credits["burst"] == pytest.approx(1.0)

        nimbus.kill_topology("a0")  # frees the node
        nimbus.schedule_round(now=10.0)
        assert "b0" in nimbus.assignments
        assert controller.credits["burst"] == 0.0


class TestPreemption:
    def test_higher_priority_evicts_and_requeues_victim(self):
        nimbus, controller = make_nimbus()
        controller.register_tenant(Tenant("free", priority=0))
        controller.register_tenant(
            Tenant("gold", priority=2, slo=SLO(p99_ms=500.0))
        )
        controller.submit(nimbus, topo("f0"), "free")
        nimbus.schedule_round(now=0.0)
        assert "f0" in nimbus.assignments

        controller.submit(nimbus, topo("g0"), "gold")
        nimbus.schedule_round(now=10.0)
        # gold cannot fit beside f0 on the one node: f0 is evicted
        # (reservations released via kill_topology), g0 placed, and the
        # victim requeued at the front of its owner's queue.
        assert "g0" in nimbus.assignments
        assert "f0" not in nimbus.assignments
        assert controller.pending_ids == ["f0"]
        assert controller.preemptions == 1
        assert controller.preempted_tasks == 4
        record = controller.round_records[-1]
        assert record.evicted == ("f0",)
        assert record.admitted == ("g0",)

    def test_same_priority_is_never_victim(self):
        nimbus, controller = make_nimbus()
        controller.register_tenant(Tenant("a", priority=1))
        controller.register_tenant(Tenant("b", priority=1))
        controller.submit(nimbus, topo("a0"), "a")
        nimbus.schedule_round(now=0.0)

        controller.submit(nimbus, topo("b0"), "b")
        nimbus.schedule_round(now=10.0)
        assert "a0" in nimbus.assignments
        assert "b0" not in nimbus.assignments
        assert controller.preemptions == 0
        assert controller.pending_ids == ["b0"]

    def test_preemption_disabled_by_config(self):
        nimbus, controller = make_nimbus(
            overrides={"nimbus.tenancy.preemption.enabled": False}
        )
        controller.register_tenant(Tenant("free", priority=0))
        controller.register_tenant(Tenant("gold", priority=2))
        controller.submit(nimbus, topo("f0"), "free")
        nimbus.schedule_round(now=0.0)
        controller.submit(nimbus, topo("g0"), "gold")
        nimbus.schedule_round(now=10.0)
        assert "f0" in nimbus.assignments
        assert "g0" not in nimbus.assignments
        assert controller.preemptions == 0
