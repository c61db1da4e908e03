"""FaultInjector: each fault kind does what its event says."""

import pytest

from repro.cluster import emulab_testbed
from repro.errors import ConfigError
from repro.experiments.harness import wire
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    HeartbeatSilence,
    LinkDegradation,
    NodeCrash,
    NodeSlowdown,
    RackPartition,
)
from repro.scheduler import RStormScheduler
from repro.simulation import SimulationConfig, SimulationRun
from repro.workloads.micro import micro_topology
from tests.conftest import make_linear
from tests.faults.conftest import build_chaos


def plain_run(schedule, duration_s=50.0, cluster=None):
    """An unmanaged run (no detector/Nimbus) with the schedule injected."""
    cluster = cluster or emulab_testbed()
    topology = make_linear()
    assignment = RStormScheduler().schedule([topology], cluster)[
        topology.topology_id
    ]
    run = SimulationRun(
        cluster,
        [(topology, assignment)],
        SimulationConfig(duration_s=duration_s, warmup_s=5.0),
    )
    injector = FaultInjector(schedule)
    injector.attach(run)
    return run, topology, assignment, injector


class TestWiring:
    def test_double_attach_rejected(self):
        run, *_ , injector = plain_run(FaultSchedule())
        with pytest.raises(ConfigError, match="already attached"):
            injector.attach(run)

    def test_unknown_node_rejected_at_attach(self):
        schedule = FaultSchedule.of(NodeCrash(at=10.0, node_id="node-9-9"))
        with pytest.raises(ConfigError, match="unknown node"):
            plain_run(schedule)

    def test_silence_requires_detector(self):
        schedule = FaultSchedule.of(
            HeartbeatSilence(at=10.0, node_id="node-0-0", until=20.0)
        )
        with pytest.raises(ConfigError, match="detector"):
            plain_run(schedule)

    def test_injections_recorded_in_order(self):
        schedule = FaultSchedule.of(
            NodeSlowdown(at=20.0, node_id="node-0-0", factor=2.0, until=30.0),
            NodeSlowdown(at=10.0, node_id="node-0-1", factor=2.0, until=30.0),
        )
        run, *_, injector = plain_run(schedule)
        run.run()
        assert [t for t, _ in injector.injected] == [10.0, 20.0]
        assert all(e.kind == "node_slowdown" for _, e in injector.injected)


class TestNodeCrash:
    def test_crash_kills_node_and_migrates_tasks(self):
        probe = build_chaos(FaultSchedule())
        victim = probe.nimbus.assignments[probe.topology.topology_id].nodes[0]
        ctx = build_chaos(
            FaultSchedule.of(NodeCrash(at=20.0, node_id=victim))
        )
        ctx.run.run()
        assert not ctx.cluster.node(victim).alive
        final = ctx.nimbus.assignments[ctx.topology.topology_id]
        assert victim not in final.nodes
        assert final.is_complete(ctx.topology)

    def test_rejoined_node_is_alive_and_registered(self):
        probe = build_chaos(FaultSchedule())
        victim = probe.nimbus.assignments[probe.topology.topology_id].nodes[0]
        ctx = build_chaos(
            FaultSchedule.of(
                NodeCrash(at=20.0, node_id=victim, rejoin_at=35.0)
            )
        )
        ctx.run.run()
        assert ctx.cluster.node(victim).alive
        assert ctx.supervisors[victim].registered

    def test_tasks_moved_onto_a_crashed_node_do_not_run(self):
        """node-1-0 crashes at 18 s, but its supervisor stays registered
        until the heartbeat timeout at 25.5 s, so the 20 s round sees it
        alive and moves node-0-0's orphans there.  The machine is down:
        those tasks must not run."""
        wiring = wire(
            RStormScheduler(),
            [micro_topology("linear", "compute")],
            emulab_testbed(),
            SimulationConfig(duration_s=40.0, warmup_s=5.0),
            faults=FaultSchedule([
                NodeCrash(at=5.0, node_id="node-0-0"),
                NodeCrash(at=18.0, node_id="node-1-0"),
            ]),
        )
        busy = wiring.run.stats.busy
        wiring.run.run(until=19.5)
        assert busy.get("node-1-0", 0.0) == 0.0
        wiring.run.run(until=25.4)
        moved = wiring.nimbus.assignments["linear-compute"]
        assert "node-1-0" in moved.nodes  # the zombie round happened
        assert busy.get("node-1-0", 0.0) == 0.0
        wiring.run.run()
        assert (25.5, "node-1-0") in wiring.detector.expirations
        assert busy.get("node-1-0", 0.0) == 0.0


class TestNodeSlowdown:
    def test_slowdown_cuts_throughput(self):
        topology = make_linear()
        cluster = emulab_testbed()
        assignment = RStormScheduler().schedule([topology], cluster)[
            topology.topology_id
        ]
        victims = assignment.nodes

        def total_sunk(schedule):
            run, *_ = plain_run(schedule, duration_s=40.0)
            report = run.run()
            return report.sunk(topology.topology_id)

        clean = total_sunk(FaultSchedule())
        slowed = total_sunk(
            FaultSchedule.of(
                *[
                    NodeSlowdown(at=5.0, node_id=node_id, factor=8.0)
                    for node_id in victims
                ]
            )
        )
        assert slowed < clean

    def test_fault_factor_restored_at_until(self):
        schedule = FaultSchedule.of(
            NodeSlowdown(at=10.0, node_id="node-0-0", factor=4.0, until=20.0)
        )
        run, *_ = plain_run(schedule, duration_s=30.0)
        seen = {}
        run.on_time(15.0, lambda: seen.update(during=run._nodes["node-0-0"].fault_factor))
        run.on_time(25.0, lambda: seen.update(after=run._nodes["node-0-0"].fault_factor))
        run.run()
        assert seen["during"] == 4.0
        assert seen["after"] == 1.0


class TestLinkDegradation:
    def test_uplink_scaled_then_restored(self):
        schedule = FaultSchedule.of(
            LinkDegradation(
                at=10.0, rack_a="rack-0", rack_b="rack-1", factor=4.0,
                until=20.0,
            )
        )
        run, *_ = plain_run(schedule, duration_s=30.0)
        seen = {}
        run.on_time(
            15.0,
            lambda: seen.update(
                during=run.transfer.uplink_scale("rack-0", "rack-1")
            ),
        )
        run.on_time(
            25.0,
            lambda: seen.update(
                after=run.transfer.uplink_scale("rack-0", "rack-1")
            ),
        )
        run.run()
        assert seen["during"] == pytest.approx(0.25)
        assert seen["after"] == 1.0


class TestRackPartition:
    def test_partition_downs_whole_rack_then_heals(self):
        ctx = build_chaos(
            FaultSchedule.of(
                RackPartition(at=20.0, rack_id="rack-0", heal_at=40.0)
            ),
            duration_s=70.0,
        )
        rack_nodes = sorted(
            node.node_id for node in ctx.cluster.rack("rack-0")
        )
        liveness_mid = {}
        ctx.run.on_time(
            30.0,
            lambda: liveness_mid.update(
                {n: ctx.cluster.node(n).alive for n in rack_nodes}
            ),
        )
        ctx.run.run()
        assert liveness_mid and not any(liveness_mid.values())
        for node_id in rack_nodes:
            assert ctx.cluster.node(node_id).alive
            assert ctx.supervisors[node_id].registered
        final = ctx.nimbus.assignments[ctx.topology.topology_id]
        assert final.is_complete(ctx.topology)


class TestHeartbeatSilence:
    def test_gray_failure_expires_but_machine_survives(self):
        probe = build_chaos(FaultSchedule())
        victim = probe.nimbus.assignments[probe.topology.topology_id].nodes[0]
        ctx = build_chaos(
            FaultSchedule.of(
                HeartbeatSilence(at=20.0, node_id=victim, until=40.0)
            ),
            duration_s=60.0,
        )
        ctx.run.run()
        # the detector wrongly declared the node dead...
        assert victim in [n for _, n in ctx.detector.expirations]
        # ...but after heartbeats resume it is registered and alive again
        assert ctx.cluster.node(victim).alive
        assert ctx.supervisors[victim].registered
