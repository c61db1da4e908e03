"""Integration: scripted chaos scenarios through the full stack.

Each test drives the whole chain — injector -> DES -> heartbeat detector
-> Nimbus reschedule -> migration — and asserts on the recovered state,
not on any single component.  Every Nimbus round of every scenario also
asserts that no alive node holds a reservation the assignments do not
place on it.
"""

import pytest

from repro.cluster import ResourceVector, single_rack_cluster
from repro.faults import FaultSchedule, NodeCrash, RackPartition
from tests.conftest import make_linear, watch_reservations
from tests.faults.conftest import build_chaos


def build_watched(schedule, **kwargs):
    """:func:`build_chaos`, with the no-stray-reservation law asserted
    after every Nimbus round; ``ctx.checked`` lists the checked calls."""
    ctx = build_chaos(schedule, **kwargs)
    ctx.checked = watch_reservations(ctx.nimbus)
    return ctx


def first_assigned_node():
    """The first node R-Storm places the default linear topology on."""
    probe = build_chaos(FaultSchedule())
    return probe.nimbus.assignments[probe.topology.topology_id].nodes[0]


class TestSingleNodeCrash:
    def test_detect_reschedule_recover(self):
        victim = first_assigned_node()
        ctx = build_watched(
            FaultSchedule.of(NodeCrash(at=20.0, node_id=victim)),
            duration_s=80.0,
        )
        report = ctx.run.run()
        assert ctx.checked  # every round ran under the law
        topo_id = ctx.topology.topology_id

        # the victim was detected and the topology moved off it
        assert victim in [n for _, n in ctx.detector.expirations]
        final = ctx.nimbus.assignments[topo_id]
        assert victim not in final.nodes
        assert final.is_complete(ctx.topology)

        # throughput came back: the last window is comparable to baseline
        recovery = ctx.monitor.report(topo_id, report)
        assert recovery.baseline_tuples_per_window > 0
        [fault] = recovery.faults
        assert fault.time_to_steady_state_s is not None
        assert (
            recovery.post_fault_tuples_per_window
            > 0.5 * recovery.baseline_tuples_per_window
        )


class TestRackPartition:
    def test_partition_and_heal(self):
        ctx = build_watched(
            FaultSchedule.of(
                RackPartition(at=20.0, rack_id="rack-0", heal_at=45.0)
            ),
            duration_s=80.0,
        )
        report = ctx.run.run()
        assert ctx.checked  # every round ran under the law
        topo_id = ctx.topology.topology_id

        # every node in the rack was expired by the detector
        expired = {n for _, n in ctx.detector.expirations}
        rack_nodes = {node.node_id for node in ctx.cluster.rack("rack-0")}
        assert rack_nodes <= expired

        # after healing the whole cluster is live again
        for node_id in rack_nodes:
            assert ctx.cluster.node(node_id).alive
        final = ctx.nimbus.assignments[topo_id]
        assert final.is_complete(ctx.topology)
        # tuples kept flowing at the end of the run
        series = dict(report.throughput_series(topo_id))
        assert series[70.0] > 0


class TestCrashThenRejoin:
    def test_rejoined_node_rehosts_work(self):
        victim = first_assigned_node()
        ctx = build_watched(
            FaultSchedule.of(
                NodeCrash(at=20.0, node_id=victim, rejoin_at=45.0)
            ),
            duration_s=80.0,
        )
        report = ctx.run.run()
        assert ctx.checked  # every round ran under the law
        topo_id = ctx.topology.topology_id

        assert ctx.cluster.node(victim).alive
        assert ctx.supervisors[victim].registered
        final = ctx.nimbus.assignments[topo_id]
        assert final.is_complete(ctx.topology)
        series = dict(report.throughput_series(topo_id))
        assert series[70.0] > 0


class TestInsufficientCapacity:
    def _context(self):
        cluster = single_rack_cluster(
            2,
            capacity=ResourceVector.of(
                memory_mb=2048.0, cpu=100.0, bandwidth_mbps=100.0
            ),
        )
        # 6 tasks x 512 MB = 3 GB: fits on two nodes, not on one
        topology = make_linear(parallelism=2, stages=3, memory_mb=512.0)
        probe = build_chaos(
            FaultSchedule(), cluster=cluster, topology=topology
        )
        victim = probe.nimbus.assignments[topology.topology_id].nodes[0]
        return (
            build_watched(
                FaultSchedule.of(NodeCrash(at=15.0, node_id=victim)),
                cluster=single_rack_cluster(
                    2,
                    capacity=ResourceVector.of(
                        memory_mb=2048.0, cpu=100.0, bandwidth_mbps=100.0
                    ),
                ),
                topology=make_linear(
                    parallelism=2, stages=3, memory_mb=512.0
                ),
                duration_s=60.0,
            ),
            victim,
        )

    def test_degrades_without_hanging_or_overplacing(self):
        ctx, victim = self._context()
        report = ctx.run.run()  # terminating at all is the no-hang check
        assert ctx.checked  # every round ran under the law
        topo_id = ctx.topology.topology_id

        # every post-crash round failed, loudly
        assert ctx.nimbus.scheduling_failures
        times = [t for t, _ in ctx.nimbus.scheduling_failures]
        assert all(t > 15.0 for t in times)

        # no over-placement: the survivor's memory was never exceeded
        survivor = next(
            node for node in ctx.cluster.nodes if node.node_id != victim
        )
        reserved = sum(
            vector.memory_mb for vector in survivor.reservations.values()
        )
        assert reserved <= survivor.capacity.memory_mb + 1e-6

        # the surviving tasks kept running degraded
        survivors = ctx.nimbus.assignments[topo_id].tasks_on_node(
            survivor.node_id
        )
        assert survivors

    def test_backoff_spaces_out_failed_rounds(self):
        ctx, _ = self._context()
        ctx.run.run()
        assert ctx.checked  # every round ran under the law
        times = [t for t, _ in ctx.nimbus.scheduling_failures]
        assert len(times) >= 2
        gaps = [b - a for a, b in zip(times, times[1:])]
        # exponential backoff: gaps never shrink and eventually widen
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] > gaps[0] or len(gaps) == 1
