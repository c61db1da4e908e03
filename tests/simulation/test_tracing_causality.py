"""Causal ordering of the recovery chain in the trace.

A node crash must appear in the trace as

    inject -> node_down -> expire -> reschedule -> migrate

with monotonically non-decreasing timestamps, because each stage is
caused by the previous one: the injector downs the node, the detector
expires its heartbeat session, Nimbus reschedules, the run migrates.
"""

import pickle

from repro.experiments.fault_recovery import chaos_units
from repro.faults import FaultSchedule, NodeCrash
from repro.simulation.config import SimulationConfig
from tests.faults.conftest import build_chaos


def crashed_trace(duration_s=60.0):
    probe = build_chaos(FaultSchedule())
    victim = probe.nimbus.assignments[probe.topology.topology_id].nodes[0]
    ctx = build_chaos(
        FaultSchedule.of(NodeCrash(at=20.0, node_id=victim)),
        duration_s=duration_s,
    )
    report = ctx.run.run()
    return ctx, victim, report


class TestCausality:
    def test_recovery_chain_in_causal_order(self):
        ctx, victim, _ = crashed_trace()
        monitor = ctx.monitor
        [inject] = monitor.query(kind="inject")
        [down] = monitor.query(kind="node_down")
        [expire] = monitor.query(kind="expire")
        reschedules = monitor.query(kind="reschedule")
        migrates = monitor.query(kind="migrate")

        assert victim in inject.fault
        assert down.node == victim
        assert expire.node == victim
        assert reschedules and migrates

        assert inject.time <= down.time <= expire.time
        assert expire.time <= reschedules[0].time <= migrates[0].time

    def test_trace_timestamps_never_decrease(self):
        ctx, _, _ = crashed_trace()
        times = [event.time for event in ctx.monitor.events]
        assert times == sorted(times)

    def test_reschedule_precedes_its_migration(self):
        ctx, _, _ = crashed_trace()
        monitor = ctx.monitor
        topo_id = ctx.topology.topology_id
        for reschedule in monitor.query(kind="reschedule", topology=topo_id):
            following = monitor.query(
                kind="migrate", topology=topo_id, since=reschedule.time
            )
            assert following, "every reschedule must be applied"


class TestObserverAttached:
    def test_outcome_pickles_while_observed(self):
        """Observing a run installs nothing on it, so a finished chaos
        outcome pickles (for the result cache and worker processes)
        while its monitor is still the run's observer."""
        unit = chaos_units(SimulationConfig(duration_s=60.0, warmup_s=15.0))[0]
        wiring = unit.wire()
        outcome = wiring.outcome(wiring.run.run())
        assert wiring.run.observer is wiring.monitor
        assert wiring.monitor.query(kind="inject")
        clone = pickle.loads(pickle.dumps(outcome))
        topo_id = wiring.topologies[0].topology_id
        assert clone.recovery[topo_id] == outcome.recovery[topo_id]
        assert clone.report.sunk(topo_id) == outcome.report.sunk(topo_id)
