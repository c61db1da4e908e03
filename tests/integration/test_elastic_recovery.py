"""Integration: the elastic control loop composed with chaos faults.

One run carries everything at once — open-loop overload, a flapping
node that Nimbus quarantines, a lossy inter-rack trunk with
at-least-once replay, fault-driven rescheduling *and* the elastic
controller scaling/rebalancing live.  The assertions pin the
composition contracts:

* no migration or rescale ever places a task on a quarantined (or
  dead) node, at the moment the placement is committed;
* the at-least-once delivery ledger stays closed under mid-run
  rescale — every root tuple is acked, exhausted or still in flight;
* churn attribution splits cleanly: fault-driven moves and
  elastic-driven moves are counted separately and sum to the total;
* no alive node ever holds a reservation that Nimbus's assignments do
  not place on it, after any round or elastic action.
"""

from types import SimpleNamespace

from repro.cluster import emulab_testbed
from repro.experiments.harness import wire
from repro.faults import FaultSchedule, MessageLoss, NodeCrash
from repro.scheduler import RStormScheduler
from repro.simulation import SimulationConfig
from repro.traffic.arrivals import PoissonArrivals
from repro.workloads.micro import linear_topology
from tests.conftest import stray_reservations, watch_reservations

DURATION_S = 120.0
ELASTIC_INTERVAL_S = 10.0

STORM = {
    "nimbus.elastic.enabled": True,
    "nimbus.elastic.interval.secs": ELASTIC_INTERVAL_S,
    "nimbus.quarantine.enabled": True,
    "nimbus.quarantine.threshold": 3,
    "nimbus.quarantine.window.secs": 120.0,
    "nimbus.quarantine.probation.secs": 300.0,
    "nimbus.scheduler.interval.secs": 5.0,
    "nimbus.supervisor.heartbeat.secs": 2.0,
    "nimbus.supervisor.timeout.secs": 6.0,
}


def _flap_schedule(victim: str) -> FaultSchedule:
    """Three crash/rejoin cycles (enough to quarantine at threshold 3)
    plus a lossy trunk while the controller is mid-adaptation."""
    return FaultSchedule.of(
        # Outages must outlive the 6 s heartbeat timeout by a few
        # scheduling rounds: until the detector expires the supervisor,
        # membership reconciliation revives the node and no flap edge
        # is observable.
        NodeCrash(at=20.0, node_id=victim, rejoin_at=32.0),
        NodeCrash(at=38.0, node_id=victim, rejoin_at=50.0),
        NodeCrash(at=56.0, node_id=victim, rejoin_at=68.0),
        MessageLoss(
            at=30.0,
            until=70.0,
            rack_a="rack-0",
            rack_b="rack-1",
            drop_probability=0.05,
            duplicate_probability=0.02,
            seed=7,
        ),
    )


def _first_node_flaps(cluster, assignments) -> FaultSchedule:
    """Flap the lowest-id node of the initial placement."""
    return _flap_schedule(sorted(assignments["linear-compute"].nodes)[0])


def build():
    cluster = emulab_testbed()
    topology = linear_topology("compute")
    wiring = wire(
        RStormScheduler(),
        [topology],
        cluster,
        SimulationConfig(
            duration_s=DURATION_S,
            warmup_s=15.0,
            at_least_once=True,
            max_retries=3,
            arrival_process=PoissonArrivals(rate_tps=375.0),
        ),
        storm=STORM,
        faults=_first_node_flaps,
    )
    nimbus, run = wiring.nimbus, wiring.run
    victim = sorted(nimbus.assignments[topology.topology_id].nodes)[0]
    assert not stray_reservations(nimbus)
    checked = watch_reservations(nimbus)

    # Spy on every placement commit (fault-driven migrations from
    # Nimbus, elastic migrations and rescales from the controller):
    # record the nodes receiving *changed* placements — new or moved
    # tasks — against the quarantine/alive state at commit time.
    # Unchanged placements may legitimately still reference a node that
    # just crashed (the next recovery round moves them); changed ones
    # must never land on a dead or quarantined node.
    placements = []
    last = {
        tid: {t: a.node_of(t) for t in a.tasks}
        for tid, a in nimbus.assignments.items()
    }

    def record(reason, topology_id, new_assignment):
        current = {
            t: new_assignment.node_of(t) for t in new_assignment.tasks
        }
        prev = last.get(topology_id, {})
        changed = {
            node for t, node in current.items() if prev.get(t) != node
        }
        last[topology_id] = current
        placements.append(
            (
                run.sim.now,
                reason,
                changed,
                set(nimbus.quarantined),
                {n.node_id for n in cluster.nodes if not n.alive},
            )
        )

    orig_migrate = run.migrate
    orig_rescale = run.rescale

    def spy_migrate(topology_id, new_assignment, reason="fault"):
        record(reason, topology_id, new_assignment)
        return orig_migrate(topology_id, new_assignment, reason=reason)

    def spy_rescale(topology_id, new_topology, new_assignment):
        record("rescale", topology_id, new_assignment)
        return orig_rescale(topology_id, new_topology, new_assignment)

    run.migrate = spy_migrate
    run.rescale = spy_rescale
    return SimpleNamespace(
        topology=topology,
        victim=victim,
        placements=placements,
        checked=checked,
        **vars(wiring),
    )


class TestElasticUnderChaos:
    @classmethod
    def setup_class(cls):
        cls.ctx = build()
        cls.report = cls.ctx.run.run()

    def test_fixture_exercises_everything(self):
        """The scenario is only meaningful if all three mechanisms
        actually fired: quarantine, elastic scaling, and replays."""
        ctx = self.ctx
        assert ctx.victim in ctx.nimbus.quarantined
        assert any(
            d.action == "scale-up" for d in ctx.controller.decisions
        )
        topo_id = ctx.topology.topology_id
        assert self.report.replayed(topo_id) > 0

    def test_no_placement_onto_quarantined_or_dead_nodes(self):
        """Every *changed* placement — fault migration, elastic
        migration, rescale — landed on a node that was alive and not
        quarantined at commit time."""
        assert self.ctx.placements  # the run did move work around
        for now, reason, nodes, quarantined, dead in self.ctx.placements:
            assert not nodes & quarantined, (
                f"{reason} at t={now} placed tasks on quarantined "
                f"{nodes & quarantined}"
            )
            assert not nodes & dead, (
                f"{reason} at t={now} placed tasks on dead {nodes & dead}"
            )

    def test_no_stray_reservations_after_rounds_and_actions(self):
        """The law is asserted inside every round and every elastic
        commit (see ``watch_reservations``); here, that both ran."""
        assert {"schedule_round", "adopt"} <= set(self.ctx.checked)

    def test_final_assignment_clear_of_quarantined(self):
        ctx = self.ctx
        final = ctx.nimbus.assignments[ctx.topology.topology_id]
        assert not set(final.nodes) & set(ctx.nimbus.quarantined)
        assert final.is_complete(
            ctx.nimbus.topology(ctx.topology.topology_id)
        )

    def test_delivery_ledger_closed_under_rescale(self):
        """The at-least-once closure invariant survives mid-run
        rescales: no root tuple is silently dropped when executors are
        added, removed or moved."""
        audit = self.ctx.run.delivery_audit()
        ledger = audit[self.ctx.topology.topology_id]
        assert ledger["origins_created"] > 0
        assert ledger["origins_created"] == (
            ledger["origins_acked"]
            + ledger["origins_exhausted"]
            + ledger["pending"]
            + ledger["replays_outstanding"]
        )

    def test_churn_attribution_splits_fault_vs_elastic(self):
        """The monitor separates fault-driven moves from elastic ones;
        the two components sum to the total and both are non-zero here
        (crashes forced migrations, overload forced rescales)."""
        ctx = self.ctx
        recovery = ctx.monitor.report(
            ctx.topology.topology_id, self.report
        )
        assert recovery.fault_tasks_moved > 0
        assert recovery.elastic_tasks_moved > 0
        assert recovery.total_tasks_moved == (
            recovery.fault_tasks_moved + recovery.elastic_tasks_moved
        )
        assert recovery.rescales > 0
        # the controller's own ledger agrees with the causal trace
        assert recovery.elastic_tasks_moved == ctx.controller.tasks_moved
