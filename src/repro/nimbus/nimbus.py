"""Nimbus — the master daemon.

Owns the submitted-topology set, invokes the configured scheduler
periodically (default every 10 seconds, paper Section 5), reconciles
membership changes observed through ZooKeeper, and — when attached to a
:class:`~repro.simulation.runtime.SimulationRun` — migrates running tasks
onto new assignments after failures.

Nimbus is stateless with respect to the scheduler: every round the
scheduler rebuilds whatever it needs from the cluster and the live
assignments, exactly as the paper describes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.errors import MembershipError, SchedulingError
from repro.nimbus.config import StormConfig
from repro.nimbus.supervisor import SUPERVISORS_PATH, Supervisor
from repro.nimbus.zookeeper import InMemoryZooKeeper
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler, SchedulingRound
from repro.topology.task import task_label
from repro.topology.topology import Topology

__all__ = ["Nimbus"]


class Nimbus:
    """The master node daemon."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Optional[IScheduler] = None,
        zk: Optional[InMemoryZooKeeper] = None,
        config: Optional[StormConfig] = None,
    ):
        self.cluster = cluster
        self.config = config or StormConfig()
        self.scheduler = scheduler or self.config.make_scheduler()
        self.zk = zk or InMemoryZooKeeper()
        self.zk.ensure_path(SUPERVISORS_PATH)
        self._topologies: Dict[str, Topology] = {}
        self._submission_order: List[str] = []
        self.assignments: Dict[str, Assignment] = {}
        self.rounds: List[SchedulingRound] = []
        #: (simulated time, error message) of every attached-loop round
        #: that could not produce a feasible schedule — the degraded-mode
        #: record chaos tests assert on instead of a silent hang.
        self.scheduling_failures: List[Tuple[float, str]] = []
        #: optional observer called as ``on_reschedule(time, changed_ids)``
        #: when an attached round changes at least one assignment, before
        #: the migrations are applied (recovery monitoring).
        self.on_reschedule: Optional[Callable[[float, List[str]], None]] = None
        # -- quarantine state (only populated when
        # -- ``nimbus.quarantine.enabled`` is set) --------------------------
        #: node id -> recent down-transition times inside the flap window
        self.flap_history: Dict[str, List[float]] = {}
        #: node id -> probation end time; quarantined nodes are excluded
        #: from scheduling even while alive, until probation passes
        self.quarantined: Dict[str, float] = {}
        #: last liveness sampled per node, for down-transition detection
        self._last_alive: Dict[str, bool] = {}
        #: (time, node id) of every quarantine decision, for reporting
        self.quarantine_events: List[Tuple[float, str]] = []
        #: bound by :class:`~repro.nimbus.tenancy.TenancyController`;
        #: consulted per round only when ``nimbus.tenancy.enabled`` is
        #: set, so the default path never changes.
        self.tenancy = None

    # -- topology lifecycle ---------------------------------------------------

    def submit_topology(self, topology: Topology) -> None:
        """Register a topology for scheduling (takes effect next round)."""
        if topology.topology_id in self._topologies:
            raise SchedulingError(
                f"topology {topology.topology_id!r} is already submitted"
            )
        self._topologies[topology.topology_id] = topology
        self._submission_order.append(topology.topology_id)

    def kill_topology(self, topology_id: str) -> None:
        """Remove a topology and release its resource reservations."""
        topology = self._topologies.pop(topology_id, None)
        if topology is None:
            raise SchedulingError(f"no topology {topology_id!r} submitted")
        self._submission_order.remove(topology_id)
        self.assignments.pop(topology_id, None)
        prefix = f"{topology_id}:"
        for node in self.cluster.nodes:
            for label in list(node.reservations):
                if label.startswith(prefix):
                    node.release(label)

    @property
    def topologies(self) -> List[Topology]:
        return [self._topologies[tid] for tid in self._submission_order]

    def topology(self, topology_id: str) -> Topology:
        try:
            return self._topologies[topology_id]
        except KeyError:
            raise SchedulingError(f"no topology {topology_id!r} submitted") from None

    # -- membership ----------------------------------------------------------------

    def registered_supervisors(self) -> List[str]:
        return self.zk.children(SUPERVISORS_PATH)

    def reconcile_membership(self) -> List[str]:
        """Sync cluster liveness with the ZooKeeper supervisor registry.

        A node with no registered supervisor is marked dead; a registered
        node that was dead is revived.  Returns node ids whose liveness
        changed.  Clusters used without supervisors (library-only use)
        are untouched: an empty registry means membership is unmanaged.
        """
        registered = set(self.registered_supervisors())
        if not registered:
            return []
        changed: List[str] = []
        for node in self.cluster.nodes:
            should_be_alive = node.node_id in registered
            if node.alive != should_be_alive:
                if should_be_alive:
                    node.recover()
                else:
                    node.fail()
                changed.append(node.node_id)
        return changed

    def register_supervisor(self, supervisor: Supervisor, now: float = 0.0) -> None:
        """Convenience: start a supervisor against this Nimbus's ZooKeeper
        and add its node to the cluster if new."""
        if supervisor.zk is not self.zk:
            raise MembershipError(
                "supervisor is bound to a different ZooKeeper ensemble"
            )
        if not self.cluster.has_node(supervisor.node.node_id):
            self.cluster.add_node(supervisor.node)
        supervisor.start(now)

    # -- scheduling ----------------------------------------------------------------

    def _live_assignments(self) -> Dict[str, Assignment]:
        """Existing assignments restricted to alive nodes — dead-node
        placements are dropped so the scheduler re-places those tasks and
        their stale reservations are released."""
        alive = {n.node_id for n in self.cluster.alive_nodes}
        live: Dict[str, Assignment] = {}
        for topo_id, assignment in self.assignments.items():
            if topo_id not in self._topologies:
                continue
            surviving = assignment.restricted_to_nodes(alive)
            dropped = set(assignment.tasks) - set(surviving.tasks)
            for task in dropped:
                node_id = assignment.node_of(task)
                if self.cluster.has_node(node_id):
                    node = self.cluster.node(node_id)
                    if task_label(task) in node.reservations:
                        node.release(task_label(task))
            live[topo_id] = surviving
        return live

    def _update_quarantine(self, now: float) -> None:
        """Track per-node flaps and quarantine repeat offenders.

        A *flap* is an alive->dead transition observed between scheduling
        rounds (sampled after membership reconciliation).  A node with
        ``threshold`` flaps inside the sliding window is quarantined for
        ``probation`` seconds; expired quarantines are released with a
        clean flap history, so one more crash does not instantly
        re-quarantine.
        """
        expired = [
            node_id
            for node_id, until in self.quarantined.items()
            if now >= until
        ]
        for node_id in expired:
            del self.quarantined[node_id]
            self.flap_history.pop(node_id, None)
        window = self.config.quarantine_window_s
        threshold = self.config.quarantine_threshold
        probation = self.config.quarantine_probation_s
        for node in self.cluster.nodes:
            node_id = node.node_id
            if self._last_alive.get(node_id, True) and not node.alive:
                history = self.flap_history.get(node_id, [])
                history.append(now)
                history = [t for t in history if t > now - window]
                self.flap_history[node_id] = history
                if (
                    len(history) >= threshold
                    and node_id not in self.quarantined
                ):
                    self.quarantined[node_id] = now + probation
                    self.quarantine_events.append((now, node_id))
            self._last_alive[node_id] = node.alive

    def _mask_quarantined(self) -> List[Node]:
        """Temporarily fail alive-but-quarantined nodes so any scheduler
        — none of which know about quarantine — simply never sees them.
        Returns the masked nodes for the caller to restore."""
        masked: List[Node] = []
        for node_id in self.quarantined:
            if self.cluster.has_node(node_id):
                node = self.cluster.node(node_id)
                if node.alive:
                    node.fail()
                    masked.append(node)
        return masked

    def schedule_round(self, now: float = 0.0) -> SchedulingRound:
        """One scheduler invocation: reconcile membership, call the
        scheduler with live assignments, adopt the result.

        With ``nimbus.quarantine.enabled``, ``now`` (simulated time when
        attached) drives the flap/quarantine bookkeeping, and quarantined
        nodes are masked dead for the duration of the scheduler call.
        Because schedulers keep the surviving ``existing`` placements and
        only re-place dropped tasks, the resulting migration is
        *partial*: only tasks from dead or quarantined nodes move.
        """
        self.reconcile_membership()
        if self.config.quarantine_enabled:
            self._update_quarantine(now)
        masked = self._mask_quarantined()
        try:
            if self.tenancy is not None and self.config.tenancy_enabled:
                # Admission runs with quarantined nodes masked, so the
                # weighted-DRF capacity matches what the schedulers
                # will actually see this round.
                self.tenancy.admission_round(now)
            existing = self._live_assignments()
            round_info = self.scheduler.run(
                self.topologies, self.cluster, existing
            )
        finally:
            for node in masked:
                node.recover()
        self.assignments.update(round_info.assignments)
        self.rounds.append(round_info)
        return round_info

    # -- simulation integration ----------------------------------------

    def attach(self, run) -> None:
        """Drive periodic scheduling inside a simulation.

        Every ``nimbus.scheduler.interval.secs`` (default 10 s) of
        simulated time, Nimbus reconciles membership and reschedules;
        topologies whose assignment changed are migrated in the running
        simulation.

        A round that cannot produce a feasible schedule (mid-outage, or
        genuinely insufficient surviving capacity) is recorded in
        :attr:`scheduling_failures` and retried with exponential backoff:
        the interval doubles per consecutive failure up to 8 times the
        period, then resets on the first success.  The topology keeps
        running degraded on whatever placements survive — it never hangs
        and never over-places.
        """
        period = self.config.scheduling_interval_s
        backoff_cap = 8 * period
        state = {"delay": period}

        def tick() -> None:
            before = dict(self.assignments)
            try:
                self.schedule_round(run.sim.now)
            except SchedulingError as err:
                self.scheduling_failures.append((run.sim.now, str(err)))
                state["delay"] = min(state["delay"] * 2, backoff_cap)
            else:
                state["delay"] = period
                changed = [
                    topo_id
                    for topo_id, assignment in self.assignments.items()
                    if before.get(topo_id) != assignment
                ]
                if changed and self.on_reschedule is not None:
                    self.on_reschedule(run.sim.now, changed)
                for topo_id in changed:
                    run.migrate(topo_id, self.assignments[topo_id])
            run.on_time(run.sim.now + state["delay"], tick)

        run.on_time(period, tick)
