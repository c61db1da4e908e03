"""Nimbus — the master daemon.

Owns the submitted-topology set, invokes the configured scheduler
periodically (default every 10 seconds, paper Section 5), reconciles
cluster liveness with the supervisors registered with it (the list
Storm keeps in ZooKeeper), and — when attached to a
:class:`~repro.simulation.runtime.SimulationRun` — migrates running
tasks onto new assignments after failures.

Nimbus is stateless with respect to the scheduler: every round the
scheduler rebuilds whatever it needs from the cluster and the live
assignments, exactly as the paper describes.

Nimbus owns placement state: every placement goes through
:meth:`Nimbus.place`, and between scheduler calls only Nimbus changes a
reservation, so no alive node holds one its assignments do not place.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.errors import ConfigError, MembershipError, SchedulingError
from repro.nimbus.config import StormConfig
from repro.scheduler.assignment import Assignment
from repro.scheduler.base import IScheduler, SchedulingRound
from repro.simulation.tracing import EventKind, TraceEvent
from repro.topology.task import task_label
from repro.topology.topology import Topology

if TYPE_CHECKING:
    from repro.nimbus.supervisor import Supervisor

__all__ = ["Nimbus"]


class Nimbus:
    """The master node daemon."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Optional[IScheduler] = None,
        config: Optional[StormConfig] = None,
    ):
        self.cluster = cluster
        self.config = config or StormConfig()
        self.scheduler = scheduler or self.config.make_scheduler()
        #: node id -> the supervisor last registered for that node
        self._supervisors: Dict[str, Supervisor] = {}
        self._topologies: Dict[str, Topology] = {}
        self._submission_order: List[str] = []
        self.assignments: Dict[str, Assignment] = {}
        self.rounds: List[SchedulingRound] = []
        #: (simulated time, error message) of every round that
        #: :meth:`try_schedule_round` could not schedule — the degraded-
        #: mode record chaos tests assert on instead of a silent hang.
        self.scheduling_failures: List[Tuple[float, str]] = []
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
        #: consulted per round only while one is bound, so the default
        #: path never changes.
        self.tenancy = None
        self._attached = False

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
        # Match the topology's own task labels, not a label prefix: the
        # prefix "a:" is also the start of every label of topology "a:b".
        labels = {task_label(task) for task in topology.tasks}
        for node in self.cluster.nodes:
            for label in list(node.reservations):
                if label in labels:
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
        return sorted(
            node_id
            for node_id, supervisor in self._supervisors.items()
            if supervisor.registered
        )

    def reconcile_membership(self) -> List[str]:
        """Sync cluster liveness with the registered supervisors.

        A node with no registered supervisor is marked dead; a registered
        node that was dead is revived.  Returns node ids whose liveness
        changed.  Clusters used without supervisors (library-only use)
        are untouched: with none registered, membership is unmanaged.
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
        """Start ``supervisor`` and keep it, adding its node to the
        cluster if new.

        Raises:
            MembershipError: if another supervisor for the same node is
                registered, or this one already is.
        """
        node_id = supervisor.supervisor_id
        held = self._supervisors.get(node_id)
        if held is not None and held is not supervisor and held.registered:
            raise MembershipError(
                f"node {node_id!r} already has a registered supervisor"
            )
        if not self.cluster.has_node(node_id):
            self.cluster.add_node(supervisor.node)
        supervisor.start(now)
        self._supervisors[node_id] = supervisor

    # -- scheduling ----------------------------------------------------------------

    def _live_assignments(self) -> Dict[str, Assignment]:
        """Existing assignments restricted to alive nodes — dead-node
        placements are dropped so the scheduler re-places those tasks and
        their stale reservations are released.

        Each lost node's reservations are released in its task order:
        float addition is not associative, so a hash-ordered release
        would leave a node's recovered availability depending on
        ``PYTHONHASHSEED``.

        An assignment whose nodes all survive is passed on as the same
        object and has nothing to release."""
        cluster = self.cluster
        alive = {n.node_id for n in cluster if n.alive}
        live: Dict[str, Assignment] = {}
        for topo_id, assignment in self.assignments.items():
            if topo_id not in self._topologies:
                continue
            surviving = assignment.restricted_to_nodes(alive)
            live[topo_id] = surviving
            if surviving is assignment:
                continue
            for node_id in assignment.nodes:
                if node_id in alive or not cluster.has_node(node_id):
                    continue
                node = cluster.node(node_id)
                for task in assignment.tasks_on_node(node_id):
                    label = task_label(task)
                    if node.has_reservation(label):
                        node.release(label)
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
        window = self.config["nimbus.quarantine.window.secs"]
        threshold = self.config["nimbus.quarantine.threshold"]
        probation = self.config["nimbus.quarantine.probation.secs"]
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

    @contextmanager
    def _quarantine_masked(self) -> Iterator[None]:
        """Fail alive-but-quarantined nodes for the block, so no
        scheduler (none knows about quarantine) sees them."""
        masked = [
            self.cluster.node(node_id)
            for node_id in self.quarantined
            if self.cluster.has_node(node_id) and self.cluster.node(node_id).alive
        ]
        for node in masked:
            node.fail()
        try:
            yield
        finally:
            for node in masked:
                node.recover()

    def place(self, topologies: Sequence[Topology]) -> SchedulingRound:
        """The placement step of every round, adopting nothing: the
        scheduler over ``topologies`` and the live assignments, with
        quarantined nodes masked dead."""
        with self._quarantine_masked():
            return self.scheduler.run(
                topologies, self.cluster, self._live_assignments()
            )

    def schedule_round(self, now: float = 0.0) -> SchedulingRound:
        """One scheduler invocation: reconcile membership, call the
        scheduler with live assignments, adopt the result.

        With ``nimbus.quarantine.enabled``, ``now`` (simulated time when
        attached) drives the flap/quarantine bookkeeping, and quarantined
        nodes are masked dead for the duration of the scheduler call.
        Because schedulers keep the surviving ``existing`` placements and
        only re-place dropped tasks, the resulting migration is
        *partial*: only tasks from dead or quarantined nodes move.  A
        round that raises keeps the old assignments and only their
        reservations.
        """
        self.reconcile_membership()
        if self.config["nimbus.quarantine.enabled"]:
            self._update_quarantine(now)
        if self.tenancy is not None:
            # Masked, so the weighted-DRF capacity is what the
            # schedulers will see this round.
            with self._quarantine_masked():
                self.tenancy.admission_round(self, now)
        round_info = self.place(self.topologies)
        self.assignments.update(round_info.assignments)
        self.rounds.append(round_info)
        return round_info

    def try_schedule_round(self, now: float) -> bool:
        """:meth:`schedule_round`, recording a :class:`SchedulingError`
        in :attr:`scheduling_failures` (a degraded round) instead of
        raising it.  Returns whether the round succeeded."""
        try:
            self.schedule_round(now)
        except SchedulingError as err:
            self.scheduling_failures.append((now, str(err)))
            return False
        return True

    def adopt(self, topology: Topology, assignment: Assignment) -> None:
        """Commit a new generation of a submitted topology and its
        assignment between rounds (an elastic action), moving reservations
        with the tasks: in task order, each task ``assignment`` drops or
        moves releases its reservation where held, and each moved task
        reserves its demand at its new node where none is."""
        topology_id = topology.topology_id
        old = self.assignments[topology_id]
        cluster = self.cluster
        for task in old.tasks:
            source = old.node_of(task)
            target = assignment.node_of(task) if assignment.has(task) else None
            if target == source:
                continue
            label = task_label(task)
            if cluster.has_node(source) and cluster.node(source).has_reservation(label):
                cluster.node(source).release(label)
            if target is not None and not cluster.node(target).has_reservation(label):
                cluster.node(target).reserve(label, topology.task_demand(task))
        self._topologies[topology_id] = topology
        self.assignments[topology_id] = assignment

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

        Raises:
            ConfigError: if Nimbus is already attached (a second loop
                would double every scheduling round).
        """
        if self._attached:
            raise ConfigError("nimbus is already attached")
        self._attached = True
        period = self.config["nimbus.scheduler.interval.secs"]
        run.on_time(period, self._tick, run, period, period)

    def _tick(self, run, period: float, delay: float) -> None:
        """One attached scheduling round; ``delay`` is the current
        backoff, carried from tick to tick as an event argument."""
        before = dict(self.assignments)
        if not self.try_schedule_round(run.sim.now):
            delay = min(delay * 2, 8 * period)
        else:
            delay = period
            changed = [
                topo_id
                for topo_id, assignment in self.assignments.items()
                if before.get(topo_id) != assignment
            ]
            if run.observer is not None:
                for topo_id in changed:
                    run.observer(TraceEvent(
                        run.sim.now, EventKind.RESCHEDULE, topo_id
                    ))
            for topo_id in changed:
                run.migrate(topo_id, self.assignments[topo_id])
        run.on_time(run.sim.now + delay, self._tick, run, period, delay)
