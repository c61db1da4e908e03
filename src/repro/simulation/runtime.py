"""The simulated Storm runtime.

Executes one or more scheduled topologies on a cluster in simulated time,
reproducing the execution model the paper's evaluation measures:

* **Spouts** emit tuple batches as fast as their CPU, the acker credit
  (``max_spout_pending``) and any configured rate cap allow — or, when
  the config carries an ``arrival_process``, exactly the batches an
  *open-loop* traffic source offers, independent of system state (see
  :mod:`repro.traffic.arrivals`).
* **Routing** follows each stream's grouping; every downstream component
  subscribed to a stream receives a copy of it.
* **Transfers** pay locality-dependent latency and serialise through NICs
  and the inter-rack uplink (:class:`~repro.simulation.network.TransferModel`).
  Each route resolves its consumers' network paths once per placement,
  so a routed batch books its links without looking them up.
* **Bolts** are single-threaded tasks competing for their node's cores;
  an over-committed node's tasks wait for cores, and a node whose
  resident memory exceeds physical capacity thrashes (service times are
  multiplied by ``thrash_factor``) — the failure mode that flattens the
  default-scheduled Processing topology in Figure 13.
* **Acking** tracks every batch tree; completion returns spout credit,
  timeouts (tuple failure) return it late.

The runtime supports node failure injection and task migration so the
Nimbus coordination loop can reschedule mid-run.

The closed-loop per-batch hop is one short call chain, ``_deliver`` ->
``_start_work`` -> ``_complete`` -> ``_route``: work for an idle task
whose node has a free core and an empty run queue starts at once (else
``_dispatch`` starts it later), the counters are incremented inline, and
completions and deliveries are pushed straight onto the engine heap
(the Simulator's direct-push contract).

Each control-plane transition has one body for all its callers:
``_spawn_tasks``/``_wire_routes`` build task runtimes and routes,
``_rebind`` moves tasks (migrate, rescale), ``_teardown`` kills a task
(node failure, overflow crash, rescale removal), and ``_fc_stall`` and
``_fc_resume`` pause and restart a producer (a send, a drain or a
rescale's resize crossing a watermark).  ``_targets`` validates a
placement before any task changes.

Each traced transition tests the run's ``observer`` slot and, when it is
set, hands it one :class:`~repro.simulation.tracing.TraceEvent`; the
per-batch transitions test ``_batch_observer``, which the ``observer``
setter fills only for an observer that reads per-batch kinds.

The runtime's object graph is acyclic, so reference counting alone frees
a run once its event heap is cleared.  References point forward only:
the run holds its topology, node and task runtimes, a task holds its
topology and node runtimes and its routes, and a route holds its
consumers.  Everything that points back at a task is an index into the
run's task table (``_tasks``): a node's run queue and task list, a
topology's spout list and each in-flight tree's spout.  A topology whose
own streams form a cycle still closes one through its routes.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from heapq import heappush
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.network import DistanceLevel
from repro.cluster.node import Node, WorkerSlot
from repro.errors import SchedulingError, SimulationError
from repro.scheduler.assignment import Assignment
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.flowcontrol import CreditLedger, FlowControl
from repro.simulation.metrics import StatisticServer
from repro.simulation.network import NetworkPath, TransferModel
from repro.simulation.report import SimulationReport
from repro.simulation.tracing import EventKind, TraceEvent, wants_batches
from repro.topology.component import Component
from repro.topology.grouping import LocalOrShuffleGrouping
from repro.topology.task import Task
from repro.topology.topology import Topology
from repro.traffic.arrivals import derive_stream_seed

__all__ = ["SimulationRun"]

#: Floor on any service time, preventing zero-cost loops from freezing
#: simulated time.
_MIN_SERVICE_S = 1e-6

#: Work-item kinds.  Every payload carries the batch's tuple count at
#: index 1: an emit is ``(arrived_at, tuples, key)`` (``arrived_at`` and
#: ``key`` are None in closed loop), a process item is
#: ``(root_id, tuples, level, ledger)`` and a replay is
#: ``(attempt, tuples, origin_root, arrived_at)``.
_EMIT = 0
_PROCESS = 1
_REPLAY = 2

#: Sentinel root id for *ghost* batches — wire-duplicated copies that are
#: processed (CPU, routing, sink counts) but deliberately invisible to
#: the acker, so duplicates can never corrupt a tree's delivery count.
_GHOST_ROOT = -1

#: Hot-path aliases (module-global loads beat enum attribute lookups).
_INTRA_PROCESS = DistanceLevel.INTRA_PROCESS
_INTER_NODE = DistanceLevel.INTER_NODE


def _no_emit(spout: "_TaskRuntime") -> None:
    """Open-loop stand-in for :meth:`SimulationRun._try_emit`: arrivals,
    not credit, decide when spouts emit."""


def _assign_keys(stream, keys: Iterator[int]):
    """Fill in routing keys a base arrival process left as ``None``
    (trace replays carry their own recorded keys, which win)."""
    for time_s, tuples, key in stream:
        yield (time_s, tuples, next(keys) if key is None else key)


class _NodeRuntime:
    """Per-node execution state: cores, run queue, slowdown factors.

    ``ready`` (the run queue) and ``tasks`` hold task-table indices, not
    task runtimes: a task points at its node, never the reverse.
    """

    __slots__ = ("node", "node_id", "cores", "active", "ready", "slowdown",
                 "fault_factor", "tasks", "failed")

    def __init__(self, node: Node):
        self.node = node
        self.node_id = node.node_id
        self.cores = node.cores
        self.active = 0
        self.ready: Deque[int] = deque()
        self.slowdown = 1.0
        #: service-time multiplier from injected CPU degradation faults
        #: (1.0 = healthy); orthogonal to the thrash/overcommit factors,
        #: which are recomputed from placements.
        self.fault_factor = 1.0
        self.tasks: List[int] = []
        #: failed by the run and not yet recovered.  Nimbus may revive
        #: ``node.alive`` before then (its supervisor is registered until
        #: the heartbeat timeout), but no task bound here runs until the
        #: run recovers the machine.
        self.failed = False

    def up(self) -> bool:
        """Whether a task bound here now may run."""
        return self.node.alive and not self.failed


class _OutRoute:
    """A producer task's route to one downstream component.

    ``wires`` holds, per consumer, ``(consumer, level, path, latency)``:
    the distance level, the resolved network path
    (:meth:`~repro.simulation.network.TransferModel.path`) of a delivery
    that leaves the node, or None for an in-memory hand-off, and the
    level's latency.  ``wires`` and ``local_indices`` are derived from
    placements and cached until ``wires_version`` falls behind the run's
    placement version — the distance matrix and every path are fixed
    between migrations.  ``ledger`` is the edge's credit ledger (None
    when flow is off).
    """

    __slots__ = ("grouping", "consumers", "ledger", "wires",
                 "local_indices", "wires_version", "is_local_or_shuffle")

    def __init__(self, grouping, consumers, ledger):
        self.grouping = grouping
        self.consumers: List["_TaskRuntime"] = consumers
        self.ledger: Optional[CreditLedger] = ledger
        self.wires: Optional[List[Tuple[
            "_TaskRuntime", DistanceLevel, Optional[NetworkPath], float
        ]]] = None
        #: cached local-consumer indices for local-or-shuffle groupings.
        self.local_indices: Optional[List[int]] = None
        self.wires_version = -1
        self.is_local_or_shuffle = isinstance(grouping, LocalOrShuffleGrouping)


class _TaskRuntime:
    """Runtime state of one task."""

    __slots__ = (
        "task", "component", "profile", "topo", "slot", "node", "work",
        "running", "queued", "alive", "out_routes", "inflight",
        "emit_blocked", "emit_timer_set", "next_emit_time", "is_spout",
        "fc_paused", "counter_key", "index",
    )

    def __init__(self, task: Task, component: Component,
                 topo: "_TopologyRuntime", slot: WorkerSlot,
                 node: _NodeRuntime, index: int):
        self.task = task
        self.component = component
        self.profile = component.profile
        self.topo = topo
        self.slot = slot
        self.node = node
        self.work: Deque[Tuple[int, object]] = deque()
        self.running = False
        self.queued = False
        self.alive = True
        self.out_routes: List[_OutRoute] = []
        self.inflight = 0
        self.emit_blocked = False
        self.emit_timer_set = False
        self.next_emit_time = 0.0
        self.is_spout = component.is_spout
        #: flow control: True while any of this task's component's
        #: out-edges is over its high watermark — a paused bolt stops
        #: draining its queue, a paused spout stops emitting.  Always
        #: False when flow control is off.
        self.fc_paused = False
        #: this task's key in the run's processed-tuples counter
        self.counter_key = (topo.topology_id, task.component)
        #: this task's position in the run's task table
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_TaskRuntime({self.task})"


#: task -> the (slot, node) a placement binds it to
_Targets = Dict[Task, Tuple[WorkerSlot, _NodeRuntime]]


class _PendingTree:
    """Acker state of one in-flight tuple tree (``__slots__`` keeps the
    per-root allocation cheap)."""

    __slots__ = ("remaining", "spout", "emitted_at", "tuples", "attempt",
                 "origin_root", "arrived_at")

    def __init__(self, remaining: int, spout: int,
                 emitted_at: float, tuples: int, attempt: int,
                 origin_root: int,
                 arrived_at: Optional[float] = None) -> None:
        #: outstanding deliveries; the tree acks when this reaches zero.
        self.remaining = remaining
        #: the emitting spout's task-table index
        self.spout = spout
        self.emitted_at = emitted_at
        self.tuples = tuples
        #: 0 for an original emission, n for the n-th replay.
        self.attempt = attempt
        #: root id of the original emission this tree descends from
        #: (== the tree's own root id for originals) — the causal link
        #: a ``replay`` event carries as ``origin``.
        self.origin_root = origin_root
        #: open-loop only: when the batch *arrived* (which can predate
        #: ``emitted_at`` by however long the spout's queue held it) —
        #: the anchor for end-to-end latency.  ``None`` in closed loop.
        self.arrived_at = arrived_at


class _TopologyRuntime:
    """Per-topology acker state.  ``spouts`` holds task-table indices."""

    __slots__ = ("topology", "topology_id", "assignment", "pending",
                 "next_root", "spouts", "origins_created",
                 "origins_exhausted", "replays_outstanding", "origins_shed")

    def __init__(self, topology: Topology, assignment: Assignment):
        self.topology = topology
        #: fixed for the run: a rescaled generation keeps the same id
        self.topology_id = topology.topology_id
        self.assignment = assignment
        #: root id -> in-flight tree, insertion-ordered by emit time.
        self.pending: Dict[int, _PendingTree] = {}
        self.next_root = itertools.count()
        self.spouts: List[int] = []
        # -- at-least-once audit counters (only maintained when the
        # -- delivery layer is on; see SimulationRun.delivery_audit).
        #: root tuples whose trees entered the acker
        self.origins_created = 0
        #: root tuples explicitly given up on (retries spent, or their
        #: replay state died with a spout/worker)
        self.origins_exhausted = 0
        #: replays scheduled or queued but not yet re-emitted
        self.replays_outstanding = 0
        #: root tuples deliberately dropped by the shedding policy
        #: (ingress or queue stage) — audited, never silent
        self.origins_shed = 0


class SimulationRun:
    """One simulated execution of scheduled topologies on a cluster.

    Args:
        cluster: The physical cluster (its topography supplies transfer
            costs; node liveness is honoured and may change mid-run via
            :meth:`fail_node_at`).
        placements: ``(topology, assignment)`` pairs.  Every assignment
            must be complete.
        config: Simulation knobs.
        interrack_uplink_mbps: Optional override of the shared cross-rack
            link capacity (see :class:`TransferModel`).
    """

    def __init__(
        self,
        cluster: Cluster,
        placements: Sequence[Tuple[Topology, Assignment]],
        config: Optional[SimulationConfig] = None,
        interrack_uplink_mbps: Optional[float] = None,
    ):
        self.cluster = cluster
        self.config = config or SimulationConfig()
        self.sim = Simulator()
        self.stats = StatisticServer(self.config.window_s)
        self.observer = None
        # The per-batch stats counters, incremented in place.
        self._busy, self._processed, self._nic = (
            self.stats.per_batch_counters()
        )
        self.transfer = TransferModel(cluster, interrack_uplink_mbps)
        self._placement_version = 0
        # Hot-path copies of immutable config knobs (attribute access on
        # a plain float beats dataclass field lookup per event).
        self._max_pending = self.config.max_spout_pending
        self._overflow = self.config.queue_overflow_batches
        self._serde_ms = self.config.serde_ms_per_tuple
        self._at_least_once = self.config.at_least_once
        self._max_retries = self.config.max_retries
        self._replay_backoff = self.config.replay_backoff_s
        self._arrival = self.config.arrival_process
        self._open_loop = self._arrival is not None
        #: the flow layer; None on the default path, where routes carry
        #: no ledger and disabled runs stay byte-identical.
        self._flow: Optional[FlowControl] = (
            None if self.config.flow is None else FlowControl(self.config.flow)
        )
        #: origin audit counters are maintained whenever either layer
        #: that resolves origins explicitly (at-least-once replay, flow
        #: shedding) is on — equal to ``_at_least_once`` when flow is off.
        self._track_origins = self._at_least_once or self._flow is not None
        if self._open_loop:
            # Open-loop spouts emit only what arrives; every closed-loop
            # credit/rate trigger (acks, sweeps, revivals) is a no-op.
            # A plain function, not a bound method: the slot must not
            # hold a reference back to the run.
            self._try_emit = _no_emit  # type: ignore[method-assign]
        #: open-loop only: every arrival as (source, time, tuples, key),
        #: frozen on demand into an ArrivalTrace (see arrival_trace()).
        self._arrival_log: List[Tuple[Tuple[str, str, int], float, int,
                                      Optional[int]]] = []
        self._nodes: Dict[str, _NodeRuntime] = {
            node.node_id: _NodeRuntime(node) for node in cluster.nodes
        }
        self._topologies: List[_TopologyRuntime] = []
        #: the task table: every task runtime at its ``index`` (None once
        #: a rescale removed it); whatever points back at a task holds
        #: its index
        self._tasks: List[Optional[_TaskRuntime]] = []
        self._task_runtimes: Dict[Task, _TaskRuntime] = {}
        for topology, assignment in placements:
            self._add_topology(topology, assignment)
        self._recompute_node_factors()
        self._started = False

    @property
    def observer(self) -> Optional[Callable[[TraceEvent], None]]:
        """Called with a TraceEvent at every traced transition (a
        :class:`~repro.simulation.tracing.Tracer`, a RecoveryMonitor);
        None traces nothing."""
        return self._observer

    @observer.setter
    def observer(self, observer: Optional[Callable[[TraceEvent], None]]) -> None:
        self._observer = observer
        self._batch_observer = observer if wants_batches(observer) else None

    # -- construction ------------------------------------------------------

    def _add_topology(self, topology: Topology, assignment: Assignment) -> None:
        targets = self._targets(assignment, topology, "assignment")
        topo_rt = _TopologyRuntime(topology, assignment)
        runtimes = self._spawn_tasks(topo_rt, topology.tasks, targets)
        topo_rt.spouts = [rt.index for rt in runtimes if rt.is_spout]
        if self._flow is not None:
            self._init_flow(topo_rt)
        self._wire_routes(topology)
        self._topologies.append(topo_rt)

    def _targets(
        self, assignment: Assignment, topology: Topology, what: str
    ) -> _Targets:
        """Each of ``topology``'s tasks' ``(slot, node)`` under
        ``assignment``.  The placement is checked (complete, on known
        nodes) before any task is touched, so a bad one leaves the run
        unchanged."""
        if not assignment.is_complete(topology):
            raise SchedulingError(
                f"{what} for {topology.topology_id!r} is incomplete: "
                f"missing {assignment.missing_tasks(topology)}"
            )
        targets: _Targets = {}
        for task in topology.tasks:
            slot = assignment.slot_of(task)
            node_rt = self._nodes.get(slot.node_id)
            if node_rt is None:
                raise SimulationError(
                    f"{what} places {task} on unknown node {slot.node_id!r}"
                )
            targets[task] = (slot, node_rt)
        return targets

    def _spawn_tasks(
        self, topo_rt: _TopologyRuntime, tasks: Sequence[Task], targets: _Targets
    ) -> List[_TaskRuntime]:
        """Bring up empty runtimes for ``tasks`` on their target slots."""
        runtimes = []
        table = self._tasks
        for task in tasks:
            slot, node_rt = targets[task]
            rt = _TaskRuntime(
                task, topo_rt.topology.component(task.component), topo_rt,
                slot, node_rt, len(table),
            )
            rt.alive = node_rt.up()
            table.append(rt)
            node_rt.tasks.append(rt.index)
            self._task_runtimes[task] = rt
            runtimes.append(rt)
        return runtimes

    def _wire_routes(self, topology: Topology) -> None:
        """(Re)wire every producer's routes against ``topology``'s
        consumer sets.  Each downstream component subscribed to a
        producer's stream receives a copy of it; the producer holds a
        fresh grouping instance per route so routing state is
        per-producer, as in Storm.  With flow on, every route of a
        producer component shares the edge's ledger."""
        runtimes = self._task_runtimes
        flow = self._flow
        producers = {} if flow is None else flow.producers[topology.topology_id]
        for task in topology.tasks:
            producer = runtimes[task]
            producer.out_routes = []
            ledgers = producers[task.component].out if producers else {}
            for consumer_name in topology.downstream_of(task.component):
                subscription = next(
                    sub
                    for sub in topology.component(consumer_name).subscriptions
                    if sub.source == task.component
                )
                consumers = [
                    runtimes[t] for t in topology.tasks_of(consumer_name)
                ]
                producer.out_routes.append(
                    _OutRoute(
                        subscription.grouping.fresh(),
                        consumers,
                        ledgers.get(consumer_name),
                    )
                )

    def _init_flow(self, topo_rt: _TopologyRuntime) -> None:
        """(Re)size a topology's credit edges to its live generation.

        Called at construction and after a :meth:`rescale` (pools follow
        consumer parallelism).  Ledgers are resized in place, so batches
        already queued or in flight keep theirs.  Every task takes its
        producer's pause state; an edge the new thresholds stall or
        resume goes through :meth:`_fc_stall` or :meth:`_fc_resume`.
        """
        flow = self._flow
        flipped = flow.size(topo_rt.topology, self._task_runtimes)
        for producer in flow.producers[topo_rt.topology_id].values():
            for rt in producer.tasks:
                rt.fc_paused = producer.stalled_edges > 0
        for ledger in flipped:
            if ledger.stalled:
                self._fc_stall(ledger)
            else:
                self._fc_resume(ledger)

    def _recompute_node_factors(self) -> None:
        """Thrash factors from current placements.

        A node thrashes when the resident memory of the tasks placed on it
        exceeds its physical capacity — the hard-constraint violation the
        default scheduler can commit and R-Storm never does.
        """
        table = self._tasks
        for node_rt in self._nodes.values():
            resident_mb = sum(
                table[i].component.resident_memory_mb for i in node_rt.tasks
            )
            capacity_mb = node_rt.node.capacity.memory_mb
            if capacity_mb > 0 and resident_mb > capacity_mb:
                node_rt.slowdown = self.config.thrash_factor
            else:
                node_rt.slowdown = 1.0

    # -- public control ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> SimulationReport:
        """Run the simulation and return its report.

        Args:
            until: Stop time (defaults to ``config.duration_s``).  May be
                called repeatedly with increasing times to step through a
                run (e.g. interleaved with failure injection).
        """
        horizon = self.config.duration_s if until is None else until
        if not self._started:
            self._started = True
            for topo_rt in self._topologies:
                if self._open_loop:
                    self._start_arrivals(topo_rt)
                for i in topo_rt.spouts:
                    self._try_emit(self._tasks[i])  # a no-op in open loop
                self._schedule_sweep(topo_rt)
        self.sim.run(horizon)
        return self.report()

    def report(self) -> SimulationReport:
        """Snapshot report at the current simulated time."""
        nodes_used = {
            topo_rt.topology_id: tuple(sorted(topo_rt.assignment.nodes))
            for topo_rt in self._topologies
        }
        node_cores = {
            node_id: rt.cores for node_id, rt in self._nodes.items()
        }
        return SimulationReport(
            config=self.config,
            stats=self.stats,
            duration_s=max(self.sim.now, 1e-9),
            topology_ids=[t.topology_id for t in self._topologies],
            nodes_used=nodes_used,
            node_cores=node_cores,
            events_processed=self.sim.events_processed,
        )

    def on_time(self, time: float, callback: Callable[..., None], *args) -> None:
        """Register an arbitrary callback at simulated ``time`` (failure
        injection, nimbus scheduling ticks, ...).  Extra ``args`` are
        forwarded to the callback at fire time, closure-free."""
        self.sim.schedule_at(time, callback, *args)

    def fail_node_at(self, time: float, node_id: str) -> None:
        """Inject a node failure at simulated ``time``."""
        self._node(node_id, "fail")
        self.on_time(time, self._fail_node, node_id)

    def recover_node_at(self, time: float, node_id: str) -> None:
        """Revive a failed node at simulated ``time`` (delayed rejoin)."""
        self._node(node_id, "recover")
        self.on_time(time, self._recover_node, node_id)

    def set_node_fault_factor(self, node_id: str, factor: float) -> None:
        """Degrade (or restore) a node's effective CPU speed.

        Service times on the node are multiplied by ``factor`` from now
        on; ``1.0`` restores full speed.  In-flight work keeps the service
        time it was dispatched with, as a real frequency change would.
        """
        if factor <= 0:
            raise SimulationError(f"fault factor must be positive, got {factor}")
        self._node(node_id, "degrade").fault_factor = factor

    def migrate(
        self, topology_id: str, new_assignment: Assignment,
        reason: str = "fault",
    ) -> int:
        """Rebind a topology's tasks to a new assignment immediately.

        Tasks whose slot is unchanged keep their queues; moved tasks carry
        their queued work to the new node.  Without the delivery layer
        (the default) that carry approximates the post-replay state
        without simulating the replay traffic; with ``at_least_once`` on,
        trees stranded by the move genuinely time out and replay.

        ``reason`` tags the move for churn attribution (``"fault"`` for
        Nimbus recovery reschedules, ``"elastic"`` for controller-driven
        rebalances); the runtime itself ignores it, but the ``migrate``
        event carries it so the RecoveryMonitor can split fault-driven
        from elastic-driven churn.

        Returns the number of tasks that changed slot — the reassignment
        churn the RecoveryMonitor reports per recovery.
        """
        topo_rt = self._topology_runtime(topology_id)
        topology = topo_rt.topology
        targets = self._targets(new_assignment, topology, "migration assignment")
        topo_rt.assignment = new_assignment
        moved = self._rebind(topo_rt, topology.tasks, targets)
        self._placement_version += 1
        self._recompute_node_factors()
        for i in topo_rt.spouts:
            spout = self._tasks[i]
            if spout.alive:
                self._try_emit(spout)
        if self.observer is not None:
            self.observer(TraceEvent(
                self.sim.now, EventKind.MIGRATE, topology_id, moved=moved,
                reason=reason,
            ))
        return moved

    def rescale(
        self,
        topology_id: str,
        new_topology: Topology,
        new_assignment: Assignment,
    ) -> Tuple[int, int, int]:
        """Swap in a rescaled topology (changed bolt parallelism) mid-run.

        ``new_topology`` must come from :meth:`Topology.with_parallelism`
        (or preserve task identity the same way): tasks present in both
        generations keep their ids, so their runtimes — queues, in-flight
        trees, acker state — survive.  Added tasks start empty; removed
        tasks lose their queued work exactly as a decommissioned worker
        would (in-flight trees routed through them time out, and with
        ``at_least_once`` on they replay — the delivery audit stays
        closed).

        Spout parallelism cannot change: arrival streams and pending-tree
        credit are bound to spout task identity, so the elastic layer
        scales bolts only.

        Returns ``(moved, added, removed)`` task counts.
        """
        topo_rt = self._topology_runtime(topology_id)
        if new_topology.topology_id != topology_id:
            raise SimulationError(
                f"rescale topology id mismatch: "
                f"{new_topology.topology_id!r} != {topology_id!r}"
            )
        targets = self._targets(new_assignment, new_topology, "rescale assignment")
        old_tasks = set(topo_rt.topology.tasks)
        new_tasks = set(new_topology.tasks)
        new_spouts = {
            t for t in new_tasks
            if new_topology.component(t.component).is_spout
        }
        table = self._tasks
        if {table[i].task for i in topo_rt.spouts} != new_spouts:
            raise SimulationError(
                f"rescale cannot change spout tasks of {topology_id!r}: "
                "arrival streams are bound to spout task identity"
            )
        topo_rt.topology = new_topology
        topo_rt.assignment = new_assignment
        removed = sorted(old_tasks - new_tasks)
        added = sorted(new_tasks - old_tasks)
        # Tear down removed tasks: their queued work dies with them.
        for task in removed:
            rt = self._task_runtimes.pop(task)
            self._teardown(rt)
            rt.out_routes = []
            rt.node.tasks.remove(rt.index)
            table[rt.index] = None
        moved = self._rebind(topo_rt, sorted(old_tasks & new_tasks), targets)
        # Bring up added tasks (empty queues, ready for routed work).
        self._spawn_tasks(topo_rt, added, targets)
        self._wire_routes(new_topology)
        topo_rt.spouts = [
            self._task_runtimes[t].index for t in sorted(new_spouts)
        ]
        self._placement_version += 1
        self._recompute_node_factors()
        if self._flow is not None:
            self._init_flow(topo_rt)
        for i in topo_rt.spouts:
            spout = table[i]
            if spout.alive:
                self._try_emit(spout)
        if self.observer is not None:
            self.observer(TraceEvent(
                self.sim.now, EventKind.RESCALE, topology_id, moved=moved,
                added=len(added), removed=len(removed),
            ))
        return moved, len(added), len(removed)

    def _rebind(
        self, topo_rt: _TopologyRuntime, tasks: Sequence[Task], targets: _Targets
    ) -> int:
        """Bind existing task runtimes to their topology's current
        generation of components and to their target slots.

        A task whose slot changed leaves its old node's task list and run
        queue and carries its queued work to the new node, where it is
        requeued and dispatched if that node is up.  A node that is down
        loses the work as :meth:`_fail_node` would (credits returned,
        replays exhausted), and the task waits for :meth:`_recover_node`.
        Returns how many tasks changed slot.
        """
        topology = topo_rt.topology
        moved = 0
        for task in tasks:
            rt = self._task_runtimes[task]
            rt.component = topology.component(task.component)
            rt.profile = rt.component.profile
            new_slot, new_node = targets[task]
            if new_slot == rt.slot:
                continue
            moved += 1
            rt.node.tasks.remove(rt.index)
            self._unqueue(rt)
            rt.slot = new_slot
            rt.node = new_node
            new_node.tasks.append(rt.index)
            if not new_node.up():
                self._teardown(rt)
                continue
            rt.alive = True
            if rt.work and not rt.running:
                rt.queued = True
                new_node.ready.append(rt.index)
                self._dispatch(new_node)
        return moved

    # -- load sampling (elastic control loop) ------------------------------

    def component_backlog(self, topology_id: str, component: str) -> int:
        """Input tuples queued (not yet serviced) across a component's
        tasks — the backlog signal the elastic controller samples."""
        topo_rt = self._topology_runtime(topology_id)
        return sum(
            payload[1]
            for task in topo_rt.topology.tasks_of(component)
            for _, payload in self._task_runtimes[task].work
        )

    def task_queue_depths(self, topology_id: str) -> Dict[Task, int]:
        """Queued work items per task (rebalance hot-spot signal)."""
        topo_rt = self._topology_runtime(topology_id)
        return {
            task: len(self._task_runtimes[task].work)
            for task in topo_rt.topology.tasks
        }

    def current_topology(self, topology_id: str) -> Topology:
        """The live (possibly rescaled) topology generation."""
        return self._topology_runtime(topology_id).topology

    # -- failure ------------------------------------------------------------------

    def _node(self, node_id: str, verb: str) -> _NodeRuntime:
        node_rt = self._nodes.get(node_id)
        if node_rt is None:
            raise SimulationError(f"cannot {verb} unknown node {node_id!r}")
        return node_rt

    def _fail_node(self, node_id: str) -> None:
        node_rt = self._node(node_id, "fail")
        if self.observer is not None:
            self.observer(
                TraceEvent(self.sim.now, EventKind.NODE_DOWN, node=node_id)
            )
        node_rt.node.fail()
        node_rt.failed = True
        table = self._tasks
        for i in node_rt.tasks:
            self._teardown(table[i])
        node_rt.ready.clear()

    def _recover_node(self, node_id: str) -> None:
        """The machine rejoins: its capacity becomes schedulable again and
        any tasks still bound to it restart (their queued work was lost at
        failure, exactly as a process restart loses its heap)."""
        node_rt = self._node(node_id, "recover")
        if self.observer is not None:
            self.observer(
                TraceEvent(self.sim.now, EventKind.NODE_UP, node=node_id)
            )
        node_rt.node.recover()
        node_rt.failed = False
        table = self._tasks
        for i in node_rt.tasks:
            rt = table[i]
            rt.alive = True
            if rt.is_spout:
                self._try_emit(rt)
            elif rt.work and not rt.queued and not rt.running:
                rt.queued = True
                node_rt.ready.append(i)
        self._dispatch(node_rt)

    # -- open-loop arrivals ----------------------------------------------------------

    def _start_arrivals(self, topo_rt: _TopologyRuntime) -> None:
        """Schedule each spout task's first arrival from its substream.

        Every spout task gets an independent RNG derived from
        ``arrival_seed`` and its identity, so arrival sequences survive
        placement changes, migrations and code paths that consume the
        global :mod:`random` state.
        """
        config = self.config
        keygen = config.arrival_keys
        topo_id = topo_rt.topology_id
        for i in topo_rt.spouts:
            spout = self._tasks[i]
            source = (topo_id, spout.component.name, spout.task.instance)
            rng = random.Random(
                derive_stream_seed(config.arrival_seed, *source)
            )
            stream = self._arrival.stream(
                rng, spout.profile.emit_batch_tuples, source=source
            )
            if keygen is not None:
                key_rng = random.Random(
                    derive_stream_seed(config.arrival_seed, "keys", *source)
                )
                stream = _assign_keys(stream, keygen.stream(key_rng))
            first = next(stream, None)
            if first is not None:
                time_s, tuples, key = first
                self.sim.schedule_at(
                    max(time_s, 0.0), self._arrive, spout, stream, source,
                    tuples, key,
                )

    def _arrive(
        self,
        spout: _TaskRuntime,
        stream: Iterator,
        source: Tuple[str, str, int],
        tuples: int,
        key: Optional[int],
    ) -> None:
        """One batch arrives at a spout task, ready or not.

        Offered load is recorded unconditionally — that is what "open
        loop" means — and arrivals hitting a dead spout (crashed worker,
        failed node) are counted as dropped rather than queued: a real
        source keeps sending while the process is down.
        """
        now = self.sim.now
        topo_id = spout.topo.topology_id
        self.stats.record_offered(topo_id, now, tuples)
        self._arrival_log.append((source, now, tuples, key))
        if spout.alive and spout.node.node.alive:
            flow = self._flow
            if flow is not None and flow.policy is not None and (
                flow.policy.should_shed(topo_id, len(spout.work))
            ):
                # Ingress shedding: the batch is refused at the spout's
                # bounded queue before it ever becomes a tuple tree —
                # audited, never emitted.
                self._shed(topo_id, spout.component.name, "ingress", tuples)
            else:
                self._push_work(spout, _EMIT, (now, tuples, key))
        else:
            self.stats.record_arrival_dropped(topo_id, tuples)
        nxt = next(stream, None)
        if nxt is not None:
            time_s, ntuples, nkey = nxt
            self.sim.schedule_at(
                time_s if time_s > now else now, self._arrive, spout,
                stream, source, ntuples, nkey,
            )

    def arrival_trace(self):
        """The run's recorded arrivals as a replayable
        :class:`~repro.traffic.trace.ArrivalTrace` (open loop only)."""
        from repro.traffic.trace import ArrivalTrace

        return ArrivalTrace.from_log(self._arrival_log)

    # -- spout emission --------------------------------------------------------------

    def _try_emit(self, spout: _TaskRuntime) -> None:
        # Open-loop runs rebind this to :func:`_no_emit` at construction, so
        # the closed-loop hot path (one call per ack) pays no branch.
        pending_cap = self._max_pending
        if (
            not spout.alive
            or not spout.node.node.alive
            or spout.emit_blocked
            or spout.fc_paused
            or (pending_cap is not None and spout.inflight >= pending_cap)
        ):
            return
        if (
            spout.profile.max_rate_tps is not None
            and self.sim.now < spout.next_emit_time
        ):
            if not spout.emit_timer_set:
                # One coalesced wake timer per throttled spout: repeated
                # credit returns (acks, timeouts) while the timer is set
                # schedule nothing.
                spout.emit_timer_set = True
                self.sim.schedule_at(
                    spout.next_emit_time, self._wake_spout, spout
                )
            return
        spout.emit_blocked = True
        self._push_work(
            spout, _EMIT, (None, spout.profile.emit_batch_tuples, None)
        )

    def _wake_spout(self, spout: _TaskRuntime) -> None:
        spout.emit_timer_set = False
        self._try_emit(spout)

    # -- work dispatch -----------------------------------------------------------------

    def _push_work(self, task: _TaskRuntime, kind: int, payload) -> None:
        work = task.work
        node_rt = task.node
        if (
            not work and not task.queued and not task.running
            and not task.fc_paused and task.alive and node_rt.node.alive
            and node_rt.active < node_rt.cores and not node_rt.ready
        ):
            # _dispatch would pop this task first: start it directly.
            return self._start_work(task, node_rt, kind, payload)
        work.append((kind, payload))
        overflow = self._overflow
        if overflow is not None and len(work) > overflow:
            self._crash_task(task)
            return
        if not task.queued and not task.running and not task.fc_paused:
            task.queued = True
            node_rt.ready.append(task.index)
            if node_rt.active < node_rt.cores:
                self._dispatch(node_rt)

    def _crash_task(self, task: _TaskRuntime) -> None:
        """The task's worker dies of queue overflow (heap exhaustion);
        its queue is lost and the supervisor restarts it after
        ``worker_restart_s``.  In-flight roots routed through it will
        time out, returning spout credit (or just counting as failed)."""
        if self.observer is not None:
            self.observer(TraceEvent(
                self.sim.now, EventKind.CRASH, task.topo.topology_id,
                task=task.task, reason="queue overflow",
            ))
        self._teardown(task)
        self.stats.record_crash(task.topo.topology_id, task.component.name)
        self.sim.schedule_after(
            self.config.worker_restart_s, self._revive_task, task
        )

    def _teardown(self, task: _TaskRuntime) -> None:
        """Kill a task's worker (node failure, queue-overflow crash,
        rescale removal): its queued work is lost and it leaves its
        node's run queue.

        One scan of the lost queue resolves each queued replay as
        exhausted and returns each queued batch's edge credit (without
        which the upstream edge would stall forever).  A spout queue
        holds only EMIT/REPLAY items and a bolt queue only PROCESS
        items, so the scan keeps the order of effects.  A spout killed
        mid-emit must not stay blocked forever: its in-flight emit
        completion will be discarded, so the flags are cleared now and
        revival can emit again.
        """
        task.alive = False
        for kind, payload in task.work:
            if kind == _REPLAY:
                self._abandon_replay(task.topo, payload[1])
            elif kind == _PROCESS:
                ledger = payload[3]
                # The lost batch returns its edge credit.
                if ledger is not None and ledger.drain():
                    self._fc_resume(ledger)
        task.work.clear()
        task.emit_blocked = False
        task.emit_timer_set = False
        self._unqueue(task)

    @staticmethod
    def _unqueue(task: _TaskRuntime) -> None:
        """Take a task off its node's run queue, if it is on it."""
        if task.queued:
            try:
                task.node.ready.remove(task.index)
            except ValueError:  # pragma: no cover - defensive
                pass
            task.queued = False

    def _revive_task(self, task: _TaskRuntime) -> None:
        if not task.node.up():
            return  # node died meanwhile; nimbus must reschedule
        task.alive = True
        if task.is_spout:
            self._try_emit(task)

    def _dispatch(self, node_rt: _NodeRuntime) -> None:
        node = node_rt.node  # liveness off the Node: no property call
        ready = node_rt.ready
        cores = node_rt.cores
        table = self._tasks
        while node.alive and node_rt.active < cores and ready:
            task = table[ready.popleft()]
            task.queued = False
            if not task.alive or not task.work or task.fc_paused:
                continue
            kind, payload = task.work.popleft()
            self._start_work(task, node_rt, kind, payload)

    def _start_work(
        self, task: _TaskRuntime, node_rt: _NodeRuntime, kind: int, payload
    ) -> None:
        """Start one work item on a free core of ``node_rt`` and push its
        completion straight onto the engine heap (payload as args)."""
        task.running = True
        node_rt.active += 1
        # A replay costs the spout the same CPU as the first emission.
        tuples = payload[1]
        per_tuple_ms = task.profile.cpu_ms_per_tuple
        if kind == _PROCESS:
            _, _, level, ledger = payload
            if ledger is not None and ledger.drain():
                # The batch left its bounded input queue and returned
                # the edge credit that resumes its upstream producer.
                self._fc_resume(ledger)
            if level is not _INTRA_PROCESS:
                # Tuples from another worker process arrive serialised
                # and must be decoded before user code runs.
                per_tuple_ms += self._serde_ms
        service = (
            tuples * per_tuple_ms / 1e3
            * node_rt.slowdown * node_rt.fault_factor
        )
        if service < _MIN_SERVICE_S:
            service = _MIN_SERVICE_S
        sim = self.sim
        heappush(sim.heap, (sim.now + service, next(sim.seq), self._complete,
                            (task, kind, payload, service, node_rt)))

    def _complete(
        self, task: _TaskRuntime, kind: int, payload, service: float,
        node_rt: _NodeRuntime,
    ) -> None:
        self._busy[node_rt.node_id] += service
        task.running = False
        node_rt.active -= 1
        if task.alive and node_rt.node.alive:
            if kind == _PROCESS:
                # Count, fan out or sink, then settle with the acker.
                root_id, tuples, _, _ = payload
                topo = task.topo
                self._processed[task.counter_key] += tuples
                children = 0
                if task.out_routes:
                    ratio = task.profile.output_ratio
                    if ratio > 0:
                        # At least one output tuple per processed batch.
                        children = self._route(
                            task, round(tuples * ratio) or 1, root_id, root_id
                        )
                else:
                    self.stats.record_sink(
                        topo.topology_id, task.component.name, self.sim.now,
                        tuples,
                    )
                # No entry: the root already timed out, or this is a
                # ghost batch (a wire duplicate riding ``_GHOST_ROOT``);
                # the acker discards late/duplicate tuples.
                entry = topo.pending.get(root_id)
                if entry is not None:
                    entry.remaining += children - 1
                    if entry.remaining <= 0:
                        self._ack(topo, root_id, entry)
            elif kind == _EMIT:
                self._finish_emit(task, payload)
            else:
                self._finish_replay(task, payload)
        elif kind == _REPLAY:
            # The spout (or its node) died while this replay was being
            # serviced: the retry state is gone with the worker, so the
            # origin resolves as explicitly exhausted, never silently.
            self._abandon_replay(task.topo, payload[1])
        if (
            task.alive and task.work and not task.queued
            and not task.running and not task.fc_paused
        ):
            task.queued = True
            task.node.ready.append(task.index)
            if task.node is not node_rt:
                # Only after a migration mid-flight; the common case (the
                # task completed on its own node) is covered by the
                # dispatch below.
                self._dispatch(task.node)
        if node_rt.ready:
            self._dispatch(node_rt)

    # -- emit / process effects --------------------------------------------------------

    def _finish_emit(self, spout: _TaskRuntime, payload) -> None:
        # Closed loop: the spout's own profile-sized batch, routed by its
        # root id.  Open loop: the batch the arrival process offered.
        arrived_at, tuples, key = payload
        topo = spout.topo
        now = self.sim.now
        if self._batch_observer is not None:
            self._batch_observer(TraceEvent(
                now, EventKind.EMIT, topo.topology_id, task=spout.task,
                tuples=tuples,
            ))
        root_id = next(topo.next_root)
        self.stats.record_emitted(topo.topology_id, tuples)
        deliveries = self._route(
            spout, tuples, root_id, root_id if key is None else key
        )
        if deliveries:
            topo.pending[root_id] = _PendingTree(
                deliveries, spout.index, now, tuples, 0, root_id, arrived_at
            )
            spout.inflight += 1
            if self._track_origins:
                topo.origins_created += 1
        else:
            # A spout with no subscribers is its own sink.
            self.stats.record_sink(
                topo.topology_id, spout.component.name, now, tuples
            )
            if arrived_at is not None:
                self.stats.record_e2e_latency(
                    topo.topology_id, now - arrived_at
                )
        spout.emit_blocked = False
        if arrived_at is None:
            # Closed loop only: the open loop's next emission is the next
            # arrival, so it has no credit/rate logic.
            if spout.profile.max_rate_tps is not None:
                interval = tuples / spout.profile.max_rate_tps
                spout.next_emit_time = max(
                    spout.next_emit_time + interval, now
                )
            self._try_emit(spout)

    def _ack(self, topo: _TopologyRuntime, root_id: int, entry) -> None:
        """A tree's last delivery was processed: the root is acked and
        its spout's credit returns."""
        del topo.pending[root_id]
        now = self.sim.now
        spout = self._tasks[entry.spout]
        spout.inflight -= 1
        latency = now - entry.emitted_at
        if self._batch_observer is not None:
            self._batch_observer(TraceEvent(
                now, EventKind.ACK, topo.topology_id, latency=latency
            ))
        self.stats.record_ack(topo.topology_id, latency)
        if entry.arrived_at is not None:
            # End-to-end latency: arrival at the spout to full ack,
            # including any time spent queued before emission.
            self.stats.record_e2e_latency(
                topo.topology_id, now - entry.arrived_at
            )
        if self._at_least_once:
            self.stats.record_acked_tuples(topo.topology_id, now, entry.tuples)
        self._try_emit(spout)

    # -- at-least-once replay ----------------------------------------------------------

    def _start_replay(
        self, spout: _TaskRuntime, tuples: int, attempt: int,
        origin_root: int, arrived_at: Optional[float] = None,
    ) -> None:
        """Backoff timer fired: queue the replay on its spout.

        Replays bypass the ``max_spout_pending`` gate (Storm's spout
        replays failed tuples ahead of new emissions) but still consume
        credit once re-emitted, so in-flight work stays bounded by
        cap + outstanding replays.
        """
        if not spout.alive or not spout.node.node.alive:
            # The spout's worker (and with it the retry buffer) is gone;
            # the origin is explicitly exhausted, not silently dropped.
            self._abandon_replay(spout.topo, tuples)
            return
        self._push_work(
            spout, _REPLAY, (attempt, tuples, origin_root, arrived_at)
        )

    def _finish_replay(self, spout: _TaskRuntime, payload) -> None:
        """Re-emit a failed tree under a *fresh* root id.

        A new id (from the same monotonic counter) keeps ``pending``
        insertion-ordered by emit time — the invariant the timeout
        sweep's early-exit scan depends on — and the ``replay`` event
        links it to ``origin_root`` causally.
        """
        attempt, tuples, origin_root, arrived_at = payload
        topo = spout.topo
        now = self.sim.now
        root_id = next(topo.next_root)
        self.stats.record_replayed(topo.topology_id, tuples)
        deliveries = self._route(spout, tuples, root_id, root_id)
        if deliveries:
            topo.replays_outstanding -= 1
            # A replayed tree keeps its original arrival anchor, so the
            # e2e latency of an eventually-acked origin spans its retries.
            topo.pending[root_id] = _PendingTree(
                deliveries, spout.index, now, tuples, attempt, origin_root,
                arrived_at,
            )
            spout.inflight += 1
        else:  # pragma: no cover - a spout with consumers always routes
            self._abandon_replay(topo, tuples)
        if self.observer is not None:
            self.observer(TraceEvent(
                now, EventKind.REPLAY, topo.topology_id, task=spout.task,
                tuples=tuples, root=root_id, origin=origin_root,
                attempt=attempt,
            ))

    def _abandon_replay(self, topo: _TopologyRuntime, tuples: int) -> None:
        """Resolve an outstanding replay that will never be acked (its
        spout died, or it routed nowhere): the origin is counted as
        exhausted so the at-least-once audit stays closed."""
        topo.replays_outstanding -= 1
        topo.origins_exhausted += 1
        self.stats.record_exhausted(topo.topology_id, tuples)

    def delivery_audit(self) -> Dict[str, Dict[str, int]]:
        """Per-topology at-least-once ledger (for tests/diagnostics).

        Invariant while ``at_least_once`` and/or flow control is on::

            origins_created == origins_acked + origins_exhausted
                               + origins_shed + pending
                               + replays_outstanding

        i.e. every root tuple ever admitted to the acker is acked,
        explicitly exhausted, deliberately shed, or still accounted for
        in flight — nothing is silently dropped.
        """
        audit: Dict[str, Dict[str, int]] = {}
        for topo_rt in self._topologies:
            topo_id = topo_rt.topology_id
            audit[topo_id] = {
                "origins_created": topo_rt.origins_created,
                "origins_acked": len(self.stats.ack_latencies(topo_id)),
                "origins_exhausted": topo_rt.origins_exhausted,
                "origins_shed": topo_rt.origins_shed,
                "pending": len(topo_rt.pending),
                "replays_outstanding": topo_rt.replays_outstanding,
                "spout_inflight": sum(
                    self._tasks[i].inflight for i in topo_rt.spouts
                ),
            }
        return audit

    # -- routing -----------------------------------------------------------------------

    def _refresh_route(self, producer: _TaskRuntime, route: _OutRoute) -> None:
        """Recompute a route's placement-derived caches (its wires and
        local consumer indices).  Only runs when the placement version
        moved — the distance matrix and the paths are fixed per
        placement."""
        slot_level = self.cluster.slot_distance_level
        transfer_model = self.transfer
        latency_s = transfer_model.latency_s
        producer_slot = producer.slot
        producer_node_id = producer_slot.node_id
        wires = []
        for consumer in route.consumers:
            level = slot_level(producer_slot, consumer.slot)
            path = None
            if level >= _INTER_NODE:
                path = transfer_model.path(
                    producer_node_id, consumer.slot.node_id, level
                )
            wires.append((consumer, level, path, latency_s[level]))
        route.wires = wires
        if route.is_local_or_shuffle:
            route.local_indices = [
                i
                for i, c in enumerate(route.consumers)
                if c.slot == producer_slot
            ]
        else:
            route.local_indices = None
        route.wires_version = self._placement_version

    def _route(
        self, producer: _TaskRuntime, tuples: int, root_id: int,
        route_key: int,
    ) -> int:
        # ``route_key`` feeds fields groupings: the root id in closed
        # loop (and for bolt fan-out), the arrival's key in open loop.
        # Deliveries are pushed straight onto the engine heap.  A batch
        # averages little more than one delivery, so only what every
        # delivery reads is hoisted.
        deliveries = 0
        sim = self.sim
        now = sim.now
        num_bytes = tuples * producer.profile.tuple_bytes
        producer_node_id = producer.slot.node_id
        transfer_model = self.transfer
        for route in producer.out_routes:
            if route.wires_version != self._placement_version:
                self._refresh_route(producer, route)
            wires = route.wires
            ledger = route.ledger
            for idx in route.grouping.route(
                len(wires), route_key, route.local_indices
            ):
                consumer, level, path, latency = wires[idx]
                if path is not None:
                    arrival = transfer_model.send(path, now, num_bytes)
                    self._nic[producer_node_id] += num_bytes
                else:
                    # In-memory hand-off: latency only, as in transfer().
                    arrival = now + latency
                deliveries += 1
                if transfer_model.lossy:
                    copies = transfer_model.copies(
                        producer_node_id, consumer.slot.node_id, level
                    )
                    if copies == 0:
                        # Lost on the trunk: the bandwidth was spent and
                        # the acker still expects this delivery (it was
                        # counted above), so the tree can only resolve by
                        # timing out — exactly Storm's failure mode.
                        self.stats.record_lost(
                            producer.topo.topology_id, tuples
                        )
                        continue
                    if copies == 2:
                        # Wire duplicate: a second, fully-costed transfer
                        # whose delivery rides the ghost root, so it is
                        # processed downstream but invisible to the acker
                        # (the at-least-once dedup) — it inflates raw
                        # sink throughput, not effective throughput.
                        dup_arrival = transfer_model.transfer(
                            now, producer_node_id, consumer.slot.node_id,
                            level, num_bytes,
                        )
                        if path is not None:
                            self._nic[producer_node_id] += num_bytes
                        self.stats.record_duplicate(
                            producer.topo.topology_id, tuples
                        )
                        # Ghost copies occupy real queue space too.
                        if ledger is not None and ledger.send():
                            self._fc_stall(ledger)
                        heappush(sim.heap, (
                            dup_arrival, next(sim.seq), self._deliver,
                            (consumer, _GHOST_ROOT, tuples, level, ledger),
                        ))
                if ledger is not None and ledger.send():
                    self._fc_stall(ledger)
                heappush(sim.heap, (arrival, next(sim.seq), self._deliver,
                                    (consumer, root_id, tuples, level, ledger)))
        return deliveries

    def _deliver(
        self,
        consumer: _TaskRuntime,
        root_id: int,
        tuples: int,
        level: DistanceLevel,
        ledger: Optional[CreditLedger],
    ) -> None:
        if self._batch_observer is not None:
            self._batch_observer(TraceEvent(
                self.sim.now, EventKind.DELIVER, consumer.topo.topology_id,
                task=consumer.task, tuples=tuples, root=root_id, level=level,
            ))
        node_rt = consumer.node
        if not consumer.alive or not node_rt.node.alive:
            # The batch consumed an edge credit when routed; a dead
            # consumer never drains it, so return it here.
            if ledger is not None and ledger.drain():
                self._fc_resume(ledger)
            return  # the root will time out and return spout credit
        flow = self._flow
        if flow is not None and flow.policy is not None and (
            flow.policy.should_shed(consumer.topo.topology_id, len(consumer.work))
        ):
            if ledger.drain():
                self._fc_resume(ledger)
            self._shed_delivery(consumer, root_id, tuples)
            return
        # _push_work's idle-core case inlined: the per-delivery hot path.
        payload = (root_id, tuples, level, ledger)
        if (
            consumer.work or consumer.queued or consumer.running
            or consumer.fc_paused or node_rt.active >= node_rt.cores
            or node_rt.ready
        ):
            self._push_work(consumer, _PROCESS, payload)
        else:
            self._start_work(consumer, node_rt, _PROCESS, payload)

    # -- flow control (all paths below only run when config.flow is set) ---

    def _fc_stall(self, ledger: CreditLedger) -> None:
        """An edge crossed its high watermark.  On its producer's first
        stalled out edge, every task of the producer pauses: paused
        bolts stop draining their input queues, so their upstream edges
        fill next, until the spouts stop emitting."""
        producer = self._flow.producers[ledger.topology_id][ledger.producer]
        self.stats.record_credit_stall(
            producer.topology_id, producer.name, ledger.consumer
        )
        producer.stalled_edges += 1
        if producer.stalled_edges > 1:
            return
        now = self.sim.now
        if self._batch_observer is not None:
            self._batch_observer(TraceEvent(
                now, EventKind.STALL, producer.topology_id,
                component=producer.name, peer=ledger.consumer,
            ))
        for rt in producer.tasks:
            rt.fc_paused = True
        producer.stalled_since = now

    def _fc_resume(self, ledger: CreditLedger) -> None:
        """An edge fell back to its low watermark.  Once no out edge of
        its producer is stalled, backpressure releases: the producer
        unpauses and its live tasks restart (spouts emit again, tasks
        with a backlog drain it)."""
        producer = self._flow.producers[ledger.topology_id][ledger.producer]
        producer.stalled_edges -= 1
        if producer.stalled_edges:
            return
        now = self.sim.now
        if self._batch_observer is not None:
            self._batch_observer(TraceEvent(
                now, EventKind.RESUME, producer.topology_id,
                component=producer.name, peer=ledger.consumer,
            ))
        for rt in producer.tasks:
            rt.fc_paused = False
        if producer.is_spout:
            self.stats.record_spout_throttle(
                producer.topology_id, now - producer.stalled_since
            )
        for rt in producer.tasks:
            if not rt.alive or not rt.node.node.alive:
                continue
            if rt.is_spout:
                self._try_emit(rt)
            if rt.work and not rt.queued and not rt.running:
                rt.queued = True
                rt.node.ready.append(rt.index)
                self._dispatch(rt.node)

    def _shed_delivery(
        self, consumer: _TaskRuntime, root_id: int, tuples: int
    ) -> None:
        """The shedding policy refused a batch at a full bolt queue.

        The whole tuple tree resolves as *shed* (popped from the acker,
        spout credit returned, ``origins_shed`` incremented) — a
        deliberate, audited drop, never a silent one.  Shed trees are
        not replayed even under at-least-once: shedding is the load
        regulator, replaying their tuples would defeat it.  Ghost and
        late batches (tree already resolved) count in the shed totals
        only.
        """
        topo = consumer.topo
        entry = None
        if root_id != _GHOST_ROOT:
            entry = topo.pending.pop(root_id, None)
        shed_tuples = entry.tuples if entry is not None else tuples
        self._shed(
            topo.topology_id, consumer.component.name, "queue", shed_tuples
        )
        if entry is not None:
            topo.origins_shed += 1
            spout = self._tasks[entry.spout]
            spout.inflight -= 1
            if spout.alive:
                self._try_emit(spout)

    def _shed(
        self, topology_id: str, component: str, stage: str, tuples: int
    ) -> None:
        """Record one audited shed decision: the ``shed`` trace event
        and the StatisticServer's exact shed counters."""
        now = self.sim.now
        if self._batch_observer is not None:
            self._batch_observer(TraceEvent(
                now, EventKind.SHED, topology_id, component=component,
                tuples=tuples, reason=stage,
            ))
        self.stats.record_shed(topology_id, component, stage, now, tuples)

    def flow_edges(self, topology_id: str) -> Dict[Tuple[str, str], CreditLedger]:
        """Per-edge credit ledgers (tests/diagnostics; flow on only)."""
        self._topology_runtime(topology_id)
        if self._flow is None:
            raise SimulationError(
                f"flow control is not enabled for {topology_id!r}"
            )
        return {
            (producer.name, consumer): ledger
            for producer in self._flow.producers[topology_id].values()
            for consumer, ledger in producer.out.items()
        }

    # -- ack timeout sweep -------------------------------------------------------------

    def _schedule_sweep(self, topo_rt: _TopologyRuntime) -> None:
        """One coalesced timeout timer per topology (period = a quarter
        of the batch timeout) instead of a timer per pending root."""
        period = self.config.batch_timeout_s / 4.0
        self.sim.schedule_after(period, self._sweep, topo_rt, period)

    def _sweep(self, topo_rt: _TopologyRuntime, period: float) -> None:
        cutoff = self.sim.now - self.config.batch_timeout_s
        # ``pending`` is insertion-ordered by emit time (roots are created
        # at monotonically non-decreasing simulated times), so the expiry
        # scan stops at the first live root instead of walking every
        # in-flight batch each period.
        expired = []
        for root, entry in topo_rt.pending.items():
            if entry.emitted_at <= cutoff:
                expired.append(root)
            else:
                break
        at_least_once = self._at_least_once
        table = self._tasks
        for root in expired:
            entry = topo_rt.pending.pop(root)
            spout = table[entry.spout]
            spout.inflight -= 1
            if self._batch_observer is not None:
                self._batch_observer(TraceEvent(
                    self.sim.now, EventKind.FAIL, topo_rt.topology_id,
                    tuples=entry.tuples,
                ))
            self.stats.record_failed(topo_rt.topology_id, entry.tuples)
            if at_least_once and entry.attempt < self._max_retries:
                # Exponential backoff before the spout re-emits; the
                # replay is accounted as outstanding from this moment so
                # the audit never loses sight of the origin.
                topo_rt.replays_outstanding += 1
                self.sim.schedule_after(
                    self._replay_backoff * (2.0 ** entry.attempt),
                    self._start_replay, spout, entry.tuples,
                    entry.attempt + 1, entry.origin_root, entry.arrived_at,
                )
            elif self._track_origins:
                # Retries spent, or flow control without at-least-once:
                # the tree is given up on for good, so the origin audit
                # resolves it as exhausted (never silently lost).
                topo_rt.origins_exhausted += 1
                self.stats.record_exhausted(
                    topo_rt.topology_id, entry.tuples
                )
            if spout.alive:
                self._try_emit(spout)
        self.sim.schedule_after(period, self._sweep, topo_rt, period)

    # -- helpers -----------------------------------------------------------------------

    def _topology_runtime(self, topology_id: str) -> _TopologyRuntime:
        for topo_rt in self._topologies:
            if topo_rt.topology_id == topology_id:
                return topo_rt
        raise SimulationError(f"no topology {topology_id!r} in this run")
