"""GlobalState — scheduling-time bookkeeping (paper Section 5.1).

Nimbus is stateless across scheduler invocations, so R-Storm rebuilds a
``GlobalState`` from the cluster and the currently-live assignments on
every scheduling round.  It tracks:

* where every task of every topology is placed,
* the resource reservations those placements imply on each node, and
* which worker slots are occupied by which topologies.

All mutation of node availability during scheduling goes through this
class, so a call that raises can be undone (:meth:`GlobalState.rollback`).

The rebuild is one pass over the live assignments, node by node
through each assignment's cached per-node and per-slot indexes.  Each
node is resolved once per round.  Every placement's reservation is
checked (and re-applied if missing) in its node's sorted task order,
which on that node is the order of ``assignment.tasks``: float
subtraction order decides a node's availability to the last bit.
Placements and slot users are recorded once per slot.

Nothing the rebuild computes outlives the round.  The one thing it
hands back is an input: :meth:`GlobalState.assignment_for` returns the
immutable :class:`Assignment` a topology was rebuilt from, as long as
the rebuild kept every one of its placements and no :meth:`place` has
touched the topology since — so an untouched topology comes out of a
round as the same object that went in, and
:meth:`GlobalState.is_complete` tells a scheduler that such a topology
has nothing to place without listing its tasks.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node, WorkerSlot
from repro.cluster.resources import ResourceVector
from repro.errors import InsufficientResourcesError, SchedulingError
from repro.scheduler.assignment import Assignment
from repro.scheduler.packed import PackedClusterState
from repro.topology.task import Task, task_label
from repro.topology.topology import Topology

__all__ = ["GlobalState"]


class GlobalState:
    """Mutable view of cluster placement state during scheduling."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        #: task -> slot for every placed task across all topologies
        self._placements: Dict[Task, WorkerSlot] = {}
        #: slot -> topology ids using it
        self._slot_users: Dict[WorkerSlot, Set[str]] = {}
        #: lazily-built flat-array resource view (see :attr:`packed`)
        self._packed: Optional[PackedClusterState] = None
        #: topology id -> the assignment it was rebuilt from, while that
        #: is still its exact placement (None once it is not)
        self._kept: Dict[str, Optional[Assignment]] = {}
        #: (task, node) of every reservation :meth:`place` made, in order
        self._reserved: List[Tuple[Task, Node]] = []

    @property
    def packed(self) -> PackedClusterState:
        """Flat per-dimension resource arrays over the alive nodes,
        built on first use and kept in sync by :meth:`place`.  Valid for
        the lifetime of this state object — i.e. one scheduling round
        (Nimbus rebuilds ``GlobalState`` every round, so liveness
        changes between rounds get a fresh view)."""
        if self._packed is None:
            self._packed = PackedClusterState(self.cluster)
        return self._packed

    # -- construction ------------------------------------------------------

    @classmethod
    def from_assignments(
        cls,
        cluster: Cluster,
        topologies: Mapping[str, Topology],
        assignments: Mapping[str, Assignment],
    ) -> "GlobalState":
        """Rebuild state from live assignments (the stateless-Nimbus
        path).  Placements on dead nodes are dropped — those tasks are the
        ones a new scheduling round must place again.  Surviving
        placements of a known topology have their resource reservations
        re-applied where a node lacks them."""
        state = cls(cluster)
        placements = state._placements
        slot_users = state._slot_users
        kept = state._kept
        # node id -> the node if it exists and is alive, else None;
        # filled on first use, so a fresh round resolves no node
        resolved: Dict[str, Optional[Node]] = {}
        for topo_id, assignment in assignments.items():
            topology = topologies.get(topo_id)
            # component -> declared demand, derived once per topology
            demand_of: Dict[str, ResourceVector] = {}
            whole = True
            # Each node's tasks come sorted, so its reservations are
            # re-applied in the order a walk over ``assignment.tasks``
            # would apply them; other nodes' reservations do not mix in.
            for node_id, tasks in assignment._by_node().items():
                try:
                    node = resolved[node_id]
                except KeyError:
                    node = (
                        cluster.node(node_id)
                        if cluster.has_node(node_id)
                        else None
                    )
                    if node is not None and not node.alive:
                        node = None
                    resolved[node_id] = node
                if node is None:
                    whole = False
                    continue
                if topology is None:
                    continue
                for task in tasks:
                    label = task_label(task)
                    if node.has_reservation(label):
                        continue
                    demand = demand_of.get(task.component)
                    if demand is None:
                        demand = topology.task_demand(task)
                        demand_of[task.component] = demand
                    try:
                        node.reserve(label, demand)
                    except InsufficientResourcesError:
                        # A previously valid placement can exceed hard
                        # budgets after capacity loss; keep the placement
                        # on the books without a reservation so the
                        # operator sees the over-commit in reports.
                        pass
            topology_id = assignment.topology_id
            for slot, tasks in assignment._by_slot().items():
                if resolved[slot.node_id] is not None:
                    placements.update(zip(tasks, repeat(slot)))
                    slot_users.setdefault(slot, set()).add(topology_id)
            # Reusable only if this is the topology's one assignment and
            # every placement survived.
            kept[topology_id] = (
                assignment if whole and topology_id not in kept else None
            )
        return state

    # -- queries -------------------------------------------------------------

    def is_placed(self, task: Task) -> bool:
        return task in self._placements

    def placed_tasks(self, topology_id: Optional[str] = None) -> List[Task]:
        if topology_id is None:
            return sorted(self._placements)
        return sorted(
            t for t in self._placements if t.topology_id == topology_id
        )

    def is_complete(self, topology: Topology) -> bool:
        """True if ``topology`` was rebuilt whole from one assignment
        holding every one of its tasks, and is untouched since: a round
        then has nothing to place for it."""
        kept = self._kept.get(topology.topology_id)
        return kept is not None and kept.is_complete(topology)

    def node_loads(self, topology_id: str) -> Dict[str, int]:
        """Node id -> number of ``topology_id``'s placed tasks on it."""
        loads: Dict[str, int] = {}
        for task, slot in self._placements.items():
            if task.topology_id == topology_id:
                node_id = slot.node_id
                loads[node_id] = loads.get(node_id, 0) + 1
        return loads

    def node_of(self, task: Task) -> Optional[str]:
        slot = self._placements.get(task)
        return slot.node_id if slot else None

    def assignment_for(self, topology_id: str) -> Assignment:
        """Freeze the current placements of one topology: the assignment
        it was rebuilt from while the rebuild kept all of it and no
        placement has changed since, else a new one."""
        kept = self._kept.get(topology_id)
        if kept is not None:
            return kept
        return Assignment(
            topology_id,
            {
                t: s
                for t, s in self._placements.items()
                if t.topology_id == topology_id
            },
        )

    # -- slot selection ------------------------------------------------------

    def slot_for_topology_on_node(self, topology_id: str, node: Node) -> WorkerSlot:
        """Pick the worker slot a topology should use on ``node``.

        R-Storm packs all of a topology's tasks on a node into a single
        worker process (intra-process communication is the fastest level);
        this mirrors Apache Storm's Resource-Aware Scheduler, which
        collapses a topology's executors on a node into one worker.
        Preference order: the slot this topology already uses on the node,
        then a completely free slot, then the slot shared with the fewest
        other topologies.
        """
        for slot in node.slots:
            if topology_id in self._slot_users.get(slot, set()):
                return slot
        for slot in node.slots:
            if not self._slot_users.get(slot):
                return slot
        return min(node.slots, key=lambda s: (len(self._slot_users.get(s, set())), s))

    # -- mutation ------------------------------------------------------------

    def place(
        self,
        task: Task,
        slot: WorkerSlot,
        demand=None,
    ) -> None:
        """Place ``task`` on ``slot``, reserving ``demand`` on the node if
        given.

        Raises:
            SchedulingError: if the task is already placed.
            InsufficientResourcesError: if the reservation violates a hard
                constraint (the placement is not recorded in that case).
        """
        if task in self._placements:
            raise SchedulingError(f"task {task} is already placed")
        node = self.cluster.node(slot.node_id)
        if demand is not None:
            node.reserve(task_label(task), demand)
            self._reserved.append((task, node))
            if self._packed is not None:
                self._packed.refresh_node(node)
        self._placements[task] = slot
        self._kept.pop(task.topology_id, None)
        self._slot_users.setdefault(slot, set()).add(task.topology_id)

    def rollback(self, first: str) -> None:
        """Undo a scheduling call that raised, one release per placement:
        release each reservation :meth:`place` made that is still held,
        topology ``first`` (the failed one) first, then the rest, each in
        placement order (a stable sort).  The state is spent afterwards."""
        reserved = sorted(self._reserved, key=lambda e: e[0].topology_id != first)
        for task, node in reserved:
            if node.has_reservation(task_label(task)):
                node.release(task_label(task))

    def __repr__(self) -> str:
        return (
            f"GlobalState(placements={len(self._placements)}, "
            f"slots={len(self._slot_users)})"
        )
