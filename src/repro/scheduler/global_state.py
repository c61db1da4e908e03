"""GlobalState — scheduling-time bookkeeping (paper Section 5.1).

Nimbus is stateless across scheduler invocations, so R-Storm rebuilds a
``GlobalState`` from the cluster and the currently-live assignments on
every scheduling round.  It tracks:

* where every task of every topology is placed,
* the resource reservations those placements imply on each node, and
* which worker slots are occupied by which topologies.

All mutation of node availability during scheduling goes through this
class so a scheduling round can be reconciled or replayed atomically.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

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

    @property
    def packed(self) -> PackedClusterState:
        """Flat per-dimension resource arrays over the alive nodes,
        built on first use and kept in sync by :meth:`place` /
        :meth:`unplace`.  Valid for the lifetime of this state object —
        i.e. one scheduling round (Nimbus rebuilds ``GlobalState`` every
        round, so liveness changes between rounds get a fresh view)."""
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
        reserve: bool = True,
    ) -> "GlobalState":
        """Rebuild state from live assignments (the stateless-Nimbus
        path).  Placements on dead nodes are dropped — those tasks are the
        ones a new scheduling round must place again.

        Args:
            reserve: also re-apply resource reservations for the existing
                placements (True for resource-aware scheduling rounds).
        """
        state = cls(cluster)
        for topo_id, assignment in assignments.items():
            topology = topologies.get(topo_id)
            # component -> declared demand, derived once per topology
            demand_of: Dict[str, ResourceVector] = {}
            for task in assignment.tasks:
                slot = assignment.slot_of(task)
                if not cluster.has_node(slot.node_id):
                    continue
                node = cluster.node(slot.node_id)
                if not node.alive:
                    continue
                demand = None
                if topology:
                    demand = demand_of.get(task.component)
                    if demand is None:
                        demand = topology.task_demand(task)
                        demand_of[task.component] = demand
                already_reserved = node.has_reservation(task_label(task))
                if reserve and demand is not None and not already_reserved:
                    try:
                        node.reserve(task_label(task), demand)
                    except InsufficientResourcesError:
                        # A previously valid placement can exceed hard
                        # budgets after capacity loss; keep the placement
                        # on the books without a reservation so the
                        # operator sees the over-commit in reports.
                        pass
                state._placements[task] = slot
                state._slot_users.setdefault(slot, set()).add(task.topology_id)
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

    def node_of(self, task: Task) -> Optional[str]:
        slot = self._placements.get(task)
        return slot.node_id if slot else None

    def tasks_on_node(self, node_id: str) -> List[Task]:
        return sorted(
            t for t, s in self._placements.items() if s.node_id == node_id
        )

    def assignment_for(self, topology_id: str) -> Assignment:
        """Freeze the current placements of one topology."""
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
            if self._packed is not None:
                self._packed.refresh_node(node)
        self._placements[task] = slot
        self._slot_users.setdefault(slot, set()).add(task.topology_id)

    def unplace(self, task: Task) -> None:
        """Remove a task's placement and release its reservation (if any)."""
        slot = self._placements.pop(task, None)
        if slot is None:
            raise SchedulingError(f"task {task} is not placed")
        node = self.cluster.node(slot.node_id)
        if node.has_reservation(task_label(task)):
            node.release(task_label(task))
            if self._packed is not None:
                self._packed.refresh_node(node)
        remaining = any(
            t.topology_id == task.topology_id and s == slot
            for t, s in self._placements.items()
        )
        if not remaining:
            users = self._slot_users.get(slot)
            if users:
                users.discard(task.topology_id)
                if not users:
                    del self._slot_users[slot]

    def unplace_topology(self, topology_id: str) -> None:
        for task in self.placed_tasks(topology_id):
            self.unplace(task)

    def __repr__(self) -> str:
        return (
            f"GlobalState(placements={len(self._placements)}, "
            f"slots={len(self._slot_users)})"
        )
