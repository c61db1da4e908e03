"""Schedule assignments.

An :class:`Assignment` is the output of a scheduler for one topology: a
complete mapping from every task to a worker slot.  Assignments are
immutable value objects; the mutable bookkeeping used *while* scheduling
lives in :class:`~repro.scheduler.global_state.GlobalState`.

Most lookups are ``slot_of``/``tasks``; the per-slot and per-node
indexes serve quality metrics, the elastic controller and the liveness
check of :meth:`Assignment.restricted_to_nodes`.  They are therefore
built lazily on first use, once per object; construction only
validates ownership and copies the mapping.

Because an assignment never changes, a scheduling round may hand back
the very object it was given for a topology it did not touch:
:meth:`Assignment.restricted_to_nodes` returns ``self`` when every node
it uses survives, and
:meth:`GlobalState.assignment_for
<repro.scheduler.global_state.GlobalState.assignment_for>` returns the
assignment a topology's state was rebuilt from until a placement
changes.  Reusing the object shares no mutable state between rounds.
The mapping's iteration order (:meth:`Assignment.as_dict`) is not part
of the value: equality, hashing and every index ignore it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cluster.node import WorkerSlot
from repro.errors import SchedulingError
from repro.topology.task import Task, task_sort_key
from repro.topology.topology import Topology

__all__ = ["Assignment"]


class Assignment:
    """An immutable task -> worker-slot mapping for one topology."""

    __slots__ = (
        "topology_id",
        "_slot_of",
        "_tasks_by_slot",
        "_tasks_by_node",
        "_sorted_tasks",
    )

    def __init__(self, topology_id: str, mapping: Mapping[Task, WorkerSlot]):
        self.topology_id = topology_id
        for task in mapping:
            if task.topology_id != topology_id:
                raise SchedulingError(
                    f"task {task} does not belong to topology {topology_id!r}"
                )
        self._slot_of: Dict[Task, WorkerSlot] = dict(mapping)
        self._tasks_by_slot: Optional[Dict[WorkerSlot, Tuple[Task, ...]]] = None
        self._tasks_by_node: Optional[Dict[str, Tuple[Task, ...]]] = None
        self._sorted_tasks: Optional[Tuple[Task, ...]] = None

    def _by_slot(self) -> Dict[WorkerSlot, Tuple[Task, ...]]:
        if self._tasks_by_slot is None:
            self._build_indexes()
        return self._tasks_by_slot  # type: ignore[return-value]

    def _by_node(self) -> Dict[str, Tuple[Task, ...]]:
        if self._tasks_by_node is None:
            self._build_indexes()
        return self._tasks_by_node  # type: ignore[return-value]

    def _build_indexes(self) -> None:
        # Grouping the sorted tasks leaves every group sorted.
        by_slot: Dict[WorkerSlot, List[Task]] = {}
        by_node: Dict[str, List[Task]] = {}
        slot_of = self._slot_of
        for task in self.tasks:
            slot = slot_of[task]
            by_slot.setdefault(slot, []).append(task)
            by_node.setdefault(slot.node_id, []).append(task)
        self._tasks_by_slot = {
            slot: tuple(tasks) for slot, tasks in by_slot.items()
        }
        self._tasks_by_node = {
            node_id: tuple(tasks) for node_id, tasks in by_node.items()
        }

    # -- queries -------------------------------------------------------------

    def slot_of(self, task: Task) -> WorkerSlot:
        try:
            return self._slot_of[task]
        except KeyError:
            raise SchedulingError(f"task {task} is not assigned") from None

    def node_of(self, task: Task) -> str:
        return self.slot_of(task).node_id

    def has(self, task: Task) -> bool:
        return task in self._slot_of

    @property
    def tasks(self) -> Tuple[Task, ...]:
        if self._sorted_tasks is None:
            self._sorted_tasks = tuple(sorted(self._slot_of, key=task_sort_key))
        return self._sorted_tasks

    @property
    def slots(self) -> Tuple[WorkerSlot, ...]:
        return tuple(sorted(self._by_slot()))

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._by_node()))

    def tasks_on_slot(self, slot: WorkerSlot) -> Tuple[Task, ...]:
        return self._by_slot().get(slot, ())

    def tasks_on_node(self, node_id: str) -> Tuple[Task, ...]:
        return self._by_node().get(node_id, ())

    def is_complete(self, topology: Topology) -> bool:
        """True if every task of ``topology`` is assigned.

        Both tuples are sorted and hold distinct tasks, so they are equal
        exactly when the assigned tasks are the topology's; comparing
        them hashes no task."""
        return self.tasks == topology.tasks

    def missing_tasks(self, topology: Topology) -> Tuple[Task, ...]:
        return tuple(sorted(set(topology.tasks) - set(self._slot_of)))

    def as_dict(self) -> Dict[Task, WorkerSlot]:
        return dict(self._slot_of)

    def restricted_to_nodes(self, node_ids: Iterable[str]) -> "Assignment":
        """The sub-assignment on the given nodes (used when reconciling
        after node failures: keep what survived, reschedule the rest).

        Returns ``self`` when every node this assignment uses is kept,
        checked against the cached per-node index without copying the
        mapping."""
        keep = (
            node_ids if isinstance(node_ids, (set, frozenset)) else set(node_ids)
        )
        by_node = self._by_node()
        if keep.issuperset(by_node):
            return self
        slot_of = self._slot_of
        surviving = tuple(t for t in self.tasks if slot_of[t].node_id in keep)
        restricted = Assignment(
            self.topology_id, {t: slot_of[t] for t in surviving}
        )
        # Filters of sorted tuples and of whole groups are the copy's own
        # sorted tasks and indexes: spare it the sort and the rebuild.
        restricted._sorted_tasks = surviving
        restricted._tasks_by_node = {
            node_id: tasks
            for node_id, tasks in by_node.items()
            if node_id in keep
        }
        restricted._tasks_by_slot = {
            slot: tasks
            for slot, tasks in self._by_slot().items()
            if slot.node_id in keep
        }
        return restricted

    def merged_with(self, other: "Assignment") -> "Assignment":
        """Union of two partial assignments for the same topology; the
        other assignment wins on conflicts."""
        if other.topology_id != self.topology_id:
            raise SchedulingError(
                "cannot merge assignments of different topologies"
            )
        merged = dict(self._slot_of)
        merged.update(other._slot_of)
        return Assignment(self.topology_id, merged)

    def __len__(self) -> int:
        return len(self._slot_of)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Assignment):
            return NotImplemented
        return (
            self.topology_id == other.topology_id
            and self._slot_of == other._slot_of
        )

    def __hash__(self) -> int:
        return hash((self.topology_id, frozenset(self._slot_of.items())))

    def __repr__(self) -> str:
        nodes = {slot.node_id for slot in self._slot_of.values()}
        return (
            f"Assignment({self.topology_id!r}, tasks={len(self._slot_of)}, "
            f"nodes={len(nodes)})"
        )
