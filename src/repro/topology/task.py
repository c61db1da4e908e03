"""Tasks — the scheduling unit.

A task is one parallel instance of a component (Section 2: "a Storm job
that is an instantiation of a Spout or Bolt").  In Apache Storm tasks are
grouped into executors (threads) which are grouped into worker processes;
this reproduction uses the common production configuration of one task
per executor, so the task is both the unit of parallelism and the unit of
scheduling, and worker processes (slots) remain the unit of placement
locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

__all__ = ["Task", "task_label", "task_sort_key"]


@dataclass(frozen=True)
class Task:
    """One parallel instance of a component.

    Attributes:
        task_id: Globally unique integer id within the topology (Storm
            numbers tasks across all components).
        topology_id: Owning topology's id.
        component: Component name this task instantiates.
        instance: Index of this task within its component
            (``0 .. parallelism-1``).
    """

    topology_id: str
    component: str
    instance: int
    task_id: int

    def __post_init__(self) -> None:
        # Tasks are dictionary keys throughout the scheduling data path
        # (placements, assignments, reservations) and are sorted every
        # round, so the field tuple is built once: it is the sort key
        # and the hash, and the reservation label every scheduling round
        # reads per placed task is computed once too.  Safe because
        # every field is immutable.
        key = (self.topology_id, self.component, self.instance, self.task_id)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(
            self, "_label", f"{self.topology_id}:{self.task_id}"
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    # Ordering by the field tuple, as ``dataclass(order=True)`` defines
    # it (another class gets NotImplemented, so Python raises
    # TypeError), but on the cached tuple instead of two built per
    # comparison.

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not Task:
            return NotImplemented
        return self._key < other._key  # type: ignore[attr-defined]

    def __le__(self, other: object) -> bool:
        if other.__class__ is not Task:
            return NotImplemented
        return self._key <= other._key  # type: ignore[attr-defined]

    def __gt__(self, other: object) -> bool:
        if other.__class__ is not Task:
            return NotImplemented
        return self._key > other._key  # type: ignore[attr-defined]

    def __ge__(self, other: object) -> bool:
        if other.__class__ is not Task:
            return NotImplemented
        return self._key >= other._key  # type: ignore[attr-defined]

    def __reduce__(self):
        # Rebuild from the four fields: the cached hash belongs to the
        # process that computed it (string hashing is salted per
        # process), so it must not travel inside a pickle.
        return (
            Task,
            (self.topology_id, self.component, self.instance, self.task_id),
        )

    def __str__(self) -> str:
        return f"{self.topology_id}/{self.component}[{self.instance}]"


def task_label(task: Task) -> str:
    """Stable label used for node resource reservations:
    ``"<topology_id>:<task_id>"``."""
    return task._label  # type: ignore[attr-defined]


#: ``sorted(tasks, key=task_sort_key)`` orders tasks as ``sorted(tasks)``
#: does, comparing the cached field tuples without a Python-level call
#: per comparison.
task_sort_key = attrgetter("_key")
