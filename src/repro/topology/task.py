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

__all__ = ["Task", "task_label"]


@dataclass(frozen=True, order=True)
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
        # (placements, assignments, reservations); hashing the field
        # tuple on every lookup dominated profile time, so the hash is
        # computed once, and so is the reservation label every
        # scheduling round reads per placed task.  Safe because every
        # field is immutable.
        object.__setattr__(
            self,
            "_hash",
            hash((self.topology_id, self.component, self.instance, self.task_id)),
        )
        object.__setattr__(
            self, "_label", f"{self.topology_id}:{self.task_id}"
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

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
