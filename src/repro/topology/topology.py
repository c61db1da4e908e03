"""The validated topology DAG and its task expansion.

A :class:`Topology` is an immutable, validated view of the components a
:class:`~repro.topology.builder.TopologyBuilder` declared: the component
graph, its expansion into tasks, adjacency queries used by the BFS task
ordering (Algorithm 2/3), and aggregate resource demands used by the
scheduler.

Note Storm topologies are *not* required to be acyclic — the paper calls
out that R-Storm, unlike Aniello et al.'s offline scheduler, handles
cyclic topologies.  Validation therefore checks reachability and
subscription integrity, not acyclicity.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Tuple

from repro.cluster.resources import ResourceVector
from repro.errors import TopologyValidationError
from repro.topology.component import Bolt, Component, Spout, StreamSubscription
from repro.topology.task import Task

__all__ = ["Topology"]


class Topology:
    """An immutable Storm topology: components, streams, and tasks.

    Build via :class:`~repro.topology.builder.TopologyBuilder`.
    """

    def __init__(
        self,
        topology_id: str,
        components: Mapping[str, Component],
        task_ids: Optional[Mapping[Tuple[str, int], int]] = None,
    ):
        if not topology_id:
            raise TopologyValidationError("topology id must be non-empty")
        self.topology_id = topology_id
        self._components: Dict[str, Component] = dict(components)
        self._validate()
        self._tasks: Tuple[Task, ...] = self._expand_tasks(task_ids)
        self._tasks_by_component: Dict[str, Tuple[Task, ...]] = {}
        for task in self._tasks:
            self._tasks_by_component.setdefault(task.component, ())
        for name in self._components:
            self._tasks_by_component[name] = tuple(
                t for t in self._tasks if t.component == name
            )
        self._downstream: Dict[str, Tuple[str, ...]] = self._build_downstream()

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        if not self._components:
            raise TopologyValidationError(
                f"topology {self.topology_id!r} has no components"
            )
        spouts = [c for c in self._components.values() if c.is_spout]
        if not spouts:
            raise TopologyValidationError(
                f"topology {self.topology_id!r} has no spouts"
            )
        for comp in self._components.values():
            if comp.is_spout and comp.subscriptions:
                raise TopologyValidationError(
                    f"spout {comp.name!r} cannot subscribe to streams"
                )
            if comp.is_bolt and not comp.subscriptions:
                raise TopologyValidationError(
                    f"bolt {comp.name!r} subscribes to no stream"
                )
            for sub in comp.subscriptions:
                if sub.source not in self._components:
                    raise TopologyValidationError(
                        f"component {comp.name!r} subscribes to unknown "
                        f"source {sub.source!r}"
                    )
                if sub.source == comp.name:
                    raise TopologyValidationError(
                        f"component {comp.name!r} subscribes to itself"
                    )
        unreachable = set(self._components) - set(self._reachable())
        if unreachable:
            raise TopologyValidationError(
                f"components unreachable from any spout: {sorted(unreachable)}"
            )

    def _reachable(self) -> List[str]:
        seen: List[str] = []
        seen_set = set()
        queue = deque(
            sorted(c.name for c in self._components.values() if c.is_spout)
        )
        downstream: Dict[str, List[str]] = {name: [] for name in self._components}
        for comp in self._components.values():
            for sub in comp.subscriptions:
                downstream[sub.source].append(comp.name)
        while queue:
            name = queue.popleft()
            if name in seen_set:
                continue
            seen_set.add(name)
            seen.append(name)
            for nxt in sorted(downstream[name]):
                if nxt not in seen_set:
                    queue.append(nxt)
        return seen

    # -- task expansion ------------------------------------------------------

    def _expand_tasks(
        self, task_ids: Optional[Mapping[Tuple[str, int], int]] = None
    ) -> Tuple[Task, ...]:
        tasks: List[Task] = []
        next_id = 1  # Storm task ids start at 1
        seen_ids: Dict[int, Tuple[str, int]] = {}
        for name in sorted(self._components):
            comp = self._components[name]
            for instance in range(comp.parallelism):
                if task_ids is None:
                    task_id = next_id
                    next_id += 1
                else:
                    try:
                        task_id = task_ids[(name, instance)]
                    except KeyError:
                        raise TopologyValidationError(
                            f"task_ids missing entry for "
                            f"({name!r}, {instance})"
                        ) from None
                    if task_id in seen_ids:
                        raise TopologyValidationError(
                            f"task id {task_id} assigned to both "
                            f"{seen_ids[task_id]} and ({name!r}, {instance})"
                        )
                    seen_ids[task_id] = (name, instance)
                tasks.append(
                    Task(
                        topology_id=self.topology_id,
                        component=name,
                        instance=instance,
                        task_id=task_id,
                    )
                )
        return tuple(tasks)

    def with_parallelism(
        self, component_name: str, parallelism: int
    ) -> "Topology":
        """A rescaled copy with ``component_name`` at ``parallelism``.

        The elastic controller's task-identity contract: tasks that
        survive the rescale — every ``(component, instance)`` pair present
        in both topologies — keep their task ids, so live assignments,
        node reservation labels, and in-flight tuple trees remain valid.
        Added instances get fresh ids past the current maximum (Storm
        never reuses task ids within a topology generation either).

        Components are cloned, never mutated: the original topology is
        untouched, so cached schedules keyed on it stay correct.
        """
        current = self.component(component_name)
        if parallelism < 1:
            raise TopologyValidationError(
                f"component {component_name!r}: parallelism must be >= 1, "
                f"got {parallelism}"
            )
        if parallelism == current.parallelism:
            return self
        new_components = {
            name: comp.clone(
                parallelism if name == component_name else None
            )
            for name, comp in self._components.items()
        }
        task_ids = {
            (t.component, t.instance): t.task_id
            for t in self._tasks
            if t.component != component_name or t.instance < parallelism
        }
        next_id = max(t.task_id for t in self._tasks) + 1
        for instance in range(current.parallelism, parallelism):
            task_ids[(component_name, instance)] = next_id
            next_id += 1
        return Topology(self.topology_id, new_components, task_ids=task_ids)

    def _build_downstream(self) -> Dict[str, Tuple[str, ...]]:
        downstream: Dict[str, List[str]] = {name: [] for name in self._components}
        for comp in sorted(self._components):
            for sub in self._components[comp].subscriptions:
                downstream[sub.source].append(comp)
        return {name: tuple(sorted(targets)) for name, targets in downstream.items()}

    # -- component access ------------------------------------------------------

    @property
    def components(self) -> Dict[str, Component]:
        return dict(self._components)

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise TopologyValidationError(
                f"no component {name!r} in topology {self.topology_id!r}"
            ) from None

    @property
    def spouts(self) -> List[Spout]:
        return [c for c in self._components.values() if c.is_spout]

    @property
    def bolts(self) -> List[Bolt]:
        return [c for c in self._components.values() if c.is_bolt]

    @property
    def sinks(self) -> List[Component]:
        """Components with no downstream subscribers — the "output bolts"
        whose rates define topology throughput in the paper's evaluation."""
        return [
            self._components[name]
            for name in sorted(self._components)
            if not self._downstream[name]
        ]

    def downstream_of(self, name: str) -> Tuple[str, ...]:
        """Component names subscribing to ``name``'s stream."""
        self.component(name)
        return self._downstream[name]

    def upstream_of(self, name: str) -> Tuple[str, ...]:
        """Component names whose streams ``name`` subscribes to."""
        comp = self.component(name)
        return tuple(sub.source for sub in comp.subscriptions)

    def neighbours_of(self, name: str) -> Tuple[str, ...]:
        """Undirected adjacency — Algorithm 2's ``com.neighbor`` walks
        both stream directions so siblings behind a join are still
        visited."""
        adjacent = set(self.downstream_of(name)) | set(self.upstream_of(name))
        return tuple(sorted(adjacent))

    def edges(self) -> List[Tuple[str, str, StreamSubscription]]:
        """All (source, target, subscription) stream edges."""
        out = []
        for comp in sorted(self._components):
            for sub in self._components[comp].subscriptions:
                out.append((sub.source, comp, sub))
        return out

    # -- task access -------------------------------------------------------

    @property
    def tasks(self) -> Tuple[Task, ...]:
        """Every task, in sorted order (by component name, then
        instance), as :meth:`Assignment.is_complete
        <repro.scheduler.assignment.Assignment.is_complete>` relies on."""
        return self._tasks

    def tasks_of(self, component: str) -> Tuple[Task, ...]:
        self.component(component)
        return self._tasks_by_component[component]

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    # -- resources ------------------------------------------------------------

    def task_demand(self, task: Task) -> ResourceVector:
        """Declared per-task resource demand (the scheduler's input)."""
        return self.component(task.component).resource_demand()

    def total_demand(self) -> ResourceVector:
        """Sum of declared demand over all tasks."""
        total = ResourceVector.of()
        for task in self._tasks:
            total = total + self.task_demand(task)
        return total

    def __repr__(self) -> str:
        return (
            f"Topology({self.topology_id!r}, components={len(self._components)}, "
            f"tasks={len(self._tasks)})"
        )
